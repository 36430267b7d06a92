import pytest
from hypothesis import given
from hypothesis import strategies as st

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    Aleph,
    CardinalAtom,
    LimitCard,
    SuccessorCard,
    UnclassifiedAtomError,
    aleph,
    card_compare,
    card_index_classify,
    cofinality,
    is_regular,
    lambda_r,
    lambda_star,
    successor,
)
from alephcalc.ordinals import OMEGA, ORD_ONE, ORD_ZERO, Ordering, cnf_add, from_int

from conftest import alephs, cardinals

A_W = aleph(OMEGA)
A_W1 = aleph(cnf_add(OMEGA, ORD_ONE))
A_OMEGA1 = Aleph(ALEPH1)  # aleph indexed by the initial ordinal omega_1
THETA = CardinalAtom("theta", weakly_inaccessible=True)
# Atoms with either flag: a plain atom and an inaccessible may share a name.
ANY_ATOMS = st.builds(CardinalAtom, st.sampled_from(("theta", "kappa")), st.booleans())


class TestCompare:
    def test_spec_examples(self):
        assert card_compare(ALEPH0, ALEPH0) is Ordering.EQUAL
        assert card_compare(A_W1, A_OMEGA1) is Ordering.LESS
        assert card_compare(Aleph(ALEPH1, OMEGA), Aleph(ALEPH1, ORD_ONE)) is Ordering.GREATER

    def test_atoms_sit_on_top(self):
        assert card_compare(THETA, A_OMEGA1) is Ordering.GREATER
        assert card_compare(aleph(5), THETA) is Ordering.LESS
        kappa = CardinalAtom("kappa", weakly_inaccessible=True)
        assert card_compare(kappa, THETA) is Ordering.LESS  # by name

    @given(cardinals(with_atoms=True), cardinals(with_atoms=True))
    def test_antisymmetric(self, a, b):
        ab = card_compare(a, b)
        ba = card_compare(b, a)
        assert ab.value == -ba.value
        assert (ab is Ordering.EQUAL) == (a == b)

    @given(
        st.one_of(ANY_ATOMS, cardinals()),
        st.one_of(ANY_ATOMS, cardinals()),
    )
    def test_order_agrees_with_equality_for_every_atom(self, a, b):
        ab = card_compare(a, b)
        assert ab.value == -card_compare(b, a).value
        assert (ab is Ordering.EQUAL) == (a == b)
        if a == b:
            assert hash(a) == hash(b)

    @given(cardinals(with_atoms=True), cardinals(with_atoms=True), cardinals(with_atoms=True))
    def test_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(alephs(), alephs())
    def test_normal_form_uniqueness(self, a, b):
        # structurally distinct well-formed alephs denote distinct cardinals
        if a != b:
            assert card_compare(a, b) is not Ordering.EQUAL


class TestClassify:
    def test_spec_examples(self):
        assert card_index_classify(ALEPH1) == SuccessorCard(ALEPH0)
        assert card_index_classify(A_W) == LimitCard()
        assert card_index_classify(Aleph(ALEPH1, ORD_ONE)) == SuccessorCard(A_OMEGA1)
        assert card_index_classify(ALEPH0) == LimitCard()

    def test_atoms(self):
        assert card_index_classify(THETA) == LimitCard()
        with pytest.raises(UnclassifiedAtomError, match="unclassified atom"):
            card_index_classify(CardinalAtom("m"))


class TestCofinality:
    def test_spec_examples(self):
        assert cofinality(ALEPH0) == ALEPH0
        assert cofinality(A_W) == ALEPH0
        assert cofinality(A_OMEGA1) == ALEPH1
        assert is_regular(cofinality(A_OMEGA1))

    def test_limit_tail_over_base(self):
        assert cofinality(Aleph(ALEPH1, OMEGA)) == ALEPH0
        assert not is_regular(Aleph(ALEPH1, OMEGA))

    def test_nested_base(self):
        # aleph indexed by the initial ordinal of aleph_{omega_1}
        nested = Aleph(A_OMEGA1)
        assert cofinality(nested) == ALEPH1

    def test_regularity(self):
        assert is_regular(ALEPH1)
        assert not is_regular(A_W)
        assert is_regular(THETA)
        with pytest.raises(UnclassifiedAtomError):
            cofinality(CardinalAtom("m"))

    @given(cardinals(with_atoms=True))
    def test_cofinality_is_regular_and_bounded(self, c):
        cf = cofinality(c)
        assert cofinality(cf) == cf
        assert cf <= c


class TestDerivedOperators:
    def test_lambda_r(self):
        assert lambda_r(ALEPH2) == ALEPH2
        assert lambda_r(A_W) == A_W1
        assert lambda_r(A_OMEGA1) == Aleph(ALEPH1, ORD_ONE)

    def test_lambda_star(self):
        assert lambda_star(ALEPH1) == ALEPH2
        assert lambda_star(A_W) == A_W
        assert lambda_star(ALEPH0) == ALEPH0
        with pytest.raises(ValueError):
            lambda_star(THETA)

    def test_successor(self):
        assert successor(ALEPH0) == ALEPH1
        assert successor(A_W) == A_W1
        assert successor(A_OMEGA1) == Aleph(ALEPH1, ORD_ONE)
        with pytest.raises(ValueError):
            successor(THETA)

    @given(alephs())
    def test_lambda_r_and_star_land_on_c_or_successor(self, c):
        assert lambda_r(c) in (c, successor(c))
        assert is_regular(lambda_r(c))
        assert lambda_star(c) in (c, successor(c))


class TestRepresentationInvariants:
    def test_base_must_be_uncountable(self):
        with pytest.raises(ValueError):
            Aleph(ALEPH0, ORD_ZERO)

    def test_base_must_not_be_atom(self):
        with pytest.raises(ValueError):
            Aleph(THETA, ORD_ZERO)

    def test_str_forms(self):
        assert str(aleph(cnf_add(OMEGA, from_int(1)))) == "aleph(w+1)"
        assert str(A_OMEGA1) == "aleph(aleph(1))"
        assert str(Aleph(ALEPH1, OMEGA)) == "aleph(aleph(1)+w)"
        assert str(THETA) == "inacc(theta)"
