import random

import pytest
from hypothesis import given

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    AtLeast,
    CardinalAtom,
    Determined,
    EMPTY_CONTEXT,
    ExplicitSet,
    Independent,
    SchAssumption,
    UnclassifiedAtomError,
    aleph,
    build_context,
    exp_lt,
    is_almost_mu_closed,
    is_mu_closed,
    is_regular,
    successor,
    triangle,
    two_lt,
)
from alephcalc.hypotheses import is_false, is_true
from alephcalc.ordinals import OMEGA, cnf_add, from_int

from conftest import alephs, random_cardinal
from oracles import gch_exp_lt, is_bad_successor
from test_soundness import CONTEXTS, context

A_W = aleph(OMEGA)
A_W1 = aleph(cnf_add(OMEGA, from_int(1)))
A_W2 = aleph(cnf_add(OMEGA, from_int(2)))
GCH = build_context(gch=True)
THETA = CardinalAtom("theta", weakly_inaccessible=True)


class TestTwoLt:
    def test_spec_examples(self):
        assert two_lt(ALEPH0, EMPTY_CONTEXT) == Determined(ALEPH0)
        assert two_lt(ALEPH1, GCH) == Determined(ALEPH1, ("GCH",))
        assert isinstance(two_lt(ALEPH1, EMPTY_CONTEXT), Independent)

    def test_atom_under_gch(self):
        assert two_lt(THETA, GCH) == Determined(THETA, ("GCH",))


class TestAlmostMuClosed:
    def test_spec_examples(self):
        assert is_true(is_almost_mu_closed(A_W, ALEPH1, GCH))
        assert is_true(is_almost_mu_closed(A_W1, ALEPH1, GCH))
        assert is_true(is_almost_mu_closed(aleph(5), ALEPH0, EMPTY_CONTEXT))

    def test_never_refuted(self):
        v = is_almost_mu_closed(A_W1, ALEPH1, EMPTY_CONTEXT)
        assert isinstance(v, Independent)


class TestMuClosed:
    def test_spec_examples(self):
        assert is_false(is_mu_closed(A_W1, ALEPH1, GCH))
        assert is_true(is_mu_closed(A_W2, ALEPH1, GCH))
        assert is_true(is_mu_closed(ALEPH1, ALEPH0, EMPTY_CONTEXT))

    def test_bad_successor_is_refuted_in_zfc(self):
        # Koenig: aleph_{w+1} cannot be aleph_1-closed, no hypotheses needed.
        assert is_false(is_mu_closed(A_W1, ALEPH1, EMPTY_CONTEXT))

    def test_good_successor_needs_sch(self):
        assert isinstance(is_mu_closed(ALEPH2, ALEPH1, EMPTY_CONTEXT), Independent)

    def test_atom_gch_and_declared_sch(self):
        assert is_true(is_mu_closed(THETA, ALEPH1, GCH))
        assert isinstance(is_mu_closed(THETA, ALEPH1, EMPTY_CONTEXT), Independent)
        declared = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),))
        assert is_true(is_mu_closed(THETA, ALEPH1, declared))

    def test_unclassified_atom_raises_under_every_context(self):
        # GCH settles SCH, but whether an unclassified atom is a successor
        # (and so maybe refuted by Koenig) is still unknown.
        for ctx in (EMPTY_CONTEXT, GCH):
            with pytest.raises(UnclassifiedAtomError, match="unclassified atom"):
                is_mu_closed(CardinalAtom("m"), ALEPH1, ctx)

    def test_mu_equals_lam_successor_is_never_mu_closed(self):
        assert is_false(is_mu_closed(ALEPH1, ALEPH1, GCH))
        assert is_false(is_mu_closed(ALEPH2, ALEPH2, GCH))

    def test_errors(self):
        with pytest.raises(ValueError, match="regular"):
            is_mu_closed(A_W1, A_W, GCH)
        with pytest.raises(ValueError, match="at least mu"):
            is_mu_closed(ALEPH1, ALEPH2, GCH)

    @given(alephs())
    def test_mu_closed_implies_almost(self, lam):
        for mu in (ALEPH0, ALEPH1, ALEPH2):
            if lam < mu:
                continue
            if is_true(is_mu_closed(lam, mu, GCH)):
                assert is_true(is_almost_mu_closed(lam, mu, GCH))


class TestExpLt:
    def test_spec_examples(self):
        assert exp_lt(A_W, ALEPH1, GCH) == Determined(A_W1, ("GCH",))
        assert exp_lt(aleph(3), ALEPH1, GCH) == Determined(aleph(3), ("GCH",))
        assert exp_lt(aleph(5), ALEPH0, EMPTY_CONTEXT) == Determined(aleph(5))
        v = exp_lt(A_W, ALEPH1, EMPTY_CONTEXT)
        assert isinstance(v, Independent)
        assert "SCH(aleph(1)) at aleph(w)" in v.missing

    def test_lam_below_mu(self):
        assert exp_lt(ALEPH0, ALEPH2, GCH) == Determined(ALEPH2, ("GCH",))
        assert isinstance(exp_lt(ALEPH0, ALEPH2, EMPTY_CONTEXT), Independent)

    def test_declared_point_coverage(self):
        # cf(aleph_w) < mu: needs almost-closedness at the successor point.
        ctx = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((A_W1,))),))
        assert exp_lt(A_W, ALEPH1, ctx).value == A_W1
        only_lam = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((A_W,))),))
        assert isinstance(exp_lt(A_W, ALEPH1, only_lam), Independent)

    def test_singular_mu_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            exp_lt(A_W1, A_W, GCH)

    def test_matches_oracle_on_random_family(self):
        rng = random.Random(7)
        for _ in range(300):
            lam = random_cardinal(rng, allow_atom=True)
            for mu in (ALEPH0, ALEPH1, ALEPH2):
                got = exp_lt(lam, mu, GCH)
                assert isinstance(got, Determined)
                assert got.value == gch_exp_lt(lam, mu)

    @given(alephs())
    def test_idempotent_under_gch(self, lam):
        for mu in (ALEPH0, ALEPH1, ALEPH2):
            once = exp_lt(lam, mu, GCH).value
            assert exp_lt(once, mu, GCH).value == once

    @given(alephs(), alephs())
    def test_monotone_in_lam_under_gch(self, a, b):
        lo, hi = (a, b) if a <= b else (b, a)
        for mu in (ALEPH0, ALEPH1, ALEPH2):
            assert exp_lt(lo, mu, GCH).value <= exp_lt(hi, mu, GCH).value

    @given(alephs())
    def test_monotone_in_mu_under_gch(self, lam):
        values = [exp_lt(lam, mu, GCH).value for mu in (ALEPH0, ALEPH1, ALEPH2)]
        assert values == sorted(values)


class TestTriangle:
    def test_spec_examples(self):
        assert is_true(triangle(ALEPH0, ALEPH1, EMPTY_CONTEXT))
        assert is_true(triangle(ALEPH1, ALEPH2, GCH))
        assert is_false(triangle(ALEPH1, A_W1, GCH))

    def test_reflexive(self):
        assert triangle(ALEPH1, ALEPH1, EMPTY_CONTEXT) == Determined(True)

    def test_without_two_lt_no_refutation(self):
        # mu-closedness is refuted in ZFC, but the converse clause needs 2^{<mu}.
        v = triangle(ALEPH1, A_W1, EMPTY_CONTEXT)
        assert isinstance(v, Independent)

    def test_atom_target(self):
        assert is_true(triangle(ALEPH1, THETA, GCH))
        assert isinstance(triangle(ALEPH1, THETA, EMPTY_CONTEXT), Independent)

    def test_errors(self):
        with pytest.raises(ValueError, match="regular"):
            triangle(ALEPH1, A_W, GCH)
        with pytest.raises(ValueError, match="at most"):
            triangle(ALEPH2, ALEPH1, GCH)


class TestBiconditionals:
    def test_mu_closed_iff_not_bad_successor_under_gch(self, rng):
        for _ in range(400):
            lam = random_cardinal(rng)
            for mu in (ALEPH1, ALEPH2):
                if lam < mu:
                    continue
                v = is_mu_closed(lam, mu, GCH)
                assert isinstance(v, Determined)
                assert v.value == (not is_bad_successor(lam, mu))

    def test_triangle_iff_mu_closed_above_two_lt(self, rng):
        for _ in range(400):
            lam = random_cardinal(rng)
            if not is_regular(lam):
                continue
            for mu in (ALEPH1, ALEPH2):
                if not lam > mu:
                    continue
                bound = two_lt(mu, GCH)
                assert isinstance(bound, Determined) and lam > bound.value
                t = triangle(mu, lam, GCH)
                c = is_mu_closed(lam, mu, GCH)
                assert isinstance(t, Determined) and isinstance(c, Determined)
                assert t.value == c.value


def _regular(rng: random.Random):
    """A regular cardinal from ``random_cardinal``: aleph(0), a weakly inaccessible atom or a successor."""
    c = random_cardinal(rng, allow_atom=True)
    return c if is_regular(c) else successor(c)


def test_triangle_is_mu_closedness_unless_koenig_refutes_it_in_every_context():
    # Where Koenig refutes mu-closedness, the order is settled only above 2^<mu, so two_lt decides.
    rng = random.Random(20261020)
    refuted = {Determined: 0, Independent: 0}
    for spec in CONTEXTS:
        ctx = context(spec)
        for _ in range(300):
            mu, lam = _regular(rng), _regular(rng)
            if lam < mu:
                mu, lam = lam, mu
            if not mu < lam:
                continue
            closed = is_mu_closed(lam, mu, ctx)
            if closed != Determined(False):
                assert triangle(mu, lam, ctx) == closed, (spec, mu, lam)
                continue
            bound = two_lt(mu, ctx)
            refuted[type(bound)] += 1
            expected = bound if isinstance(bound, Independent) else Determined(False, bound.used)
            assert triangle(mu, lam, ctx) == expected, (spec, mu, lam)
    assert min(refuted.values()) > 0, refuted
