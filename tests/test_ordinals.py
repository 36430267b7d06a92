import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alephcalc.dsl import parse
from alephcalc.ordinals import (
    OMEGA,
    ORD_ONE,
    ORD_ZERO,
    CnfOrdinal,
    Limit,
    Ordering,
    Successor,
    Zero,
    cnf_add,
    cnf_compare,
    cnf_sum,
    from_int,
    omega_power,
    ord_classify,
)

from conftest import cnf_ordinals, random_cnf
from oracles import all_tuples, cnf_to_tuple, cnf_tree, tree_text, tuple_add, tuple_compare, tuple_to_cnf

W2 = omega_power(from_int(2))
W3 = omega_power(from_int(3))
W_W = omega_power(OMEGA)


def test_compare_spec_examples():
    assert cnf_compare(ORD_ZERO, ORD_ZERO) is Ordering.EQUAL
    assert cnf_compare(OMEGA, omega_power(ORD_ONE, 2)) is Ordering.LESS
    # w^w against w^3*5 + 7: one level above the tuple-encoded range
    rhs = cnf_add(omega_power(from_int(3), 5), from_int(7))
    assert cnf_compare(W_W, rhs) is Ordering.GREATER
    for t in all_tuples(2):
        assert cnf_compare(W_W, tuple_to_cnf(t)) is Ordering.GREATER


def test_add_spec_examples():
    assert cnf_add(from_int(1), OMEGA) == OMEGA
    assert cnf_add(OMEGA, from_int(1)) == cnf_add(OMEGA, ORD_ONE)
    lhs = cnf_add(W2, OMEGA)
    rhs = cnf_add(omega_power(ORD_ONE, 3), from_int(2))
    expected = cnf_add(cnf_add(W2, omega_power(ORD_ONE, 4)), from_int(2))
    assert cnf_add(lhs, rhs) == expected
    assert str(cnf_add(lhs, rhs)) == "w^2+w*4+2"


def test_classify_spec_examples():
    assert ord_classify(ORD_ZERO) == Zero()
    assert ord_classify(cnf_add(OMEGA, from_int(3))) == Successor(cnf_add(OMEGA, from_int(2)))
    assert ord_classify(W2) == Limit()
    assert ord_classify(from_int(1)) == Successor(ORD_ZERO)


def test_invalid_cnf_rejected():
    with pytest.raises(ValueError):
        CnfOrdinal(((ORD_ZERO, 0),))
    with pytest.raises(ValueError):
        CnfOrdinal(((ORD_ZERO, 1), (ORD_ONE, 1)))  # increasing exponents
    with pytest.raises(ValueError):
        CnfOrdinal(((ORD_ONE, 1), (ORD_ONE, 2)))  # repeated exponent


def test_exhaustive_against_tuple_oracle_small():
    # The full coefficient<=5 sweep lives in the acceptance suite; this is the
    # fast development-loop version.
    ordinals = [(t, tuple_to_cnf(t)) for t in all_tuples(2)]
    for ta, ca in ordinals:
        kind = ord_classify(ca)
        if ta == (0, 0, 0, 0):
            assert kind == Zero()
        elif ta[3] > 0:
            assert isinstance(kind, Successor)
            assert cnf_to_tuple(kind.pred) == ta[:3] + (ta[3] - 1,)
        else:
            assert kind == Limit()
        for tb, cb in ordinals:
            assert cnf_compare(ca, cb).value == tuple_compare(ta, tb)
            assert cnf_to_tuple(cnf_add(ca, cb)) == tuple_add(ta, tb)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=6))
def test_sum_of_terms_in_any_order_against_tuple_oracle(terms):
    # A zero coefficient adds nothing: it must not absorb the terms before it.
    singles = [tuple(c if 3 - i == power else 0 for i in range(4)) for power, c in terms]
    expected = reduce(tuple_add, singles, (0, 0, 0, 0))
    assert cnf_to_tuple(cnf_sum(*((from_int(power), c) for power, c in terms))) == expected


@given(cnf_ordinals(), cnf_ordinals(), cnf_ordinals())
def test_add_associative(a, b, c):
    assert cnf_add(cnf_add(a, b), c) == cnf_add(a, cnf_add(b, c))


@given(cnf_ordinals(), cnf_ordinals())
def test_add_dominates_right_addend(a, b):
    s = cnf_add(a, b)
    assert cnf_compare(s, b) is not Ordering.LESS
    # equality to b exactly when every term of a is absorbed
    if b.terms:
        absorbed = all(cnf_compare(e, b.terms[0][0]) is Ordering.LESS for e, _ in a.terms)
    else:
        absorbed = a.is_zero
    assert (s == b) == absorbed


@given(cnf_ordinals(), cnf_ordinals(), cnf_ordinals())
def test_compare_transitive(a, b, c):
    if cnf_compare(a, b) is not Ordering.GREATER and cnf_compare(b, c) is not Ordering.GREATER:
        assert cnf_compare(a, c) is not Ordering.GREATER


@given(cnf_ordinals(), cnf_ordinals())
def test_compare_antisymmetric(a, b):
    ab = cnf_compare(a, b)
    ba = cnf_compare(b, a)
    assert ab.value == -ba.value
    assert (ab is Ordering.EQUAL) == (a == b)


@given(cnf_ordinals())
def test_str_is_canonical_and_stable(a):
    assert str(a) == str(CnfOrdinal(a.terms))


# Exponents the renderer must bracket right: w, w^w, w^(w+1) and w^2*3, alone and nested.
W_W1 = omega_power(cnf_add(OMEGA, ORD_ONE))
W2_3 = omega_power(from_int(2), 3)
RENDER_CASES = [OMEGA, W_W, W_W1, W2_3, omega_power(W_W), omega_power(W_W1), omega_power(W2_3, 2),
                omega_power(omega_power(W2_3)), cnf_sum((W_W1, 2), (W_W, 1), (W2_3, 3), (OMEGA, 4), (ORD_ZERO, 7))]


def _renders_as_the_reference(a):
    assert str(a) == tree_text(cnf_tree(a))
    ast = parse(str(a))
    assert ast.base is None and ast.tail is a


@given(cnf_ordinals(depth=3))
def test_str_matches_the_reference_renderer_and_parses_back(a):
    _renders_as_the_reference(a)


def test_str_of_listed_exponents_and_small_ordinals_matches_the_reference_renderer():
    for a in RENDER_CASES + [tuple_to_cnf(t) for t in all_tuples(2)]:
        _renders_as_the_reference(a)


def test_operators_agree_with_cnf_compare_and_cnf_add():
    rng = random.Random(24)
    for _ in range(300):
        a, b = random_cnf(rng), random_cnf(rng)
        order = cnf_compare(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (
            order is Ordering.LESS, order is not Ordering.GREATER, order is Ordering.GREATER, order is not Ordering.LESS)
        assert a + b is cnf_add(a, b)


def test_as_int_of_an_infinite_ordinal_raises():
    assert from_int(7).as_int() == 7 and ORD_ZERO.as_int() == 0
    for a in (OMEGA, cnf_add(OMEGA, from_int(3)), W_W):
        with pytest.raises(ValueError, match="is infinite"):
            a.as_int()


def test_from_int_of_a_negative_integer_raises():
    with pytest.raises(ValueError, match="ordinals are nonnegative"):
        from_int(-1)
