"""The private predecessor helpers the engine asks in place of the kind records.

``ordinals._ord_pred`` and ``cardinals._pred`` return the predecessor or
``None``; the public ``ord_classify`` and ``card_index_classify`` wrap their
answer in a record.  A plain atom is unclassified, so every rule that needs
its predecessor raises, except at mu = aleph_0, where no rule needs it.
"""

import random

import pytest

from alephcalc import (
    ALEPH0,
    ALEPH1,
    EMPTY_CONTEXT,
    CardinalAtom,
    Determined,
    Independent,
    LimitCard,
    SuccessorCard,
    UnclassifiedAtomError,
    card_index_classify,
    ctx_implies_sch,
    is_almost_mu_closed,
    is_mu_closed,
    sch_holds_at,
    successor,
)
from alephcalc.cardinals import _pred
from alephcalc.ordinals import ORD_ONE, ORD_ZERO, Limit, Successor, Zero, _ord_pred, cnf_add, ord_classify
from alephcalc.sizes import ClassParams, internal_size_of_cardinality

from conftest import random_cardinal, random_cnf

THETA = CardinalAtom("theta", weakly_inaccessible=True)
M = CardinalAtom("m")  # a plain atom: no declared properties


def test_pred_agrees_with_card_index_classify():
    rng = random.Random(2601)
    cards = [random_cardinal(rng, allow_atom=True) for _ in range(3000)] + [ALEPH0, THETA]
    atoms = [c for c in cards if isinstance(c, CardinalAtom)]
    assert len(atoms) > 1 and len(atoms) < sum(_pred(c) is None for c in cards)
    for c in cards:
        pred = _pred(c)
        assert card_index_classify(c) == (LimitCard() if pred is None else SuccessorCard(pred))
        if pred is not None:
            assert successor(pred) is c
        elif not isinstance(c, CardinalAtom):  # aleph_0, a base's initial ordinal, or a limit tail
            assert c.tail is ORD_ZERO or c.tail.terms[-1][0] is not ORD_ZERO


def test_ord_pred_agrees_with_ord_classify():
    rng = random.Random(2602)
    ordinals = [random_cnf(rng) for _ in range(3000)] + [ORD_ZERO, ORD_ONE]
    for a in ordinals:
        pred = _ord_pred(a)
        kind = ord_classify(a)
        if pred is not None:
            assert kind == Successor(pred) and cnf_add(pred, ORD_ONE) is a
        else:
            assert kind == (Zero() if a is ORD_ZERO else Limit())
            assert a is ORD_ZERO or a.terms[-1][0] is not ORD_ZERO


def test_a_plain_atom_has_no_predecessor_to_give():
    for ask in (_pred, card_index_classify):
        with pytest.raises(UnclassifiedAtomError):
            ask(M)


def test_a_plain_atom_is_asked_for_no_predecessor_at_aleph0():
    ctx = EMPTY_CONTEXT
    assert is_mu_closed(M, ALEPH0, ctx) == Determined(True)
    assert is_almost_mu_closed(M, ALEPH0, ctx) == Determined(True)
    assert sch_holds_at(ctx, ALEPH0, M) == Determined(True)
    assert ctx_implies_sch(ctx, ALEPH0, M) == Determined(True)
    assert internal_size_of_cardinality(ClassParams(ALEPH0, ALEPH0), M, ctx) == Determined(M)


def test_a_plain_atom_stays_unclassified_above_aleph0():
    ctx = EMPTY_CONTEXT
    for ask in (lambda: is_mu_closed(M, ALEPH1, ctx), lambda: sch_holds_at(ctx, ALEPH1, M),
                lambda: internal_size_of_cardinality(ClassParams(ALEPH1, ALEPH1), M, ctx)):
        with pytest.raises(UnclassifiedAtomError):
            ask()
    # The pointwise question needs no predecessor: it names the missing instance.
    missing = Independent(("SCH(aleph(1)) at atom(m)",))
    assert is_almost_mu_closed(M, ALEPH1, ctx) == missing
    assert ctx_implies_sch(ctx, ALEPH1, M) == missing
