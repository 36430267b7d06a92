"""Symbolic infinite cardinals and their structural arithmetic.

An ``Aleph`` denotes aleph_{base + tail}: ``base`` (if present) is an
uncountable cardinal read as its initial ordinal and ``tail`` is a CNF
ordinal below epsilon_0.  Every cardinal the engine can write this way lies
below the first aleph fixed point, so none of them is weakly inaccessible;
genuine regular limit cardinals enter only as opaque ``CardinalAtom`` values
with declared properties.  Atoms compare above every aleph and among
themselves by name.

Cofinality, regularity, the regularisation lambda_r and the star operator
are decidable directly on this representation and live here; everything
hypothesis-relative lives in :mod:`alephcalc.arithmetic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordinals import (
    ORD_ONE,
    ORD_ZERO,
    CnfOrdinal,
    Ordering,
    Successor,
    Zero,
    cnf_add,
    cnf_compare,
    from_int,
    ord_classify,
)


class UnclassifiedAtomError(ValueError):
    """Raised when an operation needs properties an atom does not declare."""


class CardinalExpr:
    """Base class for symbolic infinite cardinals; totally ordered."""

    def __lt__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is Ordering.LESS

    def __le__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is not Ordering.GREATER

    def __gt__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is Ordering.GREATER

    def __ge__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is not Ordering.LESS


@dataclass(frozen=True, repr=False)
class Aleph(CardinalExpr):
    base: CardinalExpr | None = None
    tail: CnfOrdinal = ORD_ZERO

    def __post_init__(self) -> None:
        if self.base is not None:
            if not isinstance(self.base, Aleph):
                raise ValueError("index base must be an aleph (atoms are their own fixed points)")
            if self.base.base is None and self.base.tail.is_zero:
                # aleph_0's initial ordinal is the plain CNF ordinal w; using it
                # as a base would break representation uniqueness.
                raise ValueError("index base must be uncountable; write a countable index as a CNF tail")

    def __str__(self) -> str:
        if self.base is None:
            return f"aleph({self.tail})"
        if self.tail.is_zero:
            return f"aleph({self.base})"
        return f"aleph({self.base}+{self.tail})"

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, repr=False)
class CardinalAtom(CardinalExpr):
    """Named large-cardinal symbol, e.g. a postulated weakly inaccessible."""

    name: str
    weakly_inaccessible: bool = False

    def __str__(self) -> str:
        return f"inacc({self.name})" if self.weakly_inaccessible else f"atom({self.name})"

    def __repr__(self) -> str:
        return str(self)


def aleph(index: int | CnfOrdinal) -> Aleph:
    if isinstance(index, int):
        index = from_int(index)
    return Aleph(None, index)


ALEPH0 = aleph(0)
ALEPH1 = aleph(1)
ALEPH2 = aleph(2)


def card_compare(a: CardinalExpr, b: CardinalExpr) -> Ordering:
    """Total order agreeing with true cardinal order on the aleph fragment."""
    if isinstance(a, CardinalAtom) or isinstance(b, CardinalAtom):
        if not isinstance(a, CardinalAtom):
            return Ordering.LESS
        if not isinstance(b, CardinalAtom):
            return Ordering.GREATER
        # By name, then by flag, so that EQUAL agrees with ==.
        ka, kb = (a.name, a.weakly_inaccessible), (b.name, b.weakly_inaccessible)
        if ka == kb:
            return Ordering.EQUAL
        return Ordering.LESS if ka < kb else Ordering.GREATER
    assert isinstance(a, Aleph) and isinstance(b, Aleph)
    if (a.base is None) != (b.base is None):
        # A present base is uncountable while a bare tail is a countable
        # ordinal, so the based index is strictly larger.
        return Ordering.GREATER if a.base is not None else Ordering.LESS
    if a.base is not None and b.base is not None:
        by_base = card_compare(a.base, b.base)
        if by_base is not Ordering.EQUAL:
            return by_base
    return cnf_compare(a.tail, b.tail)


@dataclass(frozen=True)
class SuccessorCard:
    pred: CardinalExpr


@dataclass(frozen=True)
class LimitCard:
    pass


CardinalKind = SuccessorCard | LimitCard


def card_index_classify(a: CardinalExpr) -> CardinalKind:
    """Successor cardinal (with predecessor) or limit cardinal (incl. aleph_0)."""
    if isinstance(a, CardinalAtom):
        if a.weakly_inaccessible:
            return LimitCard()
        raise UnclassifiedAtomError("unclassified atom")
    assert isinstance(a, Aleph)
    kind = ord_classify(a.tail)
    if isinstance(kind, Successor):
        return SuccessorCard(Aleph(a.base, kind.pred))
    # Zero tail means either aleph_0 (no base) or the base cardinal's own
    # initial ordinal; both are limit ordinals.
    return LimitCard()


def successor(c: CardinalExpr) -> CardinalExpr:
    if isinstance(c, CardinalAtom):
        raise ValueError("successor of an opaque atom is unrepresented")
    assert isinstance(c, Aleph)
    return Aleph(c.base, cnf_add(c.tail, ORD_ONE))


def cofinality(c: CardinalExpr) -> CardinalExpr:
    """Exact cofinality; decidable because no aleph here is a fixed point."""
    if isinstance(c, CardinalAtom):
        if c.weakly_inaccessible:
            return c
        raise UnclassifiedAtomError("unclassified atom")
    assert isinstance(c, Aleph)
    kind = ord_classify(c.tail)
    if isinstance(kind, Successor):
        return c
    if isinstance(kind, Zero):
        if c.base is None:
            return ALEPH0
        return cofinality(c.base)
    # Nonzero limit tail: a CNF ordinal below epsilon_0 is countable, so the
    # index has cofinality omega.
    return ALEPH0


def is_regular(c: CardinalExpr) -> bool:
    return cofinality(c) == c


def require_regular(c: CardinalExpr, what: str = "mu") -> None:
    """Reject a singular c; ``what`` names the offending argument."""
    if not is_regular(c):
        raise ValueError(f"{what} must be regular")


def lambda_r(c: CardinalExpr) -> CardinalExpr:
    """Least regular cardinal >= c: c itself if regular, else its successor."""
    return c if is_regular(c) else successor(c)


def lambda_star(c: CardinalExpr) -> CardinalExpr:
    """c^+ for successor cardinals, c itself for limit cardinals."""
    if isinstance(c, CardinalAtom):
        raise ValueError("star operator undefined on atoms")
    kind = card_index_classify(c)
    if isinstance(kind, SuccessorCard):
        return successor(c)
    return c


def card_max(a: CardinalExpr, b: CardinalExpr) -> CardinalExpr:
    return b if card_compare(a, b) is Ordering.LESS else a
