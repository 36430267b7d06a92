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

import re

from .ordinals import (
    OMEGA,
    ORD_ONE,
    ORD_ZERO,
    CnfOrdinal,
    Ordering,
    Successor,
    _EQUAL,
    _GREATER,
    _HashConsed,
    _interned,
    _LESS,
    _Record,
    _set,
    cnf_add,
    cnf_compare,
    from_int,
    ord_classify,
)


# Atom names are DSL identifiers: every atom prints as text that reads back to it.
IDENT = re.compile(r"[^\W\d]\w*")


class UnclassifiedAtomError(ValueError):
    """Raised when an operation needs properties an atom does not declare."""


class CardinalExpr:
    """Base class for symbolic infinite cardinals; totally ordered."""

    __slots__ = ()

    def __lt__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is _LESS

    def __le__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is not _GREATER

    def __gt__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is _GREATER

    def __ge__(self, other: "CardinalExpr") -> bool:
        return card_compare(self, other) is not _LESS


class Aleph(CardinalExpr, _HashConsed):
    __slots__ = ("base", "tail")

    def __new__(cls, base: CardinalExpr | None = None, tail: CnfOrdinal = ORD_ZERO) -> Aleph:
        return _interned(cls, (base, tail), check=True)

    def _check(self) -> None:
        if self.base is not None:
            if not isinstance(self.base, Aleph):
                raise ValueError("index base must be an aleph (atoms are their own fixed points)")
            if self.base.base is None and self.base.tail is ORD_ZERO:
                # aleph_0's initial ordinal is the plain CNF ordinal w; using it
                # as a base would break representation uniqueness.
                raise ValueError("index base must be uncountable; write a countable index as a CNF tail")

    def _render(self) -> str:
        tail = self.tail._str or str(self.tail)
        if self.base is None:
            return "aleph(" + tail + ")"
        base = self.base._str or str(self.base)
        return "aleph(" + base + ")" if not self.tail.terms else "aleph(" + base + "+" + tail + ")"


class CardinalAtom(CardinalExpr, _HashConsed):
    """Named large-cardinal symbol, e.g. a postulated weakly inaccessible."""

    __slots__ = ("name", "weakly_inaccessible")

    def __new__(cls, name: str, weakly_inaccessible: bool = False) -> CardinalAtom:
        return _interned(cls, (name, weakly_inaccessible), check=True)

    def _check(self) -> None:
        if not isinstance(self.name, str) or not IDENT.fullmatch(self.name):
            raise ValueError(f"atom name must be an identifier, got {self.name!r}")

    def _render(self) -> str:
        return f"inacc({self.name})" if self.weakly_inaccessible else f"atom({self.name})"


def index_text(base: CardinalExpr | None, tail: CnfOrdinal) -> str:
    """The aleph index base + tail as the DSL writes it."""
    if base is None:
        return str(tail)
    if tail is ORD_ZERO:
        return str(base)
    return f"{base}+{tail}"


def aleph(index: int | CnfOrdinal) -> Aleph:
    if isinstance(index, int):
        index = from_int(index)
    return Aleph(None, index)


ALEPH0 = aleph(0)
ALEPH1 = aleph(1)
ALEPH2 = aleph(2)


def initial_ordinal(c: CardinalExpr) -> tuple[CardinalExpr | None, CnfOrdinal]:
    """The initial ordinal of c as an index (base, tail): w for aleph_0, else c itself."""
    return (None, OMEGA) if c is ALEPH0 else (c, ORD_ZERO)


def card_compare(a: CardinalExpr, b: CardinalExpr) -> Ordering:
    """Total order agreeing with true cardinal order on the aleph fragment."""
    if a is b:
        return _EQUAL
    if isinstance(a, CardinalAtom) or isinstance(b, CardinalAtom):
        if not isinstance(a, CardinalAtom):
            return _LESS
        if not isinstance(b, CardinalAtom):
            return _GREATER
        # Distinct atoms: by name, then by flag.
        ka, kb = (a.name, a.weakly_inaccessible), (b.name, b.weakly_inaccessible)
        return _LESS if ka < kb else _GREATER
    assert isinstance(a, Aleph) and isinstance(b, Aleph)
    # Alephs are interned: the first field that is not the same object decides.
    if a.base is not b.base:
        if a.base is None or b.base is None:
            # An uncountable base exceeds every countable bare tail.
            return _GREATER if a.base is not None else _LESS
        return card_compare(a.base, b.base)
    return cnf_compare(a.tail, b.tail)


class SuccessorCard(_Record):
    __slots__ = ("pred",)
    def __init__(self, pred: CardinalExpr) -> None:
        _set(self, "pred", pred)


class LimitCard(_Record):
    __slots__ = ()


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
    tail = c.tail
    if tail is ORD_ZERO:
        return ALEPH0 if c.base is None else cofinality(c.base)
    # A successor index is regular; a nonzero limit tail is countable: cofinality omega.
    return c if tail.terms[-1][0] is ORD_ZERO else ALEPH0


def is_regular(c: CardinalExpr) -> bool:
    return cofinality(c) is c


def require_regular(c: CardinalExpr, what: str = "mu") -> None:
    """Reject a singular c; ``what`` names the offending argument."""
    if not is_regular(c):
        raise ValueError(f"{what} must be regular")


def require_level(mu: CardinalExpr, lam: CardinalExpr, what: str = "lam") -> None:
    """Reject a singular mu, or a lam below it; ``what`` names lam."""
    require_regular(mu)
    if lam < mu:
        raise ValueError(f"{what} must be at least mu")


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
    return b if card_compare(a, b) is _LESS else a
