"""Declared set-theoretic hypotheses and three-valued verdicts.

A ``HypothesisContext`` holds the axioms a session has assumed: GCH, V=L,
the status of 0#, and finitely many SCH instances ``SCH(mu, scope)`` stating
that every cardinal the scope names is almost mu-closed.  Contexts are
closed at construction (V=L forces GCH and the nonexistence of 0#) and are
immutable afterwards.

Queries answer with a ``Verdict``: ``Determined(value)`` carrying the
assumption names actually used, or ``Independent`` naming at least one
missing assumption.  Absence of an axiom never refutes anything — SCH can
consistently fail, so the engine models conditional theorems, not forcing.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from itertools import groupby
from operator import attrgetter

from .cardinals import (
    ALEPH0,
    ALEPH1,
    Aleph,
    CardinalExpr,
    _pred,
    card_compare,
    card_max,
    cofinality,
    require_level,
    require_regular,
    successor,
)
from .ordinals import _GREATER, _Record, _set


class InconsistentContextError(ValueError):
    pass


class Determined(_Record):
    __slots__ = ("value", "used")
    def __init__(self, value: object, used: tuple[str, ...] = ()) -> None:
        _set(self, "value", value)
        _set(self, "used", used)


class Independent(_Record):
    __slots__ = ("missing", "used")
    def __init__(self, missing: tuple[str, ...], used: tuple[str, ...] = ()) -> None:
        if not missing:
            raise ValueError("an Independent verdict must name a missing assumption")
        _set(self, "missing", missing)
        _set(self, "used", used)

    @property
    def reason(self) -> str:
        return "; ".join(self.missing)


Verdict = Determined | Independent


def is_true(v: Verdict) -> bool:
    return isinstance(v, Determined) and v.value is True


def is_false(v: Verdict) -> bool:
    return isinstance(v, Determined) and v.value is False


class CardinalInterval(_Record):
    __slots__ = ("lo", "hi")
    def __init__(self, lo: CardinalExpr, hi: CardinalExpr) -> None:
        if card_compare(lo, hi) is _GREATER:
            raise ValueError("interval endpoints out of order")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    @property
    def is_point(self) -> bool:
        return self.lo is self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.is_point else f"[{self.lo}, {self.hi}]"


# --- SCH scopes -------------------------------------------------------------


class AtLeast(_Record):
    __slots__ = ("threshold",)
    def __init__(self, threshold: CardinalExpr) -> None:
        _set(self, "threshold", threshold)

    def __str__(self) -> str:
        return f">= {self.threshold}"


class UnboundedBelow(_Record):
    __slots__ = ("limit",)
    def __init__(self, limit: CardinalExpr) -> None:
        _set(self, "limit", limit)

    def __str__(self) -> str:
        return f"below {self.limit}"


class ExplicitSet(_Record):
    __slots__ = ("cards",)
    def __init__(self, cards: Iterable[CardinalExpr]) -> None:
        canon = tuple(sorted(set(cards)))
        if not canon:
            raise ValueError("explicit SCH scope must be nonempty")
        _set(self, "cards", canon)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.cards) + "}"


SchScope = AtLeast | UnboundedBelow | ExplicitSet


class SchAssumption(_Record):
    __slots__ = ("mu", "scope")
    def __init__(self, mu: CardinalExpr, scope: SchScope) -> None:
        _set(self, "mu", mu)
        _set(self, "scope", scope)

    def describe(self) -> str:
        return f"SCH({self.mu}, {self.scope})"


class ZeroSharp(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


# Read in function bodies instead of ``ZeroSharp.X``, as ``ordinals`` does for ``Ordering``.
_EXISTS, _NOT_EXISTS, _UNKNOWN = ZeroSharp.EXISTS, ZeroSharp.NOT_EXISTS, ZeroSharp.UNKNOWN


class HypothesisContext(_Record):
    """Declared flags, deductively closed at construction; inconsistent ones raise.
    ``sch`` may be any iterable of instances; it is kept sorted and deduplicated."""

    __slots__ = ("gch", "v_equals_l", "zero_sharp", "sch")
    def __init__(self, gch: bool = False, v_equals_l: bool = False,
                 zero_sharp: ZeroSharp = ZeroSharp.UNKNOWN, sch: Iterable[SchAssumption] = ()) -> None:
        if v_equals_l:
            if zero_sharp is _EXISTS:
                raise InconsistentContextError("inconsistent context: V=L implies 0# does not exist")
            gch, zero_sharp = True, _NOT_EXISTS
        canon = tuple(sorted(set(sch), key=lambda a: (str(a.mu), type(a.scope).__name__, str(a.scope))))
        for a in canon:
            require_regular(a.mu)
        _set(self, "gch", gch)
        _set(self, "v_equals_l", v_equals_l)
        _set(self, "zero_sharp", zero_sharp)
        _set(self, "sch", canon)

    def describe(self) -> str:
        parts = []
        if self.v_equals_l:
            parts.append("V=L")
        if self.gch:
            parts.append("GCH")
        if self.zero_sharp is _EXISTS:
            parts.append("sharp")
        elif self.zero_sharp is _NOT_EXISTS:
            parts.append("no-sharp")
        parts.extend(a.describe() for a in self.sch)
        return ", ".join(parts) if parts else "(none)"


build_context = HypothesisContext
EMPTY_CONTEXT = HypothesisContext()


def extend_context(
    ctx: HypothesisContext,
    *,
    gch: bool = False,
    v_equals_l: bool = False,
    zero_sharp: ZeroSharp = ZeroSharp.UNKNOWN,
    sch: Iterable[SchAssumption] = (),
) -> HypothesisContext:
    """Fold further assumptions into ctx (forward-only; conflicts raise; adding nothing returns ctx)."""
    zs = ctx.zero_sharp
    if zero_sharp is not _UNKNOWN:
        if zs is not _UNKNOWN and zs is not zero_sharp:
            raise InconsistentContextError("inconsistent context: 0# cannot both exist and not exist")
        zs = zero_sharp
    new = HypothesisContext(ctx.gch or gch, ctx.v_equals_l or v_equals_l, zs, ctx.sch + tuple(sch))
    return ctx if new == ctx else new


# --- coverage queries -------------------------------------------------------


def _scope_covers(a: SchAssumption, card: CardinalExpr) -> bool:
    scope = a.scope
    if isinstance(scope, AtLeast):
        return card >= card_max(scope.threshold, a.mu)
    if isinstance(scope, ExplicitSet):
        return card in scope.cards
    # An unbounded-below-s scope pins a point only when s is a successor: the
    # sole unbounded set of cardinals below s has maximum pred(s).
    return isinstance(card, Aleph) and successor(card) is scope.limit


def _covering(ctx: HypothesisContext, mu: CardinalExpr, card: CardinalExpr) -> tuple[str, ...] | None:
    """``used`` of the rule by which ctx entails that card is almost mu-closed, or None.
    Builds no verdict and no text; the caller has checked ``require_level(mu, card)``."""
    if mu is ALEPH0:
        return ()
    if ctx.gch:
        return ("GCH",)
    for level, run in groupby(ctx.sch, attrgetter("mu")):
        if level >= mu:
            for a in run:
                if _scope_covers(a, card):
                    return (a.describe(),)
    return None


def ctx_implies_sch(ctx: HypothesisContext, mu: CardinalExpr, card: CardinalExpr) -> Verdict:
    """Does ctx entail that card is almost mu-closed?  A ``bool`` verdict.

    Determined(True) via GCH, a covering declared SCH instance at level
    >= mu, or trivially for mu = aleph_0; never Determined(False).  The
    instances of one level are adjacent in ``ctx.sch``, so each distinct
    level is compared with mu once; the first covering instance wins.
    The engine's own callers ask ``_covering``, which builds no verdict.
    """
    require_level(mu, card, what="card")
    used = _covering(ctx, mu, card)
    if used is None:
        return Independent((f"SCH({mu}) at {card}",))
    return Determined(True, used)


def _sch_below(ctx: HypothesisContext, mu: CardinalExpr, lam: CardinalExpr) -> tuple[str, ...] | None:
    """``used`` of the rule by which ctx entails SCH_{mu,lam}, or None.
    Builds no verdict and no text; the caller has checked ``require_level(mu, lam)``."""
    if mu is ALEPH0:
        return ()
    if ctx.gch:
        return ("GCH",)
    pred = _pred(lam)
    if pred is not None:
        # The only unbounded set of cardinals below a successor contains its
        # predecessor, so the statement degrades to a pointwise one.
        return None if pred < mu else _covering(ctx, mu, pred)
    for level, run in groupby(ctx.sch, attrgetter("mu")):
        if level < mu:
            continue
        for a in run:
            scope = a.scope
            if isinstance(scope, UnboundedBelow) and scope.limit is lam:
                return (a.describe(),)
            if isinstance(scope, AtLeast) and card_max(scope.threshold, level) < lam:
                return (a.describe(),)
    return None


def sch_holds_at(ctx: HypothesisContext, mu: CardinalExpr, lam: CardinalExpr) -> Verdict:
    """Does ctx entail SCH_{mu,lam} (an unbounded-in-lam almost mu-closed set)?  A ``bool`` verdict.
    At a limit lam it scans ``ctx.sch`` level by level as ``ctx_implies_sch`` does.
    The engine's own callers ask ``_sch_below``, which builds no verdict."""
    require_level(mu, lam)
    return _sch_holds_at(ctx, mu, lam)


def _sch_holds_at(ctx: HypothesisContext, mu: CardinalExpr, lam: CardinalExpr) -> Verdict:
    """``sch_holds_at`` after its ``require_level(mu, lam)``, which the caller has checked."""
    used = _sch_below(ctx, mu, lam)
    if used is not None:
        return Determined(True, used)
    pred = _pred(lam)
    if pred is not None and pred >= mu:
        return Independent((f"SCH({mu}) at {pred}",))
    return Independent((f"SCH({mu}) below {lam}",))


def l_cofinality(lam: CardinalExpr, ctx: HypothesisContext) -> Verdict:
    """Cofinality of lam as computed in L, as a verdict on a ``CardinalInterval`` of cardinals.

    V=L pins it exactly, and a regular lam stays regular in L; 0# makes
    every uncountable cardinal inaccessible in L; without 0#, Jensen
    covering bounds it inside [cf lam, cf lam + aleph_1].
    """
    cf = cofinality(lam)
    if ctx.v_equals_l:
        return Determined(CardinalInterval(cf, cf), ("V=L",))
    if cf is lam:
        return Determined(CardinalInterval(lam, lam))
    if ctx.zero_sharp is _EXISTS:
        return Determined(CardinalInterval(lam, lam), ("sharp",))
    if ctx.zero_sharp is _NOT_EXISTS:
        return Determined(CardinalInterval(cf, card_max(cf, ALEPH1)), ("no-sharp",))
    return Independent(("the status of 0# (assume sharp or no-sharp)",))
