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
from dataclasses import dataclass, field
from typing import Generic, Iterable, TypeVar, Union

from .cardinals import (
    ALEPH0,
    ALEPH1,
    CardinalExpr,
    SuccessorCard,
    card_compare,
    card_index_classify,
    card_max,
    cofinality,
    require_regular,
)
from .ordinals import Ordering

T = TypeVar("T")


class InconsistentContextError(ValueError):
    pass


@dataclass(frozen=True)
class Determined(Generic[T]):
    value: T
    used: tuple[str, ...] = ()


@dataclass(frozen=True)
class Independent:
    missing: tuple[str, ...]
    used: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.missing:
            raise ValueError("an Independent verdict must name a missing assumption")

    @property
    def reason(self) -> str:
        return "; ".join(self.missing)


Verdict = Union[Determined[T], Independent]


def is_true(v: "Verdict[bool]") -> bool:
    return isinstance(v, Determined) and v.value is True


def is_false(v: "Verdict[bool]") -> bool:
    return isinstance(v, Determined) and v.value is False


@dataclass(frozen=True)
class CardinalInterval:
    lo: CardinalExpr
    hi: CardinalExpr

    def __post_init__(self) -> None:
        if card_compare(self.lo, self.hi) is Ordering.GREATER:
            raise ValueError("interval endpoints out of order")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.is_point else f"[{self.lo}, {self.hi}]"


# --- SCH scopes -------------------------------------------------------------


@dataclass(frozen=True)
class AtLeast:
    threshold: CardinalExpr

    def __str__(self) -> str:
        return f">= {self.threshold}"


@dataclass(frozen=True)
class UnboundedBelow:
    limit: CardinalExpr

    def __str__(self) -> str:
        return f"below {self.limit}"


@dataclass(frozen=True)
class ExplicitSet:
    cards: tuple[CardinalExpr, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.cards)))
        object.__setattr__(self, "cards", canon)
        if not canon:
            raise ValueError("explicit SCH scope must be nonempty")

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.cards) + "}"


SchScope = Union[AtLeast, UnboundedBelow, ExplicitSet]


@dataclass(frozen=True)
class SchAssumption:
    mu: CardinalExpr
    scope: SchScope

    def describe(self) -> str:
        return f"SCH({self.mu}, {self.scope})"


class ZeroSharp(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class HypothesisContext:
    gch: bool = False
    v_equals_l: bool = False
    zero_sharp: ZeroSharp = ZeroSharp.UNKNOWN
    sch: tuple[SchAssumption, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        parts = []
        if self.v_equals_l:
            parts.append("V=L")
        if self.gch:
            parts.append("GCH")
        if self.zero_sharp is ZeroSharp.EXISTS:
            parts.append("sharp")
        elif self.zero_sharp is ZeroSharp.NOT_EXISTS:
            parts.append("no-sharp")
        parts.extend(a.describe() for a in self.sch)
        return ", ".join(parts) if parts else "(none)"


EMPTY_CONTEXT = HypothesisContext()


def _sch_sort_key(a: SchAssumption) -> tuple:
    return (str(a.mu), a.scope.__class__.__name__, str(a.scope))


def build_context(
    *,
    gch: bool = False,
    v_equals_l: bool = False,
    zero_sharp: ZeroSharp = ZeroSharp.UNKNOWN,
    sch: Iterable[SchAssumption] = (),
) -> HypothesisContext:
    """Deductively close the declared flags; reject inconsistent ones."""
    if v_equals_l:
        if zero_sharp is ZeroSharp.EXISTS:
            raise InconsistentContextError("inconsistent context: V=L implies 0# does not exist")
        gch = True
        zero_sharp = ZeroSharp.NOT_EXISTS
    canon = tuple(sorted(set(sch), key=_sch_sort_key))
    for a in canon:
        require_regular(a.mu)
    return HypothesisContext(gch, v_equals_l, zero_sharp, canon)


def extend_context(
    ctx: HypothesisContext,
    *,
    gch: bool = False,
    v_equals_l: bool = False,
    zero_sharp: ZeroSharp | None = None,
    sch: Iterable[SchAssumption] = (),
) -> HypothesisContext:
    """Fold further assumptions into ctx (forward-only; conflicts raise)."""
    zs = ctx.zero_sharp
    if zero_sharp is not None and zero_sharp is not ZeroSharp.UNKNOWN:
        if zs is not ZeroSharp.UNKNOWN and zs is not zero_sharp:
            raise InconsistentContextError("inconsistent context: 0# cannot both exist and not exist")
        zs = zero_sharp
    return build_context(
        gch=ctx.gch or gch,
        v_equals_l=ctx.v_equals_l or v_equals_l,
        zero_sharp=zs,
        sch=ctx.sch + tuple(sch),
    )


# --- coverage queries -------------------------------------------------------


def _scope_covers(a: SchAssumption, card: CardinalExpr) -> bool:
    scope = a.scope
    if isinstance(scope, AtLeast):
        return card >= card_max(scope.threshold, a.mu)
    if isinstance(scope, ExplicitSet):
        return card in scope.cards
    # An unbounded-below-s scope pins a point only when s is a successor: the
    # sole unbounded set of cardinals below s has maximum pred(s).
    kind = _classify_or_none(scope.limit)
    return isinstance(kind, SuccessorCard) and kind.pred == card


def _classify_or_none(c: CardinalExpr):
    try:
        return card_index_classify(c)
    except ValueError:
        return None


def ctx_implies_sch(ctx: HypothesisContext, mu: CardinalExpr, card: CardinalExpr) -> Verdict[bool]:
    """Does ctx entail that card is almost mu-closed?

    Determined(True) via GCH, a covering declared SCH instance at level
    >= mu, or trivially for mu = aleph_0; never Determined(False).
    """
    require_regular(mu)
    if card < mu:
        raise ValueError("card must be at least mu")
    if mu == ALEPH0:
        return Determined(True)
    if ctx.gch:
        return Determined(True, ("GCH",))
    for a in ctx.sch:
        if a.mu >= mu and _scope_covers(a, card):
            return Determined(True, (a.describe(),))
    return Independent((f"SCH({mu}) at {card}",))


def sch_holds_at(ctx: HypothesisContext, mu: CardinalExpr, lam: CardinalExpr) -> Verdict[bool]:
    """Does ctx entail SCH_{mu,lam} (an unbounded-in-lam almost mu-closed set)?"""
    require_regular(mu)
    if lam < mu:
        raise ValueError("lam must be at least mu")
    if mu == ALEPH0:
        return Determined(True)
    if ctx.gch:
        return Determined(True, ("GCH",))
    kind = card_index_classify(lam)
    if isinstance(kind, SuccessorCard):
        # The only unbounded set of cardinals below a successor contains its
        # predecessor, so the statement degrades to a pointwise one.
        if kind.pred < mu:
            return Independent((f"SCH({mu}) below {lam}",))
        return ctx_implies_sch(ctx, mu, kind.pred)
    for a in ctx.sch:
        if a.mu < mu:
            continue
        scope = a.scope
        if isinstance(scope, UnboundedBelow) and scope.limit == lam:
            return Determined(True, (a.describe(),))
        if isinstance(scope, AtLeast) and card_max(scope.threshold, a.mu) < lam:
            return Determined(True, (a.describe(),))
    return Independent((f"SCH({mu}) below {lam}",))


def l_cofinality(lam: CardinalExpr, ctx: HypothesisContext) -> Verdict[CardinalInterval]:
    """Cofinality of lam as computed in L, as an interval of cardinals.

    V=L pins it exactly; 0# makes every uncountable cardinal inaccessible in
    L; without 0#, Jensen covering bounds it inside [cf lam, cf lam + aleph_1].
    """
    cf = cofinality(lam)
    if ctx.v_equals_l:
        return Determined(CardinalInterval(cf, cf), ("V=L",))
    if lam == ALEPH0:
        return Determined(CardinalInterval(ALEPH0, ALEPH0))
    if ctx.zero_sharp is ZeroSharp.EXISTS:
        return Determined(CardinalInterval(lam, lam), ("sharp",))
    if ctx.zero_sharp is ZeroSharp.NOT_EXISTS:
        return Determined(CardinalInterval(cf, card_max(cf, ALEPH1)), ("no-sharp",))
    return Independent(("the status of 0# (assume sharp or no-sharp)",))
