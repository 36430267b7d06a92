"""Internal-size calculus for mu-AECs.

Given class parameters (mu, LS(K), closure flags) and a hypothesis context,
these operations compute what can be said about the internal size of a model
from its cardinality: an exact value when the cardinality is certified
mu-closed, the two-candidate split at successors of small-cofinality
cardinals, a certified interval otherwise — plus presentability-rank
exclusion at weak inaccessibles, existence windows, and the gap-plus-
categoricity rule that rules a size out entirely.

Exact answers always report the presentability rank as the successor of the
internal size; the engine never asserts a limit rank, it only excludes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cardinals import (
    CardinalAtom,
    CardinalExpr,
    SuccessorCard,
    card_compare,
    card_index_classify,
    card_max,
    cofinality,
    is_regular,
    lambda_r,
    require_regular,
    successor,
)
from .hypotheses import (
    Determined,
    HypothesisContext,
    Independent,
    Verdict,
    is_true,
    sch_holds_at,
)
from .arithmetic import exp_lt, is_mu_closed
from .ordinals import Ordering


@dataclass(frozen=True)
class ClassParams:
    """Parameters of a mu-AEC: index of directedness and LS(K) threshold."""

    mu: CardinalExpr
    ls: CardinalExpr
    admits_intersections: bool = False
    arbitrarily_large_models: bool = True

    def __post_init__(self) -> None:
        require_regular(self.mu)
        if self.ls < self.mu:
            raise ValueError("LS(K) must be at least mu")
        # LS = LS^{<mu} forces cf(LS) >= mu (Koenig); under GCH the converse
        # holds too, so this is the ZFC-decidable part of the LST invariant.
        if cofinality(self.ls) < self.mu:
            raise ValueError("LS(K) must satisfy LS = LS^{<mu}; its cofinality cannot be below mu")


@dataclass(frozen=True)
class BelowLS:
    """Internal size is at most LS(K) (exact behaviour below is wild)."""


@dataclass(frozen=True)
class TwoCandidates:
    lo: CardinalExpr
    hi: CardinalExpr
    used: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.hi != successor(self.lo):
            raise ValueError("candidates must be a cardinal and its successor")

    def __str__(self) -> str:
        return f"{{{self.lo}, {self.hi}}}"


@dataclass(frozen=True)
class SizeInterval:
    lo: CardinalExpr
    hi: CardinalExpr
    tight: bool = False
    used: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if card_compare(self.lo, self.hi) is Ordering.GREATER:
            raise ValueError("interval endpoints out of order")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# An exact internal size is a Determined cardinal; an unsettled one is an
# Independent whose one missing entry says what would settle it.
Exact = Determined
Undetermined = Independent

SizeVerdict = BelowLS | Determined | TwoCandidates | SizeInterval | Independent


@dataclass(frozen=True)
class SpectrumFacts:
    """Externally supplied spectrum facts feeding the no-model rule."""

    no_models_in_cardinality_interval: tuple[CardinalExpr, CardinalExpr] | None = None
    categorical_in_cardinality: CardinalExpr | None = None

    def __post_init__(self) -> None:
        gap = self.no_models_in_cardinality_interval
        if gap is not None and card_compare(gap[0], gap[1]) is Ordering.GREATER:
            raise ValueError("gap endpoints out of order")


def internal_size_of_cardinality(
    params: ClassParams, lam: CardinalExpr, ctx: HypothesisContext
) -> SizeVerdict:
    """What internal sizes can a model of cardinality lam have?"""
    if lam <= params.ls:
        return BelowLS()
    mu = params.mu
    closed = is_mu_closed(lam, mu, ctx)
    if is_true(closed):
        return Determined(lam, closed.used)
    kind = card_index_classify(lam)
    if isinstance(kind, SuccessorCard) and cofinality(kind.pred) < mu:
        sch = sch_holds_at(ctx, mu, lam)
        if is_true(sch):
            return TwoCandidates(kind.pred, lam, sch.used)
    # Fall back to the largest context-certified mu-closed regular cardinal
    # <= lam as a lower bound; the class's own LST axiom is deliberately not
    # used as a closure fact (for some parameters it is itself independent).
    if isinstance(kind, SuccessorCard):
        pred = kind.pred
        if pred > params.ls and is_regular(pred):
            below = is_mu_closed(pred, mu, ctx)
            if is_true(below):
                return SizeInterval(pred, lam, tight=False, used=below.used)
    if not isinstance(params.ls, CardinalAtom):
        ls_succ = successor(params.ls)
        if ls_succ <= lam:
            base = is_mu_closed(ls_succ, mu, ctx)
            if is_true(base):
                return SizeInterval(ls_succ, lam, tight=False, used=base.used)
    missing = closed.reason if isinstance(closed, Independent) else f"SCH({mu}) below {lam}"
    return Independent((
        f"mu-closedness of {lam} at {mu} is undecided and no mu-closed regular cardinal in "
        f"({params.ls}, {lam}] is certified (missing: {missing})",
    ))


def colimit_presentability_bound(
    index_size: CardinalExpr, sup_component_pres: CardinalExpr
) -> CardinalExpr:
    """Presentability bound for the colimit of a diagram: (|I|^+ + sup)_r."""
    if isinstance(index_size, CardinalAtom) or isinstance(sup_component_pres, CardinalAtom):
        raise ValueError("colimit bound is not defined for atom inputs")
    return lambda_r(card_max(successor(index_size), sup_component_pres))


def existence_window(
    mu: CardinalExpr, lam: CardinalExpr, ctx: HypothesisContext
) -> tuple[CardinalExpr, Verdict[CardinalExpr]]:
    """Window [lam, lam^{<mu}] of internal sizes guaranteed to be hit."""
    require_regular(mu)
    require_regular(lam, "lam")
    if card_compare(mu, lam) is Ordering.GREATER:
        raise ValueError("mu must be at most lam")
    return lam, exp_lt(lam, mu, ctx)


def rank_excluded_at(
    theta: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext
) -> Verdict[bool]:
    """Can theta (a limit regular cardinal) be excluded as a presentability rank?"""
    if not is_regular(theta) or isinstance(card_index_classify(theta), SuccessorCard):
        raise ValueError("not a limit regular cardinal")
    return is_mu_closed(theta, mu, ctx)


def no_model_of_internal_size(
    params: ClassParams,
    lam: CardinalExpr,
    facts: SpectrumFacts,
    ctx: HypothesisContext,
) -> Verdict[bool]:
    """Gap in [lam, lam^{<mu}) plus categoricity at lam^{<mu} rules out size lam."""
    if not lam > params.ls:
        raise ValueError("lam must exceed LS(K)")
    e = exp_lt(lam, params.mu, ctx)
    if isinstance(e, Independent):
        return e
    if e.value == lam:
        raise ValueError("rule inapplicable: lam = lam^{<mu}")
    missing = []
    gap = facts.no_models_in_cardinality_interval
    if gap is None or not (gap[0] <= lam and e.value <= gap[1]):
        missing.append(f"the fact that K has no model with cardinality in [{lam}, {e.value})")
    if facts.categorical_in_cardinality != e.value:
        missing.append(f"categoricity of K in cardinality {e.value}")
    if missing:
        return Independent(tuple(missing), used=e.used)
    return Determined(True, e.used)


def existence_at(
    params: ClassParams, lam: CardinalExpr, ctx: HypothesisContext
) -> Verdict[bool]:
    """Does the class certifiedly have a model of internal size lam?"""
    if not lam > params.ls:
        raise ValueError("lam must exceed LS(K)")
    if not params.arbitrarily_large_models:
        raise ValueError("existence analysis requires arbitrarily large models")
    mu = params.mu
    if is_regular(lam):
        if params.admits_intersections:
            # Intersections give all regular internal sizes >= mu outright.
            return Determined(True)
        e = exp_lt(lam, mu, ctx)
        if isinstance(e, Determined) and e.value == lam:
            return Determined(True, e.used)
    sch = sch_holds_at(ctx, mu, lam)
    if is_true(sch):
        if params.admits_intersections:
            return Determined(True, sch.used)
        e = exp_lt(lam, mu, ctx)
        if isinstance(e, Determined) and e.value == lam:
            return Determined(True, tuple(sorted(set(sch.used) | set(e.used))))
    return Independent(
        (
            f"a clause certifying existence at {lam}: regularity with a degenerate window, "
            f"SCH({mu}) below {lam} with intersections, or lam = lam^<{mu}",
        )
    )
