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

from .cardinals import (
    ALEPH0,
    CardinalAtom,
    CardinalExpr,
    _pred,
    card_compare,
    card_max,
    cofinality,
    is_regular,
    lambda_r,
    require_level,
    require_regular,
    successor,
)
from .hypotheses import (
    Determined,
    HypothesisContext,
    Independent,
    Verdict,
    _sch_below,
)
from .arithmetic import _exp_lt, _koenig, _mu_closed, exp_lt, is_mu_closed
from .ordinals import _GREATER, _Record, _set


class ClassParams(_Record):
    """Parameters of a mu-AEC: index of directedness and LS(K) threshold."""

    __slots__ = ("mu", "ls", "admits_intersections", "arbitrarily_large_models")
    def __init__(self, mu: CardinalExpr, ls: CardinalExpr, admits_intersections: bool = False,
                 arbitrarily_large_models: bool = True) -> None:
        require_level(mu, ls, what="LS(K)")
        # LS = LS^{<mu} forces cf(LS) >= mu (Koenig); under GCH the converse
        # holds too, so this is the ZFC-decidable part of the LST invariant.
        if cofinality(ls) < mu:
            raise ValueError("LS(K) must satisfy LS = LS^{<mu}; its cofinality cannot be below mu")
        _set(self, "mu", mu)
        _set(self, "ls", ls)
        _set(self, "admits_intersections", admits_intersections)
        _set(self, "arbitrarily_large_models", arbitrarily_large_models)


class BelowLS(_Record):
    """Internal size is at most LS(K) (exact behaviour below is wild)."""

    __slots__ = ()


class TwoCandidates(_Record):
    __slots__ = ("lo", "hi", "used")
    def __init__(self, lo: CardinalExpr, hi: CardinalExpr, used: tuple[str, ...] = ()) -> None:
        if hi is not successor(lo):
            raise ValueError("candidates must be a cardinal and its successor")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "used", used)

    def __str__(self) -> str:
        return f"{{{self.lo}, {self.hi}}}"


class SizeInterval(_Record):
    __slots__ = ("lo", "hi", "tight", "used")
    def __init__(self, lo: CardinalExpr, hi: CardinalExpr, tight: bool = False, used: tuple[str, ...] = ()) -> None:
        if card_compare(lo, hi) is _GREATER:
            raise ValueError("interval endpoints out of order")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "tight", tight)
        _set(self, "used", used)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# An exact internal size is a Determined cardinal; an unsettled one is an
# Independent whose one missing entry says what would settle it.
Exact = Determined
Undetermined = Independent

SizeVerdict = BelowLS | Determined | TwoCandidates | SizeInterval | Independent


class SpectrumFacts(_Record):
    """Externally supplied spectrum facts feeding the no-model rule."""

    __slots__ = ("no_models_in_cardinality_interval", "categorical_in_cardinality")
    def __init__(self, no_models_in_cardinality_interval: tuple[CardinalExpr, CardinalExpr] | None = None,
                 categorical_in_cardinality: CardinalExpr | None = None) -> None:
        gap = no_models_in_cardinality_interval
        if gap is not None and card_compare(gap[0], gap[1]) is _GREATER:
            raise ValueError("gap endpoints out of order")
        _set(self, "no_models_in_cardinality_interval", gap)
        _set(self, "categorical_in_cardinality", categorical_in_cardinality)


def internal_size_of_cardinality(
    params: ClassParams, lam: CardinalExpr, ctx: HypothesisContext
) -> SizeVerdict:
    """What internal sizes can a model of cardinality lam have?"""
    if lam <= params.ls:
        return BelowLS()
    mu = params.mu
    # Every cardinal asked about here exceeds LS(K) >= mu, and ClassParams checked that mu is
    # regular, so the lookups need no level check.
    koenig = _koenig(lam, mu)
    used = _sch_below(ctx, mu, lam)
    if used is not None:
        return Determined(lam, used) if koenig is None else TwoCandidates(koenig, lam, used)
    # Fall back to the largest context-certified mu-closed regular cardinal
    # <= lam as a lower bound; the class's own LST axiom is deliberately not
    # used as a closure fact (for some parameters it is itself independent).
    # Here mu > aleph(0), as _sch_below settles every lam at aleph(0).
    pred = _pred(lam)
    if pred is not None and pred > params.ls and is_regular(pred):
        used = _mu_closed(pred, mu, ctx)
        if used is not None:
            return SizeInterval(pred, lam, tight=False, used=used)
    if not isinstance(params.ls, CardinalAtom):
        ls_succ = successor(params.ls)
        if ls_succ <= lam:
            used = _mu_closed(ls_succ, mu, ctx)
            if used is not None:
                return SizeInterval(ls_succ, lam, tight=False, used=used)
    # The miss is_mu_closed names when Koenig does not settle it; a successor lam > LS(K) >= mu has
    # its predecessor at least mu.
    where = f"at {pred}" if pred is not None and koenig is None else f"below {lam}"
    return Independent((
        f"mu-closedness of {lam} at {mu} is undecided and no mu-closed regular cardinal in "
        f"({params.ls}, {lam}] is certified (missing: SCH({mu}) {where})",
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
) -> tuple[CardinalExpr, Verdict]:
    """Window [lam, lam^{<mu}] of internal sizes guaranteed to be hit; lam^{<mu} is a cardinal verdict."""
    require_regular(mu)
    require_regular(lam, "lam")
    if card_compare(mu, lam) is _GREATER:
        raise ValueError("mu must be at most lam")
    return lam, exp_lt(lam, mu, ctx)


def rank_excluded_at(
    theta: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext
) -> Verdict:
    """Can theta (a limit regular cardinal) be excluded as a presentability rank?  A ``bool`` verdict."""
    if not is_regular(theta) or _pred(theta) is not None:
        raise ValueError("not a limit regular cardinal")
    return is_mu_closed(theta, mu, ctx)


def no_model_of_internal_size(
    params: ClassParams,
    lam: CardinalExpr,
    facts: SpectrumFacts,
    ctx: HypothesisContext,
) -> Verdict:
    """Gap in [lam, lam^{<mu}) plus categoricity at lam^{<mu} rules out size lam.  A ``bool`` verdict."""
    if not lam > params.ls:
        raise ValueError("lam must exceed LS(K)")
    if params.mu is ALEPH0:
        # Only here does lam^{<mu} = lam hold with no assumption; elsewhere
        # the rule fails to apply only under the assumptions exp_lt names.
        raise ValueError("rule inapplicable: lam = lam^{<mu}")
    e = exp_lt(lam, params.mu, ctx)
    if isinstance(e, Independent):
        return e
    if e.value is lam:
        return Independent((f"rule inapplicable: {lam}^<{params.mu} = {lam}",), used=e.used)
    missing = []
    gap = facts.no_models_in_cardinality_interval
    if gap is None or not (gap[0] <= lam and e.value <= gap[1]):
        missing.append(f"the fact that K has no model with cardinality in [{lam}, {e.value})")
    if facts.categorical_in_cardinality is not e.value:
        missing.append(f"categoricity of K in cardinality {e.value}")
    if missing:
        return Independent(tuple(missing), used=e.used)
    return Determined(True, e.used)


def existence_at(
    params: ClassParams, lam: CardinalExpr, ctx: HypothesisContext
) -> Verdict:
    """Does the class certifiedly have a model of internal size lam?  A ``bool`` verdict."""
    if not lam > params.ls:
        raise ValueError("lam must exceed LS(K)")
    if not params.arbitrarily_large_models:
        raise ValueError("existence analysis requires arbitrarily large models")
    mu = params.mu
    # lam > LS(K) >= mu and mu is regular, so the lookups need no level check.  A regular lam
    # needs no certificate; then intersections, or lam^{<mu} = lam, give the model.
    used = () if is_regular(lam) else _sch_below(ctx, mu, lam)
    if used is not None:
        if params.admits_intersections:
            return Determined(True, used)
        e = _exp_lt(lam, mu, ctx)
        if e is not None and e[0] is lam:
            # Each side names at most one assumption: the union is e[1] unless both name one and differ.
            return Determined(True, e[1] if not used or used == e[1] else tuple(sorted({*used, *e[1]})))
    return Independent(
        (
            f"a clause certifying existence at {lam}: regularity with a degenerate window, "
            f"SCH({mu}) below {lam} with intersections, or lam = lam^<{mu}",
        )
    )
