"""Hypothesis-relative cardinal arithmetic: 2^{<mu}, lambda^{<mu}, closedness.

Everything here is a conditional computation: the context either certifies
enough SCH/GCH to settle the value and the verdict says which assumptions
were used, or the answer is Independent with the missing instance named.
One direction is unconditional: a successor of a cardinal of cofinality
below mu is never mu-closed (Koenig), so that refutation needs no axioms.
"""

from __future__ import annotations

from .cardinals import (
    ALEPH0,
    CardinalExpr,
    _pred,
    card_compare,
    cofinality,
    require_level,
    require_regular,
    successor,
)
from .hypotheses import (
    Determined,
    HypothesisContext,
    Independent,
    Verdict,
    _covering,
    _sch_below,
    ctx_implies_sch,
    is_false,
    sch_holds_at,
)
from .ordinals import _EQUAL, _GREATER, _LESS


def two_lt(mu: CardinalExpr, ctx: HypothesisContext) -> Verdict[CardinalExpr]:
    """2^{<mu}.  aleph_0 unconditionally for mu = aleph_0; mu itself under GCH."""
    if mu is ALEPH0:
        return Determined(ALEPH0)
    if ctx.gch:
        return Determined(mu, ("GCH",))
    return Independent((f"the continuum function below {mu} (e.g. GCH)",))


def is_almost_mu_closed(
    lam: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext
) -> Verdict[bool]:
    """Is theta^{<mu} <= lam for every infinite theta < lam?"""
    return ctx_implies_sch(ctx, mu, lam)


def _koenig(pred: CardinalExpr | None, mu: CardinalExpr) -> bool:
    """Does Koenig refute that the successor of pred is mu-closed, cf(pred) < mu?  None is a limit."""
    return pred is not None and cofinality(pred) < mu


def is_mu_closed(lam: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext) -> Verdict[bool]:
    """Is theta^{<mu} < lam for every infinite theta < lam?

    Equivalent to: SCH_{mu,lam} holds and lam is not the successor of a
    cardinal of cofinality below mu.  The second conjunct refutes on its own.
    """
    require_level(mu, lam)
    if mu is ALEPH0:  # every lam is aleph(0)-closed; _pred would raise on a plain atom
        return Determined(True)
    return Determined(False) if _koenig(_pred(lam), mu) else sch_holds_at(ctx, mu, lam)


def _mu_closed(lam: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext) -> tuple[str, ...] | None:
    """``used`` of a true ``is_mu_closed(lam, mu, ctx)``, or None; builds no verdict and no
    text.  The caller has checked ``require_level(mu, lam)``."""
    if mu is ALEPH0:
        return ()
    return None if _koenig(_pred(lam), mu) else _sch_below(ctx, mu, lam)


def _exp_lt(lam: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext) -> tuple[CardinalExpr, tuple[str, ...]] | None:
    """``(value, used)`` of lam^{<mu} when ctx settles it, or None; builds no verdict and no
    text.  The caller has checked that mu is regular and lam >= mu."""
    if mu is ALEPH0:
        return lam, ()
    value = lam if cofinality(lam) >= mu else successor(lam)
    used = _covering(ctx, mu, value)  # value >= lam >= mu: no level check needed
    return None if used is None else (value, used)


def exp_lt(lam: CardinalExpr, mu: CardinalExpr, ctx: HypothesisContext) -> Verdict[CardinalExpr]:
    """lam^{<mu}.

    With the relevant almost-closedness certified: lam when cf(lam) >= mu,
    lam^+ when cf(lam) < mu.  For lam < mu the value is mu exactly under GCH;
    the case is kept visible rather than silently extended.
    """
    require_regular(mu)
    if card_compare(lam, mu) is _LESS:
        if ctx.gch:
            return Determined(mu, ("GCH",))
        return Independent((f"GCH (to evaluate {lam}^<{mu} with {lam} < {mu})",))
    settled = _exp_lt(lam, mu, ctx)
    if settled is None:
        return Independent((f"SCH({mu}) at {lam}",))
    return Determined(*settled)


def triangle(mu: CardinalExpr, lam: CardinalExpr, ctx: HypothesisContext) -> Verdict[bool]:
    """The accessibility-index order mu <| lam (reflexive on equal inputs).

    mu-closedness of lam is sufficient, and above 2^{<mu} it is equivalent.
    """
    require_regular(mu)
    require_regular(lam, "lam")
    cmp = card_compare(mu, lam)
    if cmp is _GREATER:
        raise ValueError("mu must be at most lam")
    if cmp is _EQUAL:
        return Determined(True)
    closed = is_mu_closed(lam, mu, ctx)
    if not is_false(closed):
        return closed
    bound = two_lt(mu, ctx)
    if isinstance(bound, Independent):
        return bound
    # bound.value is mu (under GCH, as mu > aleph_0 here), so lam > 2^<mu.
    return Determined(False, tuple(sorted(set(closed.used) | set(bound.used))))
