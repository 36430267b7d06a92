"""Closed-form spectrum calculators for three worked classes.

* Hilbert spaces with isometries: internally categorical everywhere (the
  basis is the internal size); by cardinality the count under GCH is the
  0/1/2 trichotomy driven by cofinality.  Counts deliberately ignore
  finite-dimensional spaces: the cardinality argument (|H| = kappa^{aleph_0}
  for infinite-dimensional H) presupposes infinite dimension, and at
  aleph_1 under CH finite-dimensional spaces would otherwise inflate the
  count to aleph_1-many sizes of the continuum.
* Well-orders of type at most lam^+ under end-extension: internal size is
  cf(alpha) + aleph_0, never singular.
* The constructible-model class K^mu: categoricity in power alternates with
  the ambient set theory (V=L, 0# status), while by internal size it is
  nowhere categorical — only lower bounds are ever reported, never exact
  counts, since exactness is open.
"""

from __future__ import annotations

from .cardinals import (
    ALEPH0,
    ALEPH2,
    CardinalAtom,
    CardinalExpr,
    _pred,
    card_compare,
    cofinality,
    is_regular,
    require_level,
    successor,
)
from .hypotheses import (
    CardinalInterval,
    Determined,
    HypothesisContext,
    Independent,
    _EXISTS,
    _NOT_EXISTS,
    _sch_below,
    l_cofinality,
)
from .ordinals import CnfOrdinal, _EQUAL, _GREATER, _Record, _set


class Finite(_Record):
    __slots__ = ("n", "used")
    def __init__(self, n: int, used: tuple[str, ...] = ()) -> None:
        if n < 1:
            raise ValueError("finite counts start at 1; use ZeroCount for none")
        _set(self, "n", n)
        _set(self, "used", used)

    def __str__(self) -> str:
        return str(self.n)


class AtLeastCard(_Record):
    __slots__ = ("value", "used")
    def __init__(self, value: CardinalExpr, used: tuple[str, ...] = ()) -> None:
        _set(self, "value", value)
        _set(self, "used", used)

    def __str__(self) -> str:
        return f">={self.value}"


class ZeroCount(_Record):
    __slots__ = ("used",)
    def __init__(self, used: tuple[str, ...] = ()) -> None:
        _set(self, "used", used)

    def __str__(self) -> str:
        return "0"


# An exact infinite count is a Determined cardinal; an unsettled count is an
# Independent whose one missing entry says what would settle it.
Card = Determined
UndeterminedCount = Independent

CountValue = Finite | Determined | AtLeastCard | ZeroCount | Independent


# --- Hilbert spaces ---------------------------------------------------------


def hilbert_count_by_cardinality(lam: CardinalExpr, ctx: HypothesisContext) -> CountValue:
    """Isomorphism classes of infinite-dimensional Hilbert spaces of cardinality lam.

    A basis of size kappa gives cardinality kappa^{aleph_0}; under GCH that
    is kappa or kappa^+, which yields the 0/1/2 trichotomy.  Without GCH the
    count is governed by the continuum function and is reported undetermined.
    """
    if lam <= ALEPH0:
        raise ValueError("requires an uncountable cardinal")
    if not ctx.gch:
        return Independent((
            "count is |beta|+1 where lam^{aleph_0} = aleph_{alpha+beta} with alpha least "
            "such that aleph_alpha^{aleph_0} = lam^{aleph_0}; this needs the continuum function (assume GCH)",
        ))
    if cofinality(lam) is ALEPH0:
        return ZeroCount(("GCH",))
    pred = _pred(lam)
    if pred is not None and cofinality(pred) is ALEPH0:
        return Finite(2, ("GCH",))
    return Finite(1, ("GCH",))


def hilbert_count_by_internal_size(lam: CardinalExpr) -> CountValue:
    """Categorical in every internal size: the basis determines the space."""
    return Finite(1)


# --- well-orders ------------------------------------------------------------


def wellorder_internal_size(
    alpha_base: CardinalExpr | None,
    alpha_tail: CnfOrdinal,
    lam: CardinalExpr,
) -> CardinalExpr:
    """Internal size of (alpha, <) in the class of well-orders of type <= lam^+.

    The closure of A inside alpha is alpha itself iff A is cofinal, so the
    internal size is cf(alpha) + aleph_0 — in particular never singular.
    """
    if alpha_base is not None and not isinstance(lam, CardinalAtom):
        lam_plus = successor(lam)
        cmp = card_compare(alpha_base, lam_plus)
        if cmp is _GREATER or (cmp is _EQUAL and not alpha_tail.is_zero):
            raise ValueError("outside class")
    # A nonzero CNF tail is a countable successor or limit: cofinality <= omega.
    return cofinality(alpha_base) if alpha_base is not None and alpha_tail.is_zero else ALEPH0


# --- the constructible class K^mu -------------------------------------------


def _cond3_certified(mu: CardinalExpr, lam: CardinalExpr) -> bool:
    # In L, is lam^+ certifiedly not the successor of a cardinal of
    # L-cofinality below mu?  For mu = aleph_0 no infinite cardinal can have
    # smaller cofinality; for singular lam, covering pins (lam^+)^L = lam^+
    # with L-predecessor lam, whose L-cofinality the caller has pinned >= mu.
    if mu is ALEPH0:
        return True
    return not is_regular(lam)


def shelah_count_by_cardinality(
    mu: CardinalExpr, lam: CardinalExpr, ctx: HypothesisContext
) -> CountValue:
    """I(K^mu, lam): isomorphism classes of cardinality lam, by hypothesis."""
    require_level(mu, lam)
    # Taken before ctx is read, so an atom lam is an error in every context.
    lam_plus = successor(lam)
    if ctx.v_equals_l:
        if cofinality(lam) < mu:
            return Finite(1, ("V=L",))
        return Determined(lam_plus, ("V=L",))
    if ctx.zero_sharp is _EXISTS:
        return Determined(lam_plus, ("sharp",))
    if ctx.zero_sharp is _NOT_EXISTS:
        return _count_without_sharp(mu, lam)
    without = _count_without_sharp(mu, lam)
    if isinstance(without, Determined) and without.value is lam_plus:
        # Both 0# branches agree, so the count is a ZFC fact at this point.
        return Determined(lam_plus)
    if isinstance(without, Independent):
        shown = "undetermined"
    else:
        shown = without.value if isinstance(without, Determined) else without
    return Independent((f"the status of 0# (with sharp: {lam_plus}; without: {shown})",))


_NO_SHARP = HypothesisContext(zero_sharp=_NOT_EXISTS)


def _count_without_sharp(mu: CardinalExpr, lam: CardinalExpr) -> CountValue:
    pinned = l_cofinality(lam, _NO_SHARP)
    assert isinstance(pinned, Determined)
    interval: CardinalInterval = pinned.value
    used = ("no-sharp",)
    if interval.is_point:
        cf_l = interval.lo
        if cf_l < mu:
            return Finite(1, used)
        if _cond3_certified(mu, lam):
            return Determined(successor(lam), used)
        return AtLeastCard(lam, used)
    # cf(lam) = aleph_0, so cf^L(lam) is aleph_0 or aleph_1.
    if mu >= ALEPH2:
        return Finite(1, used)
    if mu is ALEPH0:
        # cf^L >= aleph_0 trivially and condition (3) is automatic.
        return Determined(successor(lam), used)
    return Independent((
        f"cf^L({lam}) lies in [aleph(0), aleph(1)] and mu = aleph(1) sits between the cases",
    ))


def shelah_count_by_internal_size(
    mu: CardinalExpr, lam: CardinalExpr, ctx: HypothesisContext
) -> CountValue:
    """Lower bound on models of internal size lam in K^mu; never finite."""
    require_level(mu, lam)
    if is_regular(lam):
        return AtLeastCard(successor(lam))
    # For singular lam, mu-closedness is exactly SCH_{mu,lam}.
    used = _sch_below(ctx, mu, lam)
    if used is not None:
        return AtLeastCard(successor(lam), used)
    return Independent((
        f"neither regularity nor mu-closedness of {lam} nor SCH({mu}) below {lam} is available",
    ))
