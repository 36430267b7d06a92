from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    Aleph,
    AtLeast,
    CardinalAtom,
    CardinalInterval,
    Determined,
    EMPTY_CONTEXT,
    ExplicitSet,
    InconsistentContextError,
    Independent,
    SchAssumption,
    UnboundedBelow,
    ZeroSharp,
    aleph,
    build_context,
    cofinality,
    ctx_implies_sch,
    extend_context,
    l_cofinality,
    sch_holds_at,
    successor,
)
from alephcalc.arithmetic import _mu_closed, is_mu_closed, two_lt
from alephcalc.cardinals import require_level
from alephcalc.hypotheses import HypothesisContext, _covering, _sch_below, is_true
from alephcalc.ordinals import OMEGA, cnf_add, from_int

from conftest import alephs
from oracles import sch_scan_below, sch_scan_point

A_W = aleph(OMEGA)
A_W1 = aleph(cnf_add(OMEGA, from_int(1)))
GCH = build_context(gch=True)
VL = build_context(v_equals_l=True)
SHARP = build_context(zero_sharp=ZeroSharp.EXISTS)
NO_SHARP = build_context(zero_sharp=ZeroSharp.NOT_EXISTS)


class TestBuildContext:
    def test_v_equals_l_closes_to_gch_and_no_sharp(self):
        assert VL.gch is True
        assert VL.zero_sharp is ZeroSharp.NOT_EXISTS

    def test_empty_context_is_agnostic(self):
        ctx = build_context()
        assert ctx == EMPTY_CONTEXT
        assert not ctx.gch and not ctx.v_equals_l
        assert ctx.zero_sharp is ZeroSharp.UNKNOWN

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InconsistentContextError, match="inconsistent context"):
            build_context(v_equals_l=True, zero_sharp=ZeroSharp.EXISTS)
        with pytest.raises(InconsistentContextError):
            extend_context(SHARP, v_equals_l=True)
        with pytest.raises(InconsistentContextError):
            extend_context(NO_SHARP, zero_sharp=ZeroSharp.EXISTS)

    def test_idempotent(self):
        ctx = build_context(
            gch=True,
            v_equals_l=True,
            sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),),
        )
        again = build_context(
            gch=ctx.gch, v_equals_l=ctx.v_equals_l, zero_sharp=ctx.zero_sharp, sch=ctx.sch
        )
        assert again == ctx

    def test_singular_mu_rejected_in_sch(self):
        with pytest.raises(ValueError, match="regular"):
            build_context(sch=(SchAssumption(A_W, AtLeast(A_W)),))

    def test_an_assumption_that_adds_nothing_keeps_the_context(self):
        assert extend_context(VL, gch=True) is VL
        assert extend_context(VL, zero_sharp=ZeroSharp.NOT_EXISTS) is VL
        assert extend_context(GCH) is GCH
        sch = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),))
        assert extend_context(sch, sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),)) is sch
        assert extend_context(VL, sch=sch.sch) == build_context(v_equals_l=True, sch=sch.sch)
        assert extend_context(GCH, v_equals_l=True) == VL


class TestCtxImpliesSch:
    def test_gch_covers_everything(self):
        assert is_true(ctx_implies_sch(GCH, ALEPH1, A_W))
        assert ctx_implies_sch(GCH, ALEPH1, A_W).used == ("GCH",)

    def test_empty_context_is_independent(self):
        v = ctx_implies_sch(EMPTY_CONTEXT, ALEPH1, A_W)
        assert isinstance(v, Independent)
        assert v.missing == ("SCH(aleph(1)) at aleph(w)",)

    def test_declared_at_least_scope(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),))
        assert is_true(ctx_implies_sch(ctx, ALEPH1, aleph(3)))
        assert isinstance(ctx_implies_sch(ctx, ALEPH1, ALEPH1), Independent)

    def test_declared_explicit_set(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((A_W, aleph(3)))),))
        assert is_true(ctx_implies_sch(ctx, ALEPH1, A_W))
        assert isinstance(ctx_implies_sch(ctx, ALEPH1, aleph(4)), Independent)

    def test_unbounded_below_successor_pins_predecessor(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, UnboundedBelow(A_W1)),))
        assert is_true(ctx_implies_sch(ctx, ALEPH1, A_W))
        assert isinstance(ctx_implies_sch(ctx, ALEPH1, ALEPH2), Independent)

    def test_unbounded_below_limit_covers_no_point(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, UnboundedBelow(A_W)),))
        assert isinstance(ctx_implies_sch(ctx, ALEPH1, ALEPH2), Independent)

    def test_higher_mu_covers_lower_mu(self):
        ctx = build_context(sch=(SchAssumption(ALEPH2, AtLeast(ALEPH2)),))
        assert is_true(ctx_implies_sch(ctx, ALEPH1, aleph(3)))

    def test_lower_mu_does_not_cover_higher(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH1)),))
        assert isinstance(ctx_implies_sch(ctx, ALEPH2, aleph(3)), Independent)

    def test_aleph0_is_trivial(self):
        assert is_true(ctx_implies_sch(EMPTY_CONTEXT, ALEPH0, A_W))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="regular"):
            ctx_implies_sch(GCH, A_W, A_W)
        with pytest.raises(ValueError, match="at least mu"):
            ctx_implies_sch(GCH, ALEPH2, ALEPH1)


class TestSchHoldsAt:
    def test_gch(self):
        assert is_true(sch_holds_at(GCH, ALEPH1, A_W))

    def test_successor_case_degrades_to_point(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((A_W,))),))
        assert is_true(sch_holds_at(ctx, ALEPH1, A_W1))
        assert isinstance(sch_holds_at(ctx, ALEPH1, aleph(cnf_add(OMEGA, from_int(2)))), Independent)

    def test_limit_case_needs_unbounded_coverage(self):
        at_least = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH2)),))
        assert is_true(sch_holds_at(at_least, ALEPH1, A_W))
        unbounded = build_context(sch=(SchAssumption(ALEPH1, UnboundedBelow(A_W)),))
        assert is_true(sch_holds_at(unbounded, ALEPH1, A_W))
        explicit = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((ALEPH2,))),))
        assert isinstance(sch_holds_at(explicit, ALEPH1, A_W), Independent)

    def test_at_least_scope_must_start_below_the_limit(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, AtLeast(A_W)),))
        assert isinstance(sch_holds_at(ctx, ALEPH1, A_W), Independent)
        assert is_true(sch_holds_at(ctx, ALEPH1, Aleph(ALEPH1)))


class TestLCofinality:
    def test_v_equals_l_pins_cofinality(self):
        v = l_cofinality(A_W, VL)
        assert v == Determined(CardinalInterval(ALEPH0, ALEPH0), ("V=L",))

    def test_sharp_makes_uncountables_regular_in_l(self):
        v = l_cofinality(A_W, SHARP)
        assert isinstance(v, Determined)
        assert v.value == CardinalInterval(A_W, A_W)

    def test_no_sharp_covering_interval(self):
        v = l_cofinality(Aleph(ALEPH2), NO_SHARP)
        assert isinstance(v, Determined)
        assert v.value == CardinalInterval(ALEPH2, ALEPH2)
        assert v.value.is_point

    def test_no_sharp_countable_cofinality_is_a_real_interval(self):
        v = l_cofinality(A_W, NO_SHARP)
        assert isinstance(v, Determined)
        assert v.value == CardinalInterval(ALEPH0, ALEPH1)
        assert not v.value.is_point

    def test_unknown_sharp_is_independent(self):
        v = l_cofinality(A_W, EMPTY_CONTEXT)
        assert isinstance(v, Independent)

    def test_aleph0_is_absolute(self):
        assert l_cofinality(ALEPH0, EMPTY_CONTEXT) == Determined(CardinalInterval(ALEPH0, ALEPH0))

    @given(alephs())
    def test_v_equals_l_always_exact(self, lam):
        v = l_cofinality(lam, VL)
        assert isinstance(v, Determined)
        assert v.value.lo == v.value.hi == cofinality(lam)


def _covered_pairs(ctx):
    """All (mu, card) pairs from a fixed probe family with a Determined answer."""
    probes = [ALEPH0, ALEPH1, ALEPH2, aleph(3), A_W, A_W1, Aleph(ALEPH1)]
    out = []
    for mu in (ALEPH0, ALEPH1, ALEPH2):
        for card in probes:
            if card >= mu:
                v = ctx_implies_sch(ctx, mu, card)
                if isinstance(v, Determined):
                    out.append(((mu, card), v.value))
    return out


@given(
    st.booleans(),
    st.sampled_from([ZeroSharp.UNKNOWN, ZeroSharp.EXISTS, ZeroSharp.NOT_EXISTS]),
    st.booleans(),
)
def test_monotonicity_of_determined_verdicts(gch, sharp, add_sch):
    try:
        small = build_context(gch=gch, zero_sharp=sharp)
    except InconsistentContextError:
        return
    sch = (SchAssumption(ALEPH1, AtLeast(ALEPH2)),) if add_sch else ()
    big = extend_context(small, gch=True, sch=sch)
    small_answers = dict(_covered_pairs(small))
    big_answers = dict(_covered_pairs(big))
    for key, value in small_answers.items():
        assert big_answers[key] == value


# --- the raw constructor closes and canonicalises like build_context ----------

_SCH_POOL = (
    SchAssumption(ALEPH1, AtLeast(ALEPH2)),
    SchAssumption(ALEPH2, UnboundedBelow(A_W1)),
    SchAssumption(ALEPH1, ExplicitSet((A_W, aleph(3)))),
    SchAssumption(ALEPH0, AtLeast(A_W)),
)


@given(
    st.booleans(),
    st.booleans(),
    st.sampled_from(list(ZeroSharp)),
    st.lists(st.sampled_from(_SCH_POOL), max_size=5),
)
def test_raw_context_equals_build_context(gch, v_equals_l, sharp, sch):
    flags = dict(gch=gch, v_equals_l=v_equals_l, zero_sharp=sharp, sch=tuple(sch))
    try:
        built = build_context(**flags)
    except InconsistentContextError:
        with pytest.raises(InconsistentContextError):
            HypothesisContext(**flags)
        return
    raw = HypothesisContext(**flags)
    assert raw == built
    assert raw.describe() == built.describe()


def test_raw_v_equals_l_context_settles_what_v_equals_l_settles():
    ctx = HypothesisContext(v_equals_l=True)
    assert ctx == VL
    assert two_lt(ALEPH1, ctx) == two_lt(ALEPH1, VL) == Determined(ALEPH1, ("GCH",))


def test_raw_v_equals_l_with_sharp_is_inconsistent():
    with pytest.raises(InconsistentContextError, match="V=L implies 0# does not exist"):
        HypothesisContext(v_equals_l=True, zero_sharp=ZeroSharp.EXISTS)


def test_raw_context_rejects_a_singular_sch_mu():
    with pytest.raises(ValueError, match="mu must be regular"):
        HypothesisContext(sch=(SchAssumption(A_W, AtLeast(A_W)),))


@given(st.permutations(_SCH_POOL), st.integers(min_value=0, max_value=3))
def test_contexts_are_equal_whatever_the_order_of_their_sch_instances(order, repeat):
    ctx = HypothesisContext(sch=(*order, order[repeat]))
    canon = HypothesisContext(sch=_SCH_POOL)
    assert ctx == canon
    assert hash(ctx) == hash(canon)
    assert ctx.describe() == canon.describe()


# --- SCH lookups scan the instances of one level together -----------------------

# Regular levels; as text, aleph(10) sorts between aleph(1) and aleph(2).
_DEEP = Aleph(Aleph(ALEPH1))
_LEVELS = (ALEPH1, ALEPH2, aleph(10), A_W1, successor(_DEEP), CardinalAtom("theta", weakly_inaccessible=True))
# The points asked about add two singular limits to the levels.
_POINTS = _LEVELS + (A_W, _DEEP)


@st.composite
def _sch_instances(draw):
    mu = draw(st.sampled_from(_LEVELS))
    kind = draw(st.sampled_from((AtLeast, UnboundedBelow, ExplicitSet)))
    if kind is ExplicitSet:
        return SchAssumption(mu, ExplicitSet(draw(st.lists(st.sampled_from(_POINTS), min_size=1, max_size=3))))
    return SchAssumption(mu, kind(draw(st.sampled_from(_POINTS))))


def _outcome(f, *args):
    """The verdict, or the type of the error raised, so a lookup and its oracle compare whole."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_sch_instances(), max_size=12))
def test_sch_lookups_equal_the_per_instance_scan(sch):
    ctx = build_context(sch=sch)
    for mu in _POINTS:
        for card in _POINTS:
            assert _outcome(ctx_implies_sch, ctx, mu, card) == _outcome(sch_scan_point, ctx, mu, card)
            assert _outcome(sch_holds_at, ctx, mu, card) == _outcome(sch_scan_below, ctx, mu, card)


def _used_if_true(f, *args):
    """``used`` of a true verdict, None for any other verdict, or the type of the error raised."""
    v = _outcome(f, *args)
    return v if isinstance(v, type) else v.used if is_true(v) else None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_sch_instances(), max_size=12))
def test_each_lookup_helper_gives_the_used_of_a_true_verdict(sch):
    """The helpers the engine asks internally answer as the public lookups and their oracles do,
    wherever the arguments pass the level check that the helpers leave to their callers."""
    ctx = build_context(sch=sch)
    for mu in _POINTS:
        for card in _POINTS:
            if _outcome(require_level, mu, card) is not None:
                continue
            expected = _used_if_true(ctx_implies_sch, ctx, mu, card)
            assert _outcome(_covering, ctx, mu, card) == expected == _used_if_true(sch_scan_point, ctx, mu, card)
            expected = _used_if_true(sch_holds_at, ctx, mu, card)
            assert _outcome(_sch_below, ctx, mu, card) == expected == _used_if_true(sch_scan_below, ctx, mu, card)
            assert _outcome(_mu_closed, card, mu, ctx) == _used_if_true(is_mu_closed, card, mu, ctx)


class TestFirstCoveringInstance:
    CTX = build_context(sch=(
        SchAssumption(ALEPH2, AtLeast(aleph(3))),
        SchAssumption(aleph(10), ExplicitSet((aleph(5),))),
    ))

    def test_the_first_covering_instance_wins_across_levels(self):
        for mu in (ALEPH1, aleph(3)):
            assert ctx_implies_sch(self.CTX, mu, aleph(5)) == Determined(True, ("SCH(aleph(10), {aleph(5)})",))

    def test_no_level_at_least_mu_covers(self):
        v = ctx_implies_sch(self.CTX, aleph(11), aleph(12))
        assert v == Independent(("SCH(aleph(11)) at aleph(12)",))

    def test_a_level_below_mu_is_skipped_at_a_limit(self):
        ctx = build_context(sch=(
            SchAssumption(aleph(3), AtLeast(aleph(3))),
            SchAssumption(ALEPH2, UnboundedBelow(A_W)),
            SchAssumption(ALEPH1, AtLeast(ALEPH1)),
        ))
        assert [a.mu for a in ctx.sch] == [ALEPH1, ALEPH2, aleph(3)]
        assert sch_holds_at(ctx, ALEPH2, A_W) == Determined(True, ("SCH(aleph(2), below aleph(w))",))
        assert sch_holds_at(ctx, ALEPH1, A_W) == Determined(True, ("SCH(aleph(1), >= aleph(1))",))


_LEVEL_POOL = (
    SchAssumption(ALEPH1, AtLeast(ALEPH2)),
    SchAssumption(aleph(10), ExplicitSet((A_W,))),
    SchAssumption(ALEPH2, UnboundedBelow(A_W1)),
    SchAssumption(ALEPH1, ExplicitSet((A_W, aleph(3)))),
    SchAssumption(aleph(10), AtLeast(aleph(10))),
    SchAssumption(ALEPH2, AtLeast(A_W)),
    SchAssumption(ALEPH1, UnboundedBelow(A_W)),
)


@given(st.permutations(_LEVEL_POOL))
def test_the_instances_of_a_level_are_adjacent_whatever_the_order_of_declaration(order):
    at_once = build_context(sch=order).sch
    one_by_one = EMPTY_CONTEXT
    for a in order:
        one_by_one = extend_context(one_by_one, sch=(a,))
    assert one_by_one.sch == at_once == build_context(sch=_LEVEL_POOL).sch
    levels = [a.mu for a in at_once]
    assert [level for level, _ in groupby(levels)] == [ALEPH1, aleph(10), ALEPH2]
