import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    Aleph,
    AtLeast,
    BelowLS,
    CardinalAtom,
    ClassParams,
    Determined,
    EMPTY_CONTEXT,
    Exact,
    ExplicitSet,
    Independent,
    SchAssumption,
    SizeInterval,
    SpectrumFacts,
    TwoCandidates,
    UnboundedBelow,
    Undetermined,
    aleph,
    build_context,
    cofinality,
    colimit_presentability_bound,
    existence_at,
    existence_window,
    internal_size_of_cardinality,
    is_regular,
    lambda_r,
    no_model_of_internal_size,
    rank_excluded_at,
    successor,
)
from alephcalc.evaluator import evaluate_line
from alephcalc.hypotheses import is_true
from alephcalc.ordinals import OMEGA, cnf_add, from_int

from conftest import alephs, cardinals
from oracles import cf_oracle

A_W = aleph(OMEGA)
A_W1 = aleph(cnf_add(OMEGA, from_int(1)))
GCH = build_context(gch=True)
THETA = CardinalAtom("theta", weakly_inaccessible=True)
PARAMS = ClassParams(mu=ALEPH1, ls=ALEPH1)


class TestClassParams:
    def test_ls_below_mu_rejected(self):
        with pytest.raises(ValueError, match="at least mu"):
            ClassParams(mu=ALEPH1, ls=ALEPH0)

    def test_small_cofinality_ls_rejected(self):
        # LS = LS^{<mu} forces cf(LS) >= mu.
        with pytest.raises(ValueError, match="cofinality"):
            ClassParams(mu=ALEPH1, ls=A_W)

    def test_singular_mu_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            ClassParams(mu=A_W, ls=A_W1)


class TestInternalSize:
    def test_spec_examples(self):
        assert internal_size_of_cardinality(PARAMS, aleph(3), GCH) == Exact(aleph(3), ("GCH",))
        assert internal_size_of_cardinality(PARAMS, A_W1, GCH) == TwoCandidates(A_W, A_W1, ("GCH",))
        assert internal_size_of_cardinality(PARAMS, ALEPH1, EMPTY_CONTEXT) == BelowLS()
        verdict = internal_size_of_cardinality(PARAMS, ALEPH2, EMPTY_CONTEXT)
        assert isinstance(verdict, Undetermined)
        assert "aleph(2)" in verdict.reason

    def test_below_ls_region(self):
        assert internal_size_of_cardinality(PARAMS, ALEPH0, GCH) == BelowLS()
        assert internal_size_of_cardinality(PARAMS, ALEPH1, GCH) == BelowLS()

    def test_interval_from_certified_predecessor(self):
        # SCH declared only up to aleph_4: mu-closedness of aleph_5 needs the
        # point aleph_4, certified; of aleph_6 needs aleph_5, not certified.
        ctx = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((ALEPH2, aleph(3), aleph(4)))),))
        assert internal_size_of_cardinality(PARAMS, aleph(5), ctx) == Exact(
            aleph(5), ("SCH(aleph(1), {aleph(2), aleph(3), aleph(4)})",)
        )
        verdict = internal_size_of_cardinality(PARAMS, aleph(6), ctx)
        assert verdict == SizeInterval(
            aleph(5), aleph(6), tight=False, used=("SCH(aleph(1), {aleph(2), aleph(3), aleph(4)})",)
        )

    def test_interval_from_ls_successor(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, ExplicitSet((ALEPH1,))),))
        verdict = internal_size_of_cardinality(PARAMS, A_W1, ctx)
        assert isinstance(verdict, SizeInterval)
        assert verdict.lo == ALEPH2 and verdict.hi == A_W1 and not verdict.tight

    def test_bad_successor_without_sch_degrades(self):
        assert isinstance(internal_size_of_cardinality(PARAMS, A_W1, EMPTY_CONTEXT), Undetermined)

    @given(alephs())
    def test_verdict_values_never_exceed_cardinality(self, lam):
        for ctx in (GCH, EMPTY_CONTEXT):
            verdict = internal_size_of_cardinality(PARAMS, lam, ctx)
            if isinstance(verdict, Exact):
                assert verdict.value <= lam
            elif isinstance(verdict, TwoCandidates):
                assert verdict.lo <= lam and verdict.hi <= lam
            elif isinstance(verdict, SizeInterval):
                assert verdict.lo <= verdict.hi <= lam

    @given(alephs())
    def test_two_candidates_shape(self, lam):
        verdict = internal_size_of_cardinality(PARAMS, lam, GCH)
        if isinstance(verdict, TwoCandidates):
            assert verdict.hi == successor(verdict.lo)
            assert cofinality(verdict.lo) < PARAMS.mu

    def test_atom_cardinality(self):
        # A weakly inaccessible is mu-closed under GCH, so internal size is
        # exact there — its rank is the (unnamed) successor, never theta
        # itself, which coheres with rank_excluded_at.
        assert internal_size_of_cardinality(PARAMS, THETA, GCH) == Exact(THETA, ("GCH",))
        assert is_true(rank_excluded_at(THETA, ALEPH1, GCH))
        assert isinstance(internal_size_of_cardinality(PARAMS, THETA, EMPTY_CONTEXT), Undetermined)

    def test_atom_ls_degrades_gracefully(self):
        params = ClassParams(mu=ALEPH1, ls=CardinalAtom("theta", weakly_inaccessible=True))
        kappa = CardinalAtom("zeta", weakly_inaccessible=True)
        assert isinstance(internal_size_of_cardinality(params, kappa, EMPTY_CONTEXT), Undetermined)


class TestColimitBound:
    def test_spec_examples(self):
        assert colimit_presentability_bound(ALEPH0, ALEPH1) == ALEPH1
        assert colimit_presentability_bound(ALEPH1, A_W) == A_W1
        assert colimit_presentability_bound(A_W, ALEPH2) == A_W1

    def test_atom_rejected(self):
        with pytest.raises(ValueError, match="atom"):
            colimit_presentability_bound(THETA, ALEPH1)

    @given(alephs(), alephs())
    def test_regular_and_dominates_regularisations(self, i, s):
        out = colimit_presentability_bound(i, s)
        assert is_regular(out)
        assert out >= lambda_r(s)
        assert out >= successor(i)


class TestExistenceWindow:
    def test_spec_examples(self):
        assert existence_window(ALEPH1, ALEPH2, GCH) == (ALEPH2, Determined(ALEPH2, ("GCH",)))
        assert existence_window(ALEPH0, aleph(5), EMPTY_CONTEXT) == (aleph(5), Determined(aleph(5)))
        lo, hi = existence_window(ALEPH1, ALEPH2, EMPTY_CONTEXT)
        assert lo == ALEPH2 and isinstance(hi, Independent)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            existence_window(ALEPH1, A_W, GCH)

    @given(alephs())
    def test_lower_endpoint_is_input_and_ordered(self, lam):
        if not is_regular(lam) or lam < ALEPH1:
            return
        lo, hi = existence_window(ALEPH1, lam, GCH)
        assert lo == lam
        assert isinstance(hi, Determined) and lo <= hi.value


class TestRankExcluded:
    def test_spec_examples(self):
        assert is_true(rank_excluded_at(THETA, ALEPH1, GCH))
        assert is_true(rank_excluded_at(THETA, ALEPH0, EMPTY_CONTEXT))
        with pytest.raises(ValueError, match="not a limit regular cardinal"):
            rank_excluded_at(ALEPH1, ALEPH1, EMPTY_CONTEXT)

    def test_aleph0_theta(self):
        assert is_true(rank_excluded_at(ALEPH0, ALEPH0, EMPTY_CONTEXT))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="not a limit regular cardinal"):
            rank_excluded_at(A_W, ALEPH0, EMPTY_CONTEXT)

    def test_without_hypotheses_independent(self):
        assert isinstance(rank_excluded_at(THETA, ALEPH1, EMPTY_CONTEXT), Independent)

    def test_declared_sch_at_theta(self):
        ctx = build_context(sch=(SchAssumption(ALEPH1, AtLeast(ALEPH1)),))
        assert is_true(rank_excluded_at(THETA, ALEPH1, ctx))


class TestNoModelRule:
    def _facts(self, lo, hi, cat):
        return SpectrumFacts(no_models_in_cardinality_interval=(lo, hi), categorical_in_cardinality=cat)

    def test_spec_examples(self):
        facts = self._facts(A_W, A_W1, A_W1)
        assert is_true(no_model_of_internal_size(PARAMS, A_W, facts, GCH))
        missing_cat = SpectrumFacts(no_models_in_cardinality_interval=(A_W, A_W1))
        assert isinstance(no_model_of_internal_size(PARAMS, A_W, missing_cat, GCH), Independent)
        with pytest.raises(ValueError, match="rule inapplicable"):
            no_model_of_internal_size(ClassParams(mu=ALEPH0, ls=ALEPH0), ALEPH1, facts, GCH)

    def test_rule_inapplicable_by_assumption_is_independent(self):
        # aleph(2)^<aleph(1) = aleph(2) needs GCH, so the rule's failure to apply does too.
        facts = self._facts(ALEPH2, aleph(3), aleph(3))
        assert no_model_of_internal_size(PARAMS, ALEPH2, facts, GCH) == Independent(
            ("rule inapplicable: aleph(2)^<aleph(1) = aleph(2)",), used=("GCH",))
        (rec,), _ = evaluate_line(
            "no_model_rule(aleph(1), aleph(1), aleph(2), aleph(2), aleph(3), aleph(3))", GCH)
        assert rec.verdict == "independent"
        assert list(rec.assumptions_used) == ["GCH"]

    def test_gap_must_cover_whole_window(self):
        narrow = self._facts(A_W, A_W, A_W1)
        assert isinstance(no_model_of_internal_size(PARAMS, A_W, narrow, GCH), Independent)

    def test_undecided_exponent_propagates(self):
        facts = self._facts(A_W, A_W1, A_W1)
        assert isinstance(no_model_of_internal_size(PARAMS, A_W, facts, EMPTY_CONTEXT), Independent)

    def test_never_false(self):
        facts = SpectrumFacts()
        v = no_model_of_internal_size(PARAMS, A_W, facts, GCH)
        assert isinstance(v, Independent)


class TestExistenceAt:
    def test_spec_examples(self):
        inter = ClassParams(mu=ALEPH1, ls=ALEPH1, admits_intersections=True)
        assert is_true(existence_at(inter, aleph(3), EMPTY_CONTEXT))
        assert is_true(existence_at(inter, A_W, GCH))
        plain = ClassParams(mu=ALEPH1, ls=ALEPH1)
        assert isinstance(existence_at(plain, A_W, EMPTY_CONTEXT), Independent)

    def test_regular_without_intersections_needs_degenerate_window(self):
        plain = ClassParams(mu=ALEPH1, ls=ALEPH1)
        assert is_true(existence_at(plain, aleph(3), GCH))
        assert isinstance(existence_at(plain, aleph(3), EMPTY_CONTEXT), Independent)

    def test_singular_without_intersections_needs_sch_and_fixed_point(self):
        plain = ClassParams(mu=ALEPH1, ls=ALEPH1)
        # aleph_w has countable cofinality: lam^{<mu} = lam^+ != lam, no clause.
        assert isinstance(existence_at(plain, A_W, GCH), Independent)
        # aleph_{omega_1} has cofinality aleph_1 >= mu: window degenerates.
        assert is_true(existence_at(plain, Aleph(ALEPH1), GCH))

    def test_a_singular_lam_names_the_sch_instance_of_each_rule(self):
        # SCH below aleph_{omega_1} certifies the singular lam; SCH at it settles lam^{<mu} = lam.
        lam = Aleph(ALEPH1)
        below = SchAssumption(ALEPH1, UnboundedBelow(lam))
        at = SchAssumption(ALEPH1, ExplicitSet((lam,)))
        for sch in ((below, at), (at, below)):
            got = existence_at(ClassParams(mu=ALEPH1, ls=ALEPH1), lam, build_context(sch=sch))
            assert got == Determined(True, (below.describe(), at.describe()))
        assert isinstance(existence_at(ClassParams(mu=ALEPH1, ls=ALEPH1), lam, build_context(sch=(at,))),
                          Independent)

    def test_requires_arbitrarily_large_models(self):
        params = ClassParams(mu=ALEPH1, ls=ALEPH1, arbitrarily_large_models=False)
        with pytest.raises(ValueError, match="arbitrarily large"):
            existence_at(params, aleph(3), GCH)

    def test_requires_lam_above_ls(self):
        with pytest.raises(ValueError, match="exceed"):
            existence_at(PARAMS, ALEPH1, GCH)


@st.composite
def _existence_inputs(draw):
    """ClassParams with a regular mu and cf(LS(K)) >= mu, and a cardinal lam above LS(K)."""
    mu = draw(st.one_of(st.sampled_from((ALEPH0, ALEPH1, ALEPH2)), alephs().map(successor)))
    ls = draw(alephs())
    if ls < mu:
        ls = mu
    while cf_oracle(ls) < mu:
        ls = successor(ls)
    lam = draw(cardinals(with_atoms=True))
    if not lam > ls:
        # LS(K)^+ is regular, aleph_{LS(K)} has cofinality cf(LS(K)) >= mu and aleph_{LS(K)+omega}
        # has cofinality aleph(0); aleph(0) is no index base, so aleph(omega) stands in for both.
        far = (Aleph(ls), Aleph(ls, OMEGA)) if ls is not ALEPH0 else (A_W,)
        lam = draw(st.sampled_from((successor(ls), *far)))
    return ClassParams(mu=mu, ls=ls, admits_intersections=draw(st.booleans())), lam


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_existence_inputs(), st.sampled_from((GCH, build_context(v_equals_l=True))))
def test_existence_at_under_gch_is_its_closed_form(inputs, ctx):
    """Under GCH lam^{<mu} = lam exactly when cf(lam) >= mu, and SCH holds everywhere: a model
    exists when lam is regular, the class admits intersections, or cf(lam) >= mu.  Only a regular
    lam with intersections, or mu = aleph(0), leaves GCH unused."""
    params, lam = inputs
    mu, cf = params.mu, cf_oracle(lam)
    got = existence_at(params, lam, ctx)
    if cf is lam or params.admits_intersections or cf >= mu:
        free = (cf is lam and params.admits_intersections) or mu is ALEPH0
        assert got == Determined(True, () if free else ("GCH",))
    else:
        assert isinstance(got, Independent)
