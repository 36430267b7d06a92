import random

import pytest
from hypothesis import given

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    Aleph,
    AtLeastCard,
    Card,
    CardinalAtom,
    ClassParams,
    EMPTY_CONTEXT,
    Finite,
    TwoCandidates,
    UndeterminedCount,
    ZeroCount,
    ZeroSharp,
    aleph,
    build_context,
    cofinality,
    evaluate_line,
    hilbert_count_by_cardinality,
    hilbert_count_by_internal_size,
    internal_size_of_cardinality,
    is_regular,
    shelah_count_by_cardinality,
    shelah_count_by_internal_size,
    successor,
    wellorder_internal_size,
)
from alephcalc.ordinals import OMEGA, ORD_ZERO, cnf_add, from_int, omega_power

from conftest import alephs, random_cardinal
from oracles import gch_pow
from test_soundness import CONTEXTS, context

A_W = aleph(OMEGA)
A_W1 = aleph(cnf_add(OMEGA, from_int(1)))
GCH = build_context(gch=True)
VL = build_context(v_equals_l=True)
SHARP = build_context(zero_sharp=ZeroSharp.EXISTS)
NO_SHARP = build_context(zero_sharp=ZeroSharp.NOT_EXISTS)


def hilbert_oracle(lam, family):
    """Count basis sizes kappa <= lam with kappa^{aleph_0} = lam (GCH oracle).

    The family must include every cardinal <= lam that can reach lam, which
    holds because kappa^{aleph_0} ∈ {kappa, kappa^+} under GCH.
    """
    count = 0
    for kappa in family:
        if kappa <= lam and gch_pow(kappa, ALEPH0) == lam:
            count += 1
    return count


class TestHilbertByCardinality:
    def test_spec_examples(self):
        assert hilbert_count_by_cardinality(A_W, GCH) == ZeroCount(("GCH",))
        assert hilbert_count_by_cardinality(A_W1, GCH) == Finite(2, ("GCH",))
        assert hilbert_count_by_cardinality(ALEPH2, GCH) == Finite(1, ("GCH",))
        assert hilbert_count_by_cardinality(ALEPH1, GCH) == Finite(2, ("GCH",))

    def test_without_gch_undetermined(self):
        out = hilbert_count_by_cardinality(ALEPH2, EMPTY_CONTEXT)
        assert isinstance(out, UndeterminedCount)
        assert "continuum" in out.reason

    def test_countable_rejected(self):
        with pytest.raises(ValueError, match="uncountable"):
            hilbert_count_by_cardinality(ALEPH0, GCH)

    def test_against_enumeration_oracle(self):
        # All indexes in [1, w*3]: w*a+b with the finite parts swept to 12.
        family = [aleph(ORD_ZERO)]
        indexes = []
        for a in range(3):
            for b in range(13):
                if a == 0 and b == 0:
                    continue
                indexes.append(cnf_add(omega_power(from_int(1), a) if a else ORD_ZERO, from_int(b)))
        indexes.append(omega_power(from_int(1), 3))
        cards = [aleph(i) for i in indexes]
        family.extend(cards)
        # justification for the truncation: under GCH kappa^{aleph_0} is kappa
        # or its successor, so only lam and its predecessor can reach lam
        for kappa in family:
            assert gch_pow(kappa, ALEPH0) in (kappa, successor(kappa))
        for lam in cards:
            expected = hilbert_oracle(lam, family)
            got = hilbert_count_by_cardinality(lam, GCH)
            if expected == 0:
                assert got == ZeroCount(("GCH",))
            else:
                assert got == Finite(expected, ("GCH",))

    @given(alephs())
    def test_trichotomy_values(self, lam):
        if lam == ALEPH0:
            return
        out = hilbert_count_by_cardinality(lam, GCH)
        assert out in (ZeroCount(("GCH",)), Finite(1, ("GCH",)), Finite(2, ("GCH",)))
        assert isinstance(out, ZeroCount) == (cofinality(lam) == ALEPH0)


class TestHilbertByInternalSize:
    def test_spec_examples(self):
        assert hilbert_count_by_internal_size(ALEPH0) == Finite(1)
        assert hilbert_count_by_internal_size(A_W) == Finite(1)
        assert hilbert_count_by_internal_size(Aleph(ALEPH1)) == Finite(1)


class TestWellorder:
    def test_spec_examples(self):
        assert wellorder_internal_size(None, OMEGA, ALEPH1) == ALEPH0
        assert wellorder_internal_size(ALEPH1, ORD_ZERO, ALEPH1) == ALEPH1
        assert wellorder_internal_size(ALEPH1, OMEGA, ALEPH1) == ALEPH0

    def test_zero_and_successor_order_types(self):
        assert wellorder_internal_size(None, ORD_ZERO, ALEPH0) == ALEPH0
        assert wellorder_internal_size(None, from_int(5), ALEPH0) == ALEPH0
        assert wellorder_internal_size(ALEPH1, from_int(1), ALEPH1) == ALEPH0

    def test_monotonicity_failure_example(self):
        # (omega_1, <) end-extends into (omega_1 + omega, <) yet has larger
        # internal size.
        m = wellorder_internal_size(ALEPH1, ORD_ZERO, ALEPH1)
        n = wellorder_internal_size(ALEPH1, OMEGA, ALEPH1)
        assert m > n

    def test_outside_class(self):
        with pytest.raises(ValueError, match="outside class"):
            wellorder_internal_size(ALEPH2, ORD_ZERO, ALEPH0)
        with pytest.raises(ValueError, match="outside class"):
            wellorder_internal_size(ALEPH1, from_int(1), ALEPH0)
        # alpha = lam^+ itself is still in the class
        assert wellorder_internal_size(ALEPH1, ORD_ZERO, ALEPH0) == ALEPH1

    @given(alephs())
    def test_never_singular(self, base):
        if base.base is None and base.tail.is_zero:
            return
        for tail in (ORD_ZERO, OMEGA, from_int(3)):
            out = wellorder_internal_size(base, tail, base)
            assert is_regular(out)


class TestShelahByCardinality:
    def test_spec_examples(self):
        assert shelah_count_by_cardinality(ALEPH1, A_W, VL) == Finite(1, ("V=L",))
        assert shelah_count_by_cardinality(ALEPH1, ALEPH1, VL) == Card(ALEPH2, ("V=L",))
        assert shelah_count_by_cardinality(ALEPH1, A_W, SHARP) == Card(A_W1, ("sharp",))
        assert shelah_count_by_cardinality(ALEPH2, A_W, NO_SHARP) == Finite(1, ("no-sharp",))

    def test_no_sharp_cases(self):
        # cf in [mu, lam): singular with pinned uncountable cofinality
        lam = Aleph(ALEPH1)  # cf = aleph_1
        assert shelah_count_by_cardinality(ALEPH1, lam, NO_SHARP) == Card(successor(lam), ("no-sharp",))
        # regular lam: only a lower bound
        assert shelah_count_by_cardinality(ALEPH1, ALEPH2, NO_SHARP) == AtLeastCard(ALEPH2, ("no-sharp",))
        # mu = aleph_1 with countable cofinality: genuinely undetermined
        out = shelah_count_by_cardinality(ALEPH1, A_W, NO_SHARP)
        assert isinstance(out, UndeterminedCount)

    @pytest.mark.parametrize("line, record", [
        # Covering pins cf^L(lam) = cf(lam) = aleph_1 < mu: eventual categoricity fails.
        ("assume no-sharp; shelah_card(aleph(2), aleph(aleph(1)))",
         '{"query": "shelah_card(aleph(2), aleph(aleph(1)))", "verdict": "determined", "value": "1", '
         '"assumptions_used": ["no-sharp"], "notes": []}'),
        ("shelah_card(aleph(2), aleph(aleph(1)))",
         '{"query": "shelah_card(aleph(2), aleph(aleph(1)))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["missing: the status of 0# (with sharp: aleph(aleph(1)+1); '
         'without: 1)"]}'),
    ])
    def test_pinned_cofinality_below_mu_gives_one_model(self, line, record):
        results, _ = evaluate_line(line, EMPTY_CONTEXT)
        assert [r.to_json_line() for r in results] == [record]

    def test_unknown_sharp(self):
        # mu = aleph_0: the count is a ZFC theorem, both branches agree.
        assert shelah_count_by_cardinality(ALEPH0, A_W, EMPTY_CONTEXT) == Card(A_W1)
        assert shelah_count_by_cardinality(ALEPH0, ALEPH0, EMPTY_CONTEXT) == Card(ALEPH1)
        # mu = aleph_1 at a countable-cofinality point: branch-dependent.
        out = shelah_count_by_cardinality(ALEPH1, A_W, EMPTY_CONTEXT)
        assert isinstance(out, UndeterminedCount)
        assert "0#" in out.reason

    def test_errors(self):
        with pytest.raises(ValueError, match="regular"):
            shelah_count_by_cardinality(A_W, A_W, VL)
        with pytest.raises(ValueError, match="at least mu"):
            shelah_count_by_cardinality(ALEPH2, ALEPH1, VL)

    def test_atom_is_an_error_in_every_context(self):
        # Its successor is unrepresented, including where no-sharp alone would give >= lam.
        theta = CardinalAtom("theta", True)
        for ctx in (EMPTY_CONTEXT, GCH, VL, SHARP, NO_SHARP):
            with pytest.raises(ValueError, match="successor of an opaque atom is unrepresented"):
                shelah_count_by_cardinality(ALEPH1, theta, ctx)

    def test_consistency_of_refinement(self, rng):
        # Wherever both the V=L and the no-sharp branches are determined, the
        # V=L answer refines the no-sharp one.
        for _ in range(300):
            lam = random_cardinal(rng)
            for mu in (ALEPH0, ALEPH1, ALEPH2):
                if lam < mu:
                    continue
                under_vl = shelah_count_by_cardinality(mu, lam, VL)
                under_ns = shelah_count_by_cardinality(mu, lam, NO_SHARP)
                if isinstance(under_ns, UndeterminedCount):
                    continue
                if isinstance(under_ns, (Finite, Card)):
                    assert type(under_vl) is type(under_ns)
                    if isinstance(under_ns, Finite):
                        assert under_vl.n == under_ns.n
                    else:
                        assert under_vl.value == under_ns.value
                else:
                    assert isinstance(under_ns, AtLeastCard)
                    assert isinstance(under_vl, Card)
                    assert under_vl.value >= under_ns.value

    def test_vl_with_high_cofinality_gives_successor_count(self, rng):
        for _ in range(200):
            lam = random_cardinal(rng)
            for mu in (ALEPH0, ALEPH1, ALEPH2):
                if lam < mu or cofinality(lam) < mu:
                    continue
                assert shelah_count_by_cardinality(mu, lam, VL) == Card(successor(lam), ("V=L",))


class TestShelahByInternalSize:
    def test_spec_examples(self):
        assert shelah_count_by_internal_size(ALEPH1, ALEPH2, EMPTY_CONTEXT) == AtLeastCard(aleph(3))
        assert shelah_count_by_internal_size(ALEPH1, A_W, GCH) == AtLeastCard(A_W1, ("GCH",))
        assert isinstance(shelah_count_by_internal_size(ALEPH1, A_W, EMPTY_CONTEXT), UndeterminedCount)

    def test_never_finite(self, rng):
        for _ in range(300):
            lam = random_cardinal(rng)
            for mu in (ALEPH0, ALEPH1):
                if lam < mu:
                    continue
                for ctx in (EMPTY_CONTEXT, GCH, VL):
                    out = shelah_count_by_internal_size(mu, lam, ctx)
                    assert isinstance(out, (AtLeastCard, UndeterminedCount))


class TestCrossModuleCoherence:
    @given(alephs())
    def test_hilbert_two_models_realise_the_two_candidates(self, lam):
        lam_plus = successor(lam)
        if hilbert_count_by_cardinality(lam_plus, GCH) == Finite(2, ("GCH",)) and cofinality(lam) == ALEPH0:
            params = ClassParams(mu=ALEPH1, ls=ALEPH1)
            if lam > ALEPH1:
                verdict = internal_size_of_cardinality(params, lam_plus, GCH)
                assert verdict == TwoCandidates(lam, lam_plus, ("GCH",))


def test_shelah_count_by_internal_size_at_a_regular_lam_uses_no_assumption_in_every_context():
    rng = random.Random(20261021)
    for spec in CONTEXTS:
        ctx = context(spec)
        for _ in range(300):
            mu, lam = (c if is_regular(c) else successor(c) for c in (random_cardinal(rng), random_cardinal(rng)))
            if lam < mu:
                mu, lam = lam, mu
            out = shelah_count_by_internal_size(mu, lam, ctx)
            assert out == AtLeastCard(successor(lam)) and out.used == (), (spec, mu, lam, out)
