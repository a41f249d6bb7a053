import json
import math
import random

import numpy as np
import pytest

from midsampling import (
    INFINITE_LOT,
    LotSize,
    Plan,
    QualitySpec,
    binomial_cdf,
    compare_interpretations,
    comparison_to_json,
    interpolated_acceptance,
    interpolated_acceptance_curve,
    optimal_plan,
    realized_quality_levels,
    risk_pair,
    welmec_admissible_continuous,
    welmec_admissible_pointwise,
    welmec_risks,
)
from midsampling.render import render
from fractions import Fraction


class TestWelmecRisks:
    def test_small_lot_zero_acceptance_plan(self):
        risks = welmec_risks(Plan(27, 0), LotSize(43))
        assert risks.alpha_cont == pytest.approx(0.343, abs=2e-3)
        assert risks.beta_cont == pytest.approx(0.045, abs=2e-3)

    def test_mid_lot_plans(self):
        assert welmec_risks(Plan(56, 1), LotSize(143)).alpha_cont == pytest.approx(
            0.055, abs=2e-3
        )
        assert welmec_risks(Plan(36, 0), LotSize(143)).alpha_cont == pytest.approx(
            0.340, abs=2e-3
        )

    def test_infinite_lot_equals_binomial_risks(self):
        for plan in (Plan(88, 2), Plan(66, 1), Plan(42, 0), Plan(109, 3)):
            risks = welmec_risks(plan, INFINITE_LOT)
            assert risks.alpha_cont == risk_pair(plan, INFINITE_LOT).alpha
            assert risks.beta_cont == risk_pair(plan, INFINITE_LOT).beta
            for spec in (QualitySpec(), QualitySpec("0.02", "1/9")):
                risks = welmec_risks(plan, INFINITE_LOT, spec)
                assert risks.alpha_cont == 1.0 - binomial_cdf(plan.c, plan.n, float(spec.p_aql))
                assert risks.beta_cont == binomial_cdf(plan.c, plan.n, float(spec.p_lq))
        assert welmec_risks(Plan(88, 2), INFINITE_LOT).alpha_cont == pytest.approx(
            0.0587, abs=5e-4
        )

    def test_multiple_of_hundred_matches_exact_levels(self):
        # at N = 400 the nominal 1% level is realizable, so the continuous
        # risks coincide with the hypothesis-test risks
        for plan in (Plan(40, 0), Plan(62, 1), Plan(101, 2)):
            risks = welmec_risks(plan, LotSize(400))
            assert risks.alpha_cont == pytest.approx(
                risk_pair(plan, LotSize(400)).alpha, abs=1e-12
            )
        assert welmec_risks(Plan(40, 0), LotSize(400)).alpha_cont == pytest.approx(
            0.345, abs=2e-3
        )

    @pytest.mark.parametrize(
        "lot, counts",
        [(INFINITE_LOT, (Fraction(1, 100), Fraction(7, 100))), (LotSize(400), (4, 28)),
         (LotSize(258), ())],
        ids=["infinite", "whole-pN", "fractional-pN"],
    )
    def test_a_realized_nominal_level_is_one_scalar_tail(self, count_core_evaluations, lot, counts):
        # the lot rule's own tail at each level the lot realizes (every
        # level at infinity); a fractional p*N is Gamma-interpolated
        evaluations = count_core_evaluations()
        for plan in (Plan(88, 2), Plan(109, 3)):
            for function in (welmec_risks, welmec_admissible_continuous):
                evaluations.clear()
                function(plan, lot)
                assert evaluations == [(k, plan.c, plan.n, lot.count) for k in counts]


class TestContinuousAdmissibility:
    def test_full_inspection_with_one_allowed_defect_is_rejected(self):
        # acceptance 0.959 exceeds the 95% anchor
        assert interpolated_acceptance(Plan(101, 1), 101, 0.01) == pytest.approx(
            0.959, abs=1e-3
        )
        assert not welmec_admissible_continuous(Plan(101, 1), LotSize(101))

    def test_high_producer_risk_plan_is_accepted(self):
        assert welmec_admissible_continuous(Plan(36, 0), LotSize(143))

    def test_hypothesis_optimal_infinite_plan_is_rejected(self):
        assert not welmec_admissible_continuous(Plan(109, 3), INFINITE_LOT)

    @pytest.mark.parametrize("lot", [LotSize(10), INFINITE_LOT], ids=["finite", "infinite"])
    def test_degenerate_plan_rejected_like_risk_pair(self, lot):
        with pytest.raises(ValueError, match="n = 0"):
            risk_pair(Plan(0, 0), lot)
        with pytest.raises(ValueError, match="n = 0"):
            welmec_risks(Plan(0, 0), lot)
        with pytest.raises(ValueError, match="n = 0"):
            welmec_admissible_continuous(Plan(0, 0), lot)

    def test_full_inspection_near_multiples_of_hundred(self):
        # (N, c) with N = 100c or 100c + 1 fails the continuous criterion
        # although it is always admissible as a hypothesis test
        from midsampling import is_admissible

        for c, N in [(1, 100), (1, 101), (2, 200), (2, 201)]:
            plan = Plan(N, c)
            assert not welmec_admissible_continuous(plan, LotSize(N))
            assert is_admissible(plan, LotSize(N))


class TestPointwiseAdmissibility:
    def test_plan_57_1_splits_the_two_variants(self):
        assert welmec_admissible_pointwise(Plan(57, 1), LotSize(258))
        assert not welmec_admissible_continuous(Plan(57, 1), LotSize(258))

    def test_always_accepting_plan_fails(self):
        assert not welmec_admissible_pointwise(Plan(50, 50), LotSize(50))

    def test_infinite_lot_unsupported(self):
        with pytest.raises(ValueError):
            welmec_admissible_pointwise(Plan(109, 3), INFINITE_LOT)

    def test_degenerate_plan_rejected_like_risk_pair(self):
        with pytest.raises(ValueError):
            risk_pair(Plan(0, 0), LotSize(5))
        with pytest.raises(ValueError):
            welmec_admissible_pointwise(Plan(0, 0), LotSize(5))

    @pytest.mark.parametrize(
        "spec",
        [QualitySpec(), QualitySpec(Fraction(1, 10), Fraction(3, 10))],
        ids=["1-7", "10-30"],
    )
    def test_matches_every_k_definition_exactly(self, spec):
        # the criterion as defined: every K >= ceil(p*N) is accepted with
        # probability <= the anchor, in rational arithmetic, for all plans
        aql_anchor, lq_anchor = Fraction(95, 100), Fraction(5, 100)
        for N in range(1, 61):
            k_aql, k_lq = math.ceil(spec.p_aql * N), math.ceil(spec.p_lq * N)
            for n in range(1, N + 1):
                # largest numerator of P(X <= c) over K at or above each level
                worst_aql = [0] * (n + 1)
                worst_lq = [0] * (n + 1)
                for K in range(k_aql, N + 1):
                    cumulative = 0
                    for c in range(n + 1):
                        cumulative += math.comb(K, c) * math.comb(N - K, n - c)
                        worst_aql[c] = max(worst_aql[c], cumulative)
                        if K >= k_lq:
                            worst_lq[c] = max(worst_lq[c], cumulative)
                total = math.comb(N, n)
                for c in range(n + 1):
                    expected = (
                        Fraction(worst_aql[c], total) <= aql_anchor
                        and Fraction(worst_lq[c], total) <= lq_anchor
                    )
                    assert welmec_admissible_pointwise(Plan(n, c), LotSize(N), spec) is expected, (
                        N, n, c
                    )


class TestDominance:
    def test_quoted_plans_dominate(self):
        cases = [
            (Plan(27, 0), LotSize(43)),
            (Plan(36, 0), LotSize(143)),
            (Plan(56, 1), LotSize(143)),
            (Plan(40, 0), LotSize(400)),
            (Plan(62, 1), LotSize(400)),
            (Plan(101, 2), LotSize(400)),
            (Plan(57, 1), LotSize(258)),
        ]
        for plan, lot in cases:
            cont = welmec_risks(plan, lot)
            assert risk_pair(plan, lot).alpha <= cont.alpha_cont + 1e-12
            assert risk_pair(plan, lot).beta <= cont.beta_cont + 1e-12

    def test_dominance_for_meaningful_plans_sampled(self):
        # exact dominance holds whenever the consumers' side is non-trivial
        # (c below the realized limit-quality count); the acceptance suite
        # checks every lot size up to 300
        spec = QualitySpec()
        for N in (9, 43, 77, 143, 216, 258, 300):
            levels = realized_quality_levels(LotSize(N), spec)
            for n in range(1, N + 1, 7):
                acc_a = interpolated_acceptance_curve(n, N, levels.p_alpha)
                acc_b = interpolated_acceptance_curve(n, N, levels.p_beta)
                cont_a = interpolated_acceptance_curve(n, N, spec.p_aql)
                cont_b = interpolated_acceptance_curve(n, N, spec.p_lq)
                top = min(levels.k_beta, n + 1)
                assert np.all(cont_a <= acc_a + 5e-6)
                assert np.all(acc_b[:top] <= cont_b[:top] + 1e-9)


class TestComparisonReport:
    def test_lot_143_report(self):
        report = compare_interpretations(
            LotSize(143), candidate_plans=[Plan(36, 0), Plan(51, 1), Plan(56, 1)]
        )
        assert report.hypothesis_plan.plan == Plan(51, 1)
        by_plan = {ev.plan: ev for ev in report.evaluated_plans}
        assert by_plan[Plan(36, 0)].risks.alpha == pytest.approx(0.252, abs=2e-3)
        assert by_plan[Plan(36, 0)].welmec.alpha_cont == pytest.approx(0.340, abs=2e-3)
        assert by_plan[Plan(51, 1)].risks.alpha == 0.0
        assert by_plan[Plan(56, 1)].welmec.alpha_cont == pytest.approx(0.055, abs=2e-3)

    def test_infinite_lot_report(self):
        report = compare_interpretations(
            INFINITE_LOT, candidate_plans=[Plan(42, 0), Plan(66, 1)]
        )
        a = [ev.welmec.alpha_cont for ev in report.evaluated_plans]
        assert a[0] == pytest.approx(0.344, abs=1e-3)
        assert a[1] == pytest.approx(0.141, abs=1e-3)
        assert all(ev.pointwise_admissible is None for ev in report.evaluated_plans)

    def test_retro_risks_of_external_plan(self):
        report = compare_interpretations(LotSize(43), candidate_plans=[Plan(27, 0)])
        ev = report.evaluated_plans[0]
        assert ev.risks.alpha == 0.0
        assert ev.risks.beta <= 0.015

    def test_json_rendering(self):
        report = compare_interpretations(LotSize(101), candidate_plans=[Plan(101, 1)])
        payload = json.loads(comparison_to_json(report))
        assert payload["lot"] == 101
        candidate = payload["candidates"][0]
        assert candidate["plan"] == {"n": 101, "c": 1}
        assert candidate["continuous_admissible"] is False
        assert set(candidate["risks"]) == {"alpha", "beta"}

    def test_text_rendering(self):
        report = compare_interpretations(LotSize(143), candidate_plans=[Plan(36, 0)])
        text = render("comparison", "text", report)
        assert "(51,1)" in text
        assert "(36,0)" in text
        assert text.endswith("\n")


class TestCompareEqualsItsParts:
    """compare_interpretations judges its candidates through the lot rule of
    its reference search; every field equals the function that computes it
    on its own, and no tail is evaluated twice, anywhere: a nominal level
    that the lot realizes reads the rule's tail."""

    @pytest.mark.parametrize(
        "spec", [QualitySpec(), QualitySpec("1/40", "1/8")], ids=["1-7", "2.5-12.5"]
    )
    def test_fields_equal_the_standalone_functions(self, count_core_evaluations, spec):
        rng = random.Random(2026)
        whole = [LotSize(200 * rng.randint(1, 100)) for _ in range(4)]  # p*N whole at both levels
        other = [LotSize(rng.randint(2, 20_000)) for _ in range(6)]
        lots = whole + other + [INFINITE_LOT]
        evaluations = count_core_evaluations()
        for lot in lots:
            reference = optimal_plan(lot, spec).plan
            top = min(lot.count or 400, 400)
            candidates = [reference, Plan(reference.n - 1, reference.c)] if reference.n > 1 else []
            for _ in range(3):
                n = rng.randint(1, top)
                candidates.append(Plan(n, rng.randint(0, min(n, 6))))
            evaluations.clear()
            report = compare_interpretations(lot, spec, candidate_plans=candidates)
            assert evaluations and len(set(evaluations)) == len(evaluations), lot
            assert report.hypothesis_plan == optimal_plan(lot, spec)
            for ev in report.evaluated_plans:
                plan = ev.plan
                assert ev.risks == risk_pair(plan, lot, spec)
                assert ev.welmec == welmec_risks(plan, lot, spec)
                assert ev.continuous_admissible is welmec_admissible_continuous(plan, lot, spec)
                if lot.is_finite:
                    assert ev.pointwise_admissible is welmec_admissible_pointwise(plan, lot, spec)
                    assert ev.welmec.alpha_cont == 1.0 - interpolated_acceptance(
                        plan, lot.count, spec.p_aql
                    )
                    assert ev.welmec.beta_cont == interpolated_acceptance(
                        plan, lot.count, spec.p_lq
                    )
                else:
                    assert ev.pointwise_admissible is None
