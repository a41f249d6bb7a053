import csv
import gc
import io
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from midsampling import (
    INFINITE_LOT,
    LotSize,
    NoPlanWithinCapError,
    Plan,
    QualitySpec,
    RiskBounds,
    binomial_cdf,
    compare_interpretations,
    interpolated_acceptance_curve,
    is_admissible,
    max_acceptance_number,
    optimal_plan,
    plan_table,
    realized_quality_levels,
    risk_pair,
    welmec_admissible_pointwise,
)
from midsampling import planner, risks
from midsampling.render import render

from exact_oracle import (
    exact_binomial_tail,
    exact_hypergeometric_tail,
    exact_optimal_plan,
    realized_counts,
)


# Binomial levels of the exact fact tests, in increasing order.
EXACT_LEVELS = (Fraction(1, 100), Fraction(7, 100), Fraction(1, 7), Fraction(99, 100))


def exact_consumers_risk(plan, N):
    # exact rational beta at the realized level ceil(0.07*N)
    return exact_hypergeometric_tail(plan.c, plan.n, realized_counts(N, 0.01, 0.07)[1], N)


class TestMaxAcceptanceNumber:
    def test_infinite_lot_optimal_sample_size(self):
        # beta(3) = 4.85% fits, beta(4) = 11.4% does not
        assert binomial_cdf(3, 109, 0.07) <= 0.05
        assert binomial_cdf(4, 109, 0.07) == pytest.approx(0.114, abs=1e-3)
        assert max_acceptance_number(109, INFINITE_LOT) == 3

    def test_small_finite_lot(self):
        assert max_acceptance_number(22, LotSize(43)) == 0

    def test_absent_when_even_zero_fails(self):
        # 0.93**5 is about 0.70, far above the default bound
        assert max_acceptance_number(5, INFINITE_LOT) is None

    def test_ignores_producers_bound(self):
        # (36, 0) at N=143 has alpha = 0.252 but beta fine; c_max must be 0
        assert max_acceptance_number(36, LotSize(143)) == 0

    @given(st.integers(1, 250), st.integers(1, 250))
    @example(25, 19)  # exact ties: beta == 1/20
    @example(16, 12)
    @settings(max_examples=60, deadline=None)
    def test_returned_c_is_maximal_feasible(self, N, n):
        # feasibility means beta <= 1/20 in exact rational arithmetic
        if n > N:
            n, N = N, n
        beta_max = Fraction(1, 20)
        c = max_acceptance_number(n, LotSize(N))
        if c is None:
            assert exact_consumers_risk(Plan(n, 0), N) > beta_max
        else:
            assert exact_consumers_risk(Plan(n, c), N) <= beta_max
            if c + 1 <= n:
                assert exact_consumers_risk(Plan(n, c + 1), N) > beta_max


    @pytest.mark.parametrize(
        "spec", [QualitySpec(), QualitySpec("1/50", "1/10"), QualitySpec("1/200", "1/20")],
        ids=["1-7", "2-10", "0.5-5"],
    )
    def test_equals_a_linear_scan(self, spec):
        # beta(n, c) does not fall as c grows, so the consumers' bound admits
        # a prefix of c: the gallop and bisection over c find the end of the
        # prefix that a scan of exact risks from c = 0 finds
        rng = random.Random(2028)
        for _ in range(30):
            n = rng.randint(1, 400)
            lot = INFINITE_LOT if rng.random() < 0.3 else LotSize(rng.randint(n, 3000))
            if lot.is_finite:
                K, N = realized_counts(lot.count, spec.p_aql, spec.p_lq)[1], lot.count
                tails = (exact_hypergeometric_tail(c, n, K, N) for c in range(n + 1))
            else:
                tails = (exact_binomial_tail(c, n, spec.p_lq) for c in range(n + 1))
            expected = len(list(itertools.takewhile(lambda t: t <= Fraction(1, 20), tails))) - 1
            assert max_acceptance_number(n, lot, spec) == (None if expected < 0 else expected)

    def test_a_large_sample_takes_few_tails(self, count_core_evaluations):
        # c_n = 4373 at n = 64 000: one tail per c, each summing c + 1 terms,
        # waited quadratically in n; a gallop and a bisection take about
        # 2 log2(c_n) tails
        evaluations = count_core_evaluations()
        assert max_acceptance_number(64_000, INFINITE_LOT) == 4373
        assert len(evaluations) <= 40


class TestOptimalPlan:
    def test_infinite_lot(self):
        result = optimal_plan(INFINITE_LOT)
        assert result.plan == Plan(109, 3)
        assert result.risks.alpha == pytest.approx(0.0243, abs=5e-4)
        assert result.risks.beta == pytest.approx(0.0485, abs=5e-4)

    def test_quoted_finite_lots(self):
        assert optimal_plan(LotSize(258)).plan == Plan(57, 1)
        r43 = optimal_plan(LotSize(43))
        assert r43.plan == Plan(22, 0)
        assert r43.risks.alpha == 0.0
        assert r43.risks.beta == pytest.approx(0.048, abs=1e-3)
        r143 = optimal_plan(LotSize(143))
        assert r143.plan == Plan(51, 1)
        assert r143.risks.alpha == 0.0
        r400 = optimal_plan(LotSize(400))
        assert r400.plan == Plan(82, 2)
        assert r400.risks.alpha == pytest.approx(0.028, abs=1e-3)

    def test_tiny_lots_require_full_inspection(self):
        for N in range(1, 15):
            result = optimal_plan(LotSize(N))
            assert result.plan == Plan(N, 0)
            assert result.risks.alpha == 0.0
            assert result.risks.beta == 0.0

    def test_result_is_admissible_and_minimal(self):
        for N in (37, 143, 258, 519):
            result = optimal_plan(LotSize(N))
            lot = LotSize(N)
            assert is_admissible(result.plan, lot)
            n_star = result.plan.n
            if n_star > 1:
                levels = realized_quality_levels(lot)
                acc_a = interpolated_acceptance_curve(n_star - 1, N, levels.p_alpha)
                acc_b = interpolated_acceptance_curve(n_star - 1, N, levels.p_beta)
                assert not np.any((1 - acc_a <= 0.05) & (acc_b <= 0.05))

    @pytest.mark.parametrize("lot", [LotSize(2000), INFINITE_LOT], ids=["2000", "inf"])
    def test_producers_tail_once_per_new_c(self, count_core_evaluations, lot):
        # alpha(n, c) does not decrease in n, so a c that failed the
        # producers' bound at a smaller n need not be checked again: one
        # producers' tail per new c, and the plan's c is the one searched
        # for, so the reported risks add none
        levels = realized_quality_levels(lot)
        alpha_level = levels.k_alpha if lot.is_finite else levels.p_alpha
        evaluations = count_core_evaluations()
        result = optimal_plan(lot)
        assert result.plan == (Plan(107, 3) if lot.is_finite else Plan(109, 3))
        producers_tails = [e for e in evaluations if e[0] == alpha_level]
        assert 0 < len(producers_tails) <= result.plan.c + 1

    @pytest.mark.parametrize("lot, budget", [(LotSize(2000), 24), (INFINITE_LOT, 22)],
                             ids=["2000", "inf"])
    def test_tail_budget(self, count_core_evaluations, lot, budget):
        # galloping and bisecting in n for each c, in place of a scan over
        # every n (117 tails at N=2000, 119 at infinity), from a closed-form
        # start for c = 0 and 1 (37 and 35 tails when both galloped from n = 1)
        evaluations = count_core_evaluations()
        assert optimal_plan(lot).plan == (Plan(107, 3) if lot.is_finite else Plan(109, 3))
        assert 0 < len(evaluations) <= budget

    @pytest.mark.parametrize("lot, budget", [(LotSize(2000), 24), (INFINITE_LOT, 22)],
                             ids=["2000", "inf"])
    def test_reported_risks_reuse_search_tails(self, count_core_evaluations, lot, budget):
        # the risks of the plan found are the tails its search computed last
        # (two more evaluations when they were computed again), and a table
        # row costs at most five tails on average
        evaluations = count_core_evaluations()
        result = optimal_plan(lot)
        assert len(evaluations) <= budget
        assert result.risks == risk_pair(result.plan, lot)
        evaluations.clear()
        plan_table(1, 2000)
        assert len(evaluations) / 2000 <= 5.0

    def test_infinite_scan_cap(self):
        with pytest.raises(NoPlanWithinCapError):
            optimal_plan(INFINITE_LOT, scan_cap=50)

    def test_scan_cap_at_its_edge(self):
        assert optimal_plan(INFINITE_LOT, scan_cap=109).plan == Plan(109, 3)
        for cap in (108, 0):
            with pytest.raises(NoPlanWithinCapError):
                optimal_plan(INFINITE_LOT, scan_cap=cap)

    @pytest.mark.parametrize(
        "spec, bounds, plan",
        [
            # p_lq rounds to 1.0 as a float: the start takes ln(1 - p_lq) exactly
            (QualitySpec("1/2", Fraction(10**21 - 1, 10**21)), RiskBounds(), Plan(5, 4)),
            # n_beta(0) lies far past the cap, or p_lq rounds to 0.0
            (QualitySpec(Fraction(1, 10**30), Fraction(1, 10**29)), RiskBounds(), None),
            (QualitySpec(Fraction(1, 10**401), Fraction(1, 10**400)), RiskBounds(), None),
            # beta_max rounds to 0.0, or to 1.0
            (QualitySpec("1/2", Fraction(10**21 - 1, 10**21)),
             RiskBounds("1/20", Fraction(1, 10**400)), Plan(51, 31)),
            (QualitySpec(), RiskBounds("1/20", Fraction(10**21 - 1, 10**21)), Plan(1, 0)),
        ],
        ids=["lq-ulp-below-1", "lq-1e-29", "lq-1e-400", "beta-1e-400", "beta-ulp-below-1"],
    )
    def test_search_start_at_extreme_levels_and_bounds(self, spec, bounds, plan):
        if plan is None:
            with pytest.raises(NoPlanWithinCapError):
                optimal_plan(INFINITE_LOT, spec, bounds, scan_cap=10**5)
        else:
            assert optimal_plan(INFINITE_LOT, spec, bounds).plan == plan

    @pytest.mark.parametrize("beta_max", [Fraction(10**20 - 1, 10**20),
                                          Fraction(10**400 - 1, 10**400)], ids=["1e-20", "1e-400"])
    def test_a_consumers_bound_within_an_ulp_of_one(self, beta_max):
        # ln(beta_max) rounds to 0, so the Poisson start of c = 1 has m0 = 0;
        # the plans are the exact ones, at infinity by a brute force
        bounds = RiskBounds(Fraction(1, 10**9), beta_max)
        plan = optimal_plan(LotSize(100), QualitySpec(), bounds).plan
        assert plan == Plan(*exact_optimal_plan(100, alpha_max=bounds.alpha_max,
                                                beta_max=beta_max)) == Plan(2, 1)
        aql, lq = Fraction(1, 100), Fraction(7, 100)
        exact = next(
            (n, c) for n in itertools.count(1) for c in range(n, -1, -1)
            if 1 - exact_binomial_tail(c, n, aql) <= bounds.alpha_max
            and exact_binomial_tail(c, n, lq) <= beta_max
        )
        assert optimal_plan(INFINITE_LOT, QualitySpec(), bounds).plan == Plan(*exact) == Plan(5, 4)

    def test_custom_spec_and_bounds(self):
        spec = QualitySpec(p_aql=0.02, p_lq=0.1)
        bounds = RiskBounds(alpha_max=0.1, beta_max=0.1)
        result = optimal_plan(INFINITE_LOT, spec, bounds)
        assert is_admissible(result.plan, INFINITE_LOT, spec, bounds)
        assert result.plan.n < 109


class TestReportedRisksAtInfinity:
    """The reported risks of a plan at infinity depend on the plan and the
    quality levels alone: the search reports what ``risk_pair`` reports,
    though it searched up to the scan cap."""

    @given(st.integers(1, 50), st.integers(2, 10), st.integers(1, 20), st.integers(1, 20))
    @example(1, 10, 2, 10)  # (531, 2): beta 0.0997001448774403 either way
    @example(30, 9, 11, 4)
    @example(3, 9, 2, 12)
    @example(25, 4, 11, 9)
    @settings(max_examples=100, deadline=None)
    def test_search_reports_risk_pair(self, aql_permille, lq_ratio, alpha_pct, beta_pct):
        p_aql = Fraction(aql_permille, 1000)
        spec = QualitySpec(p_aql, p_aql * lq_ratio)
        result = optimal_plan(
            INFINITE_LOT, spec, RiskBounds(Fraction(alpha_pct, 100), Fraction(beta_pct, 100))
        )
        assert result.risks == risk_pair(result.plan, INFINITE_LOT, spec)

    def test_a_report_past_the_default_cap_equals_risk_pair(self):
        # a scan cap or a compare candidate above 10^6 draws reports with the
        # binomial bound of the plan's own draws, as risk_pair does
        result = optimal_plan(INFINITE_LOT, scan_cap=2 * 10**6)
        assert result.risks == risk_pair(result.plan, INFINITE_LOT)
        plan = Plan(2_000_000, 20_500)
        report = compare_interpretations(INFINITE_LOT, candidate_plans=[plan])
        assert report.evaluated_plans[0].risks == risk_pair(plan, INFINITE_LOT)


class TestExactTies:
    """Plans whose consumers' risk is exactly 1/20 meet the 5% bound, however
    the float risk happens to round."""

    @pytest.mark.parametrize("N, plan", [(25, Plan(19, 0)), (16, Plan(12, 0))])
    def test_tie_is_admissible_everywhere(self, N, plan):
        lot = LotSize(N)
        assert exact_consumers_risk(plan, N) == Fraction(1, 20)
        assert optimal_plan(lot).plan == plan
        assert exact_optimal_plan(N) == (plan.n, plan.c)
        assert max_acceptance_number(plan.n, lot) == plan.c
        assert is_admissible(plan, lot)
        row = plan_table(N, N).to_csv().splitlines()[1]
        assert row.split(",")[:3] == [str(N), str(plan.n), str(plan.c)]

    def test_lot_25_csv_row(self):
        assert plan_table(25, 25).to_csv().splitlines()[1] == "25,19,0,0.000000,0.050000,0,2"

    def test_lot_16_tie_is_pointwise_admissible(self):
        assert welmec_admissible_pointwise(Plan(12, 0), LotSize(16))

    @pytest.mark.parametrize("N, plan", [(25, Plan(19, 0)), (16, Plan(12, 0)), (280, Plan(63, 1))])
    def test_reported_tie_compares_like_the_decision(self, N, plan):
        # one risk is exactly 1/20 and is reported as 0.05, so comparing the
        # reported risks with the bounds agrees with is_admissible
        pair = risk_pair(plan, LotSize(N))
        assert 0.05 in (pair.alpha, pair.beta)
        assert is_admissible(plan, N)
        assert pair.alpha <= 0.05 and pair.beta <= 0.05
        if N == 25:
            assert optimal_plan(LotSize(N)).risks == pair


class TestPlanTable:
    def test_quoted_rows(self):
        table = plan_table(43, 43)
        assert table.rows[0][1].plan == Plan(22, 0)
        table = plan_table(143, 143)
        assert table.rows[0][1].plan == Plan(51, 1)

    def test_single_item_lot(self):
        table = plan_table(1, 1)
        _, result = table.rows[0]
        assert result.plan == Plan(1, 0)
        assert result.risks.alpha == 0.0 and result.risks.beta == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            plan_table(5, 4)
        with pytest.raises(ValueError):
            plan_table(0, 10)

    def test_csv_layout(self):
        table = plan_table(256, 260)
        text = table.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["N", "n", "c", "alpha", "beta", "p_alpha_num", "p_beta_num"]
        assert len(rows) == 6
        row_258 = rows[3]
        assert row_258[:3] == ["258", "57", "1"]
        assert row_258[5:] == ["2", "19"]
        # exact rational: alpha = 1 - 63114/66306
        assert float(row_258[3]) == pytest.approx(1 - 63114 / 66306, abs=1e-6)

    def test_csv_is_deterministic(self):
        a = plan_table(1, 60).to_csv()
        b = plan_table(1, 60).to_csv()
        assert a == b

    def test_plan_csv_writes_the_tables_record(self):
        # a table writes its records, ``plan --format csv`` a result of
        # optimal_plan: first rows, walked rows, rows searched inside a run,
        # count steps and the tie lot 25 read the same either way
        for lo, hi in ((1, 30), (250, 260), (1990, 2010), (2995, 3010), (50_000, 50_030)):
            header, *lines = plan_table(lo, hi).to_csv().splitlines()
            assert len(lines) == hi - lo + 1
            for N, line in zip(range(lo, hi + 1), lines):
                plan = render("plan", "csv", LotSize(N), optimal_plan(LotSize(N)))
                assert plan.splitlines() == [header, line], N

    @pytest.mark.parametrize("lo, hi", [(1, 10_000), (50_000, 55_000)])
    def test_a_table_holds_under_400_bytes_a_lot(self, lo, hi):
        # one record per lot, (N, n, c, alpha, beta, k_alpha, k_beta): a
        # PlanResult with its Plan, RiskPair and RealizedLevels per lot
        # held about 920 bytes
        plan_table(lo, lo + 10)  # state a first table may leave behind stays uncounted
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = plan_table(lo, hi)
            per_lot = (tracemalloc.get_traced_memory()[0] - before) / (hi - lo + 1)
        finally:
            tracemalloc.stop()
        assert len(table) == hi - lo + 1 and per_lot < 400, per_lot

    @pytest.mark.parametrize(
        "spec, bounds",
        [
            (QualitySpec(), RiskBounds()),
            (QualitySpec("1/30", "1/7"), RiskBounds("1/100", "1/100")),
            # the custom specs of the benchmark's lot queries
            (QualitySpec("1/50", "1/10"), RiskBounds("0.10", "0.05")),
            (QualitySpec("3/200", "2/25"), RiskBounds("0.05", "0.10")),
            (QualitySpec("1/200", "1/20"), RiskBounds("0.05", "0.05")),
            (QualitySpec("1/50", "3/25"), RiskBounds("0.05", "0.05")),
            (QualitySpec(), RiskBounds("1/20", "1/1000")),
            (QualitySpec(), RiskBounds("1/20", "1/10")),
            # ceil(p_lq*N) = N for N <= 100, and for every N
            (QualitySpec("1/2", "99/100"), RiskBounds()),
            (QualitySpec("1/2", Fraction(10**21 - 1, 10**21)), RiskBounds()),
        ],
        ids=["default", "1/30-1/7", "2-10", "1.5-8", "0.5-5", "2-12", "beta-1/1000",
             "beta-1/10", "lq-99/100", "lq-ulp-below-1"],
    )
    def test_start_of_search_never_changes_a_row(self, spec, bounds):
        # each lot's search starts from the previous lot's, and a cold one at
        # a closed-form estimate: rows equal the plans found from scratch,
        # and chunks of any phase stitch together
        table = plan_table(1, 600, spec, bounds)
        for N, result in table:
            assert result == optimal_plan(LotSize(N), spec, bounds), N
        text = table.to_csv()
        for phase in (0, 13):
            cuts = sorted({1, *range(1 + phase, 601, 20), 601})
            parts = [plan_table(lo, hi - 1, spec, bounds).to_csv() for lo, hi in zip(cuts, cuts[1:])]
            assert parts[0] + "".join(part.split("\n", 1)[1] for part in parts[1:]) == text

    @staticmethod
    def lot_growth_cases():
        """(n, c, K, N): every case with N <= 12 and 400 seeded ones up to
        N = 400."""
        rng = random.Random(1707)
        cases = [(n, c, K, N) for N in range(1, 13) for n in range(1, N + 1)
                 for c in range(n + 1) for K in range(N + 1)]
        for _ in range(400):
            N = rng.randint(1, 400)
            n = rng.randint(1, N)
            cases.append((n, rng.randint(0, min(n, 12)), rng.randint(0, N), N))
        return cases

    def test_acceptance_does_not_fall_as_the_lot_grows(self):
        # the fact behind the table's n_beta floor: for fixed (n, c, K) the
        # exact acceptance at N + 1 is at least the one at N, so a sample
        # size the consumers' bound refuses at N it refuses at N + 1 while
        # the LQ count stays
        for n, c, K, N in self.lot_growth_cases():
            grown = exact_hypergeometric_tail(c, n, K, N + 1)
            assert grown >= exact_hypergeometric_tail(c, n, K, N), (n, c, K, N)

    def test_one_item_more_keeps_most_of_the_producers_risk(self):
        # the fact behind a table's carried refusals: a sample of n from N + 1
        # items misses the added item, good or defective, with probability
        # 1 - n/(N + 1), and is then a sample of the N items, so alpha at
        # N + 1 is at least that share of alpha at N, whether the AQL count
        # stays at K or steps to K + 1
        for n, c, K, N in self.lot_growth_cases():
            share = 1 - Fraction(n, N + 1)
            alpha = 1 - exact_hypergeometric_tail(c, n, K, N)
            for grown_count in (K, K + 1):
                grown = 1 - exact_hypergeometric_tail(c, n, grown_count, N + 1)
                assert grown >= share * alpha, (n, c, K, grown_count, N)

    def test_a_carried_refusal_needs_a_floor_where_the_lq_count_steps(self):
        # where the LQ count steps up, n_beta(c) may fall below the floor m
        # that a refusal carried from earlier lots holds for: c is refused at
        # every n >= m, but (n_beta(c), c) may still be admissible.  So such
        # a row refuses c only once the consumers' bound refuses (m - 1, c).
        # Here c* is carried, with alpha(m, c*) above alpha_max at an
        # m > n_beta(c*), and the row still finds (n_beta(c*), c*)
        N = 2001
        assert realized_counts(N, 0.01, 0.07)[1] > realized_counts(N - 1, 0.01, 0.07)[1]
        expected = optimal_plan(LotSize(N))
        n_star, c_star = expected.plan.n, expected.plan.c
        k_alpha = realized_counts(N, 0.01, 0.07)[0]
        m = n_star + 1
        while 1 - exact_hypergeometric_tail(c_star, m, k_alpha, N) <= Fraction(1, 20):
            m += 1
        rule = risks._LotRule(LotSize(N), QualitySpec(), N, RiskBounds())
        _, (_, n_betas, _) = planner._search(rule)
        hints = [*n_betas[:c_star], m, m + 50]  # each c <= c* refused at every n >= hints[c]
        lq_count_before = realized_counts(N - 1, 0.01, 0.07)[1]
        record, _ = planner._search(rule, (lq_count_before, hints, [N] * (c_star + 1)))
        assert planner._result(record) == expected

    def test_a_refusal_inside_the_alpha_band_carries_to_no_lot(self):
        # a producers' refusal decided by the exact risk, inside the tie band,
        # leaves no margin above the band to carry down the lots: N_until is
        # 0, and the next rows search that c again.  alpha_max just below the
        # exact alpha(n_beta(0), 0) puts the float risk in the band
        N, k_alpha = 2000, realized_counts(2000, 0.01, 0.07)[0]
        m = planner._first(risks._LotRule(LotSize(N), QualitySpec(), N).admits_beta, 0, 0, N, 1)
        alpha = 1 - exact_hypergeometric_tail(0, m, k_alpha, N)
        bounds = RiskBounds(alpha_max=alpha - Fraction(1, 10**30))
        rule = risks._LotRule(LotSize(N), QualitySpec(), N, bounds)
        lo, hi = rule.alpha_near - rule.alpha_tol, rule.alpha_near + rule.alpha_tol
        assert lo < 1 - rule.acceptance(0, m, 0) <= hi and not rule.admits_alpha(m, 0)
        assert rule.refused_until(m, 0) == 0
        _, (_, n_betas, untils) = planner._search(rule, (None, (), []))
        assert n_betas[0] == m and untils[0] == 0
        for N, result in plan_table(N, N + 100, QualitySpec(), bounds):
            assert result == optimal_plan(LotSize(N), QualitySpec(), bounds), N

    def test_a_walk_ends_in_a_tie_band(self, count_core_evaluations):
        # a table walks the run of a plan while both float risks lie at or
        # below the lower edges of their tie bands.  beta_max a hair below
        # the exact beta of (107, 3) at N = 3002, inside the run that the
        # plan of N = 3001 starts, puts that float risk in its band: the walk
        # stops there, the exact value refuses, and the row is searched from
        # the tails the walk evaluated
        N = 3002
        K = realized_counts(N, 0.01, 0.07)[1]
        assert K == realized_counts(N - 1, 0.01, 0.07)[1]
        bounds = RiskBounds("1/20", exact_hypergeometric_tail(3, 107, K, N) - Fraction(1, 10**40))
        rule = risks._LotRule(LotSize(N - 1), QualitySpec(), N - 1, bounds)
        assert planner._result(planner._search(rule, (None, (), []))[0]).plan == Plan(107, 3)
        assert rule.walk(107, 3, N + 10) == [] and rule.N == N
        lo, hi = rule.beta_near - rule.beta_tol, rule.beta_near + rule.beta_tol
        assert lo < rule.acceptance(1, 107, 3) <= hi and not rule.admits_beta(107, 3)
        evaluations = count_core_evaluations()
        table = plan_table(N - 1, N + 10, QualitySpec(), bounds)
        at_stop = [e for e in evaluations if e[3] == N]
        assert at_stop and len(set(at_stop)) == len(at_stop)
        assert table.rows[1] == (N, optimal_plan(LotSize(N), QualitySpec(), bounds))
        assert table.rows[1][1].plan != Plan(107, 3)
        for M, result in table:
            assert result == optimal_plan(LotSize(M), QualitySpec(), bounds), M

    @pytest.mark.parametrize(
        "spec, bounds",
        [(QualitySpec(), RiskBounds()), (QualitySpec("1/50", "1/10"), RiskBounds("0.10", "0.05"))],
        ids=["default", "2-10"],
    )
    def test_chunked_tables_equal_the_whole_table(self, spec, bounds):
        # a range cut into seeded chunks of 1, 7 and 20 rows, each its own
        # table, gives the whole range's rows field for field: at small
        # lots, inside the log-factorial table and past its end at 100 002
        rng = random.Random(3007)
        for lo, hi in ((1, 3000), (30_000, 31_000), (99_990, 100_030)):
            rows, N = [], lo
            while N <= hi:
                last = min(hi, N + rng.choice((1, 7, 20)) - 1)
                rows.extend(plan_table(N, last, spec, bounds))
                N = last + 1
            assert rows == list(plan_table(lo, hi, spec, bounds)), (lo, hi)

    @staticmethod
    def one_item_more_cases():
        """(n, tail), tail(c, m) the exact P(X <= c) for a sample of m items:
        every lot of at most 12 items, seeded lots of up to 400 items, and
        binomial levels."""
        rng = random.Random(2411)
        lots = [(n, K, N) for N in range(1, 13) for n in range(1, N + 1) for K in range(N + 1)]
        for N in [rng.randint(1, 400) for _ in range(400)]:
            lots.append((rng.randint(1, N), rng.randint(0, N), N))
        for n, K, N in lots:
            yield n, lambda c, m, K=K, N=N: exact_hypergeometric_tail(c, m, K, N)
        for p in (Fraction(1, 100), Fraction(7, 100), Fraction(1, 7), Fraction(99, 100)):
            for n in range(1, 41):
                yield n, lambda c, m, p=p: exact_binomial_tail(c, m, p)

    def test_acceptance_does_not_fall_as_c_grows(self):
        # [F3]: X <= c implies X <= c + 1, so a bound that refuses c refuses
        # every larger c at the same n, checked exactly
        for n, c, K, N in self.lot_growth_cases():
            if c < n:
                grown = exact_hypergeometric_tail(c + 1, n, K, N)
                assert grown >= exact_hypergeometric_tail(c, n, K, N), (n, c, K, N)
        for p in EXACT_LEVELS:
            for n in range(1, 41):
                tails = [exact_binomial_tail(c, n, p) for c in range(n + 1)]
                assert tails == sorted(tails), (n, p)

    def test_acceptance_does_not_rise_with_the_defect_count(self):
        # [F7]: one more defective item adds no fewer defects to any sample,
        # so the realized counts bound the risks at every level beyond them
        for n, c, K, N in self.lot_growth_cases():
            if K < N:
                grown = exact_hypergeometric_tail(c, n, K + 1, N)
                assert grown <= exact_hypergeometric_tail(c, n, K, N), (n, c, K, N)
        for n in range(1, 41):
            for c in range(min(n, 12) + 1):
                tails = [exact_binomial_tail(c, n, p) for p in EXACT_LEVELS]
                assert tails == sorted(tails, reverse=True), (n, c)

    def test_one_item_more_adds_at_most_one_defect(self):
        # drawn one item at a time, X(n) <= X(n - 1) + 1, so beta(n, c + 1) >=
        # beta(n - 1, c): the consumers' bound refuses (n* - 1, c*), so it
        # refuses (n*, c* + 1), and the planner asks for no tail past c*
        for n, tail in self.one_item_more_cases():
            for c in range(min(n, 12)):
                assert tail(c + 1, n) >= tail(c, n - 1), (n, c)

    def test_acceptance_does_not_rise_with_the_sample_size(self):
        # drawn one item at a time, X(n - 1) <= X(n), so alpha(n, c) does not
        # fall as n grows: a c whose producers' risk is refused at a floor of
        # n_beta(c) has no plan, and a table row refuses it with that one tail
        for n, tail in self.one_item_more_cases():
            for c in range(min(n, 12)):
                assert tail(c, n) <= tail(c, n - 1), (n, c)

    def test_plan_takes_the_largest_c_the_consumers_bound_admits(self):
        # the search reads c* off the coupling above, without a tail past it
        for N, result in plan_table(1, 2000):
            assert max_acceptance_number(result.plan.n, LotSize(N)) == result.plan.c, N
        for lot in (LotSize(258), LotSize(2000), LotSize(500_000), INFINITE_LOT):
            plan = optimal_plan(lot).plan
            assert max_acceptance_number(plan.n, lot) == plan.c, lot

    @pytest.mark.parametrize(
        "spec, bounds",
        [(QualitySpec(), RiskBounds()), (QualitySpec("3/200", "2/25"), RiskBounds("0.05", "0.10"))],
        ids=["default", "1.5-8"],
    )
    @pytest.mark.parametrize(
        "lo, hi", [(16_370, 16_400), (99_990, 100_020), (30_000, 30_100)],
        ids=["small-view-edge", "table-edge", "mid"],
    )
    def test_rows_across_the_log_factorial_views(self, spec, bounds, lo, hi):
        # a row takes its realized levels from its rule's counts; across the
        # 2**14 and 100 002 edges of the log-factorial views it equals the
        # plan found on its own
        for N, result in plan_table(lo, hi, spec, bounds):
            assert result == optimal_plan(LotSize(N), spec, bounds), N


@pytest.fixture
def count_tolerances(monkeypatch):
    """Call it to start counting: it returns a list that receives, for each
    tolerance the lot rules compute from then on, "scalar" for tol(N) and
    "binomial" for the pair tol(n, p) of both levels."""
    calls = []
    tail_tolerance, binomial_tolerances = risks._tail_tolerance, risks._binomial_tolerances

    def counting_tail(N):
        calls.append("scalar")
        return tail_tolerance(N)

    def counting_binomial(n, ps):
        calls.append("binomial")
        return binomial_tolerances(n, ps)

    def start() -> list:
        monkeypatch.setattr(risks, "_tail_tolerance", counting_tail)
        monkeypatch.setattr(risks, "_binomial_tolerances", counting_binomial)
        return calls

    return start


class TestWorkPins:
    """What a table row and a cold plan compute, counted: each pin fails if
    the work it guards is done again."""

    def test_warm_row_tails_by_lq_count(self, count_core_evaluations):
        # c* = 3 at these lots.  Inside a run of constant LQ count the
        # previous row's n_beta(c) is a floor m, and c* is admitted again at
        # m, one tail for each bound.  A c below c* stays refused at every
        # n >= m, with no tail, through the lot its last producers' tail
        # carries it to; past that lot one producers' tail at m refuses it
        # again.  Where the count steps, n_beta(c) may fall: a carried c takes
        # one consumers' tail below its floor, and c* two consumers' tails
        # and one producers' tail.  No tail past c* is needed: beta(n, c+1)
        # >= beta(n-1, c)
        evaluations = count_core_evaluations()
        table = plan_table(30_000, 30_400)
        assert {result.plan.c for _, result in table} == {3}
        per_row = Counter(N for *_, N in evaluations)
        lq_count = {N: -(-7 * N // 100) for N in range(30_000, 30_401)}  # ceil(0.07 N)
        steps = [N for N in range(30_001, 30_401) if lq_count[N] > lq_count[N - 1]]
        runs = [N for N in range(30_001, 30_401) if lq_count[N] == lq_count[N - 1]]
        assert (len(steps), len(runs)) == (28, 372)
        assert Counter(per_row[N] for N in runs) == {2: 363, 3: 9}
        assert {per_row[N] for N in steps} == {6}

    def test_table_tails_from_one(self, count_core_evaluations):
        evaluations = count_core_evaluations()
        plan_table(1, 2000)
        assert len(evaluations) == 5_598

    @pytest.mark.parametrize("spec", [QualitySpec(), QualitySpec("1/50", "1/10"),
                                      QualitySpec("1/200", "1/20")], ids=["1-7", "2-10", "0.5-5"])
    def test_no_tail_twice_at_a_lot(self, count_core_evaluations, spec):
        # the gallop for n_beta(c) reads a tail that a count step's refusal
        # of (m - 1, c) has evaluated from the rule's memory
        evaluations = count_core_evaluations()
        plan_table(1, 5000, spec)
        assert len(set(evaluations)) == len(evaluations)

    def test_a_table_takes_one_scalar_tol_per_row(self, count_tolerances):
        calls = count_tolerances()
        plan_table(1, 500)
        plan_table(99_990, 100_020, QualitySpec("1/50", "1/10"), RiskBounds("0.10", "0.05"))
        assert calls == ["scalar"] * (500 + 31)

    def test_binomial_tolerances_once_per_rule(self, count_tolerances):
        # an infinite lot's rule fixes its pair when it is built, and the
        # search, the reported risks and every compare candidate read it
        calls = count_tolerances()
        assert optimal_plan(INFINITE_LOT).plan == Plan(109, 3)
        assert calls == ["binomial"]
        calls.clear()
        compare_interpretations(INFINITE_LOT, candidate_plans=[Plan(109, 3), Plan(108, 3)])
        assert calls == ["binomial"]


class TestBruteForceOracle:
    """The planner against the exhaustive exact search of exact_oracle.py."""

    def test_matches_quoted_plans(self):
        assert exact_optimal_plan(258) == (57, 1)
        assert exact_optimal_plan(14) == (14, 0)

    def test_self_consistency_at_600(self):
        assert Plan(*exact_optimal_plan(600)) == optimal_plan(LotSize(600)).plan

    def test_equivalence_sample(self):
        for N in (1, 7, 15, 43, 99, 100, 101, 143, 255, 400):
            assert Plan(*exact_optimal_plan(N)) == optimal_plan(LotSize(N)).plan

    def test_custom_parameters_equivalence(self):
        spec = QualitySpec(p_aql=0.02, p_lq=0.12)
        bounds = RiskBounds(alpha_max=0.08, beta_max=0.03)
        for N in (20, 77, 150):
            assert (
                Plan(*exact_optimal_plan(N, 0.02, 0.12, 0.08, 0.03))
                == optimal_plan(LotSize(N), spec, bounds).plan
            )

    @given(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=20),
            st.fractions(min_value=0, max_value=1, max_denominator=20),
        ).filter(lambda levels: 0 < levels[0] < levels[1] < 1),
        st.one_of(st.integers(10, 200).map(lambda k: k / 1000), st.just(Fraction(1, 7))),
        st.one_of(st.integers(10, 200).map(lambda k: k / 1000), st.just(Fraction(1, 7))),
        st.integers(1, 150),
    )
    @settings(max_examples=40, deadline=None)
    def test_custom_specs_match_exact_oracle(self, levels, alpha_max, beta_max, N):
        # bounds are short decimals, read as written, or an exact fraction
        aql, lq = levels
        result = optimal_plan(LotSize(N), QualitySpec(aql, lq), RiskBounds(alpha_max, beta_max))
        assert result.plan == Plan(*exact_optimal_plan(N, aql, lq, alpha_max, beta_max))


class TestCFeasibilityStructure:
    def test_c_max_sufficiency(self):
        # (n, c) admissible for some c iff (n, c_max) is admissible
        bounds = RiskBounds()
        alpha_max, beta_max = float(bounds.alpha_max), float(bounds.beta_max)
        for N in (9, 43, 100, 143, 258, 300):
            lot = LotSize(N)
            levels = realized_quality_levels(lot)
            for n in range(1, N + 1):
                acc_a = interpolated_acceptance_curve(n, N, levels.p_alpha)
                acc_b = interpolated_acceptance_curve(n, N, levels.p_beta)
                admissible = (1 - acc_a <= alpha_max) & (acc_b <= beta_max)
                c_max = max_acceptance_number(n, lot)
                if c_max is None:
                    assert not np.any(acc_b <= beta_max)
                else:
                    assert bool(np.any(admissible)) == bool(admissible[c_max])

    def test_alpha_decreases_and_beta_increases_in_c(self):
        for N, n in [(143, 51), (258, 57), (400, 82)]:
            levels = realized_quality_levels(LotSize(N))
            acc_a = interpolated_acceptance_curve(n, N, levels.p_alpha)
            acc_b = interpolated_acceptance_curve(n, N, levels.p_beta)
            alphas = 1 - acc_a
            assert np.all(np.diff(alphas) <= 1e-12)
            assert np.all(np.diff(acc_b) >= -1e-12)
