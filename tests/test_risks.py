import copy
import csv
import hashlib
import io
import itertools
import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midsampling import (
    INFINITE_LOT,
    LotSize,
    Plan,
    QualitySpec,
    RealizedLevels,
    RiskBounds,
    binomial_cdf,
    hypergeometric_cdf,
    is_admissible,
    monte_carlo_acceptance,
    oc_curve,
    oc_curve_to_csv,
    plan_table,
    realized_quality_levels,
    risk_pair,
)
from midsampling.kernel import _binomial_tolerances, as_exact_level
from midsampling.planner import _first
from midsampling.render import render
from midsampling.risks import DEFAULT_SCAN_CAP, _LotRule, _run_ends

from exact_oracle import exact_binomial_tail, exact_hypergeometric_tail, realized_counts


class TestQualitySpecAndBounds:
    def test_defaults(self):
        spec = QualitySpec()
        assert spec.p_aql == Fraction(1, 100)
        assert spec.p_lq == Fraction(7, 100)
        bounds = RiskBounds()
        assert bounds.alpha_max == bounds.beta_max == Fraction(1, 20)

    def test_float_levels_become_exact_decimals(self):
        spec = QualitySpec(p_aql=0.015, p_lq=0.08)
        assert spec.p_aql == Fraction(3, 200)
        assert spec.p_lq == Fraction(2, 25)
        # numpy's floats too: np.float64 is a float whose repr names its type,
        # and np.float32 reads as the float it converts to
        assert QualitySpec(np.float64(0.01), np.float64(0.07)) == QualitySpec()
        assert RiskBounds(np.float64(0.05), np.float64(0.05)) == RiskBounds()
        assert as_exact_level(np.float32(0.1)) == as_exact_level(float(np.float32(0.1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            QualitySpec(p_aql=0.07, p_lq=0.01)
        with pytest.raises(ValueError):
            QualitySpec(p_aql=0.0, p_lq=0.07)
        with pytest.raises(ValueError):
            RiskBounds(alpha_max=0.0)
        with pytest.raises(ValueError):
            RiskBounds(beta_max=1.0)
        tiny, near_one = Fraction(1, 10**400), Fraction(10**400 - 1, 10**400)
        assert QualitySpec(tiny, near_one).p_lq == near_one
        assert RiskBounds(tiny, near_one).beta_max == near_one
        for aql, lq in ((near_one, 1), (tiny, tiny), (0, tiny), ("-1/3", "1/3")):
            with pytest.raises(ValueError):
                QualitySpec(aql, lq)
        for bound in (0, 1, "-1/20", "21/20"):
            with pytest.raises(ValueError):
                RiskBounds(bound, "1/20")

    def test_level_strings_take_ascii_digits_only(self):
        # Fraction() takes '_' separators from Python 3.11 on, and other
        # scripts' digits; a level string does not, on any version
        for token in ("0.0_1", "\uff11/100", "0.\uff10\uff11"):
            with pytest.raises(ValueError, match=f"level {token!r}"):
                QualitySpec(token, "0.07")
            with pytest.raises(ValueError, match=f"level {token!r}"):
                RiskBounds("0.05", token)
        assert QualitySpec(" 1/100 ", "7e-2") == QualitySpec()

    def test_non_finite_floats_are_rejected(self):
        # Fraction(Decimal("Infinity")) raises OverflowError, not ValueError
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                as_exact_level(value)
        with pytest.raises(ValueError):
            RiskBounds(math.inf, 0.05)
        with pytest.raises(ValueError):
            RiskBounds(0.05, math.nan)
        with pytest.raises(ValueError):
            QualitySpec(math.nan, 0.07)
        with pytest.raises(ValueError):
            QualitySpec(0.01, math.inf)


class TestRealizedLevels:
    def test_lot_258(self):
        levels = realized_quality_levels(LotSize(258))
        assert (levels.k_alpha, levels.k_beta) == (2, 19)
        assert levels.p_alpha == Fraction(2, 258)
        assert levels.p_beta == Fraction(19, 258)

    def test_exact_multiples(self):
        levels = realized_quality_levels(LotSize(100))
        assert levels.p_alpha == Fraction(1, 100)
        assert levels.p_beta == Fraction(7, 100)

    def test_small_lot_floors_to_zero(self):
        levels = realized_quality_levels(LotSize(50))
        assert (levels.k_alpha, levels.k_beta) == (0, 4)

    def test_infinite_lot_keeps_nominal_levels(self):
        levels = realized_quality_levels(INFINITE_LOT)
        assert levels.p_alpha == Fraction(1, 100)
        assert levels.p_beta == Fraction(7, 100)
        assert levels.k_alpha is None and levels.k_beta is None

    def test_proportions_read_on_demand_equal_built_ones(self):
        # a finite lot's levels hold the counts and normalize p_alpha and
        # p_beta on their first read: equal, hashed, printed and copied as
        # the levels built with both proportions
        for N, result in plan_table(2998, 3002):
            for lazy in (result.realized, realized_quality_levels(LotSize(N))):
                copies = [pickle.loads(pickle.dumps(lazy)), copy.deepcopy(lazy)]  # before a read
                k_alpha, k_beta = lazy.k_alpha, lazy.k_beta
                built = RealizedLevels(Fraction(k_alpha, N), Fraction(k_beta, N), k_alpha, k_beta, N)
                assert (lazy == built, hash(lazy) == hash(built), repr(lazy)) == (
                    True, True, repr(built))
                assert copies == [built, built]
                assert type(lazy.p_alpha) is Fraction and lazy.p_beta.denominator <= N
        with pytest.raises(AttributeError, match="no attribute 'p_gamma'"):
            realized_quality_levels(LotSize(258)).p_gamma

    def test_floating_point_floor_traps(self):
        # 0.01*2900 and 0.07*300 both misround in binary floating point
        assert realized_quality_levels(LotSize(2900)).k_alpha == 29
        assert realized_quality_levels(LotSize(300)).k_beta == 21
        assert realized_quality_levels(LotSize(700)).k_alpha == 7

    @given(st.integers(1, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_realized_levels_bracket_nominal(self, N):
        spec = QualitySpec()
        levels = realized_quality_levels(LotSize(N), spec)
        assert levels.p_alpha <= spec.p_aql
        assert levels.p_beta >= spec.p_lq
        assert levels.p_alpha == Fraction(levels.k_alpha, N)
        assert levels.p_beta == Fraction(levels.k_beta, N)

    @pytest.mark.parametrize(
        "spec",
        [
            QualitySpec("0.010000000000000001", "0.07"),
            QualitySpec("1/10000000000000000000", "7000000000000000001/100000000000000000000"),
        ],
        ids=["long-decimal", "huge-denominator"],
    )
    def test_array_counts_match_scalar_counts(self, spec):
        # a scheme row takes the counts at its run ends from _run_ends;
        # products beyond int64 must not wrap
        for N in (1, 99, 100, 923, 1499, 100_000, 10**7):
            for level, ceil in ((spec.p_aql, False), (spec.p_lq, True)):
                lots, counts = _run_ends(level, N, N + 150, ceil)
                ends = dict(zip(lots.tolist(), counts.tolist()))
                k = None
                for lot in range(N, N + 151):
                    levels = realized_quality_levels(LotSize(lot), spec)
                    want = levels.k_beta if ceil else levels.k_alpha
                    assert want == (math.ceil if ceil else math.floor)(level * lot)
                    if want != k:  # a run starts here, and the previous one ended
                        assert lot in ends and (lot == N or lot - 1 in ends)
                        k = want
                    if lot in ends:
                        assert ends[lot] == want
                assert lots[-1] == N + 150


    @given(
        st.sampled_from([Fraction(1, 100), Fraction(7, 100), Fraction(1, 3), Fraction(
            7000000000000000001, 100000000000000000000)]),
        st.booleans(),
        st.integers(1, 10**7),
        st.lists(st.integers(1, 300), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_splits_give_each_row_its_own_run_ends(self, level, ceil, lo, widths):
        # a scheme takes one run-end array for all its rows, split at their
        # starts; rows of one lot and rows that start inside a run included
        firsts = list(itertools.accumulate(widths[:-1], initial=lo))
        hi = firsts[-1] + widths[-1] - 1
        lots, counts = _run_ends(level, lo, hi, ceil, firsts[1:])
        rows = [_run_ends(level, a, b - 1, ceil) for a, b in zip(firsts, [*firsts[1:], hi + 1])]
        assert lots.tolist() == [N for row_lots, _ in rows for N in row_lots.tolist()]
        assert counts.tolist() == [k for _, row_counts in rows for k in row_counts.tolist()]


class TestRisks:
    def test_producers_risk_examples(self):
        assert risk_pair(Plan(82, 2), LotSize(400)).alpha == pytest.approx(0.028, abs=1e-3)
        assert risk_pair(Plan(22, 0), LotSize(43)).alpha == 0.0
        assert risk_pair(Plan(40, 40), LotSize(40)).alpha == 0.0

    def test_consumers_risk_examples(self):
        assert risk_pair(Plan(22, 0), LotSize(43)).beta == pytest.approx(0.048, abs=1e-3)
        assert risk_pair(Plan(109, 3), INFINITE_LOT).beta == pytest.approx(0.0485, abs=5e-4)

    def test_full_inspection_has_zero_risks(self):
        for N in (1, 14, 99, 258):
            c = N // 100
            assert risk_pair(Plan(N, c), LotSize(N)).alpha == 0.0
            assert risk_pair(Plan(N, c), LotSize(N)).beta == 0.0

    def test_definitional_consistency_with_kernel(self):
        for N, plan in [(258, Plan(57, 1)), (43, Plan(22, 0)), (400, Plan(82, 2))]:
            levels = realized_quality_levels(LotSize(N))
            assert risk_pair(plan, LotSize(N)).alpha == pytest.approx(
                1.0 - hypergeometric_cdf(plan.c, plan.n, levels.k_alpha, N), abs=1e-15
            )
            assert risk_pair(plan, LotSize(N)).beta == pytest.approx(
                hypergeometric_cdf(plan.c, plan.n, levels.k_beta, N), abs=1e-15
            )

    def test_zero_alpha_below_hundred_per_acceptance_step(self):
        # a lot below 100(c+1) cannot hold more than c defectives at 1% quality
        for N, c in [(99, 0), (150, 1), (299, 2), (399, 3)]:
            n = min(N, 50 + c * 30)
            assert risk_pair(Plan(n, c), LotSize(N)).alpha == 0.0

    def test_admissibility(self):
        assert is_admissible(Plan(57, 1), LotSize(258))
        assert not is_admissible(Plan(36, 0), LotSize(143))
        assert is_admissible(Plan(143, 1), LotSize(143))  # full inspection, c = floor(1.43)

    def test_level_within_an_ulp_of_one(self):
        # 1 - 10**-21 rounds to 1.0 as a float
        spec = QualitySpec("1/2", Fraction(10**21 - 1, 10**21))
        pair = risk_pair(Plan(5, 4), INFINITE_LOT, spec)
        assert pair.alpha == pytest.approx(1 / 32) and pair.beta == pytest.approx(0.0)

    def test_degenerate_plan_rejected(self):
        with pytest.raises(ValueError):
            risk_pair(Plan(0, 0), LotSize(10))
        with pytest.raises(ValueError):
            risk_pair(Plan(0, 0), INFINITE_LOT)
        with pytest.raises(ValueError):
            risk_pair(Plan(11, 0), LotSize(10))


class TestSmallestBetaN:
    """The planner's gallop and bisection for n_beta(c), the smallest n at
    which the consumers' bound admits c, against a linear scan of exact risks."""

    @staticmethod
    def scan(lot, c, n_max):
        for n in range(c + 1, n_max + 1):
            if lot.is_finite:
                N = lot.count
                beta = exact_hypergeometric_tail(c, n, realized_counts(N, 0.01, 0.07)[1], N)
            else:
                beta = exact_binomial_tail(c, n, Fraction(7, 100))
            if beta <= Fraction(1, 20):
                return n
        return None

    @pytest.mark.parametrize(
        "lot, n_max",
        [(LotSize(10), 10), (LotSize(258), 258), (LotSize(2000), 2000),
         (INFINITE_LOT, 60), (INFINITE_LOT, 400)],
    )
    def test_equals_a_linear_scan_from_any_start(self, lot, n_max):
        found_none = False
        for c in range(4):
            expected = self.scan(lot, c, n_max)
            found_none |= expected is None
            hints = {None, 1, n_max + 5}
            n_froms = {1}
            if expected is not None:  # far below the answer, at it and above it
                hints |= {max(1, expected // 4), expected, min(expected + 7, n_max)}
                n_froms.add(expected)
            for n_from in n_froms:
                for hint in hints:
                    admits_beta = _LotRule(lot, QualitySpec(), n_max).admits_beta
                    failing, start = max(n_from, c + 1) - 1, n_from if hint is None else hint
                    found = _first(admits_beta, c, failing, n_max, start)
                    assert found == expected, (c, n_from, hint)
            admits_beta = _LotRule(lot, QualitySpec(), n_max).admits_beta
            assert _first(admits_beta, c, max(n_max + 1, c + 1) - 1, n_max, n_max + 1) is None
        # N = 10 holds one defective at the LQ, so no n admits c >= 1; and
        # n_beta(2) at infinity is above 60
        assert found_none == (lot == LotSize(10) or n_max == 60)


class TestMovedRule:
    def test_a_moved_rule_keeps_every_float(self):
        # a table moves one rule from lot to lot: each level's core moves
        # where the realized count holds and is resolved again where it
        # steps, and every tail and tolerance is the one of a rule built at the lot
        rng = random.Random(2602)
        spec = QualitySpec("3/100", "1/7")
        for lo in (1, 2**14 - 40, 100_002 - 40):
            rule = _LotRule(LotSize(lo), spec, lo)
            first = rule.levels
            for N in range(lo, lo + 90):
                rule.move_to(N)
                fresh = _LotRule(LotSize(N), spec, N)
                assert (rule.levels, rule.alpha_tol, rule.beta_tol) == (
                    fresh.levels, fresh.alpha_tol, fresh.beta_tol)
                assert (rule.alpha_tails.level, rule.beta_tails.level) == rule.levels
                for _ in range(3):
                    n = rng.randint(1, min(N, 300))
                    c = rng.randint(0, min(n, 12))
                    for K, moved, built in zip(rule.levels, (rule.alpha_tails, rule.beta_tails),
                                               (fresh.alpha_tails, fresh.beta_tails)):
                        assert moved[c, n] == built.core(c, n) == hypergeometric_cdf(c, n, K, N)
            assert all(last > start for start, last in zip(first, rule.levels))  # both stepped

    def test_an_infinite_rule_holds_one_tolerance_pair(self):
        # the binomial bounds of max(n_max, DEFAULT_SCAN_CAP) draws, whatever
        # the caller's n_max up to the default cap, and the exact levels key
        # both memos
        spec = QualitySpec()
        rules = [_LotRule(INFINITE_LOT, spec, n_max) for n_max in (1, 109, 400, DEFAULT_SCAN_CAP)]
        assert len({(rule.alpha_tol, rule.beta_tol) for rule in rules}) == 1
        wide = _LotRule(INFINITE_LOT, spec, 2_000_000)
        levels = (spec.p_aql, spec.p_lq)
        assert (wide.alpha_tol, wide.beta_tol) == _binomial_tolerances(2_000_000, levels)
        for rule in (*rules, wide):
            assert rule.levels == levels
            assert (rule.alpha_tails.level, rule.beta_tails.level) == levels


class TestOcCurve:
    def test_starts_at_certain_acceptance_and_decreases(self):
        points = oc_curve(Plan(57, 1), LotSize(258))
        assert len(points) == 259
        assert points[0] == (0.0, 1.0)
        pacs = [pac for _, pac in points]
        assert all(a >= b - 1e-12 for a, b in zip(pacs, pacs[1:]))
        assert points[-1][1] == 0.0  # every item defective, sample exceeds c

    def test_anchor_points_for_plan_57_1(self):
        points = dict(oc_curve(Plan(57, 1), LotSize(258)))
        # quoted at display precision: 95.2% and 4.9%
        assert points[2 / 258] == pytest.approx(0.952, abs=5e-4)
        assert points[19 / 258] == pytest.approx(0.049, abs=5e-4)

    def test_infinite_default_grid(self):
        points = oc_curve(Plan(86, 2), INFINITE_LOT)
        assert len(points) == 151
        assert points[0] == (0.0, 1.0)
        assert points[-1][0] == pytest.approx(0.15)
        lookup = {round(p, 6): pac for p, pac in points}
        assert lookup[0.01] == pytest.approx(0.944466, abs=1e-6)

    def test_numpy_grid_reads_as_python_floats(self):
        grid = np.linspace(0, 0.15, 151)
        points = oc_curve(Plan(109, 3), INFINITE_LOT, grid)
        assert points == oc_curve(Plan(109, 3), INFINITE_LOT, grid.tolist())
        assert {type(p) for p, _ in points} == {float}

    def test_infinite_curves_are_bit_identical_to_the_pinned_digest(self):
        # sha256 of float.hex of every point, as one tail per point computed it
        rng = random.Random(20261018)
        hexes = []
        for _ in range(40):
            n = rng.randint(1, 400)
            plan = Plan(n, rng.randint(0, min(n, 8)))
            for grid in (None, [0, 1, "1/3", 1e-9]):
                for p, pac in oc_curve(plan, INFINITE_LOT, grid):
                    hexes += [float.hex(p), float.hex(pac)]
        assert len(hexes) == 12400
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == (
            "01474e24f8edeaae02d1c920e23598c974bfb46eccd1b7487036123cbafc1f5b"
        )

    def test_finite_curves_are_bit_identical_to_the_pinned_digest(self):
        # the finite curve is the bulk kernel at one acceptance number
        rng = random.Random(20261019)
        hexes = []
        for _ in range(40):
            N = round(math.exp(rng.uniform(0.0, math.log(5000))))
            n = rng.randint(1, min(N, 300))
            plan = Plan(n, rng.randint(0, min(n, 8)))
            grid = [Fraction(rng.randint(0, N), N) for _ in range(5)] + [0, 1]
            for points in (oc_curve(plan, LotSize(N)), oc_curve(plan, LotSize(N), grid)):
                for p, pac in points:
                    hexes += [float.hex(p), float.hex(pac)]
        assert len(hexes) == 33768
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == (
            "d36e08ad30a506c314d10de770bf2d4a79ce3aa4b91a9569b1dafa3c171f0bd0"
        )

    def test_only_a_custom_finite_grid_takes_the_bulk_kernel(self, monkeypatch):
        # the default grid, every count 0..N, takes the all-counts curve
        from midsampling import kernel, risks

        calls = []

        def counting(name, core):
            def call(*args):
                calls.append(name)
                return core(*args)
            return call

        monkeypatch.setattr(kernel, "_hypergeometric_terms",
                            counting("terms", kernel._hypergeometric_terms))
        monkeypatch.setattr(risks, "_hypergeometric_cdf_bulk",
                            counting("bulk", risks._hypergeometric_cdf_bulk))
        for plan, N in ((Plan(57, 1), 258), (Plan(1, 0), 1), (Plan(109, 3), 20_000)):
            assert len(oc_curve(plan, LotSize(N))) == N + 1
        assert calls == []
        oc_curve(Plan(57, 1), LotSize(258), grid=[0, "2/258", 1])
        assert calls.count("bulk") == 1 and "terms" in calls

    @pytest.mark.parametrize("grid", [
        None, [0, 1, 5e-324, 1e-300, 1.0 - 2**-53], [0.07, "7/100", 0.01, 0.07, 1, 1, 0, 0],
        [], [0.5],
    ], ids=["default", "edges", "repeated", "empty", "one"])
    def test_infinite_points_equal_the_scalar_tail_bit_for_bit(self, grid):
        rng = random.Random(20261020)
        plans = [Plan(1, 0), Plan(1, 1), Plan(5, 5), Plan(109, 3), Plan(400, 8)]
        plans += [Plan(n, rng.randint(0, n)) for n in (rng.randint(1, 40) for _ in range(10))]
        for plan in plans:
            points = oc_curve(plan, INFINITE_LOT, grid)
            assert len(points) == (151 if grid is None else len(grid))
            for p, pac in points:
                assert float.hex(pac) == float.hex(binomial_cdf(plan.c, plan.n, p)), (plan, p)

    def test_default_infinite_grid_logs_are_resolved_at_import(self):
        from midsampling import risks

        assert risks._DEFAULT_OC_GRID == tuple(k / 1000 for k in range(151))
        assert risks._DEFAULT_OC_LOGS == [
            (math.log(p), math.log1p(-p)) for p in risks._DEFAULT_OC_GRID[1:]
        ]

    def test_custom_grid_and_errors(self):
        points = oc_curve(Plan(86, 2), INFINITE_LOT, grid=[0.0, 0.01, 0.07, "7/100"])
        assert [p for p, _ in points] == [0.0, 0.01, 0.07, 0.07]
        assert points[3] == points[2]
        finite = oc_curve(Plan(22, 0), LotSize(43), grid=["3/43", Fraction(3, 43)])
        assert finite[0] == finite[1]
        assert finite[0][1] == pytest.approx(hypergeometric_cdf(0, 22, 3, 43), abs=1e-12)
        with pytest.raises(ValueError):
            oc_curve(Plan(86, 2), INFINITE_LOT, grid=[-0.1])
        with pytest.raises(ValueError):
            oc_curve(Plan(86, 2), INFINITE_LOT, grid=[1.5])
        with pytest.raises(ValueError):
            oc_curve(Plan(86, 2), INFINITE_LOT, grid=["1/0"])
        with pytest.raises(ValueError):
            oc_curve(Plan(22, 0), LotSize(43), grid=[0.05])  # 0.05*43 not integral

    def test_float_grid_point_names_only_the_nearest_count(self):
        # 0.07000000001 is not the double nearest 7/100, so it names no count
        with pytest.raises(ValueError):
            oc_curve(Plan(1, 0), LotSize(100), grid=[0.07000000001])
        with pytest.raises(ValueError):
            monte_carlo_acceptance(Plan(1, 0), LotSize(100), 0.07000000001, 10, seed=1)

    @pytest.mark.parametrize("k, N", [(1, 3), (3, 43), (7, 100), (29, 2900), (1, 99991)])
    def test_float_image_of_a_count_stays_realizable(self, k, N):
        plan = Plan(min(N, 22), 0)
        assert oc_curve(plan, LotSize(N), grid=[k / N]) == oc_curve(
            plan, LotSize(N), grid=[Fraction(k, N)]
        )
        assert monte_carlo_acceptance(plan, LotSize(N), k / N, 50, seed=3) == (
            monte_carlo_acceptance(plan, LotSize(N), Fraction(k, N), 50, seed=3)
        )

    def test_csv_export(self):
        points = oc_curve(Plan(22, 0), LotSize(43), grid=[Fraction(3, 43)])
        text = oc_curve_to_csv(points, LotSize(43))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "p_numerator",
            "p_denominator_or_0_for_infinite",
            "p_value",
            "acceptance_probability",
        ]
        assert rows[1][0] == "3" and rows[1][1] == "43"
        assert float(rows[1][3]) == pytest.approx(
            hypergeometric_cdf(0, 22, 3, 43), abs=1e-6
        )

    def test_csv_export_reads_an_exact_point_at_its_count(self):
        # a point given exactly, as a Fraction or a string, gives the row of
        # its float k/N, and at an infinite lot the row of that float; a
        # level that no count realizes is refused
        accept = hypergeometric_cdf(2, 20, 3, 40)
        for lot in (LotSize(40), INFINITE_LOT):
            rows = [
                oc_curve_to_csv([(p, accept)], lot)
                for p in (3 / 40, Fraction(3, 40), "0.075", "3/40")
            ]
            assert rows[0].splitlines()[1].startswith(
                "3,40,0.075000," if lot.is_finite else "0,0,0.075000,"
            )
            assert rows[1:] == [rows[0]] * 3
        for p in (Fraction(1, 80), "1/80", 1 / 80):
            with pytest.raises(ValueError, match="not a multiple of 1/40"):
                oc_curve_to_csv([(p, accept)], LotSize(40))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_text_and_json_read_an_exact_point_as_the_csv_does(self, fmt):
        # k / N at a finite lot, the level's float at an infinite one
        accept = hypergeometric_cdf(2, 20, 3, 40)
        for lot in (LotSize(40), INFINITE_LOT):
            want = render("oc", fmt, [(3 / 40, accept)], lot)
            for p in (Fraction(3, 40), "0.075", "3/40"):
                assert render("oc", fmt, [(p, accept)], lot) == want
        with pytest.raises(ValueError, match="not a multiple of 1/40"):
            render("oc", fmt, [("1/80", accept)], LotSize(40))

    def test_csv_export_infinite_marks_zero_denominator(self):
        points = oc_curve(Plan(86, 2), INFINITE_LOT, grid=[0.01])
        rows = list(csv.reader(io.StringIO(oc_curve_to_csv(points, INFINITE_LOT))))
        assert rows[1][:2] == ["0", "0"]
        assert rows[1][2] == "0.010000"

    def test_json_export(self):
        points = oc_curve(Plan(86, 2), INFINITE_LOT, grid=[0.0, 0.01])
        payload = json.loads(render("oc", "json", points, INFINITE_LOT))
        assert payload[0] == {"p": 0.0, "pac": 1.0}
        assert payload[1]["p"] == 0.01
        assert payload[1]["pac"] == pytest.approx(0.944466, abs=1e-6)


class TestMonteCarlo:
    def test_always_accepting_plan(self):
        assert monte_carlo_acceptance(Plan(10, 10), LotSize(10), 0.5, 100, seed=1) == 1.0
        assert monte_carlo_acceptance(Plan(7, 7), INFINITE_LOT, 0.9, 100, seed=1) == 1.0

    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo_acceptance(Plan(109, 3), INFINITE_LOT, 0.07, 20_000, seed=42)
        b = monte_carlo_acceptance(Plan(109, 3), INFINITE_LOT, 0.07, 20_000, seed=42)
        assert a == b
        c = monte_carlo_acceptance(Plan(109, 3), INFINITE_LOT, 0.07, 20_000, seed=43)
        assert a != c

    def test_infinite_lot_matches_analytic_within_3_sigma(self):
        trials = 100_000
        analytic = binomial_cdf(3, 109, 0.07)
        estimate = monte_carlo_acceptance(Plan(109, 3), INFINITE_LOT, 0.07, trials, seed=7)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        assert abs(estimate - analytic) <= 3 * sigma

    def test_finite_lot_matches_analytic_within_3_sigma(self):
        trials = 100_000
        analytic = hypergeometric_cdf(0, 22, 3, 43)
        estimate = monte_carlo_acceptance(
            Plan(22, 0), LotSize(43), Fraction(3, 43), trials, seed=11
        )
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        assert abs(estimate - analytic) <= 3 * sigma
        assert monte_carlo_acceptance(Plan(22, 0), LotSize(43), "3/43", 1000, seed=11) == (
            monte_carlo_acceptance(Plan(22, 0), LotSize(43), Fraction(3, 43), 1000, seed=11)
        )

    def test_large_finite_lot_matches_analytic_within_3_sigma(self):
        # one hypergeometric draw per trial: the cost does not grow with N
        trials, N = 20_000, 10**5
        analytic = hypergeometric_cdf(3, 109, 7_000, N)
        estimate = monte_carlo_acceptance(Plan(109, 3), LotSize(N), Fraction(7, 100), trials, 23)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        assert abs(estimate - analytic) <= 3 * sigma

    def test_non_integral_defective_count_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_acceptance(Plan(57, 1), LotSize(258), 0.05, 100, seed=1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            monte_carlo_acceptance(Plan(5, 1), INFINITE_LOT, 0.1, 0, seed=1)


def test_risks_do_not_depend_on_call_history():
    # a fresh interpreter, so that no earlier call has grown the
    # log-factorial table; the curve at N = 400000 grows it
    script = (
        "from midsampling import LotSize, Plan, risk_pair, oc_curve\n"
        "before = risk_pair(Plan(109, 3), LotSize(150_000))\n"
        "oc_curve(Plan(1, 0), LotSize(400_000), grid=[0])\n"
        "after = risk_pair(Plan(109, 3), LotSize(150_000))\n"
        "print(before == after, before, after)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True "), proc.stdout
