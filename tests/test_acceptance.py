"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; the whole suite stays well under five minutes on a desktop.
"""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from midsampling import (
    INFINITE_LOT,
    LotSize,
    Plan,
    QualitySpec,
    binomial_cdf,
    default_mid_scheme,
    hypergeometric_cdf,
    interpolated_acceptance,
    interpolated_acceptance_curve,
    monte_carlo_acceptance,
    optimal_plan,
    plan_table,
    realized_quality_levels,
    risk_pair,
    validate_scheme,
    welmec_admissible_continuous,
    welmec_risks,
)
from midsampling.cli import main as cli_main

from exact_oracle import exact_optimal_plan, judge, largest_beta_feasible_c


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def full_table():
    return plan_table(1, 10_000)


def test_criterion_01_optimal_infinite_plan():
    start = time.perf_counter()
    result = optimal_plan(INFINITE_LOT)
    elapsed = time.perf_counter() - start
    ok = (
        result.plan == Plan(109, 3)
        and abs(result.risks.alpha - 0.0243) <= 5e-4
        and abs(result.risks.beta - 0.0485) <= 5e-4
        and elapsed < 1.0
    )
    report(
        "criterion 1 (infinite-lot optimum)",
        ok,
        f"plan={result.plan} alpha={result.risks.alpha:.5f} "
        f"beta={result.risks.beta:.5f} in {elapsed:.3f}s",
    )


def test_criterion_02_lot_258():
    result = optimal_plan(LotSize(258))
    # risks quoted at one-decimal percent display precision (4.8% / 4.9%)
    ok = (
        result.plan == Plan(57, 1)
        and round(result.risks.alpha, 3) <= 0.048
        and round(result.risks.beta, 3) <= 0.049
    )
    report(
        "criterion 2 (N=258 optimum)",
        ok,
        f"plan={result.plan} alpha={result.risks.alpha:.6f} beta={result.risks.beta:.6f}",
    )


def test_criterion_03_quoted_finite_lots():
    r43 = optimal_plan(LotSize(43))
    r143 = optimal_plan(LotSize(143))
    r400 = optimal_plan(LotSize(400))
    ok = (
        r43.plan == Plan(22, 0)
        and r43.risks.alpha == 0.0
        and abs(r43.risks.beta - 0.048) <= 1e-3
        and r143.plan == Plan(51, 1)
        and r143.risks.alpha == 0.0
        and r400.plan == Plan(82, 2)
        and abs(r400.risks.alpha - 0.028) <= 1e-3
    )
    report(
        "criterion 3 (N=43/143/400 optima)",
        ok,
        f"{r43.plan} beta={r43.risks.beta:.4f}; {r143.plan} alpha={r143.risks.alpha}; "
        f"{r400.plan} alpha={r400.risks.alpha:.4f}",
    )


def test_criterion_04_full_inspection_and_zero_alpha(full_table):
    small_ok = all(
        result.plan == Plan(N, 0) for N, result in itertools.islice(full_table, 14)
    )
    zero_alpha_ok = all(
        result.risks.alpha == 0.0
        for N, result in full_table
        if N < 100 * (result.plan.c + 1)
    )
    report(
        "criterion 4 (full inspection below 15; zero alpha below 100(c+1))",
        small_ok and zero_alpha_ok,
        f"small lots ok={small_ok}, zero-alpha rows ok={zero_alpha_ok}",
    )


def test_criterion_05_scheme_validation_reproduces_published_table():
    published = [
        (0.00, 0.00, 0.00, 0.00),
        (0.00, 0.00, 0.00, 3.92),
        (0.00, 0.00, 2.00, 3.51),
        (0.00, 0.00, 0.96, 4.37),
        (0.00, 0.00, 0.78, 4.73),
        (0.00, 0.00, 0.93, 4.68),
        (0.00, 0.00, 1.00, 4.84),
        (0.00, 2.85, 1.97, 4.96),
        (1.74, 4.98, 3.36, 4.99),
    ]
    results = validate_scheme(default_mid_scheme(), n_cap=100_000)
    finite_ok = all(
        (
            round(100 * res.alpha_min, 2),
            round(100 * res.alpha_max, 2),
            round(100 * res.beta_min, 2),
            round(100 * res.beta_max, 2),
        )
        == want
        for res, want in zip(results[:9], published)
    )
    tail = results[-1]
    tail_ok = (
        abs(tail.alpha_max - 0.0243) <= 5e-5
        and abs(tail.beta_max - 0.0485) <= 5e-5
        and abs(tail.alpha_min - 0.0155) <= 2e-4
        and abs(tail.beta_min - 0.0407) <= 2e-4
    )
    admissible_ok = all(res.admissible for res in results)
    report(
        "criterion 5 (published scheme extrema, cap 1e5)",
        finite_ok and tail_ok and admissible_ok,
        f"finite rows={finite_ok}, unbounded row={tail_ok} "
        f"(alpha in [{100*tail.alpha_min:.3f},{100*tail.alpha_max:.3f}]%, "
        f"beta in [{100*tail.beta_min:.3f},{100*tail.beta_max:.3f}]%), "
        f"all admissible={admissible_ok}",
    )


def test_criterion_06_acceptance_number_structure(full_table):
    cs = {N: result.plan.c for N, result in full_table}
    low_band = {cs[N] for N in range(1500, 2900)}
    high_band = {cs[N] for N in range(2900, 10_001)}
    ok = low_band == {2, 3} and high_band == {3}
    report(
        "criterion 6 (acceptance-number structure)",
        ok,
        f"c values in [1500,2900)={sorted(low_band)}, in [2900,1e4]={sorted(high_band)}",
    )


def test_criterion_07_welmec_retro_risks():
    checks = []

    def close(got, want, tol):
        checks.append(abs(got - want) <= tol)
        return checks[-1]

    close(welmec_risks(Plan(27, 0), LotSize(43)).alpha_cont, 0.343, 2e-3)
    close(welmec_risks(Plan(27, 0), LotSize(43)).beta_cont, 0.045, 2e-3)
    close(welmec_risks(Plan(36, 0), LotSize(143)).alpha_cont, 0.340, 2e-3)
    close(risk_pair(Plan(36, 0), LotSize(143)).alpha, 0.252, 2e-3)
    close(welmec_risks(Plan(56, 1), LotSize(143)).alpha_cont, 0.055, 2e-3)
    close(welmec_risks(Plan(40, 0), LotSize(400)).alpha_cont, 0.345, 2e-3)
    close(welmec_risks(Plan(62, 1), LotSize(400)).alpha_cont, 0.115, 2e-3)
    close(welmec_risks(Plan(101, 2), LotSize(400)).alpha_cont, 0.051, 2e-3)
    close(welmec_risks(Plan(88, 2), INFINITE_LOT).alpha_cont, 0.0587, 5e-4)
    close(welmec_risks(Plan(66, 1), INFINITE_LOT).alpha_cont, 0.141, 5e-4)
    close(welmec_risks(Plan(42, 0), INFINITE_LOT).alpha_cont, 0.344, 5e-4)
    close(interpolated_acceptance(Plan(101, 1), 101, 0.01), 0.959, 2e-3)
    checks.append(not welmec_admissible_continuous(Plan(101, 1), LotSize(101)))
    report(
        "criterion 7 (WELMEC retro-risks)",
        all(checks),
        f"{sum(checks)}/{len(checks)} quoted values reproduced",
    )


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    mismatches = [
        N
        for N in range(1, 601)
        if optimal_plan(LotSize(N)).plan != Plan(*exact_optimal_plan(N))
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 180.0
    report(
        "criterion 8 (exhaustive-oracle equivalence, N <= 600)",
        ok,
        f"mismatches={mismatches[:5]} in {elapsed:.1f}s",
    )


def test_exact_decision_pairs_to_10_000(full_table):
    # For every N <= 10^4, in exact arithmetic: c* is the largest c whose
    # beta is within bound at n*, alpha holds at (n*, c*), and at n*-1 the
    # largest beta-feasible c (if any) fails the alpha bound.
    start = time.perf_counter()
    wrong = []
    for N, result in full_table:
        n, c = result.plan.n, result.plan.c
        c_below = largest_beta_feasible_c(n - 1, N) if n > 1 else None
        if not (
            largest_beta_feasible_c(n, N) == c
            and judge(n, c, N)[0]
            and (c_below is None or not judge(n - 1, c_below, N)[0])
        ):
            wrong.append(N)
    elapsed = time.perf_counter() - start
    report(
        "exact decision pairs (n*, c*) and (n*-1, c), N <= 10^4",
        not wrong,
        f"lots decided wrongly={wrong[:5]} in {elapsed:.1f}s",
    )


def test_table_csv_bytes_to_10_000(full_table):
    # The 1..10^4 table as the upward scan over every n wrote it; a faster
    # search must not move a byte.
    digest = hashlib.sha256(full_table.to_csv().encode()).hexdigest()
    report(
        "table CSV bytes, N <= 10^4",
        digest == "8ecf1c4414523a80e054523bd0bd9edaa9173bb96d8bf58ff63afb9644530446",
        f"sha256={digest}",
    )


def test_criterion_09_property_suite():
    failures = []

    # normalization within 1e-10: the tail at n - 1 plus the last mass, P(X = n)
    for N in (1, 17, 120, 500):
        for K in {0, 1, N // 7, N // 2, N}:
            for n in {1, N // 2, N}:
                if n < 1:
                    continue
                total = hypergeometric_cdf(n - 1, n, K, N) + math.comb(K, n) / math.comb(N, n)
                if abs(total - 1.0) > 1e-10:
                    failures.append(f"hyper normalization ({n},{K},{N})")
    for n in (1, 200, 1000):
        for p in (0.0, 0.01, 0.07, 0.41, 1.0):
            total = binomial_cdf(n - 1, n, p) + p**n
            if abs(total - 1.0) > 1e-10:
                failures.append(f"binom normalization ({n},{p})")

    # cdf monotonicity in c, p and K
    for n, N in ((57, 258), (82, 400), (34, 99)):
        levels = realized_quality_levels(LotSize(N))
        for K in (levels.k_alpha, levels.k_beta, N // 3):
            curve = interpolated_acceptance_curve(n, N, Fraction(K, N))
            if np.any(np.diff(curve) < -1e-12):
                failures.append(f"monotonicity in c ({n},{K},{N})")
        for c in (0, 1, 3):
            vals = [hypergeometric_cdf(c, n, K, N) for K in range(N + 1)]
            if np.any(np.diff(vals) > 1e-12):
                failures.append(f"monotonicity in K ({c},{n},{N})")
    ps = [k / 200 for k in range(201)]
    for c, n in ((0, 34), (3, 109)):
        vals = [binomial_cdf(c, n, p) for p in ps]
        if np.any(np.diff(vals) > 1e-12):
            failures.append(f"monotonicity in p ({c},{n})")

    # hypergeometric -> binomial convergence at N = 1e6
    N, K = 10**6, 10**4
    for n in range(1, 201):
        for c in range(min(n, 5) + 1):
            if abs(hypergeometric_cdf(c, n, K, N) - binomial_cdf(c, n, 0.01)) >= 1e-3:
                failures.append(f"limit law ({c},{n})")

    # interpolation reduces to the exact model at integer p*N
    for N in (20, 43, 100, 258, 500):
        for n in {1, N // 4, N // 2, N}:
            if n < 1:
                continue
            for K in {0, 1, N // 10, N // 2}:
                for c in range(min(n, 3) + 1):
                    got = interpolated_acceptance(Plan(n, c), N, Fraction(K, N))
                    want = hypergeometric_cdf(c, n, K, N)
                    if abs(got - want) > 1e-9:
                        failures.append(f"reduction ({c},{n},{K},{N})")

    # risk dominance over every plan with n <= N <= 300.  The signed
    # Gamma continuation deviates from the exact model by ~1.5e-6 where
    # the exact acceptance is zero (full inspections with c=0), and is
    # not probability-like for degenerate plans with c >= ceil(p_lq*N)
    # whose exact consumers' risk is the trivial 1; those plans are
    # excluded on the consumers' side (see the decisions ledger).
    spec = QualitySpec()
    for N in range(1, 301):
        levels = realized_quality_levels(LotSize(N), spec)
        for n in range(1, N + 1):
            acc_a = interpolated_acceptance_curve(n, N, levels.p_alpha)
            acc_b = interpolated_acceptance_curve(n, N, levels.p_beta)
            cont_a = interpolated_acceptance_curve(n, N, spec.p_aql)
            cont_b = interpolated_acceptance_curve(n, N, spec.p_lq)
            if np.any(cont_a - acc_a > 5e-6):
                failures.append(f"alpha dominance (N={N},n={n})")
            top = min(levels.k_beta, n + 1)
            if np.any(acc_b[:top] - cont_b[:top] > 1e-9):
                failures.append(f"beta dominance (N={N},n={n})")
            if top <= n and not np.all(acc_b[top:] >= 1.0 - 1e-9):
                failures.append(f"beta carve-out not trivial (N={N},n={n})")

    report(
        "criterion 9 (property suite)",
        not failures,
        f"failures={failures[:5]} (beta dominance scoped to c < ceil(p_lq*N))",
    )


def test_criterion_10_monte_carlo():
    configs = [
        (Plan(109, 3), INFINITE_LOT, Fraction(7, 100), 7),
        (Plan(109, 3), INFINITE_LOT, Fraction(1, 100), 11),
        (Plan(86, 2), INFINITE_LOT, Fraction(1, 100), 13),
        (Plan(22, 0), LotSize(43), Fraction(3, 43), 3),
        (Plan(57, 1), LotSize(258), Fraction(19, 258), 5),
    ]
    trials = 100_000
    deviations = []
    ok = True
    for plan, lot, p, seed in configs:
        if lot.is_finite:
            analytic = hypergeometric_cdf(plan.c, plan.n, int(p * lot.count), lot.count)
        else:
            analytic = binomial_cdf(plan.c, plan.n, float(p))
        estimate = monte_carlo_acceptance(plan, lot, p, trials, seed)
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        dev = abs(estimate - analytic) / sigma
        deviations.append(round(dev, 2))
        ok = ok and dev <= 3.0
    report(
        "criterion 10 (Monte Carlo within 3 sigma)",
        ok,
        f"deviations in sigma units: {deviations}",
    )


def test_criterion_11_cli_table_determinism(tmp_path):
    first = tmp_path / "table1.csv"
    second = tmp_path / "table2.csv"
    start = time.perf_counter()
    code1 = cli_main(["table", "--from", "1", "--to", "10000", "--output", str(first)])
    first_elapsed = time.perf_counter() - start
    code2 = cli_main(["table", "--from", "1", "--to", "10000", "--output", str(second)])
    data1, data2 = first.read_bytes(), second.read_bytes()
    line_count = data1.count(b"\n")
    ok = (
        code1 == 0
        and code2 == 0
        and first_elapsed < 60.0
        and data1 == data2
        and line_count == 10_001
    )
    report(
        "criterion 11 (full table, deterministic, < 60 s)",
        ok,
        f"{line_count - 1} rows in {first_elapsed:.1f}s, byte-identical={data1 == data2}",
    )
