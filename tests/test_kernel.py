"""Kernel tests: exact-rational oracles first, then the published values."""

import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midsampling import (
    LotSize,
    Plan,
    binomial_cdf,
    hypergeometric_cdf,
    interpolated_acceptance,
    interpolated_acceptance_curve,
    plan_table,
)
from midsampling.kernel import (
    _BULK_BLOCK,
    _binomial_tolerances,
    _clamp_probability,
    _hypergeometric_cdf_all_counts,
    _hypergeometric_cdf_bulk,
    _interpolated_terms,
    _lot_tails,
    _tail_tolerance,
)

from exact_oracle import (
    exact_binomial_tail,
    exact_continued_acceptance,
    exact_hypergeometric_tail,
)


# ---------------------------------------------------------------------------
# Independent oracles (exact integer/rational arithmetic, no log-space)
# ---------------------------------------------------------------------------

def product_log_coefficient(a: float, b: int) -> float:
    # ln C(a, b) via the falling-product recurrence Gamma(a+1)/Gamma(a-b+1)
    return math.fsum(math.log((a - i) / (b - i)) for i in range(b))


def ln_coefficient_from_tail(a: int, b: int) -> float:
    # ln C(a, b) read off a public tail: b draws from a + 1 items holding one
    # defective contain none with probability C(a, b) / C(a + 1, b)
    return math.log(hypergeometric_cdf(0, b, 1, a + 1)) + product_log_coefficient(a + 1.0, b)


# ---------------------------------------------------------------------------
# Log binomial coefficients, as the tails use them
# ---------------------------------------------------------------------------

class TestLogBinomialCoefficient:
    def test_integer_small(self):
        assert ln_coefficient_from_tail(5, 2) == pytest.approx(math.log(10), rel=1e-12)

    def test_choose_zero_is_one(self):
        # the x = 0 term of a binomial tail is C(n, 0) q**n
        p = 1e-7
        for n in (0, 1, 7, 1000, 10**6):
            assert math.log(binomial_cdf(0, n, p)) - n * math.log1p(-p) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_real_arguments_match_product_formula(self):
        # at c = 0 the continued model accepts with probability
        # C(N - p*N, n) / C(N, n); N - p*N = 43.57 at N = 44
        got = math.log(interpolated_acceptance(Plan(27, 0), 44, Fraction(43, 4400)))
        got += math.log(math.comb(44, 27))
        want = product_log_coefficient(43.57, 27)
        assert got == pytest.approx(want, rel=1e-9)

    def test_large_integer_accuracy(self):
        # independent route: compensated sum of term-by-term log ratios
        n, k = 10**6, 345_678
        want = product_log_coefficient(float(n), k)
        assert ln_coefficient_from_tail(n, k) == pytest.approx(want, rel=1e-10)
        n, k = 10**6, 17
        assert ln_coefficient_from_tail(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-10
        )

    @given(st.integers(0, 2000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_agreement_with_math_comb(self, a, data):
        b = data.draw(st.integers(0, a))
        want = math.log(math.comb(a, b)) if math.comb(a, b) > 0 else 0.0
        assert ln_coefficient_from_tail(a, b) == pytest.approx(want, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# binomial_cdf
# ---------------------------------------------------------------------------

class TestBinomialCdf:
    def test_acceptance_values_for_optimal_infinite_plan(self):
        # producers' side: alpha = 1 - 0.97569 = 2.43%
        assert binomial_cdf(3, 109, 0.01) == pytest.approx(0.97569, abs=5e-6)
        # consumers' side: beta = 4.85%
        assert binomial_cdf(3, 109, 0.07) == pytest.approx(0.04847, abs=5e-6)

    def test_accept_everything(self):
        for n, p in [(1, 0.3), (17, 0.999), (400, 0.5)]:
            assert binomial_cdf(n, n, p) == 1.0

    def test_three_term_sum_against_exact_oracle(self):
        want = float(exact_binomial_tail(2, 86, Fraction(1, 100)))
        assert want == pytest.approx(0.944466, abs=1e-6)  # frozen from the oracle
        assert binomial_cdf(2, 86, 0.01) == pytest.approx(want, abs=1e-12)

    def test_degenerate_p(self):
        assert binomial_cdf(0, 10, 0.0) == 1.0
        assert binomial_cdf(9, 10, 1.0) == 0.0
        assert binomial_cdf(10, 10, 1.0) == 1.0

    def test_reads_p_as_a_level(self):
        # exactly, as every level is read, and a numpy float as its float
        assert binomial_cdf(3, 109, "7/100") == binomial_cdf(3, 109, 0.07)
        assert binomial_cdf(3, 109, Fraction(7, 100)) == binomial_cdf(3, 109, 0.07)
        assert binomial_cdf(1, 5, np.float32(0.1)) == float.fromhex("0x1.d64adfe579292p-1")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(5, 4, 0.1)
        with pytest.raises(ValueError):
            binomial_cdf(1, 4, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(-1, 4, 0.5)
        with pytest.raises(ValueError, match="acceptance number c=5 exceeds sample size n=3"):
            binomial_cdf(5, 3, 0.1)  # Plan's message

    @given(
        st.integers(1, 300),
        st.data(),
        st.fractions(min_value=0, max_value=1, max_denominator=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_rational_oracle(self, n, data, p):
        c = data.draw(st.integers(0, n))
        want = float(exact_binomial_tail(c, n, p))
        assert binomial_cdf(c, n, float(p)) == pytest.approx(want, abs=1e-12)

    @given(st.integers(1, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_c_and_p(self, n, data):
        c = data.draw(st.integers(0, n - 1))
        p = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        q = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        lo, hi = sorted((p, q))
        assert binomial_cdf(c + 1, n, p) >= binomial_cdf(c, n, p) - 1e-12
        assert binomial_cdf(c, n, lo) >= binomial_cdf(c, n, hi) - 1e-12

    def test_normalization_over_grid(self):
        # every term but the last, P(X = n) = p**n, is summed by the tail at n - 1
        for n in (1, 10, 137, 500, 1000):
            for p in (0.0, 1e-6, 0.01, 0.07, 0.3, 0.5, 0.77, 1.0):
                total = binomial_cdf(n - 1, n, p) + p**n
                assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# hypergeometric_cdf
# ---------------------------------------------------------------------------

class TestHypergeometricCdf:
    def test_scheme_row_consumer_risks(self):
        assert hypergeometric_cdf(0, 21, 2, 25) == pytest.approx(0.0200, abs=5e-5)
        assert hypergeometric_cdf(0, 14, 2, 18) == pytest.approx(0.0392, abs=5e-5)

    def test_full_inspection_counts_exactly(self):
        for N in (1, 7, 50):
            for K in (0, 1, N // 2, N):
                for c in range(min(N, 5) + 1):
                    want = 1.0 if K <= c else 0.0
                    assert hypergeometric_cdf(c, N, K, N) == want

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hypergeometric_cdf(0, 5, 11, 10)  # K > N
        with pytest.raises(ValueError):
            hypergeometric_cdf(0, 11, 5, 10)  # n > N
        with pytest.raises(ValueError):
            hypergeometric_cdf(6, 5, 5, 10)  # c > n
        with pytest.raises(ValueError, match="acceptance number c=6 exceeds sample size n=5"):
            hypergeometric_cdf(6, 5, 5, 10)  # Plan's message
        with pytest.raises(ValueError, match="lot size N must be >= 1, got 0"):
            hypergeometric_cdf(0, 0, 0, 0)  # an empty lot
        with pytest.raises(ValueError, match="lot size N must be >= 1, got 0"):
            hypergeometric_cdf(0, 5, 1, 0)
        with pytest.raises(ValueError, match="defective count K must be >= 0, got -1"):
            hypergeometric_cdf(0, 5, -1, 10)
        with pytest.raises(ValueError, match="sample size n must be an integer, got '5'"):
            hypergeometric_cdf(0, "5", 1, 10)  # a string is no count, however it reads

    def test_exact_oracle_grid(self):
        # every N <= 60 with representative sample/defective combinations
        for N in range(1, 61):
            for n in {1, N // 3, N // 2, N - 1, N}:
                if n < 1:
                    continue
                for K in {0, 1, N // 7, N // 2, N}:
                    for c in range(min(n, 3) + 1):
                        want = float(exact_hypergeometric_tail(c, n, K, N))
                        got = hypergeometric_cdf(c, n, K, N)
                        assert got == pytest.approx(want, abs=1e-10)

    @given(st.integers(1, 60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_oracle_random(self, N, data):
        n = data.draw(st.integers(1, N))
        K = data.draw(st.integers(0, N))
        c = data.draw(st.integers(0, min(n, 3)))
        want = float(exact_hypergeometric_tail(c, n, K, N))
        assert hypergeometric_cdf(c, n, K, N) == pytest.approx(want, abs=1e-10)

    @given(st.integers(2, 300), st.data())
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_c_and_K(self, N, data):
        n = data.draw(st.integers(1, N))
        K = data.draw(st.integers(0, N - 1))
        c = data.draw(st.integers(0, n - 1)) if n > 1 else 0
        if c + 1 <= n:
            assert (
                hypergeometric_cdf(c + 1, n, K, N)
                >= hypergeometric_cdf(c, n, K, N) - 1e-12
            )
        assert (
            hypergeometric_cdf(c, n, K, N)
            >= hypergeometric_cdf(c, n, K + 1, N) - 1e-12
        )

    def test_normalization_over_grid(self):
        for N in (1, 2, 7, 25, 100, 333, 500):
            for K in {0, 1, N // 7, N // 2, N}:
                for n in {1, N // 3, N // 2, N}:
                    if n < 1:
                        continue
                    # P(X = n) = C(K, n) / C(N, n) completes the tail at n - 1
                    last = math.comb(K, n) / math.comb(N, n)
                    total = hypergeometric_cdf(n - 1, n, K, N) + last
                    assert total == pytest.approx(1.0, abs=1e-10)

    def test_binomial_limit_law(self):
        N, K = 10**6, 10**4
        for n in range(1, 201, 7):
            for c in range(min(n, 5) + 1):
                hyper = hypergeometric_cdf(c, n, K, N)
                binom = binomial_cdf(c, n, 0.01)
                assert abs(hyper - binom) < 1e-3

    def test_acceptance_curve_matches_scalar(self):
        # the hand lots within 1e-12, the whole-count lots within tol(N); a
        # float that names count K is read at K, though p*N may miss K by an
        # ulp (0.07 * 100 == 7.000000000000001) and so miss the Gamma poles
        hand = [(22, 3, 43), (57, 19, 258), (82, 4, 400), (5, 0, 9), (100, 7, 100)]
        lots = [(n, K, N, 1e-12) for n, K, N in hand]
        lots += [(n, K, N, _tail_tolerance(N)) for n, K, N in whole_count_lots()]
        for n, K, N, tol in lots:
            want = [hypergeometric_cdf(c, n, K, N) for c in range(n + 1)]
            for p in (Fraction(K, N), K / N):
                curve = interpolated_acceptance_curve(n, N, p)
                assert len(curve) == n + 1
                for c in range(n + 1):
                    assert abs(curve[c] - want[c]) <= tol, (c, n, K, N, p)


class TestDocumentedErrorBound:
    """Every tail stays within the a-priori tolerance tol(N) of the exact
    rational value; the exact tie rule relies on it."""

    def test_hypergeometric_within_tolerance_up_to_a_million(self):
        rng = random.Random(20261018)
        for _ in range(300):
            N = round(math.exp(rng.uniform(0.0, math.log(10**6))))
            n = rng.randint(1, min(N, 300))
            K = rng.choice([rng.randint(0, N), int(N * rng.uniform(0.0, 0.15))])
            c = rng.randint(0, min(n, 6))
            want = exact_hypergeometric_tail(c, n, K, N)
            got = hypergeometric_cdf(c, n, K, N)
            assert abs(got - want) <= _tail_tolerance(N), (c, n, K, N)

    @pytest.mark.parametrize("c", range(7))
    def test_bulk_within_tolerance_up_to_a_million(self, c):
        # the scheme check's tie rule reads bulk tails; cycling 40 cases through
        # more than one block puts each on both sides of a block edge
        rng = random.Random(20261020 + c)
        cases = []
        for _ in range(40):
            N = round(math.exp(rng.uniform(0.0, math.log(10**6))))
            n = rng.randint(min(N, c), min(N, 300))
            K = rng.choice([rng.randint(0, N), int(N * rng.uniform(0.0, 0.15))])
            cases.append((n, K, N))
        n, K, N = np.array([cases[i % len(cases)] for i in range(_BULK_BLOCK + 100)]).T
        got = _hypergeometric_cdf_bulk(c, n, K, N)
        want = [exact_hypergeometric_tail(c, *case) for case in cases]
        for i in range(got.size):
            case = i % len(cases)
            assert abs(got[i] - want[case]) <= _tail_tolerance(N[i]), (c, i, cases[case])

    def test_binomial_within_tolerance(self):
        rng = random.Random(20261019)
        for _ in range(150):
            n = round(math.exp(rng.uniform(0.0, math.log(3000))))
            p = Fraction(rng.randint(1, 999), 1000)
            c = rng.randint(0, min(n, 8))
            want = exact_binomial_tail(c, n, p)
            assert abs(binomial_cdf(c, n, float(p)) - want) <= _binomial_tolerances(n, (p,))[0], (c, n, p)

    def test_tolerance_is_tight_enough_to_matter(self):
        assert _tail_tolerance(25) < 1e-11
        assert _tail_tolerance(10**6) < 1e-6

    @pytest.mark.parametrize("p", [Fraction(1, 10**400), Fraction(10**21 - 1, 10**21)])
    def test_tolerance_at_levels_that_round_to_0_or_1(self, p):
        # float(p) is 0.0 or 1.0; ln p and ln(1 - p) come from the exact ratio
        assert 0 < _binomial_tolerances(100, (p,))[0] < 1e-8

    def test_tolerance_does_not_decrease_with_the_lot(self):
        # a scheme row bands every lot with tol of its largest one
        grid = np.unique(np.concatenate([
            np.arange(1, 20_001), np.linspace(20_001, 10**6, 20_000).astype(np.int64)
        ])).tolist()
        tols = [_tail_tolerance(N) for N in grid]
        assert all(type(tol) is float for tol in tols)
        assert all(a <= b for a, b in zip(tols, tols[1:]))
        assert math.isfinite(_tail_tolerance(2**70))


# ---------------------------------------------------------------------------
# The scalar core
# ---------------------------------------------------------------------------

def whole_count_lots() -> list:
    """(n, K, N) lots at whole defect counts: every one with N <= 20, and
    seeded ones on both sides of the log-factorial views' edges (2**14 and
    100 002) and at 10**6."""
    rng = random.Random(3507)
    lots = [(n, K, N) for N in range(1, 21) for n in range(1, N + 1) for K in range(N + 1)]
    for N in (2**14 - 1, 2**14, 2**14 + 1, 100_001, 100_002, 100_003, 10**6):
        for _ in range(40):
            n = rng.randint(1, 200)
            lots.append((n, rng.choice((rng.randint(0, N), rng.randint(0, 3 * n))), N))
    return lots


def pinned_tail_lots() -> list:
    """About 5000 seeded tails as (level, N, [(c, n), ...]), one lot each:
    hypergeometric at small lots, across both log-factorial table edges
    (2**14 and 100 002) and past them, and binomial at proportions near 0
    and 1 and at sample sizes on both sides of the edges."""
    rng = random.Random(2021)
    lots = []
    for lo, hi in ((1, 80), (2**14 - 50, 2**14 + 50), (100_002 - 50, 100_002 + 50),
                   (100_002, 2_000_000)):
        for _ in range(200):
            N = rng.randint(lo, hi)
            K = rng.randint(0, N) if N <= 80 else min(N, round(N * rng.uniform(0.0, 0.12)))
            pairs = []
            for _ in range(5):
                n = rng.randint(1, N) if N <= 80 else rng.randint(1, min(N, 4000))
                pairs.append((rng.randint(0, min(n, 40)), n))
            lots.append((K, N, pairs))
    near = [0.0, 1.0, 5e-324, 1e-300, 1e-12, 1.0 - 2**-53, 1.0 - 1e-12, 0.999999]
    for i in range(200):
        p = near[i] if i < len(near) else rng.choice((
            rng.uniform(0.0, 1e-6), 1.0 - rng.uniform(0.0, 1e-6), rng.uniform(0.0, 1.0)))
        pairs = []
        for _ in range(5):
            n = rng.choice((rng.randint(1, 2**14 + 50), rng.randint(100_002 - 50, 10**6)))
            pairs.append((rng.randint(0, min(n, 40)), n))
        lots.append((p, None, pairs))
    return lots


def _mixed_support_lanes(rng: random.Random, size: int) -> tuple:
    """Aligned (c, n, K, N) lanes with K < c, n > N - K, n = N, K = 0 and
    K = N among them, c <= min(n, 6)."""
    lanes = []
    for _ in range(size):
        N = rng.randint(1, 3000)
        K = rng.choice([0, N, rng.randint(0, min(N, 3)), rng.randint(0, N)])
        n = rng.choice([N, rng.randint(1, N), rng.randint(max(1, N - K), N)])
        lanes.append((rng.randint(0, min(n, 6)), n, K, N))
    return tuple(np.array(column, dtype=np.int64) for column in zip(*lanes))


class TestPerLaneAcceptanceNumbers:
    """The bulk tail with an acceptance number per lane, as a scheme check
    calls it, is lane by lane the tail with a shared acceptance number."""

    def test_equals_the_shared_c_call_bit_for_bit(self):
        c, n, K, N = _mixed_support_lanes(random.Random(20261019), _BULK_BLOCK + 700)
        got = _hypergeometric_cdf_bulk(c, n, K, N)
        for value in range(7):
            lanes = c == value
            want = _hypergeometric_cdf_bulk(value, n[lanes], K[lanes], N[lanes])
            assert got[lanes].tobytes() == want.tobytes(), value

    @pytest.mark.parametrize(
        "c, seed, size, per_lane",
        [*((c, 20261019 + c, 2 * _BULK_BLOCK + 300, True) for c in range(5)),
         (3, 20261020, _BULK_BLOCK + 300, False)],
        ids=[*map(str, range(5)), "scalar-c"],
    )
    def test_unmasked_blocks_equal_the_masked_path(self, monkeypatch, c, seed, size, per_lane):
        # every lane has min(K, n) >= c and n <= N - K, so each block adds its
        # terms without the support mask, an acceptance number per lane or a
        # scalar c broadcast to lanes alike; the reference is the masked term
        # routine summed left to right
        from midsampling import kernel

        rng = np.random.default_rng(seed)
        N = rng.integers(1000, 10**5, size)
        K = rng.integers(c, N // 2)
        n = rng.integers(max(c, 1), np.minimum(N - K, 400))
        lf = kernel._log_factorial_array(int(N.max()))
        ln_denom = lf[N] - lf[n] - lf[N - n]
        masked = np.zeros(N.shape)
        for x in range(c + 1):
            masked += kernel._hypergeometric_terms(x, n, K, N, lf, ln_denom, c)
        calls = []

        def counting(*args, core=kernel._hypergeometric_terms):
            calls.append(args[0])
            return core(*args)

        monkeypatch.setattr(kernel, "_hypergeometric_terms", counting)
        got = kernel._hypergeometric_cdf_bulk(np.full(N.shape, c) if per_lane else c, n, K, N)
        assert calls == []
        assert got.tobytes() == np.minimum(masked, 1.0).tobytes()


def _all_counts_cases() -> list:
    """(c, n, N) with n = 1, n = N, c = 0 and c = n among them: every plan
    of the lots up to 12, then seeded plans of lots on both sides of the
    table edges 2**14 and 100 002 (the numpy table grows past the second)."""
    cases = [(c, n, N) for N in range(1, 13) for n in range(1, N + 1) for c in range(n + 1)]
    rng = random.Random(20261020)
    for N in (2**14 - 1, 2**14, 2**14 + 1, 100_001, 100_002, 100_003):
        small = rng.randint(2, 60)
        cases += [(0, 1, N), (1, 1, N), (0, N, N), (2, N, N), (0, small, N), (small, small, N)]
        cases += [(rng.randint(0, 6), rng.randint(6, 400), N) for _ in range(2)]
    for _ in range(60):
        N = rng.randint(13, 3000)
        n = rng.choice([1, N, rng.randint(1, N), rng.randint(1, min(N, 50))])
        cases.append((rng.choice([0, n if n <= 50 else 8, rng.randint(0, min(n, 8))]), n, N))
    return cases


def test_all_counts_curve_equals_the_bulk_tail_bit_for_bit():
    # the OC curve of a finite lot over its default grid, one tail per count
    for c, n, N in _all_counts_cases():
        want = _hypergeometric_cdf_bulk(c, n, np.arange(N + 1), N)
        assert _hypergeometric_cdf_all_counts(c, n, N).tobytes() == want.tobytes(), (c, n, N)


class TestScalarCore:
    def test_tails_are_bit_identical_to_the_pinned_digest(self):
        # sha256 of float.hex of every tail, as the per-call core computed
        # them before the core resolved a lot once for many plans
        tails = []
        for level, N, pairs in pinned_tail_lots():
            tail = _lot_tails(level, N)
            tails.extend(tail(c, n) for c, n in pairs)
        assert len(tails) == 5000
        digest = hashlib.sha256("\n".join(map(float.hex, tails)).encode()).hexdigest()
        assert digest == "fec3dc49107ee494c808c956505574f266b792522c3c92ed750bd117311b8dc2"

    def test_a_moved_core_equals_a_fresh_one(self):
        # a core keeps its coefficients for its defect count and moves from
        # lot to lot: each tail is the float of a core resolved at its lot
        # and of the public tail, on walks across both edges of the
        # log-factorial views (2**14 and 100 002) and past the table
        rng = random.Random(1413)
        for lo in (1, 2**14 - 30, 100_002 - 30, 2 * 10**6 - 100):
            for _ in range(20):
                N0 = lo + rng.randrange(30)
                K = rng.randint(0, N0) if lo == 1 else round(N0 * rng.uniform(0.0, 0.12))
                core = _lot_tails(K, N0)
                for N in range(N0, N0 + 60, rng.randint(1, 3)):
                    core.move(N)
                    for _ in range(3):
                        n = rng.randint(1, min(N, 4000))
                        c = rng.randint(0, min(n, 40))
                        tail = core(c, n)
                        assert tail == _lot_tails(K, N)(c, n) == hypergeometric_cdf(c, n, K, N), (
                            K, N0, N, c, n)
        # at an infinite lot the core is the binomial tail at one proportion
        for _ in range(300):
            p = rng.choice((rng.uniform(0.0, 1e-6), rng.uniform(0.0, 1.0)))
            n = rng.choice((rng.randint(1, 2**14 + 50), rng.randint(100_002 - 50, 10**6)))
            c = rng.randint(0, min(n, 40))
            assert _lot_tails(p, None)(c, n) == binomial_cdf(c, n, p), (p, c, n)

    def test_clamp_of_summation_noise(self):
        # noise just past [0, 1] is clipped; a value far past it is a fault
        assert _clamp_probability(0.25) == 0.25
        assert _clamp_probability(-1e-9) == 0.0
        assert _clamp_probability(1 + 1e-9) == 1.0
        with pytest.raises(ArithmeticError, match="outside"):
            _clamp_probability(1.01)


# ---------------------------------------------------------------------------
# interpolated_acceptance
# ---------------------------------------------------------------------------

class TestInterpolatedAcceptance:
    def test_zero_acceptance_number_small_lot(self):
        # continuous producers' risk of (27,0) at N=43 is 34.3%
        got = interpolated_acceptance(Plan(27, 0), 43, 0.01)
        assert got == pytest.approx(0.657, abs=2e-3)

    def test_full_inspection_with_one_defect_allowed(self):
        got = interpolated_acceptance(Plan(101, 1), 101, 0.01)
        assert got == pytest.approx(0.959, abs=1e-3)

    def test_reduces_to_hypergeometric_at_integer_count(self):
        got = interpolated_acceptance(Plan(14, 0), 18, Fraction(2, 18))
        assert got == pytest.approx(hypergeometric_cdf(0, 14, 2, 18), abs=1e-12)
        assert got == pytest.approx(0.0392, abs=5e-5)

    def test_reduction_grid(self):
        for N in (20, 43, 100, 143, 258, 400, 500):
            for n in {1, N // 4, N // 2, N}:
                if n < 1:
                    continue
                for K in {0, 1, N // 10, N // 2}:
                    for c in range(min(n, 3) + 1):
                        plan = Plan(n, c)
                        want = hypergeometric_cdf(c, n, K, N)
                        # exact rational level and its float image
                        assert interpolated_acceptance(
                            plan, N, Fraction(K, N)
                        ) == pytest.approx(want, abs=1e-9)
                        assert interpolated_acceptance(plan, N, K / N) == pytest.approx(
                            want, abs=1e-9
                        )

    def test_matches_the_exact_continuation(self):
        # at 400 seeded non-whole counts p*N, p = a/1000, the float
        # continuation stays within tol(N) of the exact one, clipped into
        # [0, 1]; at a whole count the exact continuation is the tail
        rng, cases = random.Random(2607), 0
        while cases < 400:
            N = rng.randint(2, rng.choice((200, 20_000)))
            n = rng.randint(1, min(N, 300))
            c, a = rng.randint(0, min(n, 6)), rng.randint(1, 999)
            if a * N % 1000 == 0:
                K = a * N // 1000
                assert exact_continued_acceptance(c, n, N, a, 1000) == (
                    exact_hypergeometric_tail(c, n, K, N))
                continue
            cases += 1
            exact = min(max(exact_continued_acceptance(c, n, N, a, 1000), Fraction(0)), 1)
            got = interpolated_acceptance(Plan(n, c), N, Fraction(a, 1000))
            assert abs(got - exact) <= _tail_tolerance(N), (c, n, N, a)

    def test_continuation_at_a_whole_count_is_the_finite_core(self):
        # at a whole count K the continued terms are the finite core's terms
        # (lgamma(K + 1.0) is the table's ln K!, with the core's association,
        # and a pole gives an exact 0 outside the support), so their fsum is
        # the core's tail bit for bit below min(K, n); the curve reads every
        # level through these terms
        for n, K, N in whole_count_lots():
            core = _lot_tails(K, N)
            for c in range(min(K, n, 13)):
                terms = _interpolated_terms(c, n, N, float(K))
                assert min(max(math.fsum(terms), 0.0), 1.0) == core(c, n), (c, n, K, N)

    def test_float_near_a_count_is_not_snapped(self):
        # a float names count k only when it is the double nearest k/N
        got = interpolated_acceptance(Plan(10, 0), 100, 0.07000000001)
        assert got == interpolated_acceptance(Plan(10, 0), 100, Fraction("0.07000000001"))
        assert got != interpolated_acceptance(Plan(10, 0), 100, 0.07)
        assert interpolated_acceptance(Plan(2, 0), 3, 1 / 3) == hypergeometric_cdf(0, 2, 1, 3)

    def test_float_that_rounds_onto_a_count(self):
        # 1 - 1/3 is not the double nearest 2/3, yet its product with 3
        # rounds to 2.0: the continuation is read at the whole count 2
        p = 1 - 1 / 3
        assert interpolated_acceptance(Plan(2, 0), 3, p) == hypergeometric_cdf(0, 2, 2, 3)
        curve = interpolated_acceptance_curve(3, 3, p)
        assert curve.tolist() == [hypergeometric_cdf(c, 3, 2, 3) for c in range(4)]

    def test_level_within_an_ulp_of_a_count(self):
        # p*N = 1.0000000000000002: pN - 4 + 1 rounds onto the pole at -2,
        # where 1/Gamma and so the term vanish
        p = math.nextafter(0.01, 1.0)
        for c in (4, 10):
            assert interpolated_acceptance(Plan(10, c), 100, p) == pytest.approx(
                hypergeometric_cdf(c, 10, 1, 100), abs=1e-12
            )
        curve = interpolated_acceptance_curve(10, 100, p)
        assert curve.tolist() == pytest.approx(
            [hypergeometric_cdf(c, 10, 1, 100) for c in range(11)], abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(1, 0), 10, "1/0")
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(5, 0), 10, -0.01)
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(5, 0), 10, 1.2)
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(5, 0), 10, "1.0000000000000000000001")
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(5, 0), 10, float("nan"))
        with pytest.raises(ValueError):
            interpolated_acceptance(Plan(11, 0), 10, 0.01)
        with pytest.raises(ValueError, match="sample size n must be >= 0, got -1"):
            interpolated_acceptance_curve(-1, 10, 0.1)

    def test_curve_matches_scalar(self):
        for n, N, p in [(27, 43, 0.01), (56, 143, 0.01), (82, 400, 0.035), (27, 43, 0.07)]:
            curve = interpolated_acceptance_curve(n, N, p)
            for c in range(0, n + 1, max(1, n // 7)):
                assert curve[c] == pytest.approx(
                    interpolated_acceptance(Plan(n, c), N, p), abs=1e-10
                )

    def test_stays_in_unit_interval(self):
        # partial sums of the signed continuation can overshoot; the
        # returned probabilities must not
        for n, N, p in [(27, 43, 0.07), (9, 9, 0.07), (101, 101, 0.01)]:
            curve = interpolated_acceptance_curve(n, N, p)
            assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
            for c in range(n + 1):
                value = interpolated_acceptance(Plan(n, c), N, p)
                assert 0.0 <= value <= 1.0

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_acceptance_monotone_in_defective_level(self, N, data):
        # with c = 0 and p*N within the support (p*N <= N-n) the
        # continuation is a falling product of nonnegative factors,
        # strictly decreasing in the defective level
        n = data.draw(st.integers(1, N - 1))
        scale = (N - n) / N
        p1 = data.draw(st.floats(0.0, 1.0, allow_nan=False)) * scale
        p2 = data.draw(st.floats(0.0, 1.0, allow_nan=False)) * scale
        lo, hi = sorted((p1, p2))
        plan = Plan(n, 0)
        assert interpolated_acceptance(plan, N, lo) >= (
            interpolated_acceptance(plan, N, hi) - 1e-9
        )


class TestPlanAndLotTypes:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            Plan(5, 6)
        with pytest.raises(ValueError):
            Plan(-1, 0)
        assert str(Plan(57, 1)) == "(57,1)"

    def test_lot_size_validation(self):
        from midsampling import INFINITE_LOT, LotSize

        with pytest.raises(ValueError, match="lot size must be >= 1, got 0"):
            LotSize(0)
        assert LotSize.of("inf") == INFINITE_LOT
        assert LotSize.of(258).count == 258
        assert LotSize.of(float("inf")) == INFINITE_LOT
        assert LotSize.of(None) == INFINITE_LOT
        assert not INFINITE_LOT.is_finite
        assert str(LotSize(43)) == "43"

    def test_lot_size_of_accepts_whole_floats_only(self):
        from midsampling import LotSize

        assert LotSize.of(3.0).count == 3
        with pytest.raises(ValueError):
            LotSize.of(2.5)
        with pytest.raises(ValueError, match="^lot size must be an integer, got '1.5'$"):
            LotSize.of("1.5")
        for token in ("1_000", "\uff12\uff15\uff18"):  # int() takes both
            with pytest.raises(ValueError, match=f"^lot size must be an integer, got {token!r}$"):
                LotSize.of(token)

    def test_counts_of_planner_and_scheme_accept_whole_floats_only(self):
        from midsampling import (
            INFINITE_LOT,
            LotSize,
            default_mid_scheme,
            max_acceptance_number,
            monte_carlo_acceptance,
            optimal_plan,
            plan_table,
            scheme_lookup,
            validate_scheme,
        )

        assert max_acceptance_number(57.0, LotSize(258)) == max_acceptance_number(57, LotSize(258))
        assert len(plan_table(1.0, 3.0)) == 3
        assert scheme_lookup(22.0, default_mid_scheme()) == Plan(18, 0)
        assert optimal_plan(INFINITE_LOT, scan_cap=110.0).plan == Plan(109, 3)
        assert monte_carlo_acceptance(Plan(5, 0), INFINITE_LOT, 0.01, 2.0, 1) == (
            monte_carlo_acceptance(Plan(5, 0), INFINITE_LOT, 0.01, 2, 1)
        )
        assert validate_scheme(default_mid_scheme(), n_cap=20000.0) == validate_scheme(
            default_mid_scheme(), n_cap=20000
        )
        with pytest.raises(ValueError):
            max_acceptance_number(57.9, LotSize(258))
        with pytest.raises(ValueError):
            plan_table(1.5, 3.7)
        with pytest.raises(ValueError):
            scheme_lookup(22.9, default_mid_scheme())
        with pytest.raises(ValueError):
            optimal_plan(INFINITE_LOT, scan_cap=109.5)
        with pytest.raises(ValueError):
            monte_carlo_acceptance(Plan(5, 0), INFINITE_LOT, 0.01, 2.5, 1)
        with pytest.raises(ValueError):
            validate_scheme(default_mid_scheme(), n_cap=20000.5)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: plan_table(1, float("inf")), "n_max must be an integer, got inf"),
            (lambda: Plan(float("nan"), 0), "sample size n must be an integer, got nan"),
            (lambda: LotSize(float("inf")), "lot size must be an integer, got inf"),
        ],
        ids=["plan_table-inf", "Plan-nan", "LotSize-inf"],
    )
    def test_a_count_that_is_no_finite_number_is_named(self, call, message):
        # int() of an infinity raises OverflowError, of a NaN its own ValueError
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_counts_report_their_least_valid_value(self):
        from midsampling import (
            INFINITE_LOT,
            LotSize,
            default_mid_scheme,
            monte_carlo_acceptance,
            scheme_lookup,
        )

        with pytest.raises(ValueError, match="lot size must be >= 1, got -3"):
            LotSize(-3)
        with pytest.raises(ValueError, match="lot size must be >= 1, got -3"):
            scheme_lookup(-3, default_mid_scheme())
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
                monte_carlo_acceptance(Plan(5, 0), INFINITE_LOT, 0.01, trials, 1)


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, midsampling; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
