"""Producers' and consumers' risks of sampling plans against concrete lots.

A finite lot of size N can only realize defective proportions k/N, so the
risks of a plan are evaluated at the worst realizable levels on each side
of the nominal quality requirements: floor(p_aql*N)/N for the producers'
side and ceil(p_lq*N)/N for the consumers' side.  Monotonicity of the
acceptance probability makes these two levels sufficient.

Quality levels are kept as exact rationals throughout.  Computing
floor(0.01*N) in floating point misrounds for many N (0.01*2900 comes out
just under 29), which would silently corrupt entire plan tables.

Every admissibility decision of the package is made here, by one exact
tie rule (``_Bound``): the planner's, a scheme row's over its lot range
and the pointwise WELMEC reading's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .kernel import (
    INFINITE_LOT,
    LevelLike,
    LotSize,
    Plan,
    as_exact_level,
    _check_count,
    _defect_count,
    _hypergeometric_cdf_bulk,
    _lot_tails,
    _tail_tolerance,
)

__all__ = [
    "QualitySpec",
    "RiskBounds",
    "RealizedLevels",
    "RiskPair",
    "realized_quality_levels",
    "risk_pair",
    "is_admissible",
    "oc_curve",
    "monte_carlo_acceptance",
]

@dataclass(frozen=True)
class QualitySpec:
    """Nominal quality levels: acceptable quality (AQL) and limit quality (LQ)."""

    p_aql: Fraction = Fraction(1, 100)
    p_lq: Fraction = Fraction(7, 100)

    def __post_init__(self):
        object.__setattr__(self, "p_aql", as_exact_level(self.p_aql))
        object.__setattr__(self, "p_lq", as_exact_level(self.p_lq))
        if not (0 < self.p_aql < self.p_lq < 1):
            raise ValueError(
                f"quality levels must satisfy 0 < p_aql < p_lq < 1, "
                f"got ({self.p_aql}, {self.p_lq})"
            )


@dataclass(frozen=True)
class RiskBounds:
    """Largest tolerated producers' risk (alpha) and consumers' risk (beta),
    stored as exact rationals like the quality levels (0.05 is 1/20)."""

    alpha_max: Fraction = Fraction(1, 20)
    beta_max: Fraction = Fraction(1, 20)

    def __post_init__(self):
        object.__setattr__(self, "alpha_max", as_exact_level(self.alpha_max))
        object.__setattr__(self, "beta_max", as_exact_level(self.beta_max))
        if not (0 < self.alpha_max < 1 and 0 < self.beta_max < 1):
            raise ValueError(
                f"risk bounds must lie strictly inside (0, 1), "
                f"got ({self.alpha_max}, {self.beta_max})"
            )


@dataclass(frozen=True)
class RealizedLevels:
    """Worst-case quality levels actually realizable in the lot.

    For a finite lot of size ``denominator``, ``p_alpha == k_alpha/N`` is
    the largest realizable proportion not above the AQL and ``p_beta ==
    k_beta/N`` the smallest not below the LQ.  For infinite lots the
    nominal levels are realizable as-is and the counts are ``None``.
    """

    p_alpha: Fraction
    p_beta: Fraction
    k_alpha: Optional[int] = None
    k_beta: Optional[int] = None
    denominator: Optional[int] = None


@dataclass(frozen=True)
class RiskPair:
    alpha: float
    beta: float


def realized_quality_levels(lot: LotSize, spec: QualitySpec = QualitySpec()) -> RealizedLevels:
    """Quality levels at which the risks of a plan have to be evaluated."""
    lot = LotSize.of(lot)
    if not lot.is_finite:
        return RealizedLevels(p_alpha=spec.p_aql, p_beta=spec.p_lq)
    N = lot.count
    k_alpha, k_beta = _count(spec.p_aql, N, False), _count(spec.p_lq, N, True)
    return RealizedLevels(Fraction(k_alpha, N), Fraction(k_beta, N), k_alpha, k_beta, N)


def _count(level: Fraction, N: int, ceil: bool) -> int:
    """floor(level*N), or ceil(level*N) given ``ceil``, exactly: the one
    conversion of a nominal level to the realized defect count of a lot."""
    a, b = level.numerator, level.denominator
    return -(-a * N // b) if ceil else a * N // b


def _check_plan(plan: Plan, lot: LotSize) -> None:
    if plan.n < 1:
        raise ValueError("degenerate plan with n = 0 is not a usable sampling plan")
    if lot.is_finite and plan.n > lot.count:
        raise ValueError(f"sample size n={plan.n} exceeds lot size N={lot.count}")


# ---------------------------------------------------------------------------
# Risks and the exact tie rule
# ---------------------------------------------------------------------------

def _exact_acceptance(c: int, n: int, level, N: Optional[int]) -> Fraction:
    """The scalar core's P(X <= c) in exact rational arithmetic; ``level``
    is a defect count, or an exact proportion when N is None."""
    if N is None:
        a, b = level.numerator, level.denominator
        total = sum(math.comb(n, x) * a**x * (b - a) ** (n - x) for x in range(c + 1))
        return Fraction(total, b**n)
    total = sum(math.comb(level, x) * math.comb(N - level, n - x) for x in range(c + 1))
    return Fraction(total, math.comb(N, n))


def _reported(risk: float, tol: float, exact_risk) -> float:
    """A risk as the package reports it.  Bounds are short decimals, so a
    float risk within tol of a four-place decimal inside (0, 1) is replaced
    by its correctly rounded exact value: compared with such a bound, a
    reported risk then agrees with exact arithmetic (1/20 reads 0.05)."""
    step = round(risk * 10_000)
    if 0 < step < 10_000 and abs(risk - step / 10_000) <= tol:
        return float(exact_risk())
    return risk


class _Bound(NamedTuple):
    """A risk bound with the band, the kernel's tolerance wide on each side,
    in which a float risk is too close to call.  The one rule behind every
    admissibility decision: a float risk at or below ``lo`` is admitted,
    one above ``hi`` is not, and one in between is settled by its exact
    value, so that a risk of exactly 1/20 meets a bound of 0.05.  ``lo`` and
    ``hi`` may be arrays; hot loops unpack the fields and compare inline."""

    lo: float
    hi: float
    exact: Fraction

    @classmethod
    def around(cls, bound: Fraction, tol) -> "_Bound":
        nearest = float(bound)
        return cls(nearest - tol, nearest + tol, bound)

    def widened(self, tol: float) -> "_Bound":
        return _Bound(self.lo - tol, self.hi + tol, self.exact)

    def admits(self, risk: float, exact_risk) -> bool:
        """The rule for one risk; ``exact_risk()`` is called inside the band only."""
        return risk <= self.lo or (risk <= self.hi and exact_risk() <= self.exact)

    def admits_each(self, risks: np.ndarray, exact_risk) -> np.ndarray:
        """The rule elementwise; ``exact_risk(i)`` is called inside the band only."""
        ok = risks <= self.lo
        for i in np.flatnonzero(~ok & (risks <= self.hi)).tolist():
            ok[i] = exact_risk(i) <= self.exact
        return ok


def _bound_pair(bounds: RiskBounds) -> tuple:
    """The alpha and beta bounds with an empty band: the set-up of ``_LotRule``
    that depends on the bounds alone, done once for all the lots of a search."""
    return _Bound.around(bounds.alpha_max, 0.0), _Bound.around(bounds.beta_max, 0.0)


class _Tails(dict):
    """One side's tails of a lot by (c, n), evaluated by ``core`` on first use.
    Search loops, which never repeat a pair, call ``core`` and store the tail."""

    def __init__(self, core):
        self.core = core

    def __missing__(self, key: tuple) -> float:
        tail = self[key] = self.core(*key)
        return tail


class _LotRule:
    """Both risks of plans (n, c) against one lot, and their ``_bound_pair``
    if given, resolved once for many plans, with the planner's three search
    steps.  Sample sizes run up to n_max, which also widens the band of
    binomial tails.  Each tail is evaluated once in the rule's lifetime, so
    the reported risks of a search's plan reuse the tails it computed."""

    def __init__(self, lot: LotSize, spec: QualitySpec, bounds: Optional[tuple], n_max: int):
        self.n_max, self.N = n_max, lot.count
        if lot.is_finite:  # the core takes defect counts, or proportions as floats
            N = lot.count
            self._exact_levels = (_count(spec.p_aql, N, False), _count(spec.p_lq, N, True))
            core_levels = self._exact_levels
            tols = (float(_tail_tolerance(N)),) * 2
        else:
            self._exact_levels = (spec.p_aql, spec.p_lq)
            core_levels = (float(spec.p_aql), float(spec.p_lq))
            tols = [float(_tail_tolerance(n_max, p)) for p in self._exact_levels]
        self.alpha_tol, self.beta_tol = tols
        self.alpha_tails = _Tails(_lot_tails(core_levels[0], self.N))
        self.beta_tails = _Tails(_lot_tails(core_levels[1], self.N))
        if bounds is not None:
            self.alpha_bound = bounds[0].widened(self.alpha_tol)
            self.beta_bound = bounds[1].widened(self.beta_tol)

    def _tolerances(self, n: int) -> tuple:
        """The kernel's error bounds on both tails of plans of at most n
        items: tol(N) for a lot of N items, tol(n, p) for n binomial draws."""
        if self.N is None and n != self.n_max:
            return tuple(float(_tail_tolerance(n, p)) for p in self._exact_levels)
        return self.alpha_tol, self.beta_tol

    def exact_alpha(self, n: int, c: int) -> Fraction:
        return 1 - _exact_acceptance(c, n, self._exact_levels[0], self.N)

    def exact_beta(self, n: int, c: int) -> Fraction:
        return _exact_acceptance(c, n, self._exact_levels[1], self.N)

    def risks(self, n: int, c: int) -> RiskPair:
        """The reported risks of (n, c), snapped within the error bounds of
        its own tails, so that they do not depend on n_max."""
        alpha_tol, beta_tol = self._tolerances(n)
        alpha, beta = 1.0 - self.alpha_tails[c, n], self.beta_tails[c, n]
        return RiskPair(
            alpha=_reported(alpha, alpha_tol, lambda: self.exact_alpha(n, c)),
            beta=_reported(beta, beta_tol, lambda: self.exact_beta(n, c)),
        )

    def admits(self, n: int, c: int) -> bool:
        """Whether both bounds admit (n, c), from the tails the rule keeps."""
        return self.admits_alpha(n, c) and self.beta_bound.admits(
            self.beta_tails[c, n], lambda: self.exact_beta(n, c)
        )

    def smallest_beta_n(self, c: int, n_from: int, hint: Optional[int] = None) -> Optional[int]:
        """The smallest sample size n <= n_max at which the consumers' bound
        admits acceptance number c (None if none does), given that no n
        below n_from does.  Beta(n, c) does not increase with n, so a gallop
        from ``hint`` (or n_from) brackets the answer and a bisection closes
        the bracket; the hint moves only where the search starts.  Like
        ``largest_beta_c``, it compares with the tie band inline."""
        tails, core = self.beta_tails, self.beta_tails.core
        lo, hi, exact = self.beta_bound

        def admits(n):
            beta = tails[c, n] = core(c, n)
            return beta <= lo or (beta <= hi and self.exact_beta(n, c) <= exact)

        # no n <= c admits c: such a sample accepts every lot
        failing, admitted = max(n_from, c + 1) - 1, None
        if failing >= self.n_max:
            return None
        n = failing + 1 if hint is None else min(max(hint, failing + 1), self.n_max)
        step = 1
        if admits(n):  # gallop down to a failing n or to the known one
            admitted = n
            while admitted - step > failing:
                n = admitted - step
                if not admits(n):
                    failing = n
                    break
                admitted, step = n, 2 * step
        else:  # gallop up to an admitted n, or to a failing n_max
            failing = n
            while admitted is None:
                n = min(failing + step, self.n_max)
                if n == failing:
                    return None
                if admits(n):
                    admitted = n
                else:
                    failing, step = n, 2 * step
        while admitted - failing > 1:
            n = (failing + admitted) // 2
            if admits(n):
                admitted = n
            else:
                failing = n
        return admitted

    def largest_beta_c(self, n: int, c: int = -1) -> int:
        """The largest acceptance number at n that the consumers' bound
        admits (-1 if none), searched upward from c, an acceptance number
        it admits or -1, one tail per step: the planner calls it once per
        plan, from the c it searched for.  The loop compares with the tie
        band inline and settles a risk inside it through its exact value."""
        tails, core = self.beta_tails, self.beta_tails.core
        lo, hi, exact = self.beta_bound
        while c < n:
            beta = tails[c + 1, n] = core(c + 1, n)
            if beta > hi or (beta > lo and self.exact_beta(n, c + 1) > exact):
                break
            c += 1
        return c

    def admits_alpha(self, n: int, c: int) -> bool:
        alpha = 1.0 - self.alpha_tails[c, n]
        return self.alpha_bound.admits(alpha, lambda: self.exact_alpha(n, c))


def risk_pair(plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()) -> RiskPair:
    """Producers' risk (alpha), the probability of rejecting a lot whose
    quality meets the AQL, and consumers' risk (beta), the probability of
    accepting a lot at or beyond the LQ.

    Evaluated at the realized levels floor(p_aql*N)/N and ceil(p_lq*N)/N;
    by monotonicity of the acceptance probability these bound the risks
    for every level below the AQL and above the LQ respectively.
    """
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    return _LotRule(lot, spec, None, plan.n).risks(plan.n, plan.c)


def is_admissible(
    plan: Plan,
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> bool:
    """True iff both risks stay within the tolerated bounds, decided as
    exact rational arithmetic would decide it."""
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    return _LotRule(lot, spec, _bound_pair(bounds), plan.n).admits(plan.n, plan.c)


def _run_ends(level: Fraction, lo: int, hi: int, ceil: bool) -> tuple:
    """The lots of [lo, hi] that start or end a run of constant realized
    count ``_count(level, N, ceil)``, in increasing order, and the count at
    each, as int64 arrays.  A level below 1 raises the count by exactly one
    from a run to the next.  With level = a/b, count j is first reached at
    ceil(j*b/a) on the floor side and at floor((j-1)*b/a) + 1 on the ceil
    side; products past int64 are taken with Python ints."""
    a, b = level.numerator, level.denominator
    counts = np.arange(_count(level, lo, ceil), _count(level, hi, ceil) + 1, dtype=np.int64)
    js = counts[1:] - 1 if ceil else counts[1:]
    if b * hi >= 2**63:  # j <= hi
        js = js.astype(object)
    starts = (js * b) // a + 1 if ceil else -((-js * b) // a)
    starts = np.concatenate(([lo], np.asarray(starts, dtype=np.int64)))
    lots = np.column_stack((starts, np.append(starts[1:] - 1, hi))).ravel()
    keep = np.append(True, lots[1:] != lots[:-1])  # a run of one lot ends where it starts
    return lots[keep], np.repeat(counts, 2)[keep]


def _row_risks(
    c: int, sample_size, lo: int, hi: int, spec: QualitySpec, bounds: RiskBounds,
    limit_n: Optional[int] = None,
) -> tuple:
    """Both risks of plans (sample_size(N), c) over the finite lots lo <= N
    <= hi, evaluated only at the ends of each side's runs of constant
    realized count, and whether the plan is admissible at every lot.

    Within such a run the acceptance probability is monotone in N: it does
    not decrease for a fixed sample size (the hypergeometric is ordered by
    likelihood ratio in N) and does not increase for a sample of N - k items
    (X = K - Y, Y the defects among the k items left out).  So every lot's
    exact risk is at most the larger exact risk at its run's two ends, the
    decision over the ends alone is the exact decision over every lot, and
    the cost grows with the number of runs, not of lots.

    Returns ((alpha lots, alphas), (beta lots, betas), admissible);
    ``sample_size`` maps an int64 array of lots to their sample sizes.
    Given ``limit_n``, the binomial limit of plan (limit_n, c) is appended
    to both risk arrays, one past their lots, and joins the decision."""

    def side(level, ceil, bound):
        lots, k = _run_ends(level, lo, hi, ceil)
        sample = np.broadcast_to(sample_size(lots), lots.shape)
        accept = _hypergeometric_cdf_bulk(c, sample, k, lots)

        def exact_risk(i):
            exact = _exact_acceptance(c, int(sample[i]), int(k[i]), int(lots[i]))
            return exact if ceil else 1 - exact

        risks = accept if ceil else 1.0 - accept
        admitted = _Bound.around(bound, _tail_tolerance(lots)).admits_each(risks, exact_risk)
        return lots, risks, bool(admitted.all())

    alpha_lots, alphas, alpha_admitted = side(spec.p_aql, False, bounds.alpha_max)
    beta_lots, betas, beta_admitted = side(spec.p_lq, True, bounds.beta_max)
    admissible = alpha_admitted and beta_admitted
    if limit_n is not None:
        limit_rule = _LotRule(INFINITE_LOT, spec, _bound_pair(bounds), limit_n)
        limit = limit_rule.risks(limit_n, c)
        alphas = np.append(alphas, limit.alpha)
        betas = np.append(betas, limit.beta)
        admissible = limit_rule.admits(limit_n, c) and admissible
    return (alpha_lots, alphas), (beta_lots, betas), admissible


def _acceptance_at_most(plan: Plan, K: int, N: int, level: Fraction) -> bool:
    """Whether ``plan`` accepts a lot of N items holding K defectives with
    probability at most ``level``, decided as exact arithmetic would."""
    return _Bound.around(level, float(_tail_tolerance(N))).admits(
        _lot_tails(K, N)(plan.c, plan.n), lambda: _exact_acceptance(plan.c, plan.n, K, N)
    )


# ---------------------------------------------------------------------------
# Operating characteristic curves
# ---------------------------------------------------------------------------

#: Number of grid points for the default infinite-lot OC grid on [0, 0.15].
DEFAULT_OC_POINTS = 151


def oc_curve(
    plan: Plan,
    lot: LotSize,
    grid: Optional[Sequence[LevelLike]] = None,
) -> list:
    """Acceptance probability as a function of the defective proportion.

    Returns (p, Pac) pairs.  For a finite lot the default grid is every
    realizable proportion k/N; custom grid values must be realizable
    (p*N integer).  For infinite lots the default grid is 151 uniform
    points on [0, 0.15].
    """
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    if lot.is_finite:
        N = lot.count
        if grid is None:
            ks = np.arange(N + 1)
        else:
            ks = np.array([_realizable_count(p, N) for p in grid], dtype=np.int64)
        accept = _hypergeometric_cdf_bulk(plan.c, plan.n, ks, N)
        return list(zip((ks / N).tolist(), accept.tolist()))
    if grid is None:
        ps = [k / 1000 for k in range(DEFAULT_OC_POINTS)]
    else:
        ps = [_checked_proportion(p) for p in grid]
    return [(p, _lot_tails(p, None)(plan.c, plan.n)) for p in ps]


def _checked_proportion(p: LevelLike) -> float:
    value = as_exact_level(p)
    if not 0 <= value <= 1:
        raise ValueError(f"quality level {p!r} outside [0, 1]")
    return float(value)


def _realizable_count(p: LevelLike, N: int) -> int:
    """Defective count k with p == k/N, or ValueError if p is not realizable."""
    k = _defect_count(p, N)[1]
    if k is None:
        raise ValueError(f"quality level {p} is not a multiple of 1/{N}")
    return k


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------

# Cap on random numbers drawn per chunk; fixed so that results are a pure
# function of (plan, lot, p, trials, seed).
_MC_CHUNK_ELEMENTS = 1 << 22


def monte_carlo_acceptance(
    plan: Plan,
    lot: LotSize,
    p: LevelLike,
    trials: int,
    seed: int,
) -> float:
    """Empirical acceptance rate from simulated inspections.

    Finite lots are simulated by drawing ``plan.n`` items without
    replacement from a lot with exactly ``p*N`` defectives (``p*N`` must
    be an integer); infinite lots by independent draws that are defective
    with probability ``p``.  Deterministic for a fixed seed.
    """
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    trials = _check_count("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if lot.is_finite:
        width, K = lot.count, _realizable_count(p, lot.count)

        def defects(m):
            # Uniform keys give each size-n subset equal probability; items
            # 0..K-1 are the defectives.
            sample = np.argpartition(rng.random((m, width)), plan.n - 1, axis=1)[:, : plan.n]
            return np.count_nonzero(sample < K, axis=1)
    else:
        width, prob = plan.n, _checked_proportion(p)

        def defects(m):  # one draw per sampled item
            return np.count_nonzero(rng.random((m, width)) < prob, axis=1)

    chunk = max(1, _MC_CHUNK_ELEMENTS // width)
    accepted = done = 0
    while done < trials:
        m = min(chunk, trials - done)
        accepted += int(np.count_nonzero(defects(m) <= plan.c))
        done += m
    return accepted / trials
