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
    _binomial_curve,
    _binomial_tolerances,
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
        aql, lq = as_exact_level(self.p_aql), as_exact_level(self.p_lq)
        object.__setattr__(self, "p_aql", aql)
        object.__setattr__(self, "p_lq", lq)
        (a, b), (c, d) = aql.as_integer_ratio(), lq.as_integer_ratio()
        if not (0 < a and a * d < c * b and c < d):  # 0 < p_aql < p_lq < 1, b and d > 0
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
        alpha, beta = as_exact_level(self.alpha_max), as_exact_level(self.beta_max)
        object.__setattr__(self, "alpha_max", alpha)
        object.__setattr__(self, "beta_max", beta)
        (a, b), (c, d) = alpha.as_integer_ratio(), beta.as_integer_ratio()
        if not (0 < a < b and 0 < c < d):
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
        return _realized_levels((spec.p_aql, spec.p_lq), None)
    N = lot.count
    return _realized_levels((_count(spec.p_aql, N, False), _count(spec.p_lq, N, True)), N)


def _realized_levels(levels: tuple, N: Optional[int]) -> RealizedLevels:
    """RealizedLevels from the two realized defect counts of a lot of N
    items, or from the two nominal levels when N is None."""
    if N is None:
        return RealizedLevels(*levels)
    k_alpha, k_beta = levels
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


def _reported(risk: float, tol: float, exact_risk, *args) -> float:
    """A risk as the package reports it.  Bounds are short decimals, so a
    float risk within tol of a four-place decimal inside (0, 1) is replaced
    by its correctly rounded exact value ``exact_risk(*args)``: compared
    with such a bound, a reported risk then agrees with exact arithmetic
    (1/20 reads 0.05)."""
    step = round(risk * 10_000)
    if 0 < step < 10_000 and abs(risk - step / 10_000) <= tol:
        return float(exact_risk(*args))
    return risk


class _Bound(NamedTuple):
    """A risk bound with the band, the kernel's tolerance wide on each side,
    in which a float risk is too close to call.  The one rule behind every
    admissibility decision: a float risk at or below ``lo`` is admitted,
    one above ``hi`` is not, and one in between is settled by its exact
    value, so that a risk of exactly 1/20 meets a bound of 0.05.  A band
    wider than the kernel's error only settles more risks exactly.  Hot
    loops unpack the fields and compare inline."""

    lo: float
    hi: float
    exact: Fraction

    @classmethod
    def around(cls, bound: Fraction, tol: float) -> "_Bound":
        nearest = bound.numerator / bound.denominator
        return cls(nearest - tol, nearest + tol, bound)

    def admits(self, risk: float, exact_risk) -> bool:
        """The rule for one risk; ``exact_risk()`` is called inside the band only."""
        return risk <= self.lo or (risk <= self.hi and exact_risk() <= self.exact)

    def admits_each(self, risks: np.ndarray, exact_risk) -> np.ndarray:
        """The rule elementwise; ``exact_risk(i)`` is called inside the band only."""
        ok = risks <= self.lo
        for i in np.flatnonzero(~ok & (risks <= self.hi)).tolist():
            ok[i] = exact_risk(i) <= self.exact
        return ok


class _Tails(dict):
    """The tails of a lot at one level by (c, n), evaluated by ``core`` on first
    use.  Search loops, which never repeat a pair, call ``core`` and store the
    tail."""

    def __init__(self, core):
        self.core = core

    def __missing__(self, key: tuple) -> float:
        tail = self[key] = self.core(*key)
        return tail


class _LotRule:
    """Both risks of plans (n, c) against one lot and their bounds, resolved
    once for many plans, with the planner's three search steps and the
    pointwise WELMEC decision.  Sample sizes run up to N, or up to n_max at
    an infinite lot, where n_max also widens the band of binomial tails.
    Each tail is evaluated once while the rule is at its lot, so the
    reported risks of a search's plan reuse the tails it computed, and so
    does the pointwise decision.  A table moves one rule from lot to lot:
    the spec, the bounds and their nearest floats stay."""

    def __init__(
        self, lot: LotSize, spec: QualitySpec, n_max: int, bounds: RiskBounds = RiskBounds()
    ):
        self.spec, self.bounds = spec, bounds
        alpha_max, beta_max = bounds.alpha_max, bounds.beta_max
        self.nearest = (
            alpha_max.numerator / alpha_max.denominator, beta_max.numerator / beta_max.denominator
        )
        self.move_to(lot.count, n_max)

    def move_to(self, N: Optional[int], n_max: Optional[int] = None) -> None:
        """Make this the rule of a lot of N items (None, with n_max, for an
        infinite lot): the one way to set the fields of a lot, its realized
        levels, its tolerances, its tails and its two tie bands."""
        spec, bounds = self.spec, self.bounds
        self.N, self.n_max, self._tails_by_level = N, n_max if N is None else N, None
        if N is not None:  # the core takes defect counts, or proportions as floats
            self.levels = (_count(spec.p_aql, N, False), _count(spec.p_lq, N, True))
            self.core_levels = self.levels
            self.alpha_tol = self.beta_tol = _tail_tolerance(N)
        else:
            self.levels = (spec.p_aql, spec.p_lq)
            self.core_levels = (float(spec.p_aql), float(spec.p_lq))
            self._binomial_tols = {}
            self.alpha_tol, self.beta_tol = self._tolerances(n_max)
        self.alpha_tails = _Tails(_lot_tails(self.core_levels[0], N))
        self.beta_tails = _Tails(_lot_tails(self.core_levels[1], N))
        (alpha, beta), alpha_tol, beta_tol = self.nearest, self.alpha_tol, self.beta_tol
        self.alpha_bound = _Bound(alpha - alpha_tol, alpha + alpha_tol, bounds.alpha_max)
        self.beta_bound = _Bound(beta - beta_tol, beta + beta_tol, bounds.beta_max)

    def tails(self, level) -> _Tails:
        """The tails at ``level``, a level as the core takes it, kept for the
        rule's lifetime."""
        by_level = self._tails_by_level
        if by_level is None:
            by_level = self._tails_by_level = dict(
                zip(self.core_levels, (self.alpha_tails, self.beta_tails))
            )
        tails = by_level.get(level)
        if tails is None:
            tails = by_level[level] = _Tails(_lot_tails(level, self.N))
        return tails

    def _tolerances(self, n: int) -> tuple:
        """The kernel's error bounds on both tails of plans of at most n
        items: tol(N) for a lot of N items, tol(n, p) for n binomial draws,
        kept by n."""
        if self.N is not None:
            return self.alpha_tol, self.beta_tol
        tols = self._binomial_tols.get(n)
        if tols is None:
            tols = self._binomial_tols[n] = _binomial_tolerances(n, self.levels)
        return tols

    def exact_alpha(self, n: int, c: int) -> Fraction:
        return 1 - _exact_acceptance(c, n, self.levels[0], self.N)

    def exact_beta(self, n: int, c: int) -> Fraction:
        return _exact_acceptance(c, n, self.levels[1], self.N)

    def risks(self, n: int, c: int) -> RiskPair:
        """The reported risks of (n, c), snapped within the error bounds of
        its own tails, so that they do not depend on n_max."""
        alpha_tol, beta_tol = self._tolerances(n)
        alpha, beta = 1.0 - self.alpha_tails[c, n], self.beta_tails[c, n]
        return RiskPair(
            alpha=_reported(alpha, alpha_tol, self.exact_alpha, n, c),
            beta=_reported(beta, beta_tol, self.exact_beta, n, c),
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
        the bracket; the hint moves only where the search starts.  One loop
        evaluates each probe and compares with the tie band inline, like
        ``largest_beta_c``: a hint that is the answer costs two tails."""
        tails, core = self.beta_tails, self.beta_tails.core
        lo, hi, exact = self.beta_bound
        n_max = self.n_max
        # no n <= c admits c: such a sample accepts every lot
        failing, admitted = max(n_from, c + 1) - 1, None
        if failing >= n_max:
            return None
        n = failing + 1 if hint is None else min(max(hint, failing + 1), n_max)
        step, failed = 1, False
        while True:
            beta = tails[c, n] = core(c, n)
            if beta <= lo or (beta <= hi and self.exact_beta(n, c) <= exact):
                admitted = n
            else:
                failing, failed = n, True
            if admitted is None:  # gallop up to an admitted n, or to a failing n_max
                if n == n_max:
                    return None
                n = min(failing + step, n_max)
            elif not failed and admitted - step > failing:  # gallop down to a failing n
                n = admitted - step
            elif admitted - failing > 1:  # bisect the bracket
                n = (failing + admitted) // 2
            else:
                return admitted
            step *= 2

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
        """Whether the producers' bound admits (n, c), compared with the tie
        band inline."""
        tails = self.alpha_tails
        accept = tails.get((c, n))
        if accept is None:
            accept = tails[c, n] = tails.core(c, n)
        alpha = 1.0 - accept
        lo, hi, exact = self.alpha_bound
        return alpha <= lo or (alpha <= hi and self.exact_alpha(n, c) <= exact)

    def admits_pointwise(self, n: int, c: int, at_aql: Fraction, at_lq: Fraction) -> bool:
        """Whether (n, c) accepts a finite lot with probability at most
        ``at_aql`` at ceil(p_aql*N) defects and at most ``at_lq`` at
        ceil(p_lq*N), decided as exact arithmetic would decide it.
        Acceptance does not increase with the defect count, so these two
        counts decide for every count at or above each level."""
        N, lq_count = self.N, self.levels[1]
        for K, most in ((_count(self.spec.p_aql, N, True), at_aql), (lq_count, at_lq)):
            accept = self.tails(K)[c, n]
            bound = _Bound.around(most, self.beta_tol)  # tol(N), as for every tail of the lot
            if not bound.admits(accept, lambda: _exact_acceptance(c, n, K, N)):
                return False
        return True


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
    return _LotRule(lot, spec, plan.n).risks(plan.n, plan.c)


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
    return _LotRule(lot, spec, plan.n, bounds).admits(plan.n, plan.c)


def _run_ends(level: Fraction, lo: int, hi: int, ceil: bool, splits: Sequence[int] = ()) -> tuple:
    """The lots of [lo, hi] that start or end a run of constant realized
    count ``_count(level, N, ceil)``, in increasing order, and the count at
    each, as int64 arrays; a run also starts at each lot of ``splits``, the
    increasing starts of rows in (lo, hi], so that the lots of each row are
    the row's own run ends.  A level below 1 raises the count by exactly
    one from a run to the next.  With level = a/b, count j is first reached
    at ceil(j*b/a) on the floor side and at floor((j-1)*b/a) + 1 on the ceil
    side; products past int64 are taken with Python ints."""
    a, b = level.numerator, level.denominator
    counts = np.arange(_count(level, lo, ceil) + 1, _count(level, hi, ceil) + 1, dtype=np.int64)
    js = counts - 1 if ceil else counts
    if b * hi >= 2**63:  # j <= hi
        js = js.astype(object)
    starts = np.asarray((js * b) // a + 1 if ceil else -((-js * b) // a), dtype=np.int64)
    firsts = [lo, *splits]  # each with its count, then the runs that start after it
    begins = np.searchsorted(starts, firsts, side="right").tolist()
    ends = np.searchsorted(starts, [*splits, hi + 1]).tolist()
    pieces = [(s, starts[i:j], counts[i:j]) for s, i, j in zip(firsts, begins, ends)]
    starts = np.concatenate([x for s, run, _ in pieces for x in ([s], run)])
    counts = np.concatenate([x for s, _, k in pieces for x in ([_count(level, s, ceil)], k)])
    lots = np.column_stack((starts, np.append(starts[1:] - 1, hi))).ravel()
    keep = np.append(True, lots[1:] != lots[:-1])  # a run of one lot ends where it starts
    return lots[keep], np.repeat(counts, 2)[keep]


def _scheme_risks(rows: Sequence, n_cap: int, spec: QualitySpec, bounds: RiskBounds) -> list:
    """The verdict on each scheme row, the plans (rule.sample_size(N), rule.c)
    over its lots n_from <= N <= n_to (n_cap for the open last row, whose
    binomial limit, plan (rule.value, rule.c), joins its decision): both
    risks' extrema, evaluated only at the ends of each side's runs of
    constant realized count, and whether the plan is admissible at every lot.

    Within such a run the acceptance probability is monotone in N: it does
    not decrease for a fixed sample size (the hypergeometric is ordered by
    likelihood ratio in N) and does not increase for a sample of N - k items
    (X = K - Y, Y the defects among the k items left out).  So every lot's
    exact risk is at most the larger exact risk at its run's two ends, the
    decision over the ends alone is the exact decision over every lot, and
    the cost grows with the number of runs, not of lots.  Per side, one
    run-end array split at the row starts covers every row, and one bulk
    call with a per-lane acceptance number evaluates it.  A row's tie band,
    tol of its last lot wide, covers the error of each of its tails.

    Returns per row the fields of ``scheme.RowValidation`` other than
    ``row``, each ``*_at`` the first lot, in N order, whose float risk is
    extreme, and None for the binomial limit, which comes after every lot."""
    starts, last = [row.n_from for row in rows], rows[-1].rule
    limit_rule = _LotRule(INFINITE_LOT, spec, last.value, bounds)
    limit = limit_rule.risks(last.value, last.c)
    verdicts = [{"admissible": True} for _ in rows]
    verdicts[-1]["admissible"] = limit_rule.admits(last.value, last.c)
    for name, level, ceil, bound in (
        ("alpha", spec.p_aql, False, bounds.alpha_max), ("beta", spec.p_lq, True, bounds.beta_max)
    ):
        lots, k = _run_ends(level, starts[0], n_cap, ceil, starts[1:])
        edges = np.searchsorted(lots, [*starts, n_cap + 1]).tolist()  # row i: edges[i]:edges[i+1]
        sample, c = np.empty_like(lots), np.empty_like(lots)
        for row, i, j in zip(rows, edges, edges[1:]):
            sample[i:j], c[i:j] = row.rule.sample_size(lots[i:j]), row.rule.c
        accept = _hypergeometric_cdf_bulk(c, sample, k, lots)

        def exact_risk(i):
            exact = _exact_acceptance(int(c[i]), int(sample[i]), int(k[i]), int(lots[i]))
            return exact if ceil else 1 - exact

        risks = accept if ceil else 1.0 - accept
        tol = np.repeat([_tail_tolerance(int(lots[j - 1])) for j in edges[1:]], np.diff(edges))
        admitted = _Bound.around(bound, tol).admits_each(risks, exact_risk)
        risks = np.append(risks, getattr(limit, name))  # the binomial limit, one past the lots
        for verdict, i, j in zip(verdicts, edges, [*edges[1:-1], None]):  # the last row has it
            verdict["admissible"] = verdict["admissible"] and bool(admitted[i:j].all())
            row_risks = risks[i:j]
            for end, m in (("min", int(np.argmin(row_risks))), ("max", int(np.argmax(row_risks)))):
                verdict[f"{name}_{end}"] = float(row_risks[m])
                verdict[f"{name}_{end}_at"] = int(lots[i + m]) if i + m < lots.size else None
    return verdicts


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
    return list(zip(ps, _binomial_curve(plan.c, plan.n, ps)))


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

    Finite lots are simulated by drawing the defect count of ``plan.n``
    items taken without replacement from a lot with exactly ``p*N``
    defectives (``p*N`` must be an integer), one hypergeometric variate per
    trial, so the cost does not grow with N; numpy's sampler takes fewer
    than 10**9 defective and 10**9 good items.  Infinite lots are simulated
    by independent draws that are defective with probability ``p``.
    Deterministic for a fixed seed.
    """
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    trials = _check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    if lot.is_finite:
        N, width = lot.count, 1
        K = _realizable_count(p, N)

        def defects(m):  # one defect count per inspection
            return rng.hypergeometric(K, N - K, plan.n, size=m)
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
