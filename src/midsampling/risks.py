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
and the pointwise WELMEC reading's.  The planner's search loops only ask.
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
    _binomial_logs,
    _binomial_tolerances,
    _defect_count,
    _hypergeometric_cdf_all_counts,
    _hypergeometric_cdf_bulk,
    _lot_tails,
    _realizable_count,
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

    def __getattr__(self, name: str):
        """p_alpha or p_beta of a lot's levels built from their counts alone
        (a table row's): k/N, normalized on first read."""
        fields = self.__dict__
        if name not in ("p_alpha", "p_beta") or fields.get("denominator") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        level = fields[name] = Fraction(fields["k" + name[1:]], fields["denominator"])
        return level


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
    items, its proportions left to their first read, or from the two
    nominal levels when N is None."""
    if N is None:
        return RealizedLevels(*levels)
    realized = object.__new__(RealizedLevels)  # unchecked: counts of the lot
    realized.__dict__.update(k_alpha=levels[0], k_beta=levels[1], denominator=N)
    return realized


def _count(level: Fraction, N: int, ceil: bool) -> int:
    """floor(level*N), or ceil(level*N) given ``ceil``, exactly: the one
    conversion of a nominal level to the realized defect count of a lot."""
    a, b = level.numerator, level.denominator
    return -(-a * N // b) if ceil else a * N // b


def _check_plan(plan: Plan, lot) -> LotSize:
    """The lot as a ``LotSize``, once ``plan`` is checked against it."""
    lot = LotSize.of(lot)
    if plan.n < 1:
        raise ValueError("degenerate plan with n = 0 is not a usable sampling plan")
    if lot.is_finite and plan.n > lot.count:
        raise ValueError(f"sample size n={plan.n} exceeds lot size N={lot.count}")
    return lot


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
    """The tails of a lot at one level by (c, n), evaluated by ``core``, the
    level's scalar core, on first use; a hot loop reads the memo with
    ``get`` and stores what ``core`` evaluates."""

    level = core = None  # until the first move

    def __missing__(self, key: tuple) -> float:
        tail = self[key] = self.core(*key)
        return tail

    def move(self, level, N: Optional[int]) -> None:
        """Empty the memo for a lot of N items holding ``level`` defectives
        (a float proportion at N None): from a finite lot the core moves to
        N where the count holds, and is resolved again where it steps."""
        self.clear()
        if level == self.level and N is not None:
            self.core.move(N)
        else:
            self.level, self.core = level, _lot_tails(level, N)


class _LotRule:
    """Both risks of plans (n, c) against one lot and their bounds, resolved
    once for many plans: each bound's decision, with its tie band compared
    inline, the lot up to which a producers' refusal carries and the
    pointwise WELMEC decision.  Sample sizes run up
    to N, or to n_max at an infinite lot, where n_max widens binomial bands.
    Each tail is evaluated once while the rule is at its lot, so the
    reported risks of a search's plan reuse the tails it computed, and so
    does the pointwise decision.  A table moves one rule from lot to lot:
    the spec, the bounds and their nearest floats stay, and so do the two
    levels' memos and cores, which each move resolves only as far as the
    lot changes them."""

    def __init__(
        self, lot: LotSize, spec: QualitySpec, n_max: int, bounds: RiskBounds = RiskBounds()
    ):
        self.spec, self.bounds = spec, bounds
        self.alpha_tails, self.beta_tails = _Tails(), _Tails()
        self._memos = (self.alpha_tails, self.beta_tails)
        self.ratios = (spec.p_aql.as_integer_ratio(), spec.p_lq.as_integer_ratio())
        alpha_max, beta_max = bounds.alpha_max, bounds.beta_max
        self.nearest = (
            alpha_max.numerator / alpha_max.denominator, beta_max.numerator / beta_max.denominator
        )
        self.move_to(lot.count, n_max)

    def move_to(self, N: Optional[int], n_max: Optional[int] = None) -> None:
        """Make this the rule of a lot of N items (None, with n_max, for an
        infinite lot): the one way to set the fields of a lot, its realized
        levels, its tolerances, its tails and its two tie bands.  From a
        finite lot to another, per level, the memo is emptied in place and
        the core moves to N, which updates ln N! and ln (N-K)!; only where
        the level's count K steps is a core resolved again."""
        spec, bounds = self.spec, self.bounds
        self.N, self.n_max, self._tails_by_level = N, n_max if N is None else N, None
        if N is None:  # the core takes proportions as floats
            self.levels = (spec.p_aql, spec.p_lq)
            self._binomial_tols = {}
            self.alpha_tol, self.beta_tol = alpha_tol, beta_tol = self._tolerances(n_max)
            core_levels = (float(spec.p_aql), float(spec.p_lq))
        else:  # defect counts, the _count of each level, ratios read once
            (a, b), (c, d) = self.ratios
            self.levels = core_levels = (a * N // b, -(-c * N // d))
            self.alpha_tol = self.beta_tol = alpha_tol = beta_tol = _tail_tolerance(N)
        self.alpha_tails.move(core_levels[0], N)
        self.beta_tails.move(core_levels[1], N)
        (alpha, beta), band = self.nearest, tuple.__new__  # _Bound without its constructor
        self.alpha_bound = band(_Bound, (alpha - alpha_tol, alpha + alpha_tol, bounds.alpha_max))
        self.beta_bound = band(_Bound, (beta - beta_tol, beta + beta_tol, bounds.beta_max))

    def tails(self, level) -> _Tails:
        """The tails at ``level``, a level as the core takes it, kept while
        the rule is at its lot."""
        by_level = self._tails_by_level
        if by_level is None:
            by_level = self._tails_by_level = {memo.level: memo for memo in self._memos}
        tails = by_level.get(level)
        if tails is None:
            tails = by_level[level] = _Tails()
            tails.move(level, self.N)
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
        alpha, beta = 1.0 - self.acceptance(0, n, c), self.acceptance(1, n, c)
        pair = object.__new__(RiskPair)  # unchecked: two floats
        pair.__dict__.update(alpha=_reported(alpha, alpha_tol, self.exact_alpha, n, c),
                             beta=_reported(beta, beta_tol, self.exact_beta, n, c))
        return pair

    def acceptance(self, side: int, n: int, c: int) -> float:
        """The kept tail P(X <= c) of (n, c) at the producers' (0) or consumers' (1) level."""
        return self._memos[side][c, n]

    def admits(self, n: int, c: int) -> bool:
        """Whether both bounds admit (n, c), from the tails the rule keeps."""
        return self.admits_alpha(n, c) and self.admits_beta(n, c)

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

    def admits_beta(self, n: int, c: int) -> bool:
        """Whether the consumers' bound admits (n, c), compared with the tie
        band inline."""
        tails = self.beta_tails
        beta = tails.get((c, n))
        if beta is None:
            beta = tails[c, n] = tails.core(c, n)
        lo, hi, exact = self.beta_bound
        return beta <= lo or (beta <= hi and self.exact_beta(n, c) <= exact)

    def refused_until(self, m: int, c: int) -> int:
        """N_until of c, refused at m at this finite lot N0 by its float risk
        alpha: the last lot up to which c stays refused at every n >= m, N0 or
        less if none.  A sample of n from N + 1 items misses the added item,
        good or defective, with probability 1 - n/(N + 1), and is then a
        sample of the N items, so alpha(n, c) at N + 1 is at least that share
        of alpha(n, c) at N, and at N > N0 at least the product
        (alpha - tol)(1 - m(N - N0)/(N0 + 1)), kept above the band's upper
        edge hi up to N_until.  1 - hi/(alpha - tol) is computed within
        2**-51, so 2**-48 less, times (N0 + 1)/m and rounded down, stays
        below the exact N."""
        N0, hi, low = self.N, self.alpha_bound.hi, 1.0 - self.alpha_tails[c, m] - self.alpha_tol
        if low <= hi:  # also each refusal decided inside the band
            return 0
        return N0 + int(((low - hi) / low - 2.0**-48) * (N0 + 1) / m)

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
    return _LotRule(_check_plan(plan, lot), spec, plan.n).risks(plan.n, plan.c)


def is_admissible(
    plan: Plan,
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> bool:
    """True iff both risks stay within the tolerated bounds, decided as
    exact rational arithmetic would decide it."""
    return _LotRule(_check_plan(plan, lot), spec, plan.n, bounds).admits(plan.n, plan.c)


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
# The default infinite-lot grid k/1000 and its (ln p, ln(1 - p)) pairs.
_DEFAULT_OC_GRID = tuple(k / 1000 for k in range(DEFAULT_OC_POINTS))
_DEFAULT_OC_LOGS = _binomial_logs(_DEFAULT_OC_GRID)


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
    lot = _check_plan(plan, lot)
    if lot.is_finite:
        N = lot.count
        if grid is None:
            ks = np.arange(N + 1)
            accept = _hypergeometric_cdf_all_counts(plan.c, plan.n, N)
        else:
            ks = np.array([_realizable_count(p, N) for p in grid], dtype=np.int64)
            accept = _hypergeometric_cdf_bulk(plan.c, plan.n, ks, N)
        return list(zip((ks / N).tolist(), accept.tolist()))
    if grid is None:
        ps, logs = _DEFAULT_OC_GRID, _DEFAULT_OC_LOGS
    else:
        ps, logs = [_defect_count(p, None)[0] for p in grid], None
    return list(zip(ps, _binomial_curve(plan.c, plan.n, ps, logs)))


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
    lot = _check_plan(plan, lot)
    trials = _check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    if lot.is_finite:
        N, width = lot.count, 1
        K = _realizable_count(p, N)

        def defects(m):  # one defect count per inspection
            return rng.hypergeometric(K, N - K, plan.n, size=m)
    else:
        width, prob = plan.n, _defect_count(p, None)[0]

        def defects(m):  # one draw per sampled item
            return np.count_nonzero(rng.random((m, width)) < prob, axis=1)

    chunk = max(1, _MC_CHUNK_ELEMENTS // width)
    accepted = done = 0
    while done < trials:
        m = min(chunk, trials - done)
        accepted += int(np.count_nonzero(defects(m) <= plan.c))
        done += m
    return accepted / trials
