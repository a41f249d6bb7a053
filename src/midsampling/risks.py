"""Producers' and consumers' risks of sampling plans against concrete lots.

A finite lot of size N can only realize defective proportions k/N, so the
risks of a plan are evaluated at the worst realizable levels on each side
of the nominal quality requirements: floor(p_aql*N)/N for the producers'
side and ceil(p_lq*N)/N for the consumers' side, which suffice by [F7].

Quality levels are kept as exact rationals throughout.  Computing
floor(0.01*N) in floating point misrounds for many N (0.01*2900 comes out
just under 29), which would silently corrupt entire plan tables.

Every admissibility decision of the package is made here: the planner's,
a scheme row's over its lot range and both WELMEC readings', each by the
tie rule [T] but the continuous one.  Search loops and reports only ask.

The facts that the planner and the scheme check rely on, each proved once
here, cited elsewhere by number and checked by the tests it names.  X_n is
the defect count of the first n items drawn one at a time from N items, K
defective (n draws at proportion p at an infinite lot), so X_{n-1} <= X_n
<= X_{n-1} + 1.  Acceptance is P(X_n <= c), beta(n, c) at the LQ count and
alpha(n, c) = 1 - acceptance at the AQL count.

[F1] beta(n, c) does not rise with n, as X_{n-1} <= X_n.
     Test: test_acceptance_does_not_rise_with_the_sample_size.
[F2] alpha(n, c) does not fall with n, as X_{n-1} <= X_n.
     Test: test_acceptance_does_not_rise_with_the_sample_size.
[F3] Acceptance does not fall as c grows: X <= c implies X <= c + 1.
     Tests: test_acceptance_does_not_fall_as_c_grows, test_monotone_in_c_and_K.
[F4] beta(n, c + 1) >= beta(n - 1, c), as X_n <= X_{n-1} + 1.
     Test: test_one_item_more_adds_at_most_one_defect.
[F5] At fixed (n, c, K) acceptance does not fall as N grows.  Add a good
     item, and swap it, where drawn, for an undrawn one of the N: a sample
     of the N + 1 items becomes one of the N with no fewer defects.  Tests:
     test_acceptance_does_not_fall_as_the_lot_grows,
     test_acceptance_is_monotone_within_a_run.
[F6] alpha(n, c; N + 1) >= (1 - n/(N + 1))*alpha(n, c; N), whether the
     added item is good or defective: a sample misses it with probability
     1 - n/(N + 1), and is then a sample of the N items.
     Test: test_one_item_more_keeps_most_of_the_producers_risk.
[F7] Acceptance does not rise with the defect count K (or with p): one
     more defective item adds no fewer defects to any sample.  Tests:
     test_acceptance_does_not_rise_with_the_defect_count,
     test_monotone_in_c_and_K.
[F8] tol(N) = ``kernel._tail_tolerance(N)`` does not decrease with N, as
     N ln(N + 1) grows: tol of a range's largest lot covers every lot.
     Test: test_tolerance_does_not_decrease_with_the_lot.
[F9] Within a run of one count K, the acceptance of a sample of N - k does
     not rise with N: X = K - Y, Y the defects among the k items left out,
     and Y does not rise with N [F5].
     Test: test_acceptance_is_monotone_within_a_run.
[T]  The tie rule.  A float risk within tol of a bound's nearest float
     ``near`` is too close to call: at or below near - tol it is admitted,
     above near + tol it is not, and in between its exact value decides,
     so that a risk of exactly 1/20 meets a bound of 0.05.  tol is the
     kernel's error bound: tol(N), or at an infinite lot the binomial bound
     of max(n_max, 10^6) draws; a wider tol only settles more risks
     exactly.  Each decision compares inline.  The one exception is
     ``risks._continuous_admissible``, which compares floats.  Tests:
     test_reported_tie_compares_like_the_decision,
     test_lot_16_tie_is_pointwise_admissible,
     test_matches_exact_values_at_every_lot, test_continuous_reading_compares_floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    interpolated_acceptance,
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
        (a result's, built from a plan record): k/N, normalized on first read."""
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
    """floor(level*N), or ceil(level*N) given ``ceil``, exactly, as a lot
    rule takes a level's count inline from its integer ``ratios``."""
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

#: Largest sample size tried for infinite lots before giving up, and the
#: fewest draws whose binomial bound is an infinite lot's tol [T].
DEFAULT_SCAN_CAP = 1_000_000

# OC anchor probabilities of the MID conditions: acceptance of 95% at the
# acceptable quality level and 5% at the limit quality.
ACCEPT_LEVEL_AQL = Fraction(19, 20)
ACCEPT_LEVEL_LQ = Fraction(1, 20)


def _continuous_admissible(at_aql: float, at_lq: float) -> bool:
    # The one exception to [T]: interpolated risks are compared as floats
    # with the anchors' nearest doubles (float 0.05 lies above 1/20).
    return at_aql <= float(ACCEPT_LEVEL_AQL) and at_lq <= float(ACCEPT_LEVEL_LQ)


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
        (the exact proportion at N None): from a finite lot the core moves
        to N where the count holds, and is resolved again where it steps."""
        self.clear()
        if level == self.level and N is not None:
            self.core.move(N)
        else:
            self.level, self.core = level, _lot_tails(level, N)


class _LotRule:
    """Both risks of plans (n, c) against one lot and their bounds, resolved
    once for many plans: each bound's decision by [T], from the bound's
    nearest float (``alpha_near``, ``beta_near``) and the tails' tolerance
    (``alpha_tol``, ``beta_tol``), the lot up to which a producers' refusal
    carries and both WELMEC readings.  Sample sizes run up to N,
    or to n_max at an infinite lot, whose tolerances are fixed when the rule
    is built: the binomial bounds of max(n_max, DEFAULT_SCAN_CAP) draws.
    The levels are exact at every lot and key the two memos.  Each tail is
    evaluated once while the rule is at its lot, so the reported risks and
    both readings reuse a search's tails.
    A table moves one rule from lot to lot, keeping the spec, the bounds'
    floats and the two levels' memos and cores."""

    def __init__(
        self, lot: LotSize, spec: QualitySpec, n_max: int, bounds: RiskBounds = RiskBounds()
    ):
        self.spec, self.bounds = spec, bounds
        self.alpha_tails, self.beta_tails = _Tails(), _Tails()
        self.ratios = (spec.p_aql.as_integer_ratio(), spec.p_lq.as_integer_ratio())
        alpha_max, beta_max = bounds.alpha_max, bounds.beta_max
        self.alpha_near = alpha_max.numerator / alpha_max.denominator
        self.beta_near = beta_max.numerator / beta_max.denominator
        self.move_to(lot.count, n_max)

    def move_to(self, N: Optional[int], n_max: Optional[int] = None) -> None:
        """Make this the rule of a lot of N items (None, with n_max, for an
        infinite lot): its exact realized levels (a finite lot's the _count of
        each level, from ratios read once), tolerances and tails
        (``_Tails.move``, each memo keyed by its level)."""
        self._tails_by_level = None
        if N is None:
            self.N, self.n_max = None, n_max
            self.levels = levels = (self.spec.p_aql, self.spec.p_lq)
            tols = _binomial_tolerances(max(n_max, DEFAULT_SCAN_CAP), levels)
            self.alpha_tol, self.beta_tol = tols
        else:
            (a, b), (c, d) = self.ratios
            self.N = self.n_max = N
            self.levels = levels = (a * N // b, -(-c * N // d))
            self.alpha_tol = self.beta_tol = _tail_tolerance(N)
        self.alpha_tails.move(levels[0], N)
        self.beta_tails.move(levels[1], N)

    def walk(self, n: int, c: int, last: int) -> list:
        """Move this finite lot's rule lot by lot past its lot while the LQ
        count holds and N <= last, and return the record (N, n, c, alpha,
        beta, k_alpha, k_beta) of each lot N at which both float risks of
        (n, c) lie at or below ``near - tol`` [T], the risks as ``_reported``
        gives them and the counts as ``levels``.  At the first lot where one
        does not, or where the count steps, the walk stops there, with the
        tails it evaluated kept.  The producers' tail is evaluated only once
        the consumers' risk is admitted.

        In a table (n, c) is the plan the search found at this lot and
        ``last`` the smallest N_until of its refusals, or the table's last
        lot: at each lot walked (n, c) is the optimal plan, as no n below
        the search's n_beta(c') admits any c' [F5], no c' < c has a plan
        [F2], [F6], and (n - 1, c) and (n, c + 1) stay refused [F4]."""
        records, count, N = [], self.levels[1], self.N
        alpha_tails, beta_tails = self.alpha_tails, self.beta_tails
        alpha_near, beta_near = self.alpha_near, self.beta_near
        while N < last:
            N += 1
            self.move_to(N)
            tol = self.beta_tol
            if self.levels[1] != count:
                break
            beta = beta_tails[c, n] = beta_tails.core(c, n)
            if beta > beta_near - tol:
                break
            accept = alpha_tails[c, n] = alpha_tails.core(c, n)
            if 1.0 - accept > alpha_near - tol:
                break
            records.append((N, n, c, _reported(1.0 - accept, tol, self.exact_alpha, n, c),
                            _reported(beta, tol, self.exact_beta, n, c), *self.levels))
        return records

    def tails(self, level) -> _Tails:
        """The tails at ``level``, a level as the core takes it, kept while
        the rule is at its lot."""
        by_level = self._tails_by_level
        if by_level is None:
            memos = (self.alpha_tails, self.beta_tails)
            by_level = self._tails_by_level = {memo.level: memo for memo in memos}
        tails = by_level.get(level)
        if tails is None:
            tails = by_level[level] = _Tails()
            tails.move(level, self.N)
        return tails

    def exact_alpha(self, n: int, c: int) -> Fraction:
        return 1 - _exact_acceptance(c, n, self.levels[0], self.N)

    def exact_beta(self, n: int, c: int) -> Fraction:
        return _exact_acceptance(c, n, self.levels[1], self.N)

    def risks(self, n: int, c: int) -> tuple:
        """The reported risks (alpha, beta) of (n, c), snapped within the
        rule's tolerances, at an infinite lot the binomial bounds of max(n,
        DEFAULT_SCAN_CAP) draws, so that they depend on the plan and the
        levels alone."""
        alpha_tol, beta_tol = self.alpha_tol, self.beta_tol
        if self.N is None and max(n, self.n_max) > DEFAULT_SCAN_CAP:
            alpha_tol, beta_tol = _binomial_tolerances(max(n, DEFAULT_SCAN_CAP), self.levels)
        alpha, beta = 1.0 - self.alpha_tails[c, n], self.beta_tails[c, n]
        return (_reported(alpha, alpha_tol, self.exact_alpha, n, c),
                _reported(beta, beta_tol, self.exact_beta, n, c))

    def nominal_acceptance(self, plan: Plan) -> list:
        """The acceptance of ``plan`` at the nominal levels, as the WELMEC
        readings take it: the rule's own kept tail at a level that its lot
        realizes (every level of an infinite lot; a finite lot's where p*N
        is whole, K * b == a * N for p = a/b, so that its floor and ceil
        counts are p*N), else the Gamma-interpolated value."""
        n, c, N = plan.n, plan.c, self.N
        memos, nominal = (self.alpha_tails, self.beta_tails), (self.spec.p_aql, self.spec.p_lq)
        return [
            tails[c, n] if N is None or K * b == a * N else interpolated_acceptance(plan, N, p)
            for tails, K, (a, b), p in zip(memos, self.levels, self.ratios, nominal)
        ]

    def admits(self, n: int, c: int) -> bool:
        """Whether both bounds admit (n, c), from the tails the rule keeps."""
        return self.admits_alpha(n, c) and self.admits_beta(n, c)

    def admits_alpha(self, n: int, c: int) -> bool:
        """Whether the producers' bound admits (n, c), by [T]."""
        tails = self.alpha_tails
        accept = tails.get((c, n))
        if accept is None:
            accept = tails[c, n] = tails.core(c, n)
        alpha, near, tol = 1.0 - accept, self.alpha_near, self.alpha_tol
        return alpha <= near - tol or (
            alpha <= near + tol and self.exact_alpha(n, c) <= self.bounds.alpha_max)

    def admits_beta(self, n: int, c: int) -> bool:
        """Whether the consumers' bound admits (n, c), by [T]."""
        tails = self.beta_tails
        beta = tails.get((c, n))
        if beta is None:
            beta = tails[c, n] = tails.core(c, n)
        near, tol = self.beta_near, self.beta_tol
        return beta <= near - tol or (
            beta <= near + tol and self.exact_beta(n, c) <= self.bounds.beta_max)

    def refused_until(self, m: int, c: int) -> int:
        """N_until of c, refused at m at this finite lot N0 by its float risk
        alpha: the last lot up to which c stays refused at every n >= m [F2],
        N0 or less if none.  By [F6], alpha(n, c) at N > N0 is at least
        (alpha - tol)(1 - m(N - N0)/(N0 + 1)), kept above hi = near + tol
        up to N_until.  1 - hi/(alpha - tol) is computed within 2**-51, so
        2**-48 less, times (N0 + 1)/m and rounded down, stays below the
        exact N."""
        N0, hi = self.N, self.alpha_near + self.alpha_tol
        low = 1.0 - self.alpha_tails[c, m] - self.alpha_tol
        if low <= hi:  # also each refusal decided by its exact value [T]
            return 0
        return N0 + int(((low - hi) / low - 2.0**-48) * (N0 + 1) / m)

    def admits_pointwise(self, n: int, c: int) -> bool:
        """Whether (n, c) accepts a finite lot with probability at most
        ACCEPT_LEVEL_AQL at ceil(p_aql*N) defects and at most ACCEPT_LEVEL_LQ
        at ceil(p_lq*N), by [T] with tol(N), as for every tail of the lot.
        These two counts decide for every count at or above each level [F7]."""
        (a, b), N, tol = self.ratios[0], self.N, self.beta_tol
        for K, most in ((-(-a * N // b), ACCEPT_LEVEL_AQL), (self.levels[1], ACCEPT_LEVEL_LQ)):
            accept, near = self.tails(K)[c, n], most.numerator / most.denominator
            if not (accept <= near - tol or (
                    accept <= near + tol and _exact_acceptance(c, n, K, N) <= most)):
                return False
        return True


def risk_pair(plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()) -> RiskPair:
    """Producers' risk (alpha), the probability of rejecting a lot whose
    quality meets the AQL, and consumers' risk (beta), the probability of
    accepting a lot at or beyond the LQ.

    Evaluated at the realized levels floor(p_aql*N)/N and ceil(p_lq*N)/N,
    which bound the risks for every level below the AQL and above the LQ
    [F7].
    """
    return RiskPair(*_LotRule(_check_plan(plan, lot), spec, plan.n).risks(plan.n, plan.c))


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

    Within such a run the acceptance is monotone in N, [F5] for a fixed
    sample size and [F9] for N - k, so the exact decision at the run's two
    ends is the exact decision at every lot of it.  Per side, one run-end
    array split at the row starts covers every row, and one bulk call with
    a per-lane acceptance number evaluates it.  Each lane is decided by [T]
    with tol of its row's last lot [F8].

    Returns per row the fields of ``scheme.RowValidation`` other than
    ``row``, each ``*_at`` the first lot, in N order, whose float risk is
    extreme, and None for the binomial limit, which comes after every lot."""
    starts, last = [row.n_from for row in rows], rows[-1].rule
    limit_rule = _LotRule(INFINITE_LOT, spec, last.value, bounds)
    limit = limit_rule.risks(last.value, last.c)
    verdicts = [{"admissible": True} for _ in rows]
    verdicts[-1]["admissible"] = limit_rule.admits(last.value, last.c)
    for side, (name, level, ceil, bound) in enumerate((
        ("alpha", spec.p_aql, False, bounds.alpha_max), ("beta", spec.p_lq, True, bounds.beta_max)
    )):
        lots, k = _run_ends(level, starts[0], n_cap, ceil, starts[1:])
        edges = np.searchsorted(lots, [*starts, n_cap + 1]).tolist()  # row i: edges[i]:edges[i+1]
        sample, c = np.empty_like(lots), np.empty_like(lots)
        for row, i, j in zip(rows, edges, edges[1:]):
            sample[i:j], c[i:j] = row.rule.sample_size(lots[i:j]), row.rule.c
        accept = _hypergeometric_cdf_bulk(c, sample, k, lots)
        risks, near = accept if ceil else 1.0 - accept, bound.numerator / bound.denominator
        tol = np.repeat([_tail_tolerance(int(lots[j - 1])) for j in edges[1:]], np.diff(edges))
        admitted = risks <= near - tol
        for i in np.flatnonzero(~admitted & (risks <= near + tol)).tolist():
            exact = _exact_acceptance(int(c[i]), int(sample[i]), int(k[i]), int(lots[i]))
            admitted[i] = (exact if ceil else 1 - exact) <= bound
        risks = np.append(risks, limit[side])  # the binomial limit, one past the lots
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
