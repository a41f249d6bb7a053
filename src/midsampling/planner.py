"""Search for admissible sampling plans with minimal sample size.

For a fixed acceptance number c the consumers' risk does not increase with
the sample size n and the producers' risk does not decrease, so the
consumers' bound admits c exactly from some smallest n_beta(c) on, and
n_beta(c) does not decrease with c.  The search walks c = 0, 1, ...,
finds each n_beta(c) by galloping and bisecting upward from the previous
one (from a closed-form estimate for c = 0 and 1), and stops at the first c
whose producers' risk at n_beta(c) is admitted: no plan with a smaller n is
admissible.  At that n the plan takes the largest acceptance number the
consumers' bound admits, which has the smallest producers' risk.  The lot
rule in ``risks`` makes every decision exactly, so this argument holds
exactly.  It evaluates each tail of its lot once, so the plan's reported
risks are tails the search already computed.

A table moves one lot rule from lot to lot and starts each search for
n_beta(c) at the previous lot's, which is also a floor inside a run of lots
with one realized LQ count K = ceil(p_lq*N): for fixed (n, c, K) the exact
acceptance does not decrease with N (the likelihood-ratio ordering that
``risks._scheme_risks`` relies on), so every n refused at N - 1 is refused at
N.  Where K steps up, acceptance falls and n_beta(c) may fall with it.  The
floor skips only probes whose exact decision is known: it changes none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .kernel import LotSize, Plan, _check_count
from .render import render
from .risks import (
    QualitySpec,
    RealizedLevels,
    RiskBounds,
    RiskPair,
    _check_plan,
    _LotRule,
    _realized_levels,
)

__all__ = [
    "PlanResult",
    "PlanTable",
    "NoPlanWithinCapError",
    "max_acceptance_number",
    "optimal_plan",
    "plan_table",
]

#: Largest sample size tried for infinite lots before giving up.
DEFAULT_SCAN_CAP = 1_000_000


class NoPlanWithinCapError(Exception):
    """No admissible plan exists below the sample-size scan cap."""


@dataclass(frozen=True)
class PlanResult:
    plan: Plan
    risks: RiskPair
    realized: RealizedLevels


@dataclass(frozen=True)
class PlanTable:
    """Optimal plans for a contiguous range of lot sizes, sorted by N."""

    rows: Tuple[Tuple[int, PlanResult], ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def to_csv(self) -> str:
        """Deterministic CSV export, risks with six decimal digits."""
        return render("table", "csv", self)


def max_acceptance_number(
    n: int,
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> Optional[int]:
    """Largest c with consumers' risk within bounds, or None.

    Only the consumers' bound is checked here; the acceptance probability
    grows with c, so the feasible acceptance numbers are exactly 0..c_n.
    """
    lot = LotSize.of(lot)
    n = _check_count("sample size n", n)
    _check_plan(Plan(n, 0), lot)
    c = _LotRule(lot, spec, n, bounds).largest_beta_c(n)
    return None if c < 0 else c


def optimal_plan(
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PlanResult:
    """Admissible plan with the smallest sample size for the given lot.

    Searches over the acceptance number c: the first c admitted by both
    bounds at n_beta(c), the smallest n the consumers' bound admits it at,
    gives the smallest sample size n*.  Ties at n* resolve to the largest
    acceptance number the consumers' bound admits, which minimizes the
    producers' risk at no extra inspection cost.  Finite lots always
    succeed (full inspection is admissible); infinite lots raise
    :class:`NoPlanWithinCapError` when n* would exceed ``scan_cap``.
    """
    return _search(_LotRule(LotSize.of(lot), spec, _check_count("scan_cap", scan_cap), bounds))[0]


def _zero_c_start(rule: _LotRule, ln_beta: float) -> int:
    """An upper estimate of n_beta(0), capped at n_max.  beta(n, 0) is
    (1 - p)**n at proportion p = K/N; for K defectives in N items it is at
    most (1 - K/N)**n and at most (1 - n/N)**K.  So each n at which one of
    these reaches the bound beta_max = exp(ln_beta) admits c = 0."""
    K, N = rule.levels[1].as_integer_ratio() if rule.N is None else (rule.levels[1], rule.N)
    if 2 * K <= N:  # ln(1 - K/N), finite however close K/N is to 1
        ln_q = math.log1p(-K / N)
    else:
        ln_q = math.log(N - K) - math.log(N) if K < N else -math.inf
    n = ln_beta / ln_q if ln_q else math.inf  # ln_q is 0 where K/N underflows
    if rule.N is not None:
        n = min(n, N * -math.expm1(ln_beta / K))
    return math.ceil(min(n, rule.n_max))


def _poisson_ratio(ln_beta: float) -> float:
    """m1 / m0 for the Poisson means at which P(X <= 0) and P(X <= 1) reach
    beta_max = exp(ln_beta): m0 = -ln_beta, and m1 solves m - ln(1 + m) = m0.
    n_beta(1) / n_beta(0) is about this ratio.  Newton's steps fall onto m1
    from a start above it, where the function is convex and increasing."""
    m0 = -ln_beta
    m = m0 + math.sqrt(2.0 * m0)
    for _ in range(5):
        m -= (m - math.log1p(m) - m0) * (1.0 + m) / m
    return m / m0


def _search(rule: _LotRule, hints: Sequence[int] = (), floors: bool = False) -> tuple:
    """The optimal plan for the lot of ``rule``, with n <= rule.n_max, and
    the n_beta(c) it found on the way.  The search for n_beta(c) starts at
    ``hints[c]``, n_beta(c) of the previous lot, or else at a closed-form
    estimate for c = 0, at the Poisson ratio from n_beta(0) for c = 1 and
    where the previous two n_beta point for c >= 2; a start never changes
    the answer.  Given ``floors``, no n below ``hints[c]`` admits c at
    this lot, so the search for n_beta(c) starts no lower."""
    ln_beta = None
    if len(hints) < 2:  # a closed-form start is needed
        beta_num, beta_den = rule.bounds.beta_max.as_integer_ratio()
        ln_beta = math.log(beta_num) - math.log(beta_den)  # finite for any bound
    n_betas = []
    n = 1
    for c in itertools.count():
        if c < len(hints):
            hint = hints[c]
            if floors and hint > n:
                n = hint
        elif c >= 2:  # n_beta(c) grows about linearly in c
            hint = 2 * n - n_betas[-2]
        elif c == 0:
            hint = _zero_c_start(rule, ln_beta)
        else:
            hint = round(n * _poisson_ratio(ln_beta)) if ln_beta < 0.0 else None
        n = rule.smallest_beta_n(c, n, hint)
        if n is None:
            break
        n_betas.append(n)
        if rule.admits_alpha(n, c):
            c = rule.largest_beta_c(n, c)
            realized = _realized_levels(rule.levels, rule.N)
            return _result(n, c, rule.risks(n, c), realized), n_betas
    spec, bounds = rule.spec, rule.bounds
    raise NoPlanWithinCapError(
        f"no admissible plan with sample size <= {rule.n_max} "
        f"for quality levels ({spec.p_aql}, {spec.p_lq}) "
        f"and risk bounds ({bounds.alpha_max}, {bounds.beta_max})"
    )


def _result(n: int, c: int, risks: RiskPair, realized: RealizedLevels) -> PlanResult:
    """PlanResult of plan (n, c) without the public checks, which the
    search has proved: 1 <= n and 0 <= c <= n <= N."""
    plan, result = object.__new__(Plan), object.__new__(PlanResult)
    plan.__dict__.update(n=n, c=c)
    result.__dict__.update(plan=plan, risks=risks, realized=realized)
    return result


def plan_table(
    n_min: int,
    n_max: int,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> PlanTable:
    """Optimal plans for every lot size N in [n_min, n_max].

    One lot rule moves from lot to lot.  Each search starts at the previous
    lot's n_beta(c), a floor where the LQ count has not stepped: at fixed
    (n, c, K) acceptance does not fall as N grows, but falls when K steps
    up.  No decision changes: every row equals ``optimal_plan`` of its lot.
    """
    n_min, n_max = _check_count("n_min", n_min), _check_count("n_max", n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid lot-size range [{n_min}, {n_max}]")
    rule = _LotRule(LotSize(n_min), spec, n_min, bounds)
    result, hints = _search(rule)
    rows = [(n_min, result)]
    for N in range(n_min + 1, n_max + 1):
        lq_count = rule.levels[1]
        rule.move_to(N)
        result, hints = _search(rule, hints, floors=rule.levels[1] == lq_count)
        rows.append((N, result))
    return PlanTable(rows=tuple(rows))
