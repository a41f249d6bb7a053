"""Search for admissible sampling plans with minimal sample size.

For a fixed acceptance number c the consumers' risk does not increase with
the sample size n and the producers' risk does not decrease, so the
consumers' bound admits c exactly from some smallest n_beta(c) on, and
n_beta(c) does not decrease with c.  The search walks c = 0, 1, ...,
finds each n_beta(c) by galloping and bisecting upward from the previous
one (from a closed-form estimate for c = 0 and 1), and stops at the first c*
whose producers' risk at n* = n_beta(c*) is admitted: no smaller n is
admissible.  A sample of n holds at most one defect more than its first
n - 1 items, so beta(n, c + 1) >= beta(n - 1, c): as (n* - 1, c*) is
refused, c* is the largest c the consumers' bound admits at n*, the one with
the smallest producers' risk.  Every loop of the search is here; each probe
asks the lot rule in ``risks`` whether a bound admits (n, c), which it
decides exactly from tails it evaluates once: the reported risks are tails
the search computed.

A table starts each search for n_beta(c) at the previous lot's, a floor m
inside a run of lots with one realized LQ count K = ceil(p_lq*N): for fixed
(n, c, K) the exact acceptance does not decrease with N (the ordering that
``risks._scheme_risks`` relies on).  There a c below the previous c* whose
producers' risk at m is refused has no plan, as that risk does not fall as
n grows.  Where K steps up, n_beta(c) may fall.  The floors skip only probes
whose exact decision is known: they change no plan.

A refusal also carries down the lots: a c refused at m stays refused at
every n >= m up to the lot N_until of ``_LotRule.refused_until``, which
states why.  So a row up to N_until refuses c without a producers' tail
once n_beta(c) >= m: a floor in a run, and where K steps the consumers'
refusal of (m - 1, c), decided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

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
    grows with c, so the feasible acceptance numbers are exactly 0..c_n, with
    c_n < n (a sample with c = n accepts every lot), found by a gallop up
    from c = 0 and a bisection.
    """
    lot, plan = LotSize.of(lot), Plan(n, 0)
    rule, n = _LotRule(_check_plan(plan, lot), spec, plan.n, bounds), plan.n
    admitted, refused, step = -1, n, 1
    while refused - admitted > 1:
        c = min(admitted + step, refused - 1) if refused == n else (admitted + refused) // 2
        if rule.admits_beta(n, c):
            admitted, step = c, 2 * step
        else:
            refused = c
    return None if admitted < 0 else admitted


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


def _smallest_beta_n(rule: _LotRule, c: int, n_from: int, hint: Optional[int] = None):
    """The smallest sample size n <= rule.n_max at which the consumers' bound
    admits acceptance number c (None if none does), given that no n below
    n_from does.  Beta(n, c) does not increase with n, so a gallop from
    ``hint`` (or n_from) brackets the answer and a bisection closes the
    bracket; the hint moves only where the search starts.  A hint that is
    the answer costs two tails (one at n_from)."""
    n_max, admits_beta = rule.n_max, rule.admits_beta
    # no n <= c admits c: such a sample accepts every lot
    failing, admitted, step, failed = max(n_from, c + 1) - 1, None, 1, False
    if failing >= n_max:
        return None
    n = failing + 1 if hint is None else min(max(hint, failing + 1), n_max)
    while True:
        if admits_beta(n, c):
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


def _search(rule: _LotRule, warm: Optional[tuple] = None) -> tuple:
    """The optimal plan for the lot of ``rule``, with n <= rule.n_max, and
    the state (count, hints, untils) that warms the next lot's search: the
    LQ count, for each c searched n_beta(c) or a floor of it and, unless
    ``warm`` is None, for each c below c* its N_until (0 for none).  The
    search for n_beta(c) starts at ``hints[c]``, or else at a closed-form
    estimate for c = 0, at the Poisson ratio from n_beta(0) for c = 1 and
    where the previous two point for c >= 2; a start never changes the
    answer.  Where the count is this lot's, no n below ``hints[c]`` admits
    c: a c below the last hint that the producers' bound refuses there has
    no plan.  Up to lot ``untils[c]`` such a c has none either once
    n_beta(c) >= ``hints[c]``.  So where both hold for every c below the
    last hint, the previous row's plan is this row's if both bounds admit
    it; if not, the search reads its two tails back."""
    count, hints, untils = (None, (), None) if warm is None else warm
    floors = count == rule.levels[1]
    if floors and rule.N <= min(untils, default=rule.N):  # each c below the last hint carried
        c, n = len(hints) - 1, hints[-1]  # n_beta(c) >= n: the previous row's plan, if admitted
        if rule.admits_beta(n, c) and rule.admits_alpha(n, c):
            return _result(rule, n, c), warm
    ln_beta = None
    if len(hints) < 2:  # a closed-form start is needed
        beta_num, beta_den = rule.bounds.beta_max.as_integer_ratio()
        ln_beta = math.log(beta_num) - math.log(beta_den)  # finite for any bound
    n_betas, kept = [], None if untils is None else []
    n = 1
    for c in itertools.count():
        if c < len(hints):
            hint = hints[c]
            if floors:
                n = max(n, hint)
            if c + 1 < len(hints):  # the previous lot refused c
                # no n <= c admits c: a hint - 1 <= c is refused without a tail
                if rule.N <= untils[c] and (
                    hint <= max(n, c + 1) or not rule.admits_beta(hint - 1, c)
                ):
                    n = max(n, hint)
                    n_betas.append(n)
                    kept.append(untils[c])
                    continue
                if floors and not rule.admits_alpha(n, c):
                    n_betas.append(n)  # alpha(n, c) does not fall as n grows
                    kept.append(rule.refused_until(n, c))
                    continue
        elif c >= 2:  # n_beta(c) grows about linearly in c
            hint = 2 * n - n_betas[-2]
        elif c == 0:
            hint = _zero_c_start(rule, ln_beta)
        else:
            hint = round(n * _poisson_ratio(ln_beta))
        n = _smallest_beta_n(rule, c, n, hint)
        if n is None:
            break
        n_betas.append(n)
        if rule.admits_alpha(n, c):
            return _result(rule, n, c), (rule.levels[1], n_betas, kept)
        if kept is not None:
            kept.append(rule.refused_until(n, c))
    spec, bounds = rule.spec, rule.bounds
    raise NoPlanWithinCapError(
        f"no admissible plan with sample size <= {rule.n_max} "
        f"for quality levels ({spec.p_aql}, {spec.p_lq}) "
        f"and risk bounds ({bounds.alpha_max}, {bounds.beta_max})"
    )


def _result(rule: _LotRule, n: int, c: int) -> PlanResult:
    """PlanResult of plan (n, c) at the lot of ``rule``, its plan, risks and
    realized levels built in one step, without the public checks, which the
    search has proved: 1 <= n and 0 <= c <= n <= N."""
    plan, result = object.__new__(Plan), object.__new__(PlanResult)
    plan.__dict__.update(n=n, c=c)
    result.__dict__.update(
        plan=plan, risks=rule.risks(n, c), realized=_realized_levels(rule.levels, rule.N)
    )
    return result


def plan_table(
    n_min: int,
    n_max: int,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> PlanTable:
    """Optimal plans for every lot size N in [n_min, n_max].

    One lot rule moves from lot to lot, and each search starts at the previous
    lot's n_beta(c) or a floor of it: still a floor while the LQ count holds,
    where a refused c below the previous c* costs one tail, and none up to
    its N_until; where the count steps, such a c costs one consumers' tail.
    No decision changes: every row equals ``optimal_plan`` of its lot.
    """
    n_min, n_max = _check_count("n_min", n_min), _check_count("n_max", n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid lot-size range [{n_min}, {n_max}]")
    rule = _LotRule(LotSize(n_min), spec, n_min, bounds)
    result, warm = _search(rule, (None, (), []))  # warm from an empty state: refusals recorded
    rows = [(n_min, result)]
    for N in range(n_min + 1, n_max + 1):
        rule.move_to(N)
        result, warm = _search(rule, warm)
        rows.append((N, result))
    return PlanTable(rows=tuple(rows))
