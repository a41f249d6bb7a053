"""Search for admissible sampling plans with minimal sample size.

Facts cited by number are the ledger in the docstring of ``risks``.  The
consumers' bound admits c from some smallest n_beta(c) on [F1], and
n_beta(c) does not decrease with c [F3].  The search walks c = 0, 1, ...,
finds each n_beta(c) with ``_first``, the one gallop and bisection of the
package, up from the previous one, and stops at the first c* whose
producers' risk at n* = n_beta(c*) is admitted: no smaller n is admissible
[F2], and c* is the largest c the consumers' bound admits at n* [F4], the
one with the smallest producers' risk.  Every loop of the search is here;
each probe asks the lot rule in ``risks``, which decides exactly [T] from
tails it evaluates once: the reported risks are tails the search computed.

A table starts each search for n_beta(c) at the previous lot's, a floor m
inside a run of lots with one realized LQ count [F5], where a c below the
previous c* whose producers' risk at m is refused has no plan [F2].  A
refusal also carries down the lots, up to the N_until of
``_LotRule.refused_until`` [F6]: there a row refuses c without a producers'
tail once n_beta(c) >= m, a floor in a run and, where the count steps and
n_beta(c) may fall, the consumers' refusal of (m - 1, c).  Floors and
refusals skip only probes whose exact decision is known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .kernel import LotSize, Plan, _check_count
from .render import render
from .risks import (
    DEFAULT_SCAN_CAP,
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

class NoPlanWithinCapError(Exception):
    """No admissible plan exists below the sample-size scan cap."""


@dataclass(frozen=True)
class PlanResult:
    plan: Plan
    risks: RiskPair
    realized: RealizedLevels


@dataclass(frozen=True)
class PlanTable:
    """Optimal plans for a contiguous range of lot sizes, sorted by N: a
    record per lot, read as (N, PlanResult) by ``rows`` and iteration."""

    records: Tuple[tuple, ...]

    @property
    def rows(self) -> Tuple[Tuple[int, PlanResult], ...]:
        """Every (N, PlanResult) pair.  Each read builds every result again:
        iterate once, or index ``records``, to read a few rows."""
        return tuple(self)

    def __iter__(self):
        return ((record[0], _result(record)) for record in self.records)

    def __len__(self):
        return len(self.records)

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

    Only the consumers' bound is checked here.  It refuses exactly the c
    from some c_n + 1 on [F3], with c_n < n (a sample with c = n accepts
    every lot): c_n is one less than the first refused c, found by
    ``_first`` from c = 0.
    """
    lot, plan = LotSize.of(lot), Plan(n, 0)
    rule, n = _LotRule(_check_plan(plan, lot), spec, plan.n, bounds), plan.n
    refused = _first(lambda c, n: not rule.admits_beta(n, c), n, -1, n, 0)
    return refused - 1 if refused else None


def optimal_plan(
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PlanResult:
    """Admissible plan with the smallest sample size n* for the given lot.

    Ties at n* resolve to the largest acceptance number the consumers'
    bound admits, which minimizes the producers' risk at no extra
    inspection cost.  Finite lots always succeed (full inspection is
    admissible); infinite lots raise :class:`NoPlanWithinCapError` when n*
    would exceed ``scan_cap``.
    """
    rule = _LotRule(LotSize.of(lot), spec, _check_count("scan_cap", scan_cap), bounds)
    return _result(_search(rule)[0])


def _first(holds, arg, failing: int, last: int, start: int) -> Optional[int]:
    """The smallest m in (failing, last] at which ``holds(m, arg)``, or None
    if there is none, for a predicate that once true stays true as m grows:
    the one search of the package.  A gallop from ``start`` (clamped into
    the range), up to a true m or down to a false one, brackets the answer
    and a bisection closes the bracket; the start moves only where the
    search begins.  A start that is the answer costs two calls (one at m - 1)."""
    if failing >= last:
        return None
    m, held, step, failed = min(max(start, failing + 1), last), None, 1, False
    while True:
        if holds(m, arg):
            held = m
        else:
            failing, failed = m, True
        if held is None:  # gallop up to a true m, or to a false last
            if m == last:
                return None
            m = min(failing + step, last)
        elif not failed and held - step > failing:  # gallop down to a false m
            m = held - step
        elif held - failing > 1:  # bisect the bracket
            m = (failing + held) // 2
        else:
            return held
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
    from a start above it, where the function is convex and increasing.
    A bound within an ulp of 1 rounds ln_beta to 0; the start then takes 1."""
    m0 = -ln_beta
    if m0 <= 0.0:
        return 1.0
    m = m0 + math.sqrt(2.0 * m0)
    for _ in range(5):
        m -= (m - math.log1p(m) - m0) * (1.0 + m) / m
    return m / m0


def _search(rule: _LotRule, warm: Optional[tuple] = None) -> tuple:
    """The record (N, n, c, alpha, beta, *levels) of the optimal plan for the
    lot of ``rule``, with n <= rule.n_max, its risks and levels the rule's,
    and the state (count, hints, untils) that warms the next lot's search,
    as the module docstring states: the LQ count, for each c searched
    n_beta(c) or a floor of it and, unless ``warm`` is None, for each c
    below c* its N_until (0 for none).  The search for n_beta(c) starts at
    ``hints[c]``, or else one below a closed-form estimate for c = 0, one
    below the Poisson ratio from n_beta(0) for c = 1 and two below where the
    previous two point for c >= 2: a start at n_beta(c) or one below costs
    two tails, one above it four, and no start changes the answer."""
    count, hints, untils = (None, (), None) if warm is None else warm
    floors = count == rule.levels[1]
    ln_beta = None
    if len(hints) < 2:  # a closed-form start is needed
        beta_num, beta_den = rule.bounds.beta_max.as_integer_ratio()
        ln_beta = math.log(beta_num) - math.log(beta_den)  # finite; 0 within an ulp of 1
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
                    n_betas.append(n)  # [F2]
                    kept.append(rule.refused_until(n, c))
                    continue
        elif c >= 2:  # n_beta(c) grows about linearly in c
            hint = 2 * n - n_betas[-2] - 2
        elif c == 0:
            hint = _zero_c_start(rule, ln_beta) - 1
        else:
            hint = round(n * _poisson_ratio(ln_beta)) - 1
        # [F1], and no n <= c admits c: such a sample accepts every lot
        n = _first(rule.admits_beta, c, max(n, c + 1) - 1, rule.n_max, hint)
        if n is None:
            break
        n_betas.append(n)
        if rule.admits_alpha(n, c):
            record = (rule.N, n, c, *rule.risks(n, c), *rule.levels)
            return record, (rule.levels[1], n_betas, kept)
        if kept is not None:
            kept.append(rule.refused_until(n, c))
    spec, bounds = rule.spec, rule.bounds
    raise NoPlanWithinCapError(
        f"no admissible plan with sample size <= {rule.n_max} "
        f"for quality levels ({spec.p_aql}, {spec.p_lq}) "
        f"and risk bounds ({bounds.alpha_max}, {bounds.beta_max})"
    )


def _result(record: tuple) -> PlanResult:
    """The PlanResult of a lot rule's record (N, n, c, alpha, beta, *levels),
    N None at an infinite lot: its objects built in one step without their
    checks, as the rule found 1 <= n, 0 <= c <= n (<= N) and two risks."""
    N, n, c, alpha, beta, *levels = record
    plan, risks = object.__new__(Plan), object.__new__(RiskPair)
    result = object.__new__(PlanResult)
    plan.__dict__.update(n=n, c=c)
    risks.__dict__.update(alpha=alpha, beta=beta)
    result.__dict__.update(plan=plan, risks=risks, realized=_realized_levels(levels, N))
    return result


def plan_table(
    n_min: int,
    n_max: int,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> PlanTable:
    """Optimal plans for every lot size N in [n_min, n_max].

    One lot rule moves from lot to lot.  It walks the run of each plan found
    (``_LotRule.walk``), two tails a lot, and the first lot it does not settle
    is searched from the previous lot's n_beta(c) or a floor of it, as the
    module docstring states.  No decision changes: every row equals
    ``optimal_plan`` of its lot.
    """
    n_min, n_max = _check_count("n_min", n_min), _check_count("n_max", n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid lot-size range [{n_min}, {n_max}]")
    rule = _LotRule(LotSize(n_min), spec, n_min, bounds)
    record, warm = _search(rule, (None, (), []))  # warm from an empty state: refusals recorded
    records = [record]
    while True:  # walk each run of the found plan, and search where it ends
        records += rule.walk(record[1], record[2], min([n_max, *warm[2]]))
        if records[-1][0] == rule.N:  # the walk settled every lot it reached
            if rule.N == n_max:
                return PlanTable(records=tuple(records))
            rule.move_to(rule.N + 1)
        record, warm = _search(rule, warm)
        records.append(record)
