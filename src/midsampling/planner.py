"""Search for admissible sampling plans with minimal sample size.

For a fixed acceptance number c the consumers' risk does not increase with
the sample size n and the producers' risk does not decrease, so the
consumers' bound admits c exactly from some smallest n_beta(c) on, and
n_beta(c) does not decrease with c.  The search walks c = 0, 1, ...,
finds each n_beta(c) by galloping and bisecting upward from the previous
one, and stops at the first c whose producers' risk at n_beta(c) is
admitted: no plan with a smaller n is admissible.  At that n the plan takes
the largest acceptance number the consumers' bound admits, which has the
smallest producers' risk.  The lot rule in ``risks`` makes every decision
exactly, so this argument holds exactly.  It evaluates each tail of its lot
once, so the plan's reported risks are tails the search already computed,
and the risk bounds are resolved once per call, not once per lot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .kernel import LotSize, Plan, _check_count
from .render import render
from .risks import (
    QualitySpec,
    RealizedLevels,
    RiskBounds,
    RiskPair,
    _bound_pair,
    _check_plan,
    _LotRule,
    realized_quality_levels,
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
    c = _LotRule(lot, spec, _bound_pair(bounds), n).largest_beta_c(n)
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
    lot = LotSize.of(lot)
    scan_cap = _check_count("scan_cap", scan_cap)
    return _search(lot, spec, _bound_pair(bounds), lot.count if lot.is_finite else scan_cap)[0]


def _search(lot: LotSize, spec, bounds: tuple, highest_n: int, hints: Sequence[int] = ()) -> tuple:
    """The optimal plan with sample size at most highest_n under a
    ``_bound_pair``, and the n_beta(c) it found on the way.  The search for
    n_beta(c) starts at ``hints[c]``, n_beta(c) of a nearby lot, or else where
    the previous two n_beta point; a start never changes the answer."""
    rule = _LotRule(lot, spec, bounds, highest_n)
    n_betas = []
    n = 1
    for c in itertools.count():
        if c < len(hints):
            hint = hints[c]
        else:  # n_beta(c) grows about linearly in c
            hint = 2 * n - n_betas[-2] if c >= 2 else None
        n = rule.smallest_beta_n(c, n, hint)
        if n is None:
            break
        n_betas.append(n)
        if rule.admits_alpha(n, c):
            c = rule.largest_beta_c(n, c)
            realized = realized_quality_levels(lot, spec)
            return PlanResult(plan=Plan(n, c), risks=rule.risks(n, c), realized=realized), n_betas
    raise NoPlanWithinCapError(
        f"no admissible plan with sample size <= {highest_n} "
        f"for quality levels ({spec.p_aql}, {spec.p_lq}) "
        f"and risk bounds ({bounds[0].exact}, {bounds[1].exact})"
    )


def plan_table(
    n_min: int,
    n_max: int,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> PlanTable:
    """Optimal plans for every lot size N in [n_min, n_max].

    n_beta(c) moves by at most a step or so from one lot size to the next,
    so each lot's search starts from the previous lot's; every row equals
    ``optimal_plan`` of its lot.
    """
    n_min, n_max = _check_count("n_min", n_min), _check_count("n_max", n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid lot-size range [{n_min}, {n_max}]")
    rows, hints, pair = [], (), _bound_pair(bounds)
    for N in range(n_min, n_max + 1):
        result, hints = _search(LotSize(N), spec, pair, N, hints)
        rows.append((N, result))
    return PlanTable(rows=tuple(rows))
