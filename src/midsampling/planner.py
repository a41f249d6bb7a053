"""Search for admissible sampling plans with minimal sample size.

For a fixed sample size n the acceptance probability is non-decreasing in
the acceptance number c, so the consumers' bound admits exactly the
acceptance numbers 0..c_n for some maximal c_n (or none), and among those
c_n itself has the smallest producers' risk.  Neither c_n nor the
producers' risk of a fixed c decreases with n, so the scan over n checks
the producers' bound only where c_n grows, once per new c.  The lot rule
in ``risks`` makes every decision exactly, so this argument holds exactly.
"""

from __future__ import annotations

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
    c = _LotRule(lot, spec, bounds, n).largest_beta_c(n)
    return None if c < 0 else c


def optimal_plan(
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
    scan_cap: int = DEFAULT_SCAN_CAP,
) -> PlanResult:
    """Admissible plan with the smallest sample size for the given lot.

    Scans n upward, pairing each n with its maximal feasible acceptance
    number; ties at the minimal n resolve to the largest such c, which
    minimizes the producers' risk at no extra inspection cost.  The
    producers' bound is checked only where that c grows: a c that failed
    it at a smaller n fails it again.  Finite lots always succeed (full
    inspection is admissible); infinite lots raise
    :class:`NoPlanWithinCapError` beyond ``scan_cap``.
    """
    lot = LotSize.of(lot)
    scan_cap = _check_count("scan_cap", scan_cap)
    highest_n = lot.count if lot.is_finite else scan_cap
    rule = _LotRule(lot, spec, bounds, highest_n)
    c = -1  # largest feasible c at the previous n; it stays feasible as n grows
    for n in range(1, highest_n + 1):
        previous, c = c, rule.largest_beta_c(n, c)
        if c > previous and rule.admits_alpha(n, c):
            return PlanResult(plan=Plan(n, c), risks=rule.risks(n, c), realized=rule.levels)
    raise NoPlanWithinCapError(
        f"no admissible plan with sample size <= {highest_n} "
        f"for quality levels ({spec.p_aql}, {spec.p_lq}) "
        f"and risk bounds ({bounds.alpha_max}, {bounds.beta_max})"
    )


def plan_table(
    n_min: int,
    n_max: int,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
) -> PlanTable:
    """Optimal plans for every lot size N in [n_min, n_max].

    Lot sizes are independent, so this is trivially parallelizable; the
    sequential evaluation here keeps results deterministic and ordered.
    """
    n_min, n_max = _check_count("n_min", n_min), _check_count("n_max", n_max)
    if not 1 <= n_min <= n_max:
        raise ValueError(f"invalid lot-size range [{n_min}, {n_max}]")
    rows = tuple(
        (N, optimal_plan(LotSize(N), spec, bounds)) for N in range(n_min, n_max + 1)
    )
    return PlanTable(rows=rows)

