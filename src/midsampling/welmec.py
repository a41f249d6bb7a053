"""Plan evaluation under the WELMEC guide 8.10 reading of the MID conditions.

The WELMEC interpretation constrains the OC curve to pass left of the
anchor points (p_aql, 95%) and (p_lq, 5%).  For finite lots the nominal
levels p_aql and p_lq are usually not realizable, so the guide's risks
are evaluated on a Gamma-interpolated OC curve at the fictitious
defective counts p_aql*N and p_lq*N ("continuous" variant); an
alternative reading constrains every realizable OC point at or beyond
each level ("pointwise" variant).  Both are provided here, next to the
hypothesis-test risks, to make the interpretations directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .kernel import LotSize, Plan, _lot_tails, interpolated_acceptance
from .planner import PlanResult, optimal_plan
from .risks import (
    QualitySpec,
    RiskBounds,
    RiskPair,
    _acceptance_at_most,
    _check_plan,
    _count,
    risk_pair,
)

__all__ = [
    "WelmecRisks",
    "CandidateEvaluation",
    "ComparisonReport",
    "welmec_risks",
    "welmec_admissible_continuous",
    "welmec_admissible_pointwise",
    "compare_interpretations",
]

# OC anchor probabilities of the MID conditions: acceptance of 95% at the
# acceptable quality level and 5% at the limit quality.
ACCEPT_LEVEL_AQL = Fraction(19, 20)
ACCEPT_LEVEL_LQ = Fraction(1, 20)


@dataclass(frozen=True)
class WelmecRisks:
    """Risks read off the continuous OC curve at the nominal levels."""

    alpha_cont: float
    beta_cont: float


@dataclass(frozen=True)
class CandidateEvaluation:
    plan: Plan
    risks: RiskPair
    welmec: WelmecRisks
    continuous_admissible: bool
    pointwise_admissible: Optional[bool]  # None for infinite lots


@dataclass(frozen=True)
class ComparisonReport:
    lot: LotSize
    hypothesis_plan: PlanResult
    evaluated_plans: Tuple[CandidateEvaluation, ...]


def _acceptance_at_nominal_levels(plan: Plan, lot: LotSize, spec: QualitySpec) -> tuple:
    levels = (spec.p_aql, spec.p_lq)
    if lot.is_finite:
        return tuple(interpolated_acceptance(plan, lot.count, p) for p in levels)
    return tuple(_lot_tails(float(p), None)(plan.c, plan.n) for p in levels)


def _continuous_admissible(at_aql: float, at_lq: float) -> bool:
    # Interpolated risks are compared as floats with the anchors' nearest
    # doubles: float 0.05 lies above 1/20, so an exact comparison could
    # turn a boundary decision.
    return at_aql <= float(ACCEPT_LEVEL_AQL) and at_lq <= float(ACCEPT_LEVEL_LQ)


def welmec_risks(plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()) -> WelmecRisks:
    """Producers'/consumers' risks at the nominal quality levels.

    For finite lots the defective counts p_aql*N and p_lq*N are generally
    fractional and the acceptance probability comes from the
    Gamma-interpolated OC curve; for infinite lots this coincides with
    the plain binomial risks.
    """
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    at_aql, at_lq = _acceptance_at_nominal_levels(plan, lot, spec)
    return WelmecRisks(alpha_cont=1.0 - at_aql, beta_cont=at_lq)


def welmec_admissible_continuous(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Continuous WELMEC criterion: the (interpolated) OC curve passes at
    or below both anchor points, i.e. acceptance <= 95% at the AQL and
    <= 5% at the LQ.  Boundary equality counts as admissible."""
    lot = LotSize.of(lot)
    _check_plan(plan, lot)
    return _continuous_admissible(*_acceptance_at_nominal_levels(plan, lot, spec))


def welmec_admissible_pointwise(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Pointwise WELMEC criterion on the discrete OC points of a finite lot.

    Every realizable proportion k/N at or above the AQL must be accepted
    with probability <= 95%, and every k/N at or above the LQ with
    probability <= 5%, decided as exact rational arithmetic would decide
    it.  Acceptance does not increase with the defect count, so the
    smallest count at or above each level decides.  Raises ``ValueError``
    for infinite lots, whose OC curve has no discrete points to constrain.
    """
    lot = LotSize.of(lot)
    if not lot.is_finite:
        raise ValueError("the pointwise criterion is defined for finite lots only")
    _check_plan(plan, lot)
    N = lot.count
    return _acceptance_at_most(
        plan, _count(spec.p_aql, N, True), N, ACCEPT_LEVEL_AQL
    ) and _acceptance_at_most(plan, _count(spec.p_lq, N, True), N, ACCEPT_LEVEL_LQ)


def compare_interpretations(
    lot: LotSize,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
    candidate_plans: Sequence[Plan] = (),
) -> ComparisonReport:
    """Side-by-side evaluation of candidate plans under both readings.

    Besides the hypothesis-test optimal plan for the lot, every candidate
    is scored with its hypothesis-test risks (at realized levels), its
    continuous-interpretation risks (at nominal levels) and both WELMEC
    admissibility flags.
    """
    lot = LotSize.of(lot)
    reference = optimal_plan(lot, spec, bounds)
    evaluated = []
    for plan in candidate_plans:
        risks = risk_pair(plan, lot, spec)
        at_aql, at_lq = _acceptance_at_nominal_levels(plan, lot, spec)
        evaluated.append(
            CandidateEvaluation(
                plan=plan,
                risks=risks,
                welmec=WelmecRisks(alpha_cont=1.0 - at_aql, beta_cont=at_lq),
                continuous_admissible=_continuous_admissible(at_aql, at_lq),
                pointwise_admissible=(
                    welmec_admissible_pointwise(plan, lot, spec) if lot.is_finite else None
                ),
            )
        )
    return ComparisonReport(lot=lot, hypothesis_plan=reference, evaluated_plans=tuple(evaluated))

