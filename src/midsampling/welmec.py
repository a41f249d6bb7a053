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
from typing import Optional, Sequence, Tuple

from .kernel import LotSize, Plan, interpolated_acceptance
from .planner import PlanResult, _result, _search
from .risks import (
    ACCEPT_LEVEL_AQL,
    ACCEPT_LEVEL_LQ,
    DEFAULT_SCAN_CAP,
    QualitySpec,
    RiskBounds,
    RiskPair,
    _check_plan,
    _LotRule,
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


def _nominal_acceptance(rule: _LotRule, plan: Plan) -> list:
    """The acceptance of ``plan`` at the nominal levels of ``rule``: the
    rule's own tail at a level that its lot realizes (every level of an
    infinite lot; a finite lot's where p*N is whole, so that its floor and
    ceil counts are p*N), else the Gamma-interpolated value."""
    n, c, N = plan.n, plan.c, rule.N
    levels = (rule.spec.p_aql, rule.spec.p_lq)
    return [
        rule.acceptance(side, n, c) if N is None or K * p.denominator == p.numerator * N
        else interpolated_acceptance(plan, N, p)
        for side, (p, K) in enumerate(zip(levels, rule.levels))
    ]


def _continuous_admissible(at_aql: float, at_lq: float) -> bool:
    # The one exception to [T]: interpolated risks are compared as floats
    # with the anchors' nearest doubles (float 0.05 lies above 1/20).
    return at_aql <= float(ACCEPT_LEVEL_AQL) and at_lq <= float(ACCEPT_LEVEL_LQ)


def welmec_risks(plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()) -> WelmecRisks:
    """Producers'/consumers' risks at the nominal quality levels.

    For finite lots the defective counts p_aql*N and p_lq*N are generally
    fractional and the acceptance probability comes from the
    Gamma-interpolated OC curve; for infinite lots this coincides with
    the plain binomial risks.
    """
    at_aql, at_lq = _nominal_acceptance(_LotRule(_check_plan(plan, lot), spec, plan.n), plan)
    return WelmecRisks(alpha_cont=1.0 - at_aql, beta_cont=at_lq)


def welmec_admissible_continuous(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Continuous WELMEC criterion: the (interpolated) OC curve passes at
    or below both anchor points, i.e. acceptance <= 95% at the AQL and
    <= 5% at the LQ.  Boundary equality counts as admissible."""
    rule = _LotRule(_check_plan(plan, lot), spec, plan.n)
    return _continuous_admissible(*_nominal_acceptance(rule, plan))


def welmec_admissible_pointwise(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Pointwise WELMEC criterion on the discrete OC points of a finite lot.

    Every realizable proportion k/N at or above the AQL must be accepted
    with probability <= 95%, and every k/N at or above the LQ with
    probability <= 5%, decided as exact rational arithmetic would decide
    it [T].  The smallest count at or above each level decides [F7].  Raises
    ``ValueError`` for infinite lots, whose OC curve has no discrete points.
    """
    lot = LotSize.of(lot)
    if not lot.is_finite:
        raise ValueError("the pointwise criterion is defined for finite lots only")
    rule = _LotRule(_check_plan(plan, lot), spec, plan.n)
    return rule.admits_pointwise(plan.n, plan.c)


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
    admissibility flags, each read through the lot rule that the reference
    search built, so no tail is evaluated twice.
    """
    lot = LotSize.of(lot)
    rule = _LotRule(lot, spec, DEFAULT_SCAN_CAP, bounds)
    reference = _result(_search(rule)[0])
    evaluated = []
    for plan in candidate_plans:
        _check_plan(plan, lot)
        at_aql, at_lq = _nominal_acceptance(rule, plan)
        evaluated.append(
            CandidateEvaluation(
                plan=plan,
                risks=RiskPair(*rule.risks(plan.n, plan.c)),
                welmec=WelmecRisks(alpha_cont=1.0 - at_aql, beta_cont=at_lq),
                continuous_admissible=_continuous_admissible(at_aql, at_lq),
                pointwise_admissible=(
                    rule.admits_pointwise(plan.n, plan.c) if lot.is_finite else None
                ),
            )
        )
    return ComparisonReport(lot=lot, hypothesis_plan=reference, evaluated_plans=tuple(evaluated))

