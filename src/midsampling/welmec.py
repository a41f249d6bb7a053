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

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .kernel import (
    LotSize,
    Plan,
    _hypergeometric_cdf_bulk,
    _tail,
    _tail_tolerance,
    interpolated_acceptance,
)
from .planner import PlanResult, optimal_plan
from .risks import (
    QualitySpec,
    RiskBounds,
    RiskPair,
    _Bound,
    _exact_acceptance,
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
    "comparison_to_json",
    "comparison_to_text",
]

# OC anchor probabilities of the MID conditions: acceptance of 95% at the
# acceptable quality level and 5% at the limit quality.
ACCEPT_LEVEL_AQL = 0.95
ACCEPT_LEVEL_LQ = 0.05


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
    if lot.is_finite:
        return (
            interpolated_acceptance(plan, lot.count, spec.p_aql),
            interpolated_acceptance(plan, lot.count, spec.p_lq),
        )
    return (
        _tail(plan.c, plan.n, float(spec.p_aql), None),
        _tail(plan.c, plan.n, float(spec.p_lq), None),
    )


def _continuous_admissible(at_aql: float, at_lq: float) -> bool:
    return at_aql <= ACCEPT_LEVEL_AQL and at_lq <= ACCEPT_LEVEL_LQ


def welmec_risks(plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()) -> WelmecRisks:
    """Producers'/consumers' risks at the nominal quality levels.

    For finite lots the defective counts p_aql*N and p_lq*N are generally
    fractional and the acceptance probability comes from the
    Gamma-interpolated OC curve; for infinite lots this coincides with
    the plain binomial risks.
    """
    lot = LotSize.of(lot)
    at_aql, at_lq = _acceptance_at_nominal_levels(plan, lot, spec)
    return WelmecRisks(alpha_cont=1.0 - at_aql, beta_cont=at_lq)


def welmec_admissible_continuous(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Continuous WELMEC criterion: the (interpolated) OC curve passes at
    or below both anchor points, i.e. acceptance <= 95% at the AQL and
    <= 5% at the LQ.  Boundary equality counts as admissible."""
    lot = LotSize.of(lot)
    return _continuous_admissible(*_acceptance_at_nominal_levels(plan, lot, spec))


def welmec_admissible_pointwise(
    plan: Plan, lot: LotSize, spec: QualitySpec = QualitySpec()
) -> bool:
    """Pointwise WELMEC criterion on the discrete OC points of a finite lot.

    Every realizable proportion k/N at or above the AQL must be accepted
    with probability <= 95%, and every k/N at or above the LQ with
    probability <= 5%, decided as exact rational arithmetic would decide
    it.  Raises ``ValueError`` for infinite lots, whose OC curve has no
    discrete points to constrain.
    """
    lot = LotSize.of(lot)
    if not lot.is_finite:
        raise ValueError("the pointwise criterion is defined for finite lots only")
    N = lot.count
    if plan.n > N:
        raise ValueError(f"sample size n={plan.n} exceeds lot size N={N}")
    k_aql = math.ceil(spec.p_aql * N)
    lq_offset = math.ceil(spec.p_lq * N) - k_aql  # >= 0, as p_lq > p_aql
    acceptance = _hypergeometric_cdf_bulk(plan.c, plan.n, np.arange(k_aql, N + 1), N)
    tol = _tail_tolerance(N)

    def exact_acceptance(i: int):
        return _exact_acceptance(plan.c, plan.n, k_aql + i, N)

    return bool(
        _Bound.around(ACCEPT_LEVEL_AQL, tol).admits_each(acceptance, exact_acceptance).all()
        and _Bound.around(ACCEPT_LEVEL_LQ, tol)
        .admits_each(acceptance[lq_offset:], lambda i: exact_acceptance(lq_offset + i))
        .all()
    )


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


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _plan_json(plan: Plan) -> dict:
    return {"n": plan.n, "c": plan.c}


def comparison_to_json(report: ComparisonReport) -> str:
    payload = {
        "lot": report.lot.count if report.lot.is_finite else "inf",
        "hypothesis_plan": {
            "plan": _plan_json(report.hypothesis_plan.plan),
            "risks": {
                "alpha": round(report.hypothesis_plan.risks.alpha, 6),
                "beta": round(report.hypothesis_plan.risks.beta, 6),
            },
        },
        "candidates": [
            {
                "plan": _plan_json(ev.plan),
                "risks": {"alpha": round(ev.risks.alpha, 6), "beta": round(ev.risks.beta, 6)},
                "welmec_risks": {
                    "alpha_cont": round(ev.welmec.alpha_cont, 6),
                    "beta_cont": round(ev.welmec.beta_cont, 6),
                },
                "continuous_admissible": ev.continuous_admissible,
                "pointwise_admissible": ev.pointwise_admissible,
            }
            for ev in report.evaluated_plans
        ],
    }
    return json.dumps(payload, indent=2)


def comparison_to_text(report: ComparisonReport) -> str:
    """Aligned plain-text table for terminal display; risks in percent."""
    lines = []
    ref = report.hypothesis_plan
    lines.append(f"lot size: {report.lot}")
    lines.append(
        f"hypothesis-test optimal plan: {ref.plan}  "
        f"alpha={100 * ref.risks.alpha:.2f}%  beta={100 * ref.risks.beta:.2f}%"
    )
    if report.evaluated_plans:
        header = (
            f"{'plan':>10} {'alpha':>8} {'beta':>8} "
            f"{'alpha_cont':>11} {'beta_cont':>10} {'continuous':>11} {'pointwise':>10}"
        )
        lines.append(header)
        for ev in report.evaluated_plans:
            pointwise = "-" if ev.pointwise_admissible is None else (
                "yes" if ev.pointwise_admissible else "no"
            )
            lines.append(
                f"{str(ev.plan):>10} "
                f"{100 * ev.risks.alpha:>7.2f}% {100 * ev.risks.beta:>7.2f}% "
                f"{100 * ev.welmec.alpha_cont:>10.2f}% {100 * ev.welmec.beta_cont:>9.2f}% "
                f"{'yes' if ev.continuous_admissible else 'no':>11} {pointwise:>10}"
            )
    return "\n".join(lines) + "\n"
