"""Text, CSV and JSON renderings of every result the package reports.

This is the only module that turns results into output.  ``RENDERERS``
maps each kind of output to a renderer per format it supports, and
:func:`render` refuses any other format with ``ValueError``.  Renderings
are deterministic: CSV and JSON give risks to six decimal places (scheme
extrema in percent, to two), text gives them in percent, and an unbounded
lot or interval reads ``inf``.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from .kernel import LotSize, Plan, _defect_count, _realizable_count

__all__ = ["oc_curve_to_csv", "comparison_to_json", "validation_report_csv"]


def _count_token(count: Optional[int]):
    """A lot size or interval end as reported: the count, or "inf" for None."""
    return "inf" if count is None else count


def _plan_json(plan: Plan) -> dict:
    return {"n": plan.n, "c": plan.c}


def _rounded(**risks: float) -> dict:
    return {name: round(risk, 6) for name, risk in risks.items()}


def _risks_json(risks) -> dict:
    return _rounded(alpha=risks.alpha, beta=risks.beta)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: str, rows) -> str:
    """A header line and rows of cells joined by commas, None as an empty
    cell.  Every cell the package writes is an int, a formatted float,
    ``inf``, a rule label (58, N, N-4) or yes/no/-, so none needs quoting."""
    return _lines([header, *(",".join("" if cell is None else str(cell) for cell in row)
                             for row in rows)])


def _yes_no(flag: Optional[bool]) -> str:
    """A flag as reported: yes, no, or - where it does not apply (None)."""
    return "-" if flag is None else "yes" if flag else "no"


def _plans_csv(records) -> str:
    """Plan records (N, n, c, alpha, beta, k_alpha, k_beta) as a plan table
    holds them and exports them; ``plan --format csv`` writes the one record
    of its lot the same way."""
    return _csv(
        "N,n,c,alpha,beta,p_alpha_num,p_beta_num",
        ([N, n, c, f"{alpha:.6f}", f"{beta:.6f}", k_alpha, k_beta]
         for N, n, c, alpha, beta, k_alpha, k_beta in records),
    )


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _plan_text(lot: LotSize, result) -> str:
    realized = result.realized
    if lot.is_finite:
        p_alpha = f"{realized.k_alpha}/{realized.denominator}"
        p_beta = f"{realized.k_beta}/{realized.denominator}"
    else:
        p_alpha = f"{float(realized.p_alpha):g}"
        p_beta = f"{float(realized.p_beta):g}"
    return (
        f"N={lot} n={result.plan.n} c={result.plan.c} "
        f"alpha={100 * result.risks.alpha:.2f}% beta={100 * result.risks.beta:.2f}% "
        f"p_alpha={p_alpha} p_beta={p_beta}\n"
    )


def _plan_json_report(lot: LotSize, result) -> str:
    realized = result.realized
    if lot.is_finite:
        levels = {
            "p_alpha_num": realized.k_alpha,
            "p_beta_num": realized.k_beta,
            "denominator": realized.denominator,
        }
    else:
        levels = {"p_alpha": float(realized.p_alpha), "p_beta": float(realized.p_beta)}
    return _json(
        {
            "lot": _count_token(lot.count),
            "plan": _plan_json(result.plan),
            "risks": _risks_json(result.risks),
            "realized": levels,
        }
    )


def oc_curve_to_csv(points: Sequence, lot: LotSize) -> str:
    """CSV rendering of an OC curve.

    Columns: p_numerator, p_denominator_or_0_for_infinite, p_value,
    acceptance_probability.  Finite lots carry the exact k/N rational in
    the first two columns; infinite lots flag themselves with a zero
    denominator.  p_value is each point as the kernel reads it.
    """
    N = LotSize.of(lot).count
    lines = ["p_numerator,p_denominator_or_0_for_infinite,p_value,acceptance_probability"]
    for p, pac in points:
        k, value = _oc_point(p, N)
        lines.append(f"{k},{N or 0},{value:.6f},{pac:.6f}")
    return _lines(lines)


def _oc_point(p, N: Optional[int]) -> tuple:
    """(k, k / N) for an OC point p that a lot of N items realizes as count k,
    and (0, p as a float) at an infinite lot (N None), as the kernel reads p."""
    if N is None:
        return 0, _defect_count(p, None)[0]
    k = _realizable_count(p, N)
    return k, k / N


def _oc_json(points: Sequence, lot: LotSize) -> str:
    """JSON rendering of an OC curve: an array of {p, pac} objects, each
    written as one string, its floats by ``repr`` as ``json.dumps`` writes them."""
    objects = ", ".join(
        f'{{"p": {round(float(p if isinstance(p, float) else _oc_point(p, lot.count)[1]), 6)!r}, '
        f'"pac": {round(float(pac), 6)!r}}}'
        for p, pac in points
    )
    return f"[{objects}]\n"


def _validation_cells(res) -> list:
    """One scheme row's report cells, risk extrema in percent (2 decimals)."""
    extrema = (res.alpha_min, res.alpha_max, res.beta_min, res.beta_max)
    return [
        res.row.n_from,
        _count_token(res.row.n_to),
        res.row.rule.label(),
        res.row.rule.c,
        *(f"{100 * risk:.2f}" for risk in extrema),
        _yes_no(res.admissible),
    ]


def _validation_text(results) -> str:
    widths = (6, 6, 6, 3, 8, 8, 8, 8, 11)
    lines = [
        f"{'from':>6} {'to':>6} {'n':>6} {'c':>3} "
        f"{'alpha[%]':>17} {'beta[%]':>17} {'admissible':>11}"
    ]
    for res in results:
        lines.append(" ".join(f"{cell:>{w}}" for cell, w in zip(_validation_cells(res), widths)))
    admissible = all(res.admissible for res in results)
    lines.append(f"overall: {'admissible' if admissible else 'NOT admissible'}")
    return _lines(lines)


def validation_report_csv(results) -> str:
    """CSV report with one row per interval, risks in percent (2 decimals)."""
    return _csv(
        "N_from,N_to,n,c,alpha_min_pct,alpha_max_pct,beta_min_pct,beta_max_pct,admissible",
        map(_validation_cells, results),
    )


def _validation_json(results) -> str:
    rows = [
        {
            "from": res.row.n_from,
            "to": _count_token(res.row.n_to),
            "n": res.row.rule.label(),
            "c": res.row.rule.c,
            **_rounded(
                alpha_min=res.alpha_min,
                alpha_max=res.alpha_max,
                beta_min=res.beta_min,
                beta_max=res.beta_max,
            ),
            "admissible": res.admissible,
        }
        for res in results
    ]
    return _json({"admissible": all(res.admissible for res in results), "rows": rows})


def _lookup_json(lot: LotSize, plan: Plan) -> str:
    return _json({"lot": _count_token(lot.count), "plan": _plan_json(plan)})


def comparison_to_json(report) -> str:
    payload = {
        "lot": _count_token(report.lot.count),
        "hypothesis_plan": {
            "plan": _plan_json(report.hypothesis_plan.plan),
            "risks": _risks_json(report.hypothesis_plan.risks),
        },
        "candidates": [
            {
                "plan": _plan_json(ev.plan),
                "risks": _risks_json(ev.risks),
                "welmec_risks": _rounded(
                    alpha_cont=ev.welmec.alpha_cont, beta_cont=ev.welmec.beta_cont
                ),
                "continuous_admissible": ev.continuous_admissible,
                "pointwise_admissible": ev.pointwise_admissible,
            }
            for ev in report.evaluated_plans
        ],
    }
    return json.dumps(payload, indent=2)


def _comparison_text(report) -> str:
    """Aligned plain-text table for terminal display; risks in percent."""
    ref = report.hypothesis_plan
    lines = [
        f"lot size: {report.lot}",
        f"hypothesis-test optimal plan: {ref.plan}  "
        f"alpha={100 * ref.risks.alpha:.2f}%  beta={100 * ref.risks.beta:.2f}%",
    ]
    if report.evaluated_plans:
        lines.append(
            f"{'plan':>10} {'alpha':>8} {'beta':>8} "
            f"{'alpha_cont':>11} {'beta_cont':>10} {'continuous':>11} {'pointwise':>10}"
        )
        for ev in report.evaluated_plans:
            lines.append(
                f"{str(ev.plan):>10} "
                f"{100 * ev.risks.alpha:>7.2f}% {100 * ev.risks.beta:>7.2f}% "
                f"{100 * ev.welmec.alpha_cont:>10.2f}% {100 * ev.welmec.beta_cont:>9.2f}% "
                f"{_yes_no(ev.continuous_admissible):>11} {_yes_no(ev.pointwise_admissible):>10}"
            )
    return _lines(lines)


def _simulation_text(estimate, analytic, sigma, deviation, trials, seed) -> str:
    return f"empirical={estimate:.6f} analytic={analytic:.6f} deviation={deviation:+.3f} sigma\n"


def _simulation_json(estimate, analytic, sigma, deviation, trials, seed) -> str:
    return _json(
        {
            **_rounded(empirical=estimate, analytic=analytic, sigma=sigma),
            "deviation_sigmas": round(deviation, 3) if math.isfinite(deviation) else "inf",
            "trials": trials,
            "seed": seed,
        }
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

#: Every kind of output, with a renderer for each format it supports.
RENDERERS = {
    "plan": {
        "text": _plan_text,
        "csv": lambda lot, r: _plans_csv([(  # the lot's record, no counts at infinity
            _count_token(lot.count), r.plan.n, r.plan.c, r.risks.alpha, r.risks.beta,
            r.realized.k_alpha, r.realized.k_beta)]),
        "json": _plan_json_report,
    },
    "table": {"csv": lambda table: _plans_csv(table.records)},
    "oc": {
        "text": lambda points, lot: _lines(
            f"{p if isinstance(p, float) else _oc_point(p, lot.count)[1]:.6f} {pac:.6f}"
            for p, pac in points),
        "csv": oc_curve_to_csv,
        "json": _oc_json,
    },
    "validation": {
        "text": _validation_text,
        "csv": validation_report_csv,
        "json": _validation_json,
    },
    "lookup": {"text": lambda lot, plan: f"N={lot} n={plan.n} c={plan.c}\n", "json": _lookup_json},
    "comparison": {
        "text": _comparison_text,
        "json": lambda report: comparison_to_json(report) + "\n",
    },
    "simulation": {"text": _simulation_text, "json": _simulation_json},
}


def render(kind: str, fmt: str, *result) -> str:
    """``result`` rendered as output ``kind`` in format ``fmt``; a format the
    kind does not support raises ``ValueError``."""
    formats = RENDERERS[kind]
    if fmt not in formats:
        raise ValueError(f"{kind} output supports the formats {', '.join(formats)}; got {fmt!r}")
    return formats[fmt](*result)
