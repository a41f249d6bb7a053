"""Command-line interface.

Every command writes deterministic, machine-readable output (text, CSV or
JSON) to stdout or to ``--output``.  Exit codes: 0 success, 2 usage error,
3 no admissible plan below the scan cap, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .kernel import LotSize, Plan, binomial_cdf, hypergeometric_cdf
from .planner import (
    DEFAULT_SCAN_CAP,
    NoPlanWithinCapError,
    PlanResult,
    optimal_plan,
    plan_table,
)
from .risks import (
    QualitySpec,
    RiskBounds,
    monte_carlo_acceptance,
    oc_curve,
    oc_curve_to_csv,
    oc_curve_to_json,
)
from .scheme import (
    DEFAULT_VALIDATION_CAP,
    SchemeCoverageError,
    SchemeParseError,
    SchemeRuleError,
    default_mid_scheme,
    parse_scheme,
    scheme_lookup,
    validate_scheme,
    validation_report_csv,
)
from .welmec import compare_interpretations, comparison_to_json, comparison_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PLAN = 3
EXIT_VALIDATION = 4


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    spec: QualitySpec
    bounds: RiskBounds
    fmt: str
    output: Optional[str]
    seed: Optional[int]
    n_cap: Optional[int]


_CONFIG_KEYS = {"aql", "lq", "alpha_max", "beta_max", "format", "seed", "n_cap"}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{line_number}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve_config(args: argparse.Namespace, default_cap: Optional[int] = None) -> RunConfig:
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_value, key, convert, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            try:
                return convert(file_values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        return fallback

    try:
        spec = QualitySpec(
            p_aql=pick(getattr(args, "aql", None), "aql", Fraction, Fraction(1, 100)),
            p_lq=pick(getattr(args, "lq", None), "lq", Fraction, Fraction(7, 100)),
        )
        bounds = RiskBounds(
            alpha_max=pick(getattr(args, "alpha_max", None), "alpha_max", float, 0.05),
            beta_max=pick(getattr(args, "beta_max", None), "beta_max", float, 0.05),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        spec=spec,
        bounds=bounds,
        fmt=pick(getattr(args, "format", None), "format", str, "text"),
        output=getattr(args, "output", None),
        seed=pick(getattr(args, "seed", None), "seed", int, None),
        n_cap=pick(getattr(args, "n_cap", None), "n_cap", int, default_cap),
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_lot(token: str) -> LotSize:
    try:
        return LotSize.of(token)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid lot size {token!r}: {exc}") from exc


def _parse_level(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid quality level {token!r}") from exc


def _parse_candidates(token: str) -> list:
    plans = []
    for part in token.split(","):
        part = part.strip()
        try:
            n_text, _, c_text = part.partition(":")
            plans.append(Plan(int(n_text), int(c_text)))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"invalid candidate plan {part!r} (expected n:c): {exc}") from exc
    return plans


def _plan_report_text(lot: LotSize, result: PlanResult) -> str:
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


def _plan_report_json(lot: LotSize, result: PlanResult) -> str:
    realized = result.realized
    payload = {
        "lot": lot.count if lot.is_finite else "inf",
        "plan": {"n": result.plan.n, "c": result.plan.c},
        "risks": {
            "alpha": round(result.risks.alpha, 6),
            "beta": round(result.risks.beta, 6),
        },
        "realized": (
            {
                "p_alpha_num": realized.k_alpha,
                "p_beta_num": realized.k_beta,
                "denominator": realized.denominator,
            }
            if lot.is_finite
            else {"p_alpha": float(realized.p_alpha), "p_beta": float(realized.p_beta)}
        ),
    }
    return json.dumps(payload, indent=2) + "\n"


def _plan_report_csv(lot: LotSize, result: PlanResult) -> str:
    realized = result.realized
    n_field = lot.count if lot.is_finite else "inf"
    k_alpha = realized.k_alpha if lot.is_finite else ""
    k_beta = realized.k_beta if lot.is_finite else ""
    return (
        "N,n,c,alpha,beta,p_alpha_num,p_beta_num\n"
        f"{n_field},{result.plan.n},{result.plan.c},"
        f"{result.risks.alpha:.6f},{result.risks.beta:.6f},{k_alpha},{k_beta}\n"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_plan(args: argparse.Namespace) -> int:
    config = _resolve_config(args, default_cap=DEFAULT_SCAN_CAP)
    lot = _parse_lot(args.lot_size)
    result = optimal_plan(lot, config.spec, config.bounds, scan_cap=config.n_cap)
    if config.fmt == "json":
        _emit(_plan_report_json(lot, result), config.output)
    elif config.fmt == "csv":
        _emit(_plan_report_csv(lot, result), config.output)
    else:
        _emit(_plan_report_text(lot, result), config.output)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    table = plan_table(args.n_min, args.n_max, config.spec, config.bounds)
    _emit(table.to_csv(), config.output)
    return EXIT_OK


def _cmd_oc(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    plan = Plan(args.n, args.c)
    points = oc_curve(plan, lot)
    if config.fmt == "json":
        _emit(oc_curve_to_json(points) + "\n", config.output)
    elif config.fmt == "csv":
        _emit(oc_curve_to_csv(points, lot), config.output)
    else:
        lines = [f"{p:.6f} {pac:.6f}" for p, pac in points]
        _emit("\n".join(lines) + "\n", config.output)
    return EXIT_OK


def _load_scheme(args: argparse.Namespace):
    if args.builtin and args.file:
        raise UsageError("choose either --builtin or --file, not both")
    if args.builtin:
        return default_mid_scheme()
    if args.file:
        try:
            text = Path(args.file).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read scheme file {args.file}: {exc}") from exc
        return parse_scheme(text)
    raise UsageError("a scheme is required: pass --builtin or --file PATH")


def _cmd_scheme(args: argparse.Namespace) -> int:
    config = _resolve_config(args, default_cap=DEFAULT_VALIDATION_CAP)
    scheme = _load_scheme(args)
    if args.action == "lookup":
        if args.lot_size is None:
            raise UsageError("scheme lookup requires --lot-size")
        lot = _parse_lot(args.lot_size)
        if not lot.is_finite:
            raise UsageError("scheme lookup requires a finite lot size")
        plan = scheme_lookup(lot.count, scheme)
        if config.fmt == "json":
            payload = {"lot": lot.count, "plan": {"n": plan.n, "c": plan.c}}
            _emit(json.dumps(payload, indent=2) + "\n", config.output)
        else:
            _emit(f"N={lot.count} n={plan.n} c={plan.c}\n", config.output)
        return EXIT_OK
    results = validate_scheme(scheme, config.spec, config.bounds, n_cap=config.n_cap)
    admissible = all(res.admissible for res in results)
    if config.fmt == "json":
        payload = {
            "admissible": admissible,
            "rows": [
                {
                    "from": res.row.n_from,
                    "to": res.row.n_to if res.row.n_to is not None else "inf",
                    "n": res.row.rule.label(),
                    "c": res.row.rule.c,
                    "alpha_min": round(res.alpha_min, 6),
                    "alpha_max": round(res.alpha_max, 6),
                    "beta_min": round(res.beta_min, 6),
                    "beta_max": round(res.beta_max, 6),
                    "admissible": res.admissible,
                }
                for res in results
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", config.output)
    elif config.fmt == "csv":
        _emit(validation_report_csv(results), config.output)
    else:
        lines = [
            f"{'from':>6} {'to':>6} {'n':>6} {'c':>3} "
            f"{'alpha[%]':>17} {'beta[%]':>17} {'admissible':>11}"
        ]
        for res in results:
            to = "inf" if res.row.n_to is None else res.row.n_to
            lines.append(
                f"{res.row.n_from:>6} {to:>6} {res.row.rule.label():>6} {res.row.rule.c:>3} "
                f"{100 * res.alpha_min:>8.2f}{100 * res.alpha_max:>9.2f} "
                f"{100 * res.beta_min:>8.2f}{100 * res.beta_max:>9.2f} "
                f"{'yes' if res.admissible else 'no':>11}"
            )
        lines.append(f"overall: {'admissible' if admissible else 'NOT admissible'}")
        _emit("\n".join(lines) + "\n", config.output)
    return EXIT_OK if admissible else EXIT_VALIDATION


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    candidates = _parse_candidates(args.candidates)
    for plan in candidates:
        if lot.is_finite and plan.n > lot.count:
            raise UsageError(f"candidate {plan} exceeds lot size N={lot.count}")
    report = compare_interpretations(lot, config.spec, config.bounds, candidates)
    if config.fmt == "json":
        _emit(comparison_to_json(report) + "\n", config.output)
    elif config.fmt == "csv":
        raise UsageError("compare reports support text and json formats only")
    else:
        _emit(comparison_to_text(report), config.output)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    level = _parse_level(args.p)
    plan = Plan(args.n, args.c)
    seed = config.seed if config.seed is not None else 0
    estimate = monte_carlo_acceptance(plan, lot, level, args.trials, seed)
    if lot.is_finite:
        analytic = hypergeometric_cdf(plan.c, plan.n, int(level * lot.count), lot.count)
    else:
        analytic = binomial_cdf(plan.c, plan.n, float(level))
    sigma = math.sqrt(analytic * (1.0 - analytic) / args.trials)
    if sigma > 0.0:
        deviation = (estimate - analytic) / sigma
    else:
        deviation = 0.0 if estimate == analytic else math.inf
    if config.fmt == "json":
        payload = {
            "empirical": round(estimate, 6),
            "analytic": round(analytic, 6),
            "sigma": round(sigma, 6),
            "deviation_sigmas": round(deviation, 3) if math.isfinite(deviation) else "inf",
            "trials": args.trials,
            "seed": seed,
        }
        _emit(json.dumps(payload, indent=2) + "\n", config.output)
    else:
        _emit(
            f"empirical={estimate:.6f} analytic={analytic:.6f} "
            f"deviation={deviation:+.3f} sigma\n",
            config.output,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, formats=("text", "csv", "json")) -> None:
    parser.add_argument("--aql", type=Fraction, default=None,
                        help="acceptable quality level (default 0.01)")
    parser.add_argument("--lq", type=Fraction, default=None,
                        help="limit quality level (default 0.07)")
    parser.add_argument("--alpha-max", type=float, default=None,
                        help="largest tolerated producers' risk (default 0.05)")
    parser.add_argument("--beta-max", type=float, default=None,
                        help="largest tolerated consumers' risk (default 0.05)")
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags take precedence")
    parser.add_argument("--output", default=None, help="write output to this path")
    if formats:
        parser.add_argument("--format", choices=formats, default=None,
                            help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midsampling",
        description="Acceptance sampling plans for MID modules F/F1 "
                    "under the hypothesis-test interpretation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="optimal plan for one lot size")
    p_plan.add_argument("--lot-size", required=True, help="positive integer or 'inf'")
    p_plan.add_argument("--n-cap", type=int, default=None,
                        help="sample-size scan cap for infinite lots")
    _add_common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_table = sub.add_parser("table", help="optimal plans for a range of lot sizes (CSV)")
    p_table.add_argument("--from", dest="n_min", type=int, required=True)
    p_table.add_argument("--to", dest="n_max", type=int, required=True)
    _add_common(p_table, formats=())
    p_table.set_defaults(func=_cmd_table)

    p_oc = sub.add_parser("oc", help="operating characteristic curve data")
    p_oc.add_argument("--n", type=int, required=True)
    p_oc.add_argument("--c", type=int, required=True)
    p_oc.add_argument("--lot-size", required=True)
    _add_common(p_oc)
    p_oc.set_defaults(func=_cmd_oc)

    p_scheme = sub.add_parser("scheme", help="validate a scheme or look up its plan")
    p_scheme.add_argument("action", choices=["validate", "lookup"])
    p_scheme.add_argument("--builtin", action="store_true", help="use the built-in scheme")
    p_scheme.add_argument("--file", default=None, help="scheme file to load")
    p_scheme.add_argument("--lot-size", default=None, help="lot size for lookup")
    p_scheme.add_argument("--n-cap", type=int, default=None,
                          help="largest lot size checked for the unbounded row")
    _add_common(p_scheme)
    p_scheme.set_defaults(func=_cmd_scheme)

    p_compare = sub.add_parser("compare", help="hypothesis-test vs WELMEC evaluation")
    p_compare.add_argument("--lot-size", required=True)
    p_compare.add_argument("--candidates", required=True,
                           help="comma-separated n:c plans, e.g. 36:0,51:1")
    _add_common(p_compare, formats=("text", "json"))
    p_compare.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="Monte Carlo acceptance estimate")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--c", type=int, required=True)
    p_sim.add_argument("--lot-size", required=True)
    p_sim.add_argument("--p", required=True, help="quality level (decimal or fraction)")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    _add_common(p_sim, formats=("text", "json"))
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemeParseError as exc:
        print(f"error: scheme file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeCoverageError, SchemeRuleError) as exc:
        print(f"error: scheme validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoPlanWithinCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
