"""Command-line interface.

Every command writes deterministic, machine-readable output (text, CSV or
JSON, as ``render`` supports it for the command) to stdout or to
``--output``.  Exit codes: 0 success, 2 usage error or unsupported format,
3 no admissible plan below the scan cap, 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .kernel import LotSize, Plan, as_exact_level, _check_count
from .planner import DEFAULT_SCAN_CAP, NoPlanWithinCapError, optimal_plan, plan_table
from .render import RENDERERS, render
from .risks import QualitySpec, RiskBounds, monte_carlo_acceptance, oc_curve
from .scheme import (
    DEFAULT_VALIDATION_CAP,
    SchemeCoverageError,
    SchemeParseError,
    SchemeRuleError,
    default_mid_scheme,
    parse_scheme,
    scheme_lookup,
    validate_scheme,
)
from .welmec import compare_interpretations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PLAN = 3
EXIT_VALIDATION = 4


class UsageError(ValueError, argparse.ArgumentTypeError):
    """A usage error; argparse reports its message when a ``type=`` raises it."""


@dataclass
class RunConfig:
    spec: Optional[QualitySpec]  # None for commands without quality levels
    bounds: Optional[RiskBounds]
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

    spec = bounds = None
    if hasattr(args, "aql"):  # the commands registered with _add_levels
        spec = QualitySpec(
            p_aql=pick(args.aql, "aql", _parse_level, Fraction(1, 100)),
            p_lq=pick(args.lq, "lq", _parse_level, Fraction(7, 100)),
        )
        bounds = RiskBounds(
            alpha_max=pick(args.alpha_max, "alpha_max", _parse_bound, Fraction(1, 20)),
            beta_max=pick(args.beta_max, "beta_max", _parse_bound, Fraction(1, 20)),
        )
    return RunConfig(
        spec=spec,
        bounds=bounds,
        fmt=pick(getattr(args, "format", None), "format", str, "text"),
        output=getattr(args, "output", None),
        seed=pick(getattr(args, "seed", None), "seed", _parse_seed, None),
        n_cap=pick(getattr(args, "n_cap", None), "n_cap", _parse_cap, default_cap),
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


def _parse_level(token: str, what: str = "quality level") -> Fraction:
    try:
        return as_exact_level(token)
    except ValueError as exc:
        raise UsageError(f"invalid {what} {token!r}") from exc


def _parse_bound(token: str) -> Fraction:
    return _parse_level(token, "risk bound")


def _count_reader(what: str, least: int = 0):
    """A reader of a count of ``what``, a whole number >= least; argparse or
    the config reader prefixes its usage error with the flag or key."""
    def parse(token: str) -> int:
        try:
            return _check_count(what, int(token), least)
        except ValueError as exc:
            raise UsageError(f"invalid {what} {token!r}: {exc}") from exc
    return parse


_parse_seed = _count_reader("seed")
_parse_cap = _count_reader("cap")
_parse_sample_size = _count_reader("sample size n", 1)
_parse_lot_count = _count_reader("lot size", 1)


def _parse_candidates(token: str) -> list:
    plans = []
    for part in token.split(","):
        part = part.strip()
        try:
            n_text, _, c_text = part.partition(":")
            plans.append(Plan(_check_count("sample size n", int(n_text), 1), int(c_text)))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"invalid candidate plan {part!r} (expected n:c): {exc}") from exc
    return plans


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_plan(args: argparse.Namespace) -> int:
    config = _resolve_config(args, default_cap=DEFAULT_SCAN_CAP)
    lot = _parse_lot(args.lot_size)
    result = optimal_plan(lot, config.spec, config.bounds, scan_cap=config.n_cap)
    _emit(render("plan", config.fmt, lot, result), config.output)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    table = plan_table(args.n_min, args.n_max, config.spec, config.bounds)
    _emit(render("table", "csv", table), config.output)
    return EXIT_OK


def _cmd_oc(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    plan = Plan(args.n, args.c)
    _emit(render("oc", config.fmt, oc_curve(plan, lot), lot), config.output)
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
        _emit(render("lookup", config.fmt, lot, scheme_lookup(lot.count, scheme)), config.output)
        return EXIT_OK
    results = validate_scheme(scheme, config.spec, config.bounds, n_cap=config.n_cap)
    _emit(render("validation", config.fmt, results), config.output)
    return EXIT_OK if all(res.admissible for res in results) else EXIT_VALIDATION


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    candidates = _parse_candidates(args.candidates)
    for plan in candidates:
        if lot.is_finite and plan.n > lot.count:
            raise UsageError(f"candidate {plan} exceeds lot size N={lot.count}")
    report = compare_interpretations(lot, config.spec, config.bounds, candidates)
    _emit(render("comparison", config.fmt, report), config.output)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    lot = _parse_lot(args.lot_size)
    plan = Plan(args.n, args.c)
    seed = config.seed if config.seed is not None else 0
    estimate = monte_carlo_acceptance(plan, lot, args.p, args.trials, seed)
    [(_, analytic)] = oc_curve(plan, lot, grid=[args.p])
    sigma = math.sqrt(analytic * (1.0 - analytic) / args.trials)
    if sigma > 0.0:
        deviation = (estimate - analytic) / sigma
    else:
        deviation = 0.0 if estimate == analytic else math.inf
    _emit(
        render("simulation", config.fmt, estimate, analytic, sigma, deviation, args.trials, seed),
        config.output,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_levels(parser: argparse.ArgumentParser) -> None:
    """The quality levels and risk bounds, for the commands that search or
    judge plans against them."""
    parser.add_argument("--aql", type=_parse_level, default=None,
                        help="acceptable quality level (default 0.01)")
    parser.add_argument("--lq", type=_parse_level, default=None,
                        help="limit quality level (default 0.07)")
    parser.add_argument("--alpha-max", type=_parse_bound, default=None,
                        help="largest tolerated producers' risk (default 0.05)")
    parser.add_argument("--beta-max", type=_parse_bound, default=None,
                        help="largest tolerated consumers' risk (default 0.05)")


def _add_common(parser: argparse.ArgumentParser, output: Optional[str]) -> None:
    """The options every command takes; ``--format`` offers the formats its
    ``output`` kind renders, none if ``output`` is None."""
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags take precedence")
    parser.add_argument("--output", default=None, help="write output to this path")
    if output:
        parser.add_argument("--format", choices=tuple(RENDERERS[output]), default=None,
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
    p_plan.add_argument("--n-cap", type=_parse_cap, default=None,
                        help="sample-size scan cap for infinite lots")
    _add_levels(p_plan)
    _add_common(p_plan, "plan")
    p_plan.set_defaults(func=_cmd_plan)

    p_table = sub.add_parser("table", help="optimal plans for a range of lot sizes (CSV)")
    p_table.add_argument("--from", dest="n_min", type=_parse_lot_count, required=True)
    p_table.add_argument("--to", dest="n_max", type=_parse_lot_count, required=True)
    _add_levels(p_table)
    _add_common(p_table, None)
    p_table.set_defaults(func=_cmd_table)

    p_oc = sub.add_parser("oc", help="operating characteristic curve data")
    p_oc.add_argument("--n", type=_parse_sample_size, required=True)
    p_oc.add_argument("--c", type=int, required=True)
    p_oc.add_argument("--lot-size", required=True)
    _add_common(p_oc, "oc")
    p_oc.set_defaults(func=_cmd_oc)

    p_scheme = sub.add_parser("scheme", help="validate a scheme or look up its plan")
    p_scheme.add_argument("action", choices=["validate", "lookup"])
    p_scheme.add_argument("--builtin", action="store_true", help="use the built-in scheme")
    p_scheme.add_argument("--file", default=None, help="scheme file to load")
    p_scheme.add_argument("--lot-size", default=None, help="lot size for lookup")
    p_scheme.add_argument("--n-cap", type=_parse_cap, default=None,
                          help="largest lot size checked for the unbounded row")
    _add_levels(p_scheme)
    _add_common(p_scheme, "validation")
    p_scheme.set_defaults(func=_cmd_scheme)

    p_compare = sub.add_parser("compare", help="hypothesis-test vs WELMEC evaluation")
    p_compare.add_argument("--lot-size", required=True)
    p_compare.add_argument("--candidates", required=True,
                           help="comma-separated n:c plans, e.g. 36:0,51:1")
    _add_levels(p_compare)
    _add_common(p_compare, "comparison")
    p_compare.set_defaults(func=_cmd_compare)

    p_sim = sub.add_parser("simulate", help="Monte Carlo acceptance estimate")
    p_sim.add_argument("--n", type=_parse_sample_size, required=True)
    p_sim.add_argument("--c", type=int, required=True)
    p_sim.add_argument("--lot-size", required=True)
    p_sim.add_argument("--p", type=_parse_level, required=True,
                       help="quality level (decimal or fraction)")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=_parse_seed, default=None)
    _add_common(p_sim, "simulation")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemeParseError as exc:
        print(f"error: scheme file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeCoverageError, SchemeRuleError) as exc:
        step = "lookup" if getattr(args, "action", None) == "lookup" else "validation"
        print(f"error: scheme {step}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoPlanWithinCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    except ValueError as exc:  # UsageError, unsupported formats and invalid arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
