"""Command-line interface.

Every command writes deterministic, machine-readable output (text, CSV or
JSON, as ``render`` supports it for the command) to stdout or to
``--output``.  Exit codes: 0 success, 2 usage error or unsupported format,
3 no admissible plan below the scan cap, 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .kernel import LotSize, Plan, as_exact_level, _read_count
from .planner import NoPlanWithinCapError, optimal_plan, plan_table
from .render import RENDERERS, render
from .risks import QualitySpec, RiskBounds, monte_carlo_acceptance, oc_curve
from .scheme import (
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
            return _read_count(what, token, least)
        except ValueError as exc:
            raise UsageError(f"invalid {what} {token!r}: {exc}") from exc
    return parse


_parse_seed = _count_reader("seed")
_parse_cap = _count_reader("cap")
_parse_lot_count = _count_reader("lot size", 1)


def _parse_candidates(token: str) -> list:
    plans = []
    for part in token.split(","):
        part = part.strip()
        try:
            n_text, _, c_text = part.partition(":")
            plans.append(Plan(_read_count("sample size n", n_text, 1),
                              _read_count("acceptance number c", c_text)))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"invalid candidate plan {part!r} (expected n:c): {exc}") from exc
    return plans


# ---------------------------------------------------------------------------
# Config file and output
# ---------------------------------------------------------------------------

#: Each config key with the reader of its option (``render`` judges a format).
_CONFIG_READERS = {
    "aql": _parse_level, "lq": _parse_level, "alpha_max": _parse_bound,
    "beta_max": _parse_bound, "format": str, "seed": _parse_seed, "n_cap": _parse_cap,
}
#: The keys of the options ``scheme lookup`` shares with ``validate`` but never uses.
_LOOKUP_IGNORES = ("aql", "lq", "alpha_max", "beta_max", "n_cap")


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
        if key not in _CONFIG_READERS:
            raise UsageError(f"{path}:{line_number}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _apply_config(args: argparse.Namespace) -> None:
    """Fill each option that the command takes and the user left unset from
    ``--config``: a command ignores the keys of the options it does not take
    or, as a scheme lookup, does not use."""
    values = _read_config_file(args.config) if args.config else {}
    ignored = _LOOKUP_IGNORES if getattr(args, "action", None) == "lookup" else ()
    for key, read in _CONFIG_READERS.items():
        if key in values and key not in ignored and getattr(args, key, False) is None:
            try:
                setattr(args, key, read(values[key]))
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc


def _given(args: argparse.Namespace, **options) -> dict:
    """The library keywords whose options (keyword=option) the user gave; the
    library supplies its own defaults for the others."""
    return {kw: getattr(args, opt) for kw, opt in options.items() if getattr(args, opt) is not None}


def _levels(args: argparse.Namespace) -> tuple:
    return (QualitySpec(**_given(args, p_aql="aql", p_lq="lq")),
            RiskBounds(**_given(args, alpha_max="alpha_max", beta_max="beta_max")))


def _emit(args: argparse.Namespace, kind: str, *result) -> None:
    """``result`` rendered as ``kind`` (text unless ``--format`` says otherwise)
    to ``--output`` or stdout."""
    text = render(kind, "text" if args.format is None else args.format, *result)
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {args.output}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_plan(args: argparse.Namespace) -> int:
    spec, bounds = _levels(args)
    lot = _parse_lot(args.lot_size)
    _emit(args, "plan", lot, optimal_plan(lot, spec, bounds, **_given(args, scan_cap="n_cap")))
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    _emit(args, "table", plan_table(args.n_min, args.n_max, *_levels(args)))
    return EXIT_OK


def _cmd_oc(args: argparse.Namespace) -> int:
    lot = _parse_lot(args.lot_size)
    _emit(args, "oc", oc_curve(Plan(args.n, args.c), lot), lot)
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
    levels = _levels(args) if args.action == "validate" else ()  # a lookup uses none
    scheme = _load_scheme(args)
    if args.action == "lookup":
        if args.lot_size is None:
            raise UsageError("scheme lookup requires --lot-size")
        lot = _parse_lot(args.lot_size)
        if not lot.is_finite:
            raise UsageError("scheme lookup requires a finite lot size")
        _emit(args, "lookup", lot, scheme_lookup(lot.count, scheme))
        return EXIT_OK
    results = validate_scheme(scheme, *levels, **_given(args, n_cap="n_cap"))
    _emit(args, "validation", results)
    return EXIT_OK if all(res.admissible for res in results) else EXIT_VALIDATION


def _cmd_compare(args: argparse.Namespace) -> int:
    spec, bounds = _levels(args)
    lot = _parse_lot(args.lot_size)
    candidates = _parse_candidates(args.candidates)
    for plan in candidates:
        if lot.is_finite and plan.n > lot.count:
            raise UsageError(f"candidate {plan} exceeds lot size N={lot.count}")
    _emit(args, "comparison", compare_interpretations(lot, spec, bounds, candidates))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    lot = _parse_lot(args.lot_size)
    plan = Plan(args.n, args.c)
    seed = 0 if args.seed is None else args.seed
    estimate = monte_carlo_acceptance(plan, lot, args.p, args.trials, seed)
    [(_, analytic)] = oc_curve(plan, lot, grid=[args.p])
    sigma = math.sqrt(analytic * (1.0 - analytic) / args.trials)
    if sigma > 0.0:
        deviation = (estimate - analytic) / sigma
    else:
        deviation = 0.0 if estimate == analytic else math.inf
    _emit(args, "simulation", estimate, analytic, sigma, deviation, args.trials, seed)
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


def _add_plan(parser: argparse.ArgumentParser) -> None:
    """The plan (n, c) and the lot it meets, for the commands that take one plan."""
    parser.add_argument("--n", type=_count_reader("sample size n", 1), required=True)
    parser.add_argument("--c", type=_count_reader("acceptance number c"), required=True)
    parser.add_argument("--lot-size", required=True)


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
    p_table.set_defaults(func=_cmd_table, format="csv")  # a table is CSV only

    p_oc = sub.add_parser("oc", help="operating characteristic curve data")
    _add_plan(p_oc)
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
    _add_plan(p_sim)
    p_sim.add_argument("--p", type=_parse_level, required=True,
                       help="quality level (decimal or fraction)")
    p_sim.add_argument("--trials", type=_count_reader("trials", 1), required=True)
    p_sim.add_argument("--seed", type=_parse_seed, default=None)
    _add_common(p_sim, "simulation")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _glued(argv: list) -> list:
    """argv with each value like '-1:0' glued to its long option ('--candidates=-1:0'):
    argparse takes a value that starts with '-' and is no plain number for an option."""
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-\d", argv[i]) and re.fullmatch(r"--\w[\w-]*", argv[i - 1]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glued(list(sys.argv[1:] if argv is None else argv)))
    try:
        _apply_config(args)
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
