import ast
from pathlib import Path

import midsampling
from midsampling import INFINITE_LOT, LotSize, Plan, kernel, risks

# The public API, pinned: adding or removing a name is a visible diff here.
PUBLIC_NAMES = [
    "CandidateEvaluation",
    "ComparisonReport",
    "INFINITE_LOT",
    "LotSize",
    "NoPlanWithinCapError",
    "Plan",
    "PlanResult",
    "PlanRule",
    "PlanTable",
    "QualitySpec",
    "RealizedLevels",
    "RiskBounds",
    "RiskPair",
    "RowValidation",
    "Scheme",
    "SchemeCoverageError",
    "SchemeParseError",
    "SchemeRow",
    "SchemeRuleError",
    "WelmecRisks",
    "binomial_cdf",
    "compare_interpretations",
    "comparison_to_json",
    "default_mid_scheme",
    "format_scheme",
    "hypergeometric_cdf",
    "interpolated_acceptance",
    "interpolated_acceptance_curve",
    "is_admissible",
    "max_acceptance_number",
    "monte_carlo_acceptance",
    "oc_curve",
    "oc_curve_to_csv",
    "optimal_plan",
    "parse_scheme",
    "plan_table",
    "realized_quality_levels",
    "risk_pair",
    "scheme_lookup",
    "validate_scheme",
    "validation_report_csv",
    "welmec_admissible_continuous",
    "welmec_admissible_pointwise",
    "welmec_risks",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 44
    assert sorted(midsampling.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(midsampling, name) is not None, name


# The internal import graph, pinned: which package modules each module
# imports, and which modules import numpy.  A new layer tangle or a new
# numpy user is a visible diff here.
PACKAGE_IMPORTS = {
    "__init__": {"kernel", "planner", "render", "risks", "scheme", "welmec"},
    "__main__": {"cli"},
    "cli": {"kernel", "planner", "render", "risks", "scheme", "welmec"},
    "kernel": set(),
    "planner": {"kernel", "render", "risks"},
    "render": {"kernel"},
    "risks": {"kernel"},
    "scheme": {"kernel", "risks"},
    "welmec": {"kernel", "planner", "risks"},
}
NUMPY_USERS = {"kernel", "risks"}


def _imports(path: Path) -> tuple:
    """(package modules imported, whether numpy is imported) by one source
    file, read with ``ast``: function-level imports count too."""
    package, numpy = set(), False
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .m import x, from . import m
            package |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            for top, _, rest in (name.partition(".") for name in names):
                numpy |= top == "numpy"
                if top == "midsampling":
                    package.add(rest.partition(".")[0] or top)
    return package, numpy


def test_internal_import_graph_is_pinned():
    source = Path(midsampling.__file__).parent
    graph, numpy_users = {}, set()
    for path in sorted(source.glob("*.py")):
        graph[path.stem], uses_numpy = _imports(path)
        if uses_numpy:
            numpy_users.add(path.stem)
    assert graph == PACKAGE_IMPORTS
    assert numpy_users == NUMPY_USERS


# The split between judge and search, pinned: the planner and the WELMEC
# module ask a lot rule for decisions and acceptances and read none of its
# tie bands, tolerances, memos, scalar cores or exact fallbacks, and no
# module but risks names the tie rule.
RULE_INTERNALS = {
    "alpha_bound", "beta_bound", "alpha_tails", "beta_tails", "alpha_tol", "beta_tol",
    "exact_alpha", "exact_beta", "tails", "core",
}


def test_only_the_lot_rule_judges():
    source = Path(midsampling.__file__).parent
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if path.stem in ("planner", "welmec"):
            assert not names & RULE_INTERNALS, (path.stem, names & RULE_INTERNALS)
        if path.stem != "risks":
            assert "_Bound" not in names, path.stem


class _NoNumpy:
    """A stand-in for the numpy module that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a scalar path")


def test_scalar_paths_use_no_numpy(monkeypatch):
    # the decisions and reports that need no array: plans (one past the
    # log-factorial table), a table, comparisons, risks, pointwise WELMEC,
    # the infinite-lot OC curve and a scheme lookup
    monkeypatch.setattr(kernel, "np", _NoNumpy())
    monkeypatch.setattr(risks, "np", _NoNumpy())
    for lot in (LotSize(258), LotSize(10**6), INFINITE_LOT):
        midsampling.optimal_plan(lot)
    assert len(midsampling.plan_table(1, 300)) == 300
    midsampling.compare_interpretations(LotSize(143), candidate_plans=[Plan(51, 1)])
    midsampling.compare_interpretations(INFINITE_LOT, candidate_plans=[Plan(109, 3)])
    assert midsampling.is_admissible(Plan(57, 1), LotSize(258))
    midsampling.risk_pair(Plan(57, 1), LotSize(258))
    midsampling.welmec_admissible_pointwise(Plan(57, 1), LotSize(258))
    assert len(midsampling.oc_curve(Plan(109, 3), INFINITE_LOT)) == 151
    assert midsampling.scheme_lookup(22, midsampling.default_mid_scheme()) == Plan(18, 0)
