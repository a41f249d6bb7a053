import midsampling

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
    "comparison_to_text",
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
    "oc_curve_to_json",
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
    assert len(PUBLIC_NAMES) == 46
    assert sorted(midsampling.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(midsampling, name) is not None, name
