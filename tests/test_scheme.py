import csv
import hashlib
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midsampling import (
    LotSize,
    Plan,
    PlanRule,
    QualitySpec,
    RiskBounds,
    Scheme,
    SchemeCoverageError,
    SchemeParseError,
    SchemeRow,
    SchemeRuleError,
    default_mid_scheme,
    format_scheme,
    hypergeometric_cdf,
    optimal_plan,
    parse_scheme,
    scheme_lookup,
    validate_scheme,
    validation_report_csv,
)
from midsampling.kernel import _binomial_tolerances, _tail_tolerance

from exact_oracle import decimal, exact_binomial_tail, exact_hypergeometric_tail, realized_counts

# (from, to, n-label, c, alpha_min%, alpha_max%, beta_min%, beta_max%)
PUBLISHED_ROWS = [
    (1, 14, "N", 0, 0.00, 0.00, 0.00, 0.00),
    (15, 18, "14", 0, 0.00, 0.00, 0.00, 3.92),
    (19, 25, "N-4", 0, 0.00, 0.00, 2.00, 3.51),
    (26, 35, "22", 0, 0.00, 0.00, 0.96, 4.37),
    (36, 54, "28", 0, 0.00, 0.00, 0.78, 4.73),
    (55, 99, "34", 0, 0.00, 0.00, 0.93, 4.68),
    (100, 199, "58", 1, 0.00, 0.00, 1.00, 4.84),
    (200, 449, "82", 2, 0.00, 2.85, 1.97, 4.96),
    (450, 1499, "86", 2, 1.74, 4.98, 3.36, 4.99),
    (1500, None, "109", 3, 1.55, 2.43, 4.07, 4.85),
]


class TestDefaultScheme:
    def test_has_ten_rows(self):
        assert len(default_mid_scheme().rows) == 10

    def test_rows_match_published_scheme(self):
        for row, (lo, hi, label, c, *_risks) in zip(default_mid_scheme().rows, PUBLISHED_ROWS):
            assert row.n_from == lo
            assert row.n_to == hi
            assert row.rule.label() == label
            assert row.rule.c == c

    def test_last_row_plan(self):
        scheme = default_mid_scheme()
        assert scheme.rows[-1].rule.plan_for(10**6) == Plan(109, 3)


class TestSchemeLookup:
    def test_full_inspection_row(self):
        assert scheme_lookup(10, default_mid_scheme()) == Plan(10, 0)

    def test_lot_offset_row(self):
        assert scheme_lookup(22, default_mid_scheme()) == Plan(18, 0)

    def test_unbounded_row(self):
        assert scheme_lookup(5000, default_mid_scheme()) == Plan(109, 3)

    def test_boundaries(self):
        scheme = default_mid_scheme()
        assert scheme_lookup(14, scheme) == Plan(14, 0)
        assert scheme_lookup(15, scheme) == Plan(14, 0)
        assert scheme_lookup(1499, scheme) == Plan(86, 2)
        assert scheme_lookup(1500, scheme) == Plan(109, 3)
        # every row's first and last lot, against a scan for the row holding N
        for row in scheme.rows:
            for N in (row.n_from, row.n_to or 10**9):
                (holder,) = [r for r in scheme.rows if r.n_from <= N <= (r.n_to or N)]
                assert scheme_lookup(N, scheme) == Plan(holder.rule.sample_size(N), holder.rule.c)

    def test_invalid_lot(self):
        with pytest.raises(ValueError, match="lot size must be >= 1"):
            scheme_lookup(0, default_mid_scheme())

    @pytest.mark.parametrize("N", [1, 2])
    def test_offset_rule_without_a_sample_is_a_rule_error(self, N):
        # offset:2 samples N - 2 items: none at N = 2, a negative count at N = 1;
        # lookup rejects the lot as validation rejects the row
        scheme = parse_scheme("1,14,offset:2,0\n15,inf,n:14,0\n")
        with pytest.raises(SchemeRuleError) as excinfo:
            scheme_lookup(N, scheme)
        assert excinfo.value.row_index == 0
        with pytest.raises(SchemeRuleError):
            validate_scheme(scheme, n_cap=20_000)
        assert scheme_lookup(3, scheme) == Plan(1, 0)


@pytest.fixture(scope="module")
def results():
    # modest cap keeps the unit test quick; acceptance runs the full 1e5
    return validate_scheme(default_mid_scheme(), n_cap=20_000)


class TestValidateScheme:
    def test_all_rows_admissible(self, results):
        assert all(res.admissible for res in results)

    def test_finite_rows_match_published_extrema(self, results):
        for res, (_lo, hi, _label, _c, a_lo, a_hi, b_lo, b_hi) in zip(results, PUBLISHED_ROWS):
            if hi is None:
                continue
            assert round(100 * res.alpha_min, 2) == a_lo
            assert round(100 * res.alpha_max, 2) == a_hi
            assert round(100 * res.beta_min, 2) == b_lo
            assert round(100 * res.beta_max, 2) == b_hi

    def test_every_scheme_plan_is_admissible_spot_checks(self):
        scheme = default_mid_scheme()
        bounds = RiskBounds()
        for N in (1, 14, 15, 18, 19, 25, 26, 99, 100, 199, 200, 449, 450, 1499, 1500, 9999):
            plan = scheme_lookup(N, scheme)
            from midsampling import is_admissible

            assert is_admissible(plan, LotSize(N), QualitySpec(), bounds)

    def test_scheme_never_beats_optimal_sample_size(self):
        scheme = default_mid_scheme()
        for N in (1, 7, 14, 15, 22, 43, 99, 100, 143, 258, 400, 449, 450, 1499, 1500, 2500):
            assert scheme_lookup(N, scheme).n >= optimal_plan(LotSize(N)).plan.n

    def test_broken_row_is_flagged(self):
        # shrinking the [15, 18] sample size to 13 pushes beta over 5% at N=18
        assert hypergeometric_cdf(0, 13, 2, 18) == pytest.approx(0.0654, abs=1e-4)
        rows = list(default_mid_scheme().rows)
        rows[1] = SchemeRow(15, 18, PlanRule.fixed(13, 0))
        results = validate_scheme(Scheme(rows=tuple(rows)), n_cap=20_000)
        assert not results[1].admissible
        assert results[1].beta_max == pytest.approx(0.0654, abs=1e-4)
        assert all(res.admissible for i, res in enumerate(results) if i != 1)

    def test_rule_invalid_within_interval(self):
        rows = list(default_mid_scheme().rows)
        rows[1] = SchemeRow(15, 18, PlanRule.fixed(16, 0))  # n > N at N = 15
        with pytest.raises(SchemeRuleError):
            validate_scheme(Scheme(rows=tuple(rows)), n_cap=20_000)

    def test_cap_below_finite_boundary_rejected(self):
        with pytest.raises(ValueError):
            validate_scheme(default_mid_scheme(), n_cap=1000)

    def test_cap_below_unbounded_row_rejected(self):
        # the unbounded row [1500, n_cap] would be empty
        with pytest.raises(ValueError, match="unbounded row"):
            validate_scheme(default_mid_scheme(), n_cap=1499)
        last = validate_scheme(default_mid_scheme(), n_cap=1500)[-1]
        assert last.admissible and last.alpha_min_at == last.beta_min_at == 1500

    def test_bulk_budget(self, monkeypatch):
        # the risks are evaluated at the ends of each side's runs of constant
        # realized count, about 2*(0.01 + 0.07)*n_cap lots, not at every lot,
        # in one bulk call per side for all the rows
        from midsampling import risks

        elements = []

        def counting(c, n, K, N, core=risks._hypergeometric_cdf_bulk):
            elements.append(len(N))
            return core(c, n, K, N)

        monkeypatch.setattr(risks, "_hypergeometric_cdf_bulk", counting)
        assert all(res.admissible for res in validate_scheme(default_mid_scheme(), n_cap=10**5))
        assert len(elements) == 2 and sum(elements) == 16_026
        row_counts = set()
        for seed in range(30):
            scheme = _random_scheme(random.Random(seed))
            row_counts.add(len(scheme.rows))
            elements.clear()
            validate_scheme(scheme, n_cap=scheme.rows[-1].n_from + 500)
            assert len(elements) == 2, scheme
        assert row_counts == {1, 2, 3, 4}

    def test_extrema_locations_reported(self, results):
        last = results[-1]
        assert last.alpha_max_at is None  # attained in the binomial limit
        assert last.beta_max_at is None
        assert isinstance(last.alpha_min_at, int)


def _random_scheme(rng: random.Random) -> Scheme:
    """A valid scheme of one to four rows starting below 120, each rule
    usable at its first lot; the unbounded row takes a fixed sample."""
    starts = [1] + sorted(rng.sample(range(2, 120), rng.randint(0, 3)))
    rows = []
    for i, n_from in enumerate(starts):
        n_to = starts[i + 1] - 1 if i + 1 < len(starts) else None
        kind = "n" if n_to is None else rng.choice(["n", "full", "offset"])
        value = {"n": rng.randint(1, n_from), "full": 0, "offset": rng.randint(0, n_from - 1)}[kind]
        smallest = {"n": value, "full": n_from, "offset": n_from - value}[kind]
        rule = PlanRule(kind, rng.randint(0, min(smallest, 3)), value)
        rows.append(SchemeRow(n_from, n_to, rule))
    return Scheme(rows=tuple(rows))


class TestRunEnds:
    """validate_scheme evaluates the risks only where a run of lots with a
    constant realized count starts or ends, and decides every lot exactly."""

    @given(
        st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60),
        st.booleans(),
        st.sampled_from(["n", "full", "offset"]),
        st.integers(1, 150),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_acceptance_is_monotone_within_a_run(self, level, ceil, kind, N, data):
        count = math.ceil if ceil else math.floor
        K = count(level * N)
        run = [N]
        while count(level * (run[-1] + 1)) == K and len(run) < 40:
            run.append(run[-1] + 1)
        value = data.draw(st.integers(1, N)) if kind == "n" else data.draw(st.integers(0, N - 1))
        rule = PlanRule(kind, 0, 0 if kind == "full" else value)
        c = data.draw(st.integers(0, rule.sample_size(N)))
        accept = [exact_hypergeometric_tail(c, rule.sample_size(M), K, M) for M in run]
        if kind == "n":  # a fixed sample from a larger lot finds fewer defects
            assert accept == sorted(accept)
        else:  # X = K - Y, Y the defects among the items left out
            assert accept == sorted(accept, reverse=True)

    @pytest.mark.parametrize(
        "text, n_cap, spec",
        [
            # one-lot rows, rows that start inside a run, full and offset rows,
            # and n_cap at the last row's first lot
            ("1,1,full,0\n2,2,n:1,0\n3,40,offset:2,0\n41,41,n:30,0\n42,120,full,1\n"
             "121,inf,n:50,1\n", 121, QualitySpec()),
            ("1,2,full,0\n3,3,offset:1,0\n4,9,n:3,1\n10,10,full,2\n11,inf,n:8,2\n",
             60, QualitySpec("1/3", "1/2")),
            (format_scheme(default_mid_scheme()), 10**5, QualitySpec()),
        ],
    )
    def test_each_row_is_evaluated_at_its_own_run_ends(self, monkeypatch, text, n_cap, spec):
        # one bulk call per side; restricted to a row, its lanes are the row's
        # own run ends, counts, sample sizes and acceptance number
        from midsampling import risks
        from midsampling.risks import _run_ends

        calls = []

        def capturing(c, n, K, N, core=risks._hypergeometric_cdf_bulk):
            calls.append([np.broadcast_to(a, N.shape).tolist() for a in (c, n, K, N)])
            return core(c, n, K, N)

        monkeypatch.setattr(risks, "_hypergeometric_cdf_bulk", capturing)
        scheme = parse_scheme(text)
        validate_scheme(scheme, spec, n_cap=n_cap)
        assert len(calls) == 2
        for lanes, level, ceil in zip(calls, (spec.p_aql, spec.p_lq), (False, True)):
            want = [[], [], [], []]
            for row in scheme.rows:
                lots, counts = _run_ends(level, row.n_from, row.n_to or n_cap, ceil)
                sizes = np.broadcast_to(row.rule.sample_size(lots), lots.shape)
                for have, values in zip(want, ([row.rule.c] * lots.size, sizes, counts, lots)):
                    have.extend(np.asarray(values).tolist())
            assert lanes == want

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exact_values_at_every_lot(self, seed):
        rng = random.Random(seed)
        if seed == 0:  # beta of (19, 0) at N = 25 is exactly 1/20
            scheme = parse_scheme("1,18,full,0\n19,25,n:19,0\n26,inf,n:22,0\n")
            aql, lq, alpha_max, beta_max = "0.01", "0.07", "0.05", "0.05"
        else:
            scheme = _random_scheme(rng)
            aql, lq = rng.choice(
                [("0.01", "0.07"), ("0.02", "0.1"), ("0.05", "0.2"), ("0.1", "0.3"), ("1/3", "1/2")]
            )
            alpha_max, beta_max = rng.choice(
                [("0.05", "0.05"), ("0.1", "0.05"), ("0.2", "0.15"), ("0.3", "0.4"), ("0.5", "0.5")]
            )
        n_cap = scheme.rows[-1].n_from + rng.randint(0, 150)
        results = validate_scheme(
            scheme, QualitySpec(aql, lq), RiskBounds(alpha_max, beta_max), n_cap=n_cap
        )
        for res in results:
            rule, hi = res.row.rule, res.row.n_to or n_cap
            alphas, betas = {}, {}
            for N in range(res.row.n_from, hi + 1):
                n = rule.sample_size(N)
                k_alpha, k_beta = realized_counts(N, aql, lq)
                alphas[N] = 1 - exact_hypergeometric_tail(rule.c, n, k_alpha, N)
                betas[N] = exact_hypergeometric_tail(rule.c, n, k_beta, N)
            tol = _tail_tolerance(hi)
            if res.row.n_to is None:  # the binomial limit
                alphas[None] = 1 - exact_binomial_tail(rule.c, rule.value, decimal(aql))
                betas[None] = exact_binomial_tail(rule.c, rule.value, decimal(lq))
                tol = max(tol, *_binomial_tolerances(rule.value, (decimal(aql), decimal(lq))))
            assert res.admissible == (
                max(alphas.values()) <= decimal(alpha_max)
                and max(betas.values()) <= decimal(beta_max)
            ), res
            for exact, low, high, low_at, high_at in (
                (alphas, res.alpha_min, res.alpha_max, res.alpha_min_at, res.alpha_max_at),
                (betas, res.beta_min, res.beta_max, res.beta_min_at, res.beta_max_at),
            ):
                least, most = min(exact.values()), max(exact.values())
                assert abs(low - least) <= tol and abs(high - most) <= tol, res
                assert exact[low_at] - least <= 2 * tol and most - exact[high_at] <= 2 * tol, res


def _validation_hexes(results) -> list:
    """Every field of each RowValidation but the row: floats as float.hex."""
    hexes = []
    for res in results:
        hexes += [float.hex(res.alpha_min), float.hex(res.alpha_max),
                  float.hex(res.beta_min), float.hex(res.beta_max)]
        hexes += [str(res.alpha_min_at), str(res.alpha_max_at),
                  str(res.beta_min_at), str(res.beta_max_at), str(res.admissible)]
    return hexes


class TestValidationBits:
    """The verdicts of validate_scheme, pinned bit for bit."""

    def test_validations_are_bit_identical_to_the_pinned_digest(self):
        cases = [
            (default_mid_scheme(), QualitySpec(), RiskBounds(), 10**5),
            (default_mid_scheme(), QualitySpec(), RiskBounds(), 10**6),
            (default_mid_scheme(), QualitySpec("1/50", "1/10"), RiskBounds("0.10", "0.05"), 10**5),
            # beta of (19, 0) at N = 25 is exactly 1/20: the exact fallback decides
            (parse_scheme("1,18,full,0\n19,25,n:19,0\n26,inf,n:22,0\n"),
             QualitySpec(), RiskBounds(), 5000),
        ]
        for seed in range(40):
            rng = random.Random(1000 + seed)
            scheme = _random_scheme(rng)
            spec = QualitySpec(*rng.choice(
                [("0.01", "0.07"), ("0.02", "0.1"), ("0.05", "0.2"), ("0.1", "0.3"), ("1/3", "1/2")]
            ))
            bounds = RiskBounds(*rng.choice(
                [("0.05", "0.05"), ("0.1", "0.05"), ("0.2", "0.15"), ("0.3", "0.4"), ("0.5", "0.5")]
            ))
            cases.append((scheme, spec, bounds, scheme.rows[-1].n_from + rng.randint(0, 3000)))
        hexes = []
        for scheme, spec, bounds, n_cap in cases:
            hexes += _validation_hexes(validate_scheme(scheme, spec, bounds, n_cap=n_cap))
        assert len(hexes) == 1188
        assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == (
            "dc86ce45e3ca6a1b429e61ee759a0e6c8c200936de053338156c40c2621b9e9b"
        )


class TestSchemeStructure:
    def test_coverage_must_start_at_one(self):
        with pytest.raises(SchemeCoverageError):
            Scheme(rows=(SchemeRow(2, None, PlanRule.full_inspection(0)),))

    def test_gap_detected(self):
        with pytest.raises(SchemeCoverageError):
            Scheme(
                rows=(
                    SchemeRow(1, 10, PlanRule.full_inspection(0)),
                    SchemeRow(12, None, PlanRule.fixed(5, 0)),
                )
            )

    def test_overlap_detected(self):
        with pytest.raises(SchemeCoverageError):
            Scheme(
                rows=(
                    SchemeRow(1, 10, PlanRule.full_inspection(0)),
                    SchemeRow(10, None, PlanRule.fixed(5, 0)),
                )
            )

    def test_must_end_unbounded(self):
        with pytest.raises(SchemeCoverageError):
            Scheme(rows=(SchemeRow(1, 10, PlanRule.full_inspection(0)),))

    def test_unknown_rule_kind(self):
        with pytest.raises(ValueError, match="unknown rule kind 'sample'"):
            PlanRule("sample", 0)

    def test_a_full_inspection_rule_takes_no_value(self):
        # a value would print as "full" and read N as its sample size, so
        # the rule would not read back as itself; every built-in rule does
        with pytest.raises(ValueError, match="a full-inspection rule takes no value, got 3"):
            PlanRule("full", 0, value=3)
        for row in default_mid_scheme().rows:
            assert PlanRule.from_token(row.rule.token(), row.rule.c) == row.rule

    @pytest.mark.parametrize("value", [True, 1.5])
    def test_rule_numbers_are_whole(self, value):
        with pytest.raises(ValueError, match=f"must be an integer, got {value!r}"):
            PlanRule("n", value, 5)
        with pytest.raises(ValueError, match=f"must be an integer, got {value!r}"):
            PlanRule("n", 0, value)

    def test_a_whole_float_rule_number_is_stored_as_its_int(self):
        rule = PlanRule.fixed(14.0, 0.0)
        assert type(rule.value) is int and rule.value == 14
        assert type(rule.c) is int and rule == PlanRule.fixed(14, 0)

    def test_unbounded_row_must_be_last(self):
        with pytest.raises(SchemeCoverageError, match="row 0 is unbounded but not last"):
            parse_scheme("1,inf,full,0\n2,inf,n:5,0\n")

    @pytest.mark.parametrize("text", ["", "# no rows\n\n   # at all\n"])
    def test_scheme_without_rows(self, text):
        with pytest.raises(SchemeCoverageError, match="no rows"):
            parse_scheme(text)

    def test_unbounded_row_needs_a_fixed_sample_size(self):
        with pytest.raises(SchemeRuleError, match="row 0: an unbounded interval requires"):
            validate_scheme(parse_scheme("1,inf,full,0\n"))


class TestSchemeTextFormat:
    def test_round_trip(self):
        scheme = default_mid_scheme()
        assert parse_scheme(format_scheme(scheme)) == scheme

    def test_round_trip_of_a_whole_float_sample_size(self):
        # written as n:14, not n:14.0, which the parser refuses
        scheme = Scheme(rows=(SchemeRow(1, 14, PlanRule.full_inspection(0)),
                              SchemeRow(15, None, PlanRule.fixed(14.0, 0))))
        text = format_scheme(scheme)
        assert text == "1,14,full,0\n15,inf,n:14,0\n"
        assert parse_scheme(text) == scheme

    def test_default_scheme_rendering(self):
        text = format_scheme(default_mid_scheme())
        lines = text.strip().splitlines()
        assert lines[0] == "1,14,full,0"
        assert lines[2] == "19,25,offset:4,0"
        assert lines[-1] == "1500,inf,n:109,3"

    def test_comments_and_blank_lines(self):
        text = "# scheme\n\n1,14,full,0\n15,inf,n:14,0  # tail\n"
        scheme = parse_scheme(text)
        assert len(scheme.rows) == 2

    @pytest.mark.parametrize("to", ["INF", "infinity", " Infinite "])
    def test_open_row_reads_as_a_lot_size_does(self, to):
        # any spelling of an infinite lot that --lot-size takes
        text = "1,14,full,0\n15,{},n:14,0\n"
        assert parse_scheme(text.format(to)) == parse_scheme(text.format("inf"))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(SchemeParseError) as excinfo:
            parse_scheme("1,14,full,0\nnot a row\n")
        assert excinfo.value.line_number == 2

    def test_bad_rule_token(self):
        with pytest.raises(SchemeParseError) as excinfo:
            parse_scheme("1,inf,sample:10,0\n")
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,inf,n:0,0", "fixed sample size must be >= 1, got 0"),
            ("1,inf,offset:-1,0", "offset must be >= 0, got -1"),
            ("1,inf,n:5,-1", "acceptance number must be >= 0, got -1"),
            ("0,inf,n:5,0", "interval must start at a lot size >= 1"),
            ("-1,inf,n:5,0", "interval must start at a lot size >= 1"),
            ("5,4,n:5,0", "empty interval [5, 4]"),
            # a count that is no integer is named, not left to int()'s message
            ("1.5,inf,n:5,0", "interval start must be an integer, got '1.5'"),
            ("1,14.5,full,0", "lot size must be an integer, got '14.5'"),
            ("1,14,full,0.5", "acceptance number must be an integer, got '0.5'"),
            ("1,inf,n:14.0,0", "fixed sample size must be an integer, got '14.0'"),
            ("1,inf,offset:0.5,0", "offset must be an integer, got '0.5'"),
            # int() reads '_' separators and other scripts' digits; a count does not
            ("1,1_8,n:14,0", "lot size must be an integer, got '1_8'"),
            ("1,inf,n:1_4,0", "fixed sample size must be an integer, got '1_4'"),
            ("1,inf,n:14,\uff10", "acceptance number must be an integer, got '\uff10'"),
        ],
    )
    def test_invalid_row_values(self, text, message):
        with pytest.raises(SchemeParseError) as excinfo:
            parse_scheme(text + "\n15,inf,n:14,0\n")
        assert excinfo.value.line_number == 1
        assert str(excinfo.value) == f"line 1: {message}"

    def test_coverage_error_from_text(self):
        with pytest.raises(SchemeCoverageError):
            parse_scheme("1,10,full,0\n20,inf,n:5,0\n")


class TestValidationReportCsv:
    def test_mirrors_published_layout(self):
        results = validate_scheme(default_mid_scheme(), n_cap=20_000)
        rows = list(csv.reader(io.StringIO(validation_report_csv(results))))
        assert rows[0][:4] == ["N_from", "N_to", "n", "c"]
        assert rows[1] == ["1", "14", "N", "0", "0.00", "0.00", "0.00", "0.00", "yes"]
        assert rows[3][2] == "N-4"
        assert rows[10][0] == "1500" and rows[10][1] == "inf"
        for row, (_lo, hi, _label, _c, a_lo, a_hi, b_lo, b_hi) in zip(
            rows[1:], PUBLISHED_ROWS
        ):
            if hi is None:
                continue
            assert [row[4], row[5], row[6], row[7]] == [
                f"{a_lo:.2f}",
                f"{a_hi:.2f}",
                f"{b_lo:.2f}",
                f"{b_hi:.2f}",
            ]
