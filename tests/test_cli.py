import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from midsampling import INFINITE_LOT, LotSize, Plan, QualitySpec, is_admissible
from midsampling.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "midsampling", *argv], capture_output=True, text=True
    )


GOLDEN_DIR = Path(__file__).parent / "golden"

_EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}


def _golden_cases():
    """(golden file name, argv) for every output whose bytes are pinned."""
    cases = []

    def add(name, argv, formats):
        for fmt in formats:
            cases.append((f"{name}.{_EXTENSIONS[fmt]}", argv + ["--format", fmt]))

    all_formats = ("text", "csv", "json")
    for lot in ("16", "25", "258", "inf"):
        add(f"plan-{lot}", ["plan", "--lot-size", lot], all_formats)
    for n, c, lot in (("30", "1", "200"), ("86", "2", "inf")):
        add(f"oc-{n}-{c}-{lot}", ["oc", "--n", n, "--c", c, "--lot-size", lot], all_formats)
    add("scheme-validate", ["scheme", "validate", "--builtin", "--n-cap", "20000"], all_formats)
    add("scheme-lookup-22", ["scheme", "lookup", "--builtin", "--lot-size", "22"],
        ("text", "json"))
    add("compare-143", ["compare", "--lot-size", "143", "--candidates", "36:0,51:1,56:1"],
        ("text", "json"))
    add("compare-inf", ["compare", "--lot-size", "inf", "--candidates", "88:2"],
        ("text", "json"))
    add("simulate-109-3-inf",
        ["simulate", "--n", "109", "--c", "3", "--lot-size", "inf", "--p", "0.07",
         "--trials", "20000", "--seed", "7"],
        ("text", "json"))
    cases.append(("table-1-300.csv", ["table", "--from", "1", "--to", "300"]))
    return cases


@pytest.mark.parametrize("name, argv", _golden_cases(), ids=[n for n, _ in _golden_cases()])
def test_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text()


class TestPlanCommand:
    def test_finite_lot_text(self, capsys):
        code, out, _ = run(capsys, "plan", "--lot-size", "258")
        assert code == 0
        assert "n=57" in out and "c=1" in out
        assert "p_alpha=2/258" in out and "p_beta=19/258" in out

    def test_infinite_lot(self, capsys):
        code, out, _ = run(capsys, "plan", "--lot-size", "inf")
        assert code == 0
        assert "n=109" in out and "c=3" in out

    def test_explicit_defaults_match(self, capsys):
        _, reference, _ = run(capsys, "plan", "--lot-size", "258")
        code, out, _ = run(
            capsys,
            "plan", "--lot-size", "258",
            "--aql", "0.01", "--lq", "0.07",
            "--alpha-max", "0.05", "--beta-max", "0.05",
        )
        assert code == 0
        assert out == reference

    def test_fraction_bound_matches_decimal(self, capsys):
        code, decimal_out, _ = run(capsys, "plan", "--lot-size", "43", "--alpha-max", "0.05")
        assert code == 0
        code, fraction_out, _ = run(capsys, "plan", "--lot-size", "43", "--alpha-max", "1/20")
        assert code == 0
        assert fraction_out == decimal_out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "plan", "--lot-size", "258", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lot"] == 258
        assert payload["plan"] == {"n": 57, "c": 1}
        assert set(payload["risks"]) == {"alpha", "beta"}

    def test_unparsable_lot_size(self, capsys):
        code, _, err = run(capsys, "plan", "--lot-size", "many")
        assert code == 2
        assert "lot size" in err

    def test_negative_lot_size(self, capsys):
        code, out, err = run(capsys, "plan", "--lot-size", "-3")
        assert code == 2
        assert out == "" and "lot size must be >= 1, got -3" in err

    def test_no_plan_within_cap(self, capsys):
        code, _, err = run(capsys, "plan", "--lot-size", "inf", "--n-cap", "50")
        assert code == 3
        assert "no admissible plan" in err

    @pytest.mark.parametrize("command", [["plan", "--lot-size", "inf"],
                                         ["scheme", "validate", "--builtin"]],
                             ids=["plan", "scheme-validate"])
    def test_negative_n_cap_names_the_flag_or_key(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--n-cap", "-5"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n-cap: invalid cap '-5': cap must be >= 0, got -5" in captured.err
        assert "scan_cap" not in captured.err and "n_cap must" not in captured.err
        config = tmp_path / "run.conf"
        config.write_text("n_cap = -5\n")
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == "" and "config key 'n_cap': invalid cap '-5': cap must be >= 0" in err

    def test_level_within_an_ulp_of_one(self, capsys):
        # the level rounds to 1.0 as a float; its exact value is below 1
        lq = "0.999999999999999999999"
        code, out, err = run(capsys, "plan", "--lot-size", "inf", "--aql", "0.5", "--lq", lq)
        assert code == 0, err
        fields = dict(field.split("=") for field in out.split())
        plan = Plan(int(fields["n"]), int(fields["c"]))
        assert is_admissible(plan, INFINITE_LOT, QualitySpec("0.5", lq))

    def test_zero_denominator_level_is_usage_error(self):
        proc = run_module("plan", "--lot-size", "10", "--aql", "1/0")
        assert proc.returncode == 2
        assert "invalid quality level '1/0'" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("flag", ["--alpha-max", "--beta-max"])
    def test_zero_denominator_bound_is_usage_error(self, flag):
        proc = run_module("plan", "--lot-size", "10", flag, "1/0")
        assert proc.returncode == 2
        assert f"argument {flag}: invalid risk bound '1/0'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTableCommand:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "43", "--to", "43")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "n", "c", "alpha", "beta", "p_alpha_num", "p_beta_num"]
        assert rows[1][:3] == ["43", "22", "0"]

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "table", "--from", "5", "--to", "4")
        assert code == 2

    @pytest.mark.parametrize("flag, argv", [("--from", ["--from", "-1", "--to", "5"]),
                                            ("--to", ["--from", "1", "--to", "-1"])])
    def test_lot_size_below_one_names_the_flag(self, capsys, flag, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["table"] + argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: invalid lot size '-1': lot size must be >= 1" in captured.err

    def test_deterministic_output(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["table", "--from", "1", "--to", "80", "--output", str(first)]) == 0
        assert main(["table", "--from", "1", "--to", "80", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_re_validation(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "40", "--to", "120")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            N = int(row["N"])
            plan = Plan(int(row["n"]), int(row["c"]))
            assert is_admissible(plan, LotSize(N))


class TestOcCommand:
    def test_infinite_curve_includes_anchor(self, capsys):
        code, out, _ = run(capsys, "oc", "--n", "86", "--c", "2", "--lot-size", "inf",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 152  # header + 151 grid points
        anchor = [r for r in rows[1:] if r[2] == "0.010000"]
        assert len(anchor) == 1
        assert float(anchor[0][3]) == pytest.approx(0.9444, abs=1e-4)

    def test_finite_curve_has_all_realizable_points(self, capsys):
        code, out, _ = run(capsys, "oc", "--n", "57", "--c", "1", "--lot-size", "258",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 260  # header + k = 0..258

    def test_csv_bytes_at_lot_100_000(self, capsys):
        # every realizable point of a large lot, read back to its count
        code, out, _ = run(capsys, "oc", "--n", "109", "--c", "3", "--lot-size", "100000",
                           "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2bcc70948b2ccbec4d07c4914ffa222a3f54ed5fb85a81ac7aac7be160d9725"
        )

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "oc", "--n", "5", "--c", "1", "--lot-size", "inf",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"p": 0.0, "pac": 1.0}

    @pytest.mark.parametrize("flag", ["--aql", "--lq", "--alpha-max", "--beta-max"])
    def test_levels_and_bounds_are_not_options(self, capsys, flag):
        # oc and simulate read neither quality levels nor risk bounds
        for argv in (["oc", "--n", "30", "--c", "1", "--lot-size", "200"],
                     ["simulate", "--n", "30", "--c", "1", "--lot-size", "200",
                      "--p", "0.01", "--trials", "10"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + [flag, "0.5"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_sample_size_below_one(self, capsys, n):
        for argv in (["oc", "--c", "0", "--lot-size", "200"],
                     ["simulate", "--c", "0", "--lot-size", "200", "--p", "0.01",
                      "--trials", "10"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--n", n])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"argument --n: invalid sample size n '{n}': "
                    f"sample size n must be >= 1, got {n}") in captured.err

    def test_invalid_plan(self, capsys):
        code, _, _ = run(capsys, "oc", "--n", "2", "--c", "3", "--lot-size", "inf")
        assert code == 2
        code, _, _ = run(capsys, "oc", "--n", "300", "--c", "1", "--lot-size", "258")
        assert code == 2


class TestSchemeCommand:
    def test_validate_builtin_is_admissible(self, capsys):
        code, out, _ = run(capsys, "scheme", "validate", "--builtin", "--n-cap", "20000")
        assert code == 0
        assert "overall: admissible" in out

    def test_validate_csv_format(self, capsys):
        code, out, _ = run(capsys, "scheme", "validate", "--builtin",
                           "--n-cap", "20000", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 11
        assert rows[2] == ["15", "18", "14", "0", "0.00", "0.00", "0.00", "3.92", "yes"]

    def test_long_decimal_aql_matches_default(self, capsys):
        # floor(p_aql*N) overflowed int64 here: k_alpha wrapped to -10 at N=923
        code, out, _ = run(capsys, "scheme", "validate", "--builtin", "--n-cap", "20000",
                           "--format", "csv", "--aql", "0.010000000000000001")
        assert code == 0
        assert out == (GOLDEN_DIR / "scheme-validate.csv").read_text()

    def test_aql_with_huge_denominator(self, capsys):
        code, out, err = run(capsys, "scheme", "validate", "--builtin", "--n-cap", "20000",
                             "--aql", "1/10000000000000000000")
        assert code == 0, err
        assert "overall: admissible" in out

    def test_lookup(self, capsys):
        code, out, _ = run(capsys, "scheme", "lookup", "--builtin", "--lot-size", "22")
        assert code == 0
        assert "n=18" in out and "c=0" in out

    def test_lookup_csv_rejected(self, capsys):
        code, out, err = run(capsys, "scheme", "lookup", "--builtin", "--lot-size", "22",
                             "--format", "csv")
        assert code == 2
        assert out == "" and "'csv'" in err

    def test_lookup_json(self, capsys):
        code, out, _ = run(capsys, "scheme", "lookup", "--builtin", "--lot-size", "5000",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"lot": 5000, "plan": {"n": 109, "c": 3}}

    def test_broken_scheme_file_fails_validation(self, capsys, tmp_path):
        scheme_file = tmp_path / "broken.scheme"
        scheme_file.write_text(
            "1,14,full,0\n"
            "15,18,n:13,0\n"
            "19,25,offset:4,0\n"
            "26,35,n:22,0\n"
            "36,54,n:28,0\n"
            "55,99,n:34,0\n"
            "100,199,n:58,1\n"
            "200,449,n:82,2\n"
            "450,1499,n:86,2\n"
            "1500,inf,n:109,3\n"
        )
        code, out, _ = run(capsys, "scheme", "validate", "--file", str(scheme_file),
                           "--n-cap", "20000")
        assert code == 4
        assert "NOT admissible" in out

    def test_malformed_scheme_file(self, capsys, tmp_path):
        scheme_file = tmp_path / "bad.scheme"
        scheme_file.write_text("what even is this\n")
        code, _, err = run(capsys, "scheme", "validate", "--file", str(scheme_file))
        assert code == 2
        assert "line 1" in err

    def test_coverage_gap_is_validation_failure(self, capsys, tmp_path):
        scheme_file = tmp_path / "gap.scheme"
        scheme_file.write_text("1,10,full,0\n12,inf,n:5,0\n")
        code, _, err = run(capsys, "scheme", "validate", "--file", str(scheme_file))
        assert code == 4

    def test_cap_below_unbounded_row(self, capsys):
        code, out, err = run(capsys, "scheme", "validate", "--builtin", "--n-cap", "1499")
        assert code == 2
        assert out == "" and "unbounded row" in err

    @pytest.mark.parametrize("lot", ["1", "2"])
    def test_lookup_of_offset_rule_without_a_sample(self, capsys, tmp_path, lot):
        scheme_file = tmp_path / "offset.scheme"
        scheme_file.write_text("1,14,offset:2,0\n15,inf,n:14,0\n")
        code, out, err = run(capsys, "scheme", "lookup", "--file", str(scheme_file),
                             "--lot-size", lot)
        assert code == 4
        assert out == "" and "row 0: rule offset:2 yields an invalid plan" in err

    def test_rule_errors_name_the_action(self, capsys, tmp_path):
        # a lookup validates nothing, so its error does not say it does
        scheme_file = tmp_path / "offset.scheme"
        scheme_file.write_text("1,14,offset:2,0\n15,inf,n:14,0\n")
        code, _, err = run(capsys, "scheme", "lookup", "--file", str(scheme_file),
                           "--lot-size", "2")
        assert code == 4
        assert err.startswith("error: scheme lookup: row 0: ")
        code, _, err = run(capsys, "scheme", "validate", "--file", str(scheme_file))
        assert code == 4
        assert err.startswith("error: scheme validation: row 0: ")

    def test_scheme_requires_source(self, capsys):
        code, _, err = run(capsys, "scheme", "validate")
        assert code == 2

    @pytest.mark.parametrize(
        "text, code",
        [
            ("1,inf,n:0,0\n", 2),
            ("1,inf,offset:-1,0\n", 2),
            ("1,inf,n:5,-1\n", 2),
            ("0,inf,n:5,0\n", 2),
            ("5,4,n:5,0\n", 2),
            ("", 4),
            ("# comments only\n", 4),
            ("1,inf,full,0\n2,inf,n:5,0\n", 4),
            ("1,inf,full,0\n", 4),
        ],
    )
    def test_scheme_file_errors(self, capsys, tmp_path, text, code):
        scheme_file = tmp_path / "bad.scheme"
        scheme_file.write_text(text)
        got, out, err = run(capsys, "scheme", "validate", "--file", str(scheme_file))
        assert got == code
        prefix = "error: scheme file: line 1: " if code == 2 else "error: scheme validation: "
        assert out == "" and err.startswith(prefix)

    def test_builtin_and_file_together(self, capsys, tmp_path):
        scheme_file = tmp_path / "any.scheme"
        scheme_file.write_text("1,inf,n:5,0\n")
        code, out, err = run(capsys, "scheme", "validate", "--builtin",
                             "--file", str(scheme_file))
        assert code == 2
        assert out == "" and "choose either --builtin or --file, not both" in err

    def test_unreadable_scheme_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "scheme", "validate", "--file", str(tmp_path / "missing"))
        assert code == 2
        assert out == "" and "cannot read scheme file" in err

    @pytest.mark.parametrize(
        "extra, message",
        [([], "scheme lookup requires --lot-size"),
         (["--lot-size", "inf"], "scheme lookup requires a finite lot size")],
    )
    def test_lookup_needs_a_finite_lot(self, capsys, extra, message):
        code, out, err = run(capsys, "scheme", "lookup", "--builtin", *extra)
        assert code == 2
        assert out == "" and message in err


class TestCompareCommand:
    def test_lot_143(self, capsys):
        code, out, _ = run(capsys, "compare", "--lot-size", "143",
                           "--candidates", "36:0,51:1,56:1")
        assert code == 0
        assert "25.17%" in out  # alpha of (36,0)
        assert "34.00%" in out  # alpha_cont of (36,0)
        assert "5.55%" in out   # alpha_cont of (56,1)

    def test_infinite_lot_json(self, capsys):
        code, out, _ = run(capsys, "compare", "--lot-size", "inf",
                           "--candidates", "88:2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["candidates"][0]["welmec_risks"]["alpha_cont"] == pytest.approx(
            0.0587, abs=1e-4
        )

    def test_continuous_inadmissible_full_inspection(self, capsys):
        code, out, _ = run(capsys, "compare", "--lot-size", "101",
                           "--candidates", "101:1", "--format", "json")
        assert code == 0
        assert json.loads(out)["candidates"][0]["continuous_admissible"] is False

    def test_invalid_candidate_syntax(self, capsys):
        code, _, err = run(capsys, "compare", "--lot-size", "143", "--candidates", "36-0")
        assert code == 2

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_candidate_sample_size_below_one(self, capsys, n):
        code, out, err = run(capsys, "compare", "--lot-size", "143", f"--candidates=36:0,{n}:0")
        assert code == 2
        assert out == "" and (f"invalid candidate plan '{n}:0' (expected n:c): "
                              f"sample size n must be >= 1, got {n}") in err

    @pytest.mark.parametrize("candidates", ["-1:0", "-1:0,36:0"])
    def test_candidate_with_a_leading_dash_reaches_the_reader(self, capsys, candidates):
        # argparse alone takes "-1:0" for an option: "expected one argument"
        code, out, err = run(capsys, "compare", "--lot-size", "100", "--candidates", candidates)
        assert code == 2
        assert out == "" and ("invalid candidate plan '-1:0' (expected n:c): "
                              "sample size n must be >= 1, got -1") in err

    def test_candidate_larger_than_the_lot(self, capsys):
        code, out, err = run(capsys, "compare", "--lot-size", "10", "--candidates", "20:0")
        assert code == 2
        assert out == ""
        assert "(20,0)" in err


class TestSimulateCommand:
    def test_within_three_sigma(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "109", "--c", "3",
                           "--lot-size", "inf", "--p", "0.07",
                           "--trials", "100000", "--seed", "7")
        assert code == 0
        fields = dict(part.split("=") for part in out.split() if "=" in part)
        assert abs(float(fields["deviation"])) <= 3.0

    def test_trivial_plan(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "10", "--c", "10",
                           "--lot-size", "10", "--p", "0.5",
                           "--trials", "100", "--seed", "1")
        assert code == 0
        assert "empirical=1.000000" in out

    def test_non_integral_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "57", "--c", "1",
                           "--lot-size", "258", "--p", "0.05",
                           "--trials", "1000", "--seed", "1")
        assert code == 2

    def test_fraction_level(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "22", "--c", "0",
                           "--lot-size", "43", "--p", "3/43",
                           "--trials", "20000", "--seed", "5")
        assert code == 0
        deviation = float(out.split("deviation=")[1].split()[0])
        assert abs(deviation) <= 4.0

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        argv = ["simulate", "--n", "34", "--c", "0", "--lot-size", "inf",
                "--p", "0.03", "--trials", "100"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", "-1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: invalid seed '-1': seed must be >= 0, got -1" in captured.err
        config = tmp_path / "run.conf"
        config.write_text("seed = -3\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == "" and "config key 'seed': invalid seed '-3': seed must be >= 0" in err

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, "simulate", "--n", "34", "--c", "0",
                          "--lot-size", "inf", "--p", "0.03",
                          "--trials", "5000", "--seed", "21")
        _, second, _ = run(capsys, "simulate", "--n", "34", "--c", "0",
                           "--lot-size", "inf", "--p", "0.03",
                           "--trials", "5000", "--seed", "21")
        assert first == second


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("aql = 0.02\nlq = 0.10\nalpha-max = 0.1\nbeta-max = 0.1\n")
        code, from_config, _ = run(capsys, "plan", "--lot-size", "inf",
                                   "--config", str(config))
        assert code == 0
        code, overridden, _ = run(capsys, "plan", "--lot-size", "inf",
                                  "--config", str(config), "--lq", "0.07",
                                  "--alpha-max", "0.05", "--beta-max", "0.05")
        assert code == 0
        assert from_config != overridden

    def test_unsupported_format_for_plan_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format = xml\n")
        code, out, err = run(capsys, "plan", "--lot-size", "258", "--config", str(config))
        assert code == 2
        assert out == "" and "'xml'" in err

    def test_unsupported_format_for_oc_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format = xml\n")
        code, out, err = run(capsys, "oc", "--n", "86", "--c", "2", "--lot-size", "inf",
                             "--config", str(config))
        assert code == 2
        assert out == "" and "'xml'" in err

    def test_csv_for_simulate_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format = csv\n")
        code, out, err = run(capsys, "simulate", "--n", "34", "--c", "0", "--lot-size", "inf",
                             "--p", "0.03", "--trials", "100", "--seed", "1",
                             "--config", str(config))
        assert code == 2
        assert out == "" and "'csv'" in err

    def test_table_ignores_format_key(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format = json\n")
        code, out, _ = run(capsys, "table", "--from", "43", "--to", "43", "--config", str(config))
        assert code == 0
        assert out.startswith("N,n,c,")

    def test_zero_denominator_level_is_usage_error(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("aql = 1/0\n")
        proc = run_module("plan", "--lot-size", "10", "--config", str(config))
        assert proc.returncode == 2
        assert "config key 'aql': invalid quality level '1/0'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["alpha_max", "beta_max"])
    def test_zero_denominator_bound_is_usage_error(self, tmp_path, key):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 1/0\n")
        proc = run_module("plan", "--lot-size", "10", "--config", str(config))
        assert proc.returncode == 2
        assert f"config key '{key}': invalid risk bound '1/0'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("qualityy = 0.02\n")
        code, _, err = run(capsys, "plan", "--lot-size", "inf", "--config", str(config))
        assert code == 2
        assert "unknown config key" in err

    def test_unreadable_config_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "plan", "--lot-size", "43",
                             "--config", str(tmp_path / "missing.conf"))
        assert code == 2
        assert out == "" and "cannot read config file" in err

    def test_line_without_equals_sign(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# levels\naql 0.02\n")
        code, out, err = run(capsys, "plan", "--lot-size", "43", "--config", str(config))
        assert code == 2
        assert out == "" and f"{config}:2: expected 'key = value', got 'aql 0.02'" in err


_OC = ["oc", "--n", "86", "--c", "2", "--lot-size", "500"]
_PLAN = ["plan", "--lot-size", "258"]
_SIMULATE = ["simulate", "--n", "34", "--c", "0", "--lot-size", "inf",
             "--p", "0.03", "--trials", "100"]


class TestConfigKeyRule:
    """A config key fills its option in the commands that take the option;
    the other commands ignore it, however malformed its value."""

    @pytest.mark.parametrize("argv, line", [
        (_OC, "seed = -3"),
        (_OC, "n_cap = x"),
        (["table", "--from", "43", "--to", "45"], "format = xml"),
        (_PLAN, "seed = -3"),
        (_OC, "aql = 1/0"),
    ], ids=["oc-seed", "oc-n_cap", "table-format", "plan-seed", "oc-aql"])
    def test_command_without_the_option_ignores_its_key(self, capsys, tmp_path, argv, line):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 0 and err == ""
        assert out == plain

    @pytest.mark.parametrize("argv, line, message", [
        (_SIMULATE, "seed = -3", "config key 'seed': invalid seed '-3'"),
        (_PLAN, "n_cap = x", "config key 'n_cap': invalid cap 'x'"),
        (_PLAN, "format = xml", "got 'xml'"),
        (_PLAN, "aql = 1/0", "config key 'aql': invalid quality level '1/0'"),
        (_SIMULATE, "seed =", "config key 'seed': invalid seed ''"),
        (_PLAN, "format =", "got ''"),
        (_PLAN, "aql =", "config key 'aql': invalid quality level ''"),
    ], ids=["seed", "n_cap", "format", "aql", "empty-seed", "empty-format", "empty-aql"])
    def test_command_with_the_option_rejects_a_malformed_key(
        self, capsys, tmp_path, argv, line, message
    ):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == "" and message in err


class TestOutputFile:
    @pytest.mark.parametrize("target", ["missing/x.txt", "."], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, *_PLAN, "--output", str(path))
        assert code == 2
        assert out == "" and f"error: cannot write output file {path}: " in err

    def test_unwritable_output_from_module(self, tmp_path):
        proc = run_module(*_PLAN, "--output", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == "" and "cannot write output file" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "midsampling", "plan", "--lot-size", "43"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "n=22" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "midsampling", "plan"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
