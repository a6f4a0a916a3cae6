"""CLI parsing, output schemas, exit codes, and byte determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import mpmath
import pytest

from randclt.cli import UsageError, main, parse_args, run
from randclt.schema import SchemaError, load_schema, validate


class TestImports:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # scipy.special is all the import path needs; brentq loads on first use
        code = (
            "import sys, randclt.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', "
            "'scipy.integrate') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"


class TestParsing:
    def test_documented_example(self):
        cfg = parse_args(
            ["conditions", "--family", "rademacher", "--n-grid", "10,100",
             "--epsilon", "0.5", "--delta", "1"]
        )
        assert cfg.subcommand == "conditions"
        assert cfg.n_grid == (10, 100)
        assert cfg.epsilon_grid == (0.5,)
        assert cfg.delta == 1.0

    def test_zero_trials_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--trials", "0"])

    def test_seed_defaults_to_zero(self):
        cfg = parse_args(["conditions"])
        assert cfg.seed == 0

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--bogus", "1"])

    def test_malformed_family(self):
        with pytest.raises(UsageError):
            parse_args(["conditions", "--family", "cauchy"])

    def test_malformed_index(self):
        with pytest.raises(UsageError):
            parse_args(["conditions", "--index", "zipf:3"])

    def test_epsilon_must_be_positive(self):
        with pytest.raises(UsageError):
            parse_args(["conditions", "--epsilon", "0"])

    def test_delta_range(self):
        with pytest.raises(UsageError):
            parse_args(["conditions", "--delta", "1.5"])

    @pytest.mark.parametrize("argv", [
        ["conditions", "--n-grid", "10", "--epsilon", "nan"],
        ["conditions", "--n-grid", "10", "--epsilon", "inf"],
        ["cf-check", "--index", "det:5", "--t-grid", "0,nan"],
        ["cf-check", "--index", "det:5", "--t-grid", "0,inf"],
        ["rates", "--trials", "10", "--alpha", "5"],
        ["rates", "--trials", "10", "--alpha", "-3"],
        ["rates", "--trials", "10", "--alpha", "nan"],
    ])
    def test_non_finite_or_out_of_range_flag_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed, capsys):
        # masked into the 64-bit Philox key, -1 would draw the stream of 2^64 - 1
        argv = ["simulate", "--n-grid", "10", "--trials", "100", "--seed", str(seed)]
        assert main(argv) == 1
        assert "usage error: --seed" in capsys.readouterr().err

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            cfg = parse_args(["simulate", "--trials", "1", "--seed", str(seed)])
            assert cfg.seed == seed

    def test_print_config_round_trip(self, capsys):
        argv = ["audit", "--family", "twopoint,growth=3", "--index", "geometric:0.05",
                "--n-grid", "5,50", "--epsilon", "0.1,0.7", "--seed", "9"]
        cfg = parse_args(argv)
        reparsed = parse_args(cfg.to_argv())
        assert dataclasses.replace(reparsed, print_config=False) == dataclasses.replace(
            cfg, print_config=False
        )

    def test_print_config_flag_emits_and_exits_clean(self, capsys):
        cfg = parse_args(["conditions", "--print-config"])
        assert run(cfg) == 0
        printed = capsys.readouterr().out.split()
        assert dataclasses.replace(parse_args(printed), print_config=False) == (
            dataclasses.replace(cfg, print_config=False)
        )


class TestConditionsCommand:
    def test_csv_header_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["conditions", "--family", "rademacher", "--index", "geometric",
                "--n-grid", "5,20", "--epsilon", "0.2,0.8", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        text = out1.read_text()
        assert text.splitlines()[0] == "condition,n,epsilon,delta,value,error_bound"
        assert text == out2.read_text()

    def test_poisson_rows_certify_truncation(self, capsys):
        # at n = 1e6 a table from k = 1 needs ~1e6 terms of exact zeros, and
        # its 1 - sum(pmf) round-off (5.5e-10) would swamp the 1e-12 budget
        assert main(["conditions", "--index", "poisson", "--n-grid", "1000,1000000"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        bounds = {"random_lindeberg": 1.0, "random_feller": 1.0, "random_rotar": 2.0}
        randomized = [r for r in rows if r["condition"] in bounds]
        assert {int(r["n"]) for r in randomized} == {1000, 1000000}
        for r in randomized:
            value, err = float(r["value"]), float(r["error_bound"])
            assert err <= 1e-12 * bounds[r["condition"]] + 1e-12 * (1.0 + value), r

    def test_index_cap_exits_one_without_output(self, tmp_path, capsys):
        # the geometric window at n = 1e6 needs 2.8e7 terms: a loud failure,
        # never a silently truncated table with a vacuous bound
        out = tmp_path / "c.csv"
        code = main(["conditions", "--index", "geometric", "--n-grid", "1000000",
                     "--out", str(out)])
        assert code == 1
        assert "past the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "index", ["geometric:1e-320", "geometric:1e-310", "poisson:1e308"]
    )
    def test_window_past_float_range_exits_one_without_output(
        self, index, tmp_path, capsys
    ):
        out = tmp_path / "c.csv"
        code = main(["conditions", "--index", index, "--n-grid", "5",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("randclt: error: ")
        assert f"{index.split(':')[0]} index" in err and "past the cap" in err
        assert not out.exists()

    def test_feller_near_ratio_one_within_its_bound(self, capsys):
        # max share = 1 / sum_{i<10} r^-i = 0.1 + 4.5e-10: cancellation-prone
        assert main(["conditions", "--family", "twopoint,growth=1.000000001",
                     "--index", "det", "--n-grid", "10"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        row = next(r for r in rows if r["condition"] == "feller")
        with mpmath.workdps(50):
            r = mpmath.mpf(1.000000001)
            exact = float(1 / mpmath.fsum(r**-i for i in range(10)))
        assert abs(float(row["value"]) - exact) <= float(row["error_bound"])

    def test_out_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "m.csv"
        old = os.umask(0o022)
        try:
            assert main(["conditions", "--n-grid", "3", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_stdout_when_no_out(self, capsys):
        assert main(["conditions", "--n-grid", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("condition,n,epsilon,delta,value,error_bound")


class TestSimulateCommand:
    def test_csv_schema_and_byte_identity_across_workers(self, tmp_path):
        argv = ["simulate", "--family", "twopoint", "--index", "uniform",
                "--n-grid", "10,30", "--trials", "400", "--seed", "5", "--out"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == "n,trials,seed,d_hat,dkw_band"

    def test_rows_per_grid_point(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--family", "rademacher", "--index", "det",
                     "--n-grid", "5,10,20", "--trials", "50", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_n_alias(self):
        cfg = parse_args(["simulate", "--n", "50", "--trials", "10"])
        assert cfg.n_grid == (50,)

    def test_numeric_failure_exits_one(self, capsys):
        # an index window past the enumeration cap is refused, not truncated
        code = main(["simulate", "--family", "normal", "--index", "geometric",
                     "--n-grid", "1000000", "--trials", "20000"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRatesCommand:
    def test_large_o_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--family", "rademacher", "--index", "det",
                     "--fn", "sin", "--n-grid", "4,16", "--trials", "2000",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,metric,mc_stderr,bound,ratio"
        assert len(lines) == 3

    def test_small_o_csv(self, tmp_path):
        out = tmp_path / "so.csv"
        assert main(["rates", "--mode", "small-o", "--family", "rademacher",
                     "--index", "geometric", "--fn", "bump", "--n-grid", "5,25",
                     "--epsilon", "0.5", "--trials", "2000", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "n,metric,mc_stderr,bound,ratio"


class TestCfCheckCommand:
    def test_deterministic_passes_with_schema(self, tmp_path):
        out = tmp_path / "cf.json"
        assert main(["cf-check", "--index", "det:5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, load_schema("cfcheck.schema.json"))
        assert payload["passed"] is True
        assert payload["max_deviation"] <= 1e-12

    def test_nonnormal_family_uses_normal_twin(self, capsys):
        assert main(["cf-check", "--family", "rademacher", "--index", "poisson:7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] <= 1e-12

    def test_poisson_large_n_passes(self, capsys):
        # the identity holds to the tail mass, so the tail must be the true one
        assert main(["cf-check", "--index", "poisson", "--n-grid", "1000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["tail_mass"] <= 1e-12


class TestAuditCommand:
    def test_all_normal_passes(self, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["audit", "--family", "geomnormal", "--index", "poisson",
                     "--n-grid", "5,20", "--epsilon", "0.2,0.9",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, load_schema("audit.schema.json"))
        assert payload["passed"] is True
        assert len(payload["configs"]) == 4

    def test_coarse_truncation_breaks_certified_bound(self, tmp_path):
        # deliberate-tolerance regression: coarsening the certified index
        # truncation must trip the fixed identity tolerance and exit 2
        out = tmp_path / "bad.json"
        code = main(["audit", "--family", "normal", "--index", "geometric",
                     "--n-grid", "50", "--epsilon", "0.5", "--trunc-mass", "1e-6",
                     "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["cf_identity"]["passed"] is False
        assert payload["passed"] is False

    def test_empirical_constant_reported_with_trials(self, capsys):
        assert main(["audit", "--family", "rademacher", "--index", "geometric",
                     "--n-grid", "20", "--epsilon", "0.5", "--trials", "5000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "empirical_constant" in payload["configs"][0]
        assert payload["configs"][0]["empirical_constant"] >= 0.0


class TestSchemaValidator:
    def test_missing_key_detected(self):
        schema = load_schema("cfcheck.schema.json")
        with pytest.raises(SchemaError):
            validate({"family": "x"}, schema)

    def test_type_mismatch_detected(self):
        schema = {"type": "object", "required": ["a"], "properties": {"a": {"type": "number"}}}
        with pytest.raises(SchemaError):
            validate({"a": "nope"}, schema)
