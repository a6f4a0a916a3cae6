"""CLI parsing, output schemas, exit codes, and byte determinism."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import randclt

from oracles import poisson_outside_mass
from randclt import conditions, montecarlo
from randclt.cli import RunConfig, UsageError, build_parser, main, parse_args, run
from randclt.families import parse_family
from randclt.indices import make_index
from randclt.schema import SchemaError, load_schema, validate


# every value flag with a non-default value, and the flags each subcommand reads
FLAG_VALUES = {
    "--family": "twopoint,growth=3", "--index": "geometric:0.05", "--n-grid": "5,50",
    "--epsilon": "0.1,0.7", "--delta": "0.5", "--trials": "11", "--seed": "9",
    "--trunc-mass": "1e-10", "--fn": "bump", "--mode": "small-o", "--alpha": "0.3",
    "--t-grid": "0,1.5", "--out": "my out.csv",
}
READ_BY_ALL = ("--family", "--index", "--n-grid", "--trunc-mass", "--out")
READS = {
    "conditions": READ_BY_ALL + ("--epsilon", "--delta"),
    "simulate": READ_BY_ALL + ("--trials", "--seed"),
    "rates": READ_BY_ALL + ("--trials", "--seed", "--fn", "--mode", "--alpha"),
    "cf-check": READ_BY_ALL + ("--t-grid",),
    "audit": READ_BY_ALL + ("--epsilon", "--delta", "--trials", "--seed", "--t-grid"),
}
# rates-smooth in the benchmark passes it; the benchmark's next change drops both
UNREAD_ACCEPTED = {("rates", "--epsilon")}

def _shortest_argv(subcommand):
    """A valid command with no optional flag but the --trials simulate and rates need."""
    return [subcommand, "--trials", "7"] if subcommand in ("simulate", "rates") else [subcommand]


SCIPY_MODULES = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
)


def _run_then_list_scipy(commands, tmp_path):
    """Run randclt commands in one fresh interpreter; the scipy modules after each."""
    code = (
        "import json, sys, randclt.cli as cli\n"
        f"seen = [{SCIPY_MODULES}]\n"
        f"for i, argv in enumerate({commands!r}):\n"
        f"    cli.main(argv + ['--out', {str(tmp_path)!r} + f'/out{{i}}'])\n"
        f"    seen.append({SCIPY_MODULES})\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


class TestImports:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # no scipy module at all on the import path; see the guard below
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

    def test_commands_without_poisson_load_no_scipy(self, tmp_path):
        # the README commands with no Poisson index (trials cut, paths
        # unchanged), plus the uniform and expcentered Rotar kernels
        commands = [
            ["conditions", "--family", "rademacher", "--index", "geometric", "--n-grid",
             "10,100,1000", "--epsilon", "0.05,0.5", "--delta", "1"],
            ["simulate", "--family", "rademacher", "--index", "geometric", "--n-grid",
             "10,100,1000", "--trials", "2000", "--seed", "7"],
            ["rates", "--family", "rademacher", "--index", "det", "--fn", "sin",
             "--n-grid", "4,16,64,256", "--trials", "2000"],
            ["rates", "--mode", "small-o", "--family", "rademacher", "--index",
             "geometric", "--fn", "bump", "--n-grid", "10,100,1000", "--trials", "2000"],
            ["cf-check", "--index", "det:5", "--t-grid", "0,0.5,1,2,4"],
            ["conditions", "--family", "uniform", "--index", "det", "--n-grid", "10,100"],
            ["audit", "--family", "expcentered", "--index", "geometric", "--n-grid",
             "10,100", "--trials", "200"],
        ]
        assert _run_then_list_scipy(commands, tmp_path) == [[]] * (len(commands) + 1)

    def test_poisson_index_loads_no_scipy(self, tmp_path):
        # the Poisson tails are numpy pmf walks, so no command imports scipy
        commands = [
            ["audit", "--family", "uniform", "--index", "poisson", "--n-grid", "10,100",
             "--epsilon", "0.1,0.5", "--trials", "200"],
            ["conditions", "--family", "rademacher", "--index", "poisson", "--n-grid",
             "1000,1000000", "--epsilon", "0.5"],
            ["cf-check", "--index", "poisson", "--n-grid", "1000000"],
        ]
        assert _run_then_list_scipy(commands, tmp_path) == [[]] * (len(commands) + 1)

    def test_no_source_module_imports_scipy(self):
        src = Path(randclt.__file__).parent
        pattern = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
        assert [p.name for p in src.rglob("*.py") if pattern.search(p.read_text())] == []

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes any scipy import raise ImportError
        commands = [
            ["conditions", "--family", "expcentered", "--index", "poisson", "--n-grid",
             "10,1000", "--epsilon", "0.5"],
            ["simulate", "--family", "uniform", "--index", "poisson", "--n-grid",
             "10,100", "--trials", "2000"],
            ["rates", "--family", "rademacher", "--index", "poisson", "--fn", "bump",
             "--n-grid", "10,100", "--trials", "2000"],
            ["cf-check", "--index", "poisson", "--n-grid", "1000000"],
            ["audit", "--family", "twopoint,growth=1.01", "--index", "poisson",
             "--n-grid", "10,100", "--epsilon", "0.5", "--trials", "200"],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import randclt.cli as cli\n"
            f"for i, argv in enumerate({commands!r}):\n"
            f"    assert cli.main(argv + ['--out', {str(tmp_path)!r} + f'/out{{i}}']) == 0\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=300)
        assert len(list(tmp_path.iterdir())) == len(commands)


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
        # det:5.7 ran det:5, uniform:3.9 ran m = 3, det:inf raised OverflowError
        *(["cf-check", "--index", index] for index in (
            "det:5.7", "uniform:3.9", "det:inf", "uniform:inf", "det:nan", "poisson:nan",
            "geometric:-inf",
        )),
    ])
    def test_non_finite_or_out_of_range_flag_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["conditions", "--index", "det:1e300", "--n-grid", "10"], "--index"),
        (["simulate", "--index", "det:1e19", "--trials", "2"], "--index"),
        (["conditions", "--index", "uniform:1e300", "--n-grid", "10"], "--index"),
        (["conditions", "--index", "uniform:10000001", "--n-grid", "10"], "--index"),
        (["conditions", "--n-grid", "100000000000000000000000"], "--n-grid"),
        (["simulate", "--index", "det", "--n-grid", str(2**63), "--trials", "2"], "--n-grid"),
    ])
    def test_huge_integer_names_its_flag(self, argv, flag, capsys):
        # these ended in numpy's "Python int too large to convert to C long",
        # or in a cap message with every digit of the term count
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag}" in err or f"usage error: argument {flag}" in err
        assert len(err) < 160

    def test_largest_integers_accepted(self):
        for argv in (["--index", f"det:{2**62}"], ["--index", "uniform:10000000"],
                     ["--n-grid", str(2**63 - 1)]):
            parse_args(["conditions", *argv])

    def test_usage_error_exits_one(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["rates", "simulate"])
    def test_small_o_rejects_alpha(self, subcommand, tmp_path, capsys):
        # small-o's bound shape is E[B^-1]: --alpha changed no output byte;
        # simulate reads neither flag, so it takes neither
        out = tmp_path / "out.csv"
        argv = [subcommand, "--mode", "small-o", "--alpha", "0.3", "--n-grid", "10",
                "--trials", "100", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        if subcommand == "rates":
            assert "usage error: --alpha" in err and "--mode small-o" in err
        else:
            assert "usage error: unrecognized arguments: --mode small-o --alpha 0.3" in err
        assert not out.exists()
        parse_args(["rates", "--trials", "10", "--alpha", "0.3"])  # large-o reads it

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed, capsys):
        # masked to 64 bits, -1 would draw the stream of seed 2^64 - 1
        argv = ["simulate", "--n-grid", "10", "--trials", "100", "--seed", str(seed)]
        assert main(argv) == 1
        assert "usage error: --seed" in capsys.readouterr().err

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            cfg = parse_args(["simulate", "--trials", "1", "--seed", str(seed)])
            assert cfg.seed == seed

    @pytest.mark.parametrize("subcommand", ["simulate", "rates", "audit"])
    def test_trials_past_two_to_the_49_rejected(self, subcommand, capsys):
        # 2^32 blocks of 2^17 trials: one more block would wrap its stream start
        assert parse_args([subcommand, "--trials", str(2**49)]).trials == 2**49
        assert main([subcommand, "--n-grid", "10", "--trials", str(2**49 + 1)]) == 1
        assert "usage error: --trials must be at most 2^49" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["simulate", "audit"])
    def test_trials_past_memory_exit_one(self, subcommand, tmp_path, capsys):
        # 1e12 trials need an 8 TB array, which numpy refuses before allocating
        out = tmp_path / "out"
        argv = [subcommand, "--n-grid", "10", "--trials", str(10**12), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("randclt: error: out of memory at --trials 1000000000000: ")
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_print_config_is_shell_quoted(self, capsys):
        # joined with spaces, the line reparsed as "unrecognized arguments: growth=3 out.csv"
        argv = ["conditions", "--family", "twopoint, growth=3", "--out", "my out.csv"]
        assert main([*argv, "--print-config"]) == 0
        line = capsys.readouterr().out
        assert line.count("\n") == 1
        assert parse_args(shlex.split(line)) == parse_args(argv)

    def test_print_config_lists_only_the_flags_read(self, capsys):
        assert main(["simulate", "--trials", "5", "--print-config"]) == 0
        assert capsys.readouterr().out == (
            "simulate --family rademacher --index det --n-grid 10,100,1000 --trials 5 "
            "--seed 0 --trunc-mass 1e-12\n"
        )

    @pytest.mark.parametrize("subcommand, flag", itertools.product(READS, FLAG_VALUES))
    def test_each_subcommand_takes_only_the_flags_it_reads(
        self, subcommand, flag, tmp_path, capsys
    ):
        base = _shortest_argv(subcommand)
        argv = [*base, flag, FLAG_VALUES[flag]]
        if flag in READS[subcommand]:
            cfg = parse_args(argv)
            assert cfg != parse_args(base)
            assert cfg.to_argv().count(flag) == 1
            assert parse_args(cfg.to_argv()) == cfg
            assert main([*argv, "--print-config"]) == 0
            assert shlex.split(capsys.readouterr().out) == cfg.to_argv()
        elif (subcommand, flag) in UNREAD_ACCEPTED:
            # parsed and validated, never written back
            assert flag not in parse_args(argv).to_argv()
            assert main([*base, flag, "0"]) == 1
            assert f"usage error: {flag} entries must be positive" in capsys.readouterr().err
        else:
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == (
                f"randclt: usage error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--tri", "5"], ["simulate", "--t", "5"], ["conditions", "--eps", "0.5"],
        ["rates", "--trials", "5", "--fn", "sin", "--mod", "small-o"], ["audit", "--n-g", "5"],
    ])
    def test_abbreviation_is_a_usage_error(self, argv, capsys):
        # only declared spellings: --tri parsed as --trials
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("randclt: usage error: unrecognized arguments: ")
        assert argv[-2] in err

    @pytest.mark.parametrize("flag, spec", [
        ("--family", "family=rademacher"),
        ("--family", "family=twopoint,growth=3"),
        ("--family", "Rademacher"),
        ("--index", "index=det"),
        ("--index", "index=poisson:3"),
        ("--index", "deterministic"),
        ("--index", "deterministic:5"),
        ("--index", "DET"),
    ])
    def test_each_kind_has_one_spelling(self, flag, spec, capsys):
        # the family=/index= prefixes, the deterministic alias and any case
        # but the listed one all ran as the listed kind
        assert main(["simulate", flag, spec, "--n-grid", "5", "--trials", "2"]) == 1
        assert capsys.readouterr().err.startswith(f"randclt: usage error: {flag}: unknown ")

    @settings(max_examples=60, deadline=None)
    @given(spec=st.one_of(
        st.integers(max_value=0).map(lambda k: f"det:{k}"),
        st.integers(max_value=0).map(lambda m: f"uniform:{m}"),
        st.floats(max_value=0.0, allow_infinity=False).map(lambda lam: f"poisson:{lam!r}"),
        st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True))
        .filter(math.isfinite).map(lambda p: f"geometric:{p!r}"),
    ))
    @example(spec="det:0")
    @example(spec="det:-3")
    @example(spec="uniform:0")
    @example(spec="poisson:0")
    @example(spec="geometric:0")
    @example(spec="geometric:1.5")
    def test_parameter_outside_its_domain_is_a_usage_error(self, spec):
        # these parsed, then failed at run time as "randclt: error:", and
        # det's message spelled the kind "deterministic"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["conditions", "--index", spec, "--n-grid", "5"])
        kind = spec.partition(":")[0]
        assert code == 1
        assert stderr.getvalue().startswith(
            f"randclt: usage error: --index: {kind} index parameter must be "
        )
        assert stderr.getvalue().endswith(f": {spec!r}\n")


def _parsed(parser, argv):
    """What parser makes of argv: a RunConfig, a usage error, or an exit and its output."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            namespace = parser.parse_args(argv)
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()
    return "config", RunConfig(**vars(namespace))


_ARGV_TOKENS = st.sampled_from([
    *READS, *FLAG_VALUES, *FLAG_VALUES.values(), "--print-config", "--help", "-h",
    "--bogus", "--tri", "--", "-5", "5", "x",
])


class TestParserForArgv:
    """A parser built for argv, with only its subcommand's flags, acts as the full one."""

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["--bogus", "rates", "--trials", "3"],
        *([s, "--help"] for s in READS),
    ])
    def test_help_and_errors(self, argv):
        assert _parsed(build_parser(argv), argv) == _parsed(build_parser(), argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=st.lists(_ARGV_TOKENS, max_size=8))
    @example(argv=["conditions", "--epsilon", "0.5", "simulate"])
    @example(argv=["--", "audit", "--trials", "5"])
    def test_any_argv(self, argv):
        assert _parsed(build_parser(argv), argv) == _parsed(build_parser(), argv)


class TestConditionsCommand:
    @pytest.mark.parametrize("family, index, epsilon, values", [
        # eps sqrt(n) past float64 is t = inf, the whole law inside: the
        # constant-profile thresholds warned "overflow encountered in multiply"
        ("uniform", "poisson", "1e308", [0.0, 0.0, 0.0, 0.0, 0.0]),
        # P(|Z| <= t) is subnormal, so the geometric walk's rest bound
        # (1 - P) / P warned "overflow encountered in divide"
        ("geomnormal", "det", "1e-310", [1.0, 1.0, 0.0, 1.0, 0.0]),
    ])
    def test_extreme_thresholds_raise_no_warning(self, family, index, epsilon, values, tmp_path):
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["conditions", "--family", family, "--index", index,
                         "--n-grid", "10", "--epsilon", epsilon, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        # lindeberg, infinitesimality, rotar, random_lindeberg, random_rotar
        assert [float(r["value"]) for r in rows if r["epsilon"]] == values

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

    def test_summand_draw_cap_exits_one_without_output(self, tmp_path):
        # 10^9 uniform summands per trial ended in a MemoryError traceback or
        # an OOM kill; the address-space limit keeps a regression contained
        out = tmp_path / "s.csv"
        limit = 4 * 2**30  # the weights alone would take 7.45 GiB
        proc = subprocess.run(
            [sys.executable, "-m", "randclt.cli", "simulate", "--family", "uniform",
             "--index", "det", "--n-grid", "1000000000", "--trials", "2",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1
        assert "a trial needs 1000000000 summand draws, past the cap" in proc.stderr
        assert not out.exists()

    def test_kernel_work_cap_exits_one_without_output(self, tmp_path, capsys):
        # growth 1.000001 keeps 3.8e8 kernel terms: refused with the count,
        # not a silent run of minutes
        out = tmp_path / "c.csv"
        code = main(["conditions", "--family", "twopoint,growth=1.000001",
                     "--index", "geometric", "--n-grid", "1000", "--epsilon", "0.05",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "needs 381777528 kept (k, i) terms, past the cap" in err
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

    @pytest.mark.parametrize("argv", [
        ["--index", "det:1e300"], ["--index", "det", "--n-grid", "100000000000000000000"],
    ])
    def test_index_past_int64_exits_one_without_output(self, argv, tmp_path, capsys):
        # numpy's int64 support raised OverflowError, which ended in a traceback
        out = tmp_path / "c.csv"
        assert main(["conditions", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("randclt: usage error: ") and argv[-2] in err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    @pytest.mark.parametrize("lam, terms", [("5e11", 10086845), ("1e12", 14264953)])
    def test_poisson_refusal_counts_its_window_in_little_memory(self, lam, terms):
        # the window's table was built whole before the refusal: 288 and
        # 393 MiB of child peak RSS; it is now walked in pieces.  A small
        # launcher starts the command, because a child's peak RSS counts the
        # process it was forked from, here the test runner
        launcher = (
            "import resource, subprocess, sys\n"
            "p = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
            "print(p.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "print(p.stderr, end='')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-m", "randclt.cli",
             "conditions", "--index", f"poisson:{lam}", "--n-grid", "10"],
            capture_output=True, text=True, timeout=300, check=True,
        ).stdout
        status, maxrss_kib = map(int, out.split("\n", 1)[0].split())
        assert status == 1
        assert f"needs {terms} terms, past the cap of 10000000" in out
        assert maxrss_kib < 100 * 1024

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

    @pytest.mark.parametrize("family", ["rademacher", "twopoint,growth=1.01"])
    def test_det_index_rows_match_classical_rows(self, family, capsys):
        assert main(["conditions", "--family", family, "--index", "det",
                     "--n-grid", "1,9,52", "--epsilon", "0.05,0.5,1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        by_key = {(r["condition"], r["n"], r["epsilon"]): r for r in rows}
        classical = [r for r in rows if r["condition"] in ("lindeberg", "feller", "rotar")]
        assert len(classical) == 3 * (1 + 2 * 3)
        for r in classical:
            twin = by_key["random_" + r["condition"], r["n"], r["epsilon"]]
            assert (twin["value"], twin["error_bound"]) == (r["value"], r["error_bound"])

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

    def test_n_alias(self, capsys):
        # --n-grid has one spelling: its old alias --n is a usage error
        assert main(["simulate", "--n", "50", "--trials", "10"]) == 1
        err = capsys.readouterr().err
        assert err == "randclt: usage error: unrecognized arguments: --n 50\n"

    def test_numeric_failure_exits_one(self, capsys):
        # an index window past the enumeration cap is refused, not truncated
        code = main(["simulate", "--family", "normal", "--index", "geometric",
                     "--n-grid", "1000000", "--trials", "20000"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestIndexFreeDraws:
    """Normal families draw once per command: each n's row is the one-n command's."""

    @pytest.mark.parametrize("family", ["normal", "geomnormal"])
    @pytest.mark.parametrize("index", ["det", "geometric", "poisson"])
    def test_rows_equal_the_one_n_commands(self, family, index, capsys):
        grid = (3, 12, 40)
        common = ["--family", family, "--index", index, "--seed", "11"]
        commands = {
            "rates": ["rates", "--mode", "small-o", "--fn", "bump", "--trials", "3000"],
            "simulate": ["simulate", "--trials", "3000"],
            "audit": ["audit", "--epsilon", "0.5", "--trials", "3000"],
        }

        def rows(argv, n_grid):
            assert main([*argv, *common, "--n-grid", ",".join(map(str, n_grid))]) == 0
            out = capsys.readouterr().out
            if argv[0] == "audit":
                return [json.dumps(c, sort_keys=True) for c in json.loads(out)["configs"]]
            return out.splitlines()[1:]

        for argv in commands.values():
            assert rows(argv, grid) == [rows(argv, (n,))[0] for n in grid], argv[0]

    def test_large_o_metric_columns_equal_the_one_n_commands(self, capsys):
        # large-o fits its constant over the grid, so only n, metric and
        # mc_stderr are the one-n command's
        def cols(n_grid):
            assert main(["rates", "--family", "geomnormal", "--index", "geometric",
                         "--fn", "clamp", "--trials", "3000",
                         "--n-grid", ",".join(map(str, n_grid))]) == 0
            return [r.split(",")[:3] for r in capsys.readouterr().out.splitlines()[1:]]

        assert cols((5, 50)) == cols((5,)) + cols((50,))

    @pytest.mark.parametrize("command", ["simulate", "audit", "rates"])
    @pytest.mark.parametrize("spec, draws", [
        ("normal", 1), ("geomnormal", 1), ("rademacher", 3), ("expcentered", 3),
    ])
    def test_index_free_families_draw_once(self, command, spec, draws, monkeypatch, tmp_path):
        # an index-free S_k / B_k is the same N(0, 1) draw at every n; each
        # 1000-trial draw is one map_blocks call (simulate's, or smooth_metric's)
        calls = []
        real = montecarlo.map_blocks

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(montecarlo, "map_blocks", spy)
        monkeypatch.setattr(randclt.rates, "map_blocks", spy)
        assert main([command, "--family", spec, "--index", "geometric", "--n-grid", "4,16,64",
                     "--trials", "1000", "--seed", "5", "--out", str(tmp_path / "o")]) == 0
        assert calls == [1000] * draws

    @pytest.mark.parametrize("command", ["rates", "simulate", "audit"])
    def test_each_n_still_builds_its_index(self, command, tmp_path, capsys):
        # the draw is shared, but the last n's window is still built and refused
        out = tmp_path / "o"
        code = main([command, "--family", "normal", "--index", "poisson", "--trials", "100",
                     "--n-grid", "10,1000000000000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "n=1000000000000" in err and "needs 14264953 terms, past the cap" in err
        assert not out.exists()


class TestGrid:
    @pytest.mark.parametrize("command", ["conditions", "simulate", "rates", "cf-check", "audit"])
    def test_each_n_builds_its_model_once(self, command, monkeypatch, tmp_path):
        # one index model per n of --n-grid, in grid order; audit's cf_identity
        # block reads the last n's model instead of building it again
        built = []
        real = randclt.cli.make_index

        def spy(kind, n, *args, **kwargs):
            built.append(n)
            return real(kind, n, *args, **kwargs)

        monkeypatch.setattr(randclt.cli, "make_index", spy)
        argv = [command, "--index", "poisson", "--n-grid", "10,100", "--out", str(tmp_path / "o")]
        assert main(argv + (["--trials", "100"] if command in ("simulate", "rates") else [])) == 0
        assert built == [10, 100]


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
                     "--trials", "2000", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "n,metric,mc_stderr,bound,ratio"

    @pytest.mark.parametrize("mode", ["large-o", "small-o"])
    def test_every_row_holds_ratio_and_bound(self, mode, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--mode", mode, "--family", "rademacher",
                     "--index", "geometric", "--fn", "bump", "--n-grid", "5,25,125",
                     "--trials", "20000", "--seed", "3", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [5, 25, 125]
        for r in rows:
            metric, bound, ratio = (float(r[k]) for k in ("metric", "bound", "ratio"))
            assert ratio == metric / bound
            if mode == "small-o":
                # rademacher: B_k = sqrt(k), so the bound is E[index^-1/2]
                model = make_index("geometric", int(r["n"]))
                inv_b = model.expect_values(model.support ** -0.5, abs_bound=1.0)
                assert bound == pytest.approx(inv_b.value, rel=1e-13)

    def test_underflowing_bound_shape_exits_one_without_output(self, tmp_path, capsys):
        # E[B^-2] at n = 2000 is ~2^-2000: refused, never written as a 0.0 bound
        out = tmp_path / "r.csv"
        code = main(["rates", "--family", "geomnormal", "--index", "det",
                     "--n-grid", "2000", "--trials", "10", "--out", str(out)])
        assert code == 1
        assert "n=2000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, sigma, power", [
        ("large-o", "1e-160", "2"), ("small-o", "1e-310", "1"),
    ])
    def test_overflowing_bound_shape_exits_one_without_output(
        self, mode, sigma, power, tmp_path, capsys
    ):
        # E[B^-2] = 1 / (5e-320) at sigma 1e-160: numpy's overflow warning,
        # then "math range error"
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rates", "--family", f"normal,sigma={sigma}", "--index", "det",
                         "--n-grid", "5", "--trials", "10", "--mode", mode, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"randclt: error: E[B^-{power}] at n=5 is past the float64 range")
        assert not out.exists()


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

    def test_family_and_index_strings_parse_back(self, capsys):
        # :g formatting wrote growth=1, which the parser rejects
        assert main(["cf-check", "--family", "twopoint,growth=1.000001",
                     "--index", "geometric:0.00012345678", "--t-grid", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "twopoint,growth=1.000001"
        assert parse_family(payload["family"]).params == {"growth": 1.000001}
        assert payload["index"] == "geometric:0.00012345678"

    def test_poisson_large_n_passes(self, capsys):
        # the identity holds to the tail mass, so the tail must be the true one
        assert main(["cf-check", "--index", "poisson", "--n-grid", "1000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["tail_mass"] <= 1e-12

    def test_every_n_is_checked(self, capsys):
        # the command read only the first n: this grid printed --n-grid 100's bytes
        def payload(n_grid):
            assert main(["cf-check", "--index", "poisson", "--n-grid", n_grid]) == 0
            return json.loads(capsys.readouterr().out)

        both, small, large = payload("100,1000000"), payload("100"), payload("1000000")
        assert both["deviations"] == [
            max(a, b) for a, b in zip(small["deviations"], large["deviations"])
        ]
        assert both["max_deviation"] == max(both["deviations"])
        assert both["tail_mass"] == max(small["tail_mass"], large["tail_mass"])
        assert both != small

    def test_an_n_past_the_cap_fails_the_grid(self, tmp_path, capsys):
        # a later n's window past the cap no longer passes on the first n's check
        out = tmp_path / "cf.json"
        code = main(["cf-check", "--index", "geometric", "--n-grid", "10,1000000",
                     "--out", str(out)])
        assert code == 1
        assert "past the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_poisson_tail_mass_covers_the_mass_left_out(self, capsys):
        # scipy's pdtrc made this read 9.86e-13 while 4.27e-12 lay outside
        assert main(["cf-check", "--index", "poisson", "--n-grid", "10000000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        lo, hi = make_index("poisson", 10**10).window
        assert payload["tail_mass"] >= poisson_outside_mass(1e10, lo, hi)
        assert payload["tail_mass"] <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        log_sigma=st.floats(-300.0, 300.0),
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 1000),
        t=st.floats(0.0, 1e200),
    )
    @example(log_sigma=-160.0, kind="poisson", n=10, t=1.0)  # read e^(-1/2)
    @example(log_sigma=-200.0, kind="poisson", n=10, t=1.0)  # read NaN
    @example(log_sigma=-300.0, kind="geometric", n=1000, t=1e5)
    @example(log_sigma=300.0, kind="uniform", n=1000, t=1e200)
    def test_any_sigma_passes_with_finite_deviations(self, log_sigma, kind, n, t):
        # B_k^2 underflowed: t^2/(2 B_k^2) * B_k^2 read inf or NaN
        argv = ["cf-check", "--family", f"normal,sigma={10.0 ** log_sigma!r}",
                "--index", kind, "--n-grid", str(n), "--t-grid", f"0,0.5,1,4,{t!r}"]
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.simplefilter("error")
            code = main(argv)
        payload = json.loads(stdout.getvalue())
        assert code == 0 and payload["passed"] is True
        assert all(math.isfinite(d) for d in payload["deviations"])
        assert payload["max_deviation"] <= 1e-12

    def test_tiny_sigma_audit_passes(self, capsys):
        assert main(["audit", "--family", "normal,sigma=1e-160", "--index", "det",
                     "--n-grid", "5", "--trials", "0", "--t-grid", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["cf_identity"]["max_deviation"] == 0.0


class TestAuditCommand:
    @pytest.mark.parametrize("epsilon", ["1e155", "1e-310"])
    def test_epsilon_past_float64_range_is_refused(self, epsilon, tmp_path, capsys):
        # eps^2 = 1e310 and eps^-delta = 1e310 overflow float64; they exited 1
        # with a bare "(34, 'Numerical result out of range')"
        out = tmp_path / "a.json"
        assert main(["audit", "--family", "rademacher", "--index", "det", "--n-grid", "5",
                     "--epsilon", epsilon, "--trials", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"randclt: error: epsilon {float(epsilon)!r}: ")
        assert err.count("\n") == 1 and "float64 range" in err
        assert not out.exists()

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

    def test_each_functional_evaluated_once(self, monkeypatch, capsys):
        # the empirical constant reads the audit's own randomized Rotar and
        # Feller values and one draw per n, shared by every epsilon
        calls = Counter()
        real_draw, real_average = montecarlo.map_blocks, conditions._index_average

        def draw(*args, **kwargs):
            calls["draw"] += 1
            return real_draw(*args, **kwargs)

        def average(cond, *args, **kwargs):
            calls[cond] += 1
            return real_average(cond, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "map_blocks", draw)
        monkeypatch.setattr(conditions, "_index_average", average)
        assert main(["audit", "--family", "twopoint,growth=1.001", "--index", "geometric",
                     "--n-grid", "10,100", "--epsilon", "0.1,0.5", "--trials", "1000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("empirical_constant" in c for c in payload["configs"])
        assert calls["draw"] == 2  # one simulate per n
        assert calls["random_rotar"] == 4  # one per (n, epsilon)
        assert calls["random_feller"] == 4


class TestBlasThreads:
    """Outputs are a pure function of the flags, whatever BLAS's thread count."""

    @pytest.mark.parametrize("argv", [
        ["conditions", "--family", "rademacher", "--index", "geometric",
         "--n-grid", "10,100,1000", "--epsilon", "0.05,0.5", "--delta", "1"],
        ["cf-check", "--index", "poisson", "--n-grid", "1000000"],
        # one-row summand matrices of 70000 columns, whose dot products a
        # BLAS gemv would split across threads
        ["simulate", "--family", "uniform", "--index", "det", "--n-grid", "70000",
         "--trials", "2000", "--seed", "3"],
    ])
    def test_bytes_independent_of_blas_threads(self, argv, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "randclt.cli", *argv, "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSchemaValidator:
    def test_missing_key_detected(self):
        schema = load_schema("cfcheck.schema.json")
        with pytest.raises(SchemaError):
            validate({"family": "x"}, schema)

    def test_type_mismatch_detected(self):
        schema = {"type": "object", "required": ["a"], "properties": {"a": {"type": "number"}}}
        with pytest.raises(SchemaError):
            validate({"a": "nope"}, schema)
