import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetaspectra import cli, limits, moments, validate, zeta
from zetaspectra.cli import main
from zetaspectra.montecarlo import STREAM, sample_spectrum, trial_seed
from zetaspectra.percolation import Profile
from zetaspectra.spectra import log_det_density


def run_cli(args, capsys=None):
    return main(args)


UNREAD_FLAGS = {
    "validate": ["validate", "--n", "5"],
    "zeta": ["zeta", "--graph", "C3", "--seed", "3"],
    "limits": ["limits", "--trials", "2"],
    "converge": ["converge", "--n", "5"],
    "sample": ["sample", "--v", "1"],
    "spectrum": ["spectrum", "--kmax", "3"],
    "spectrum-plot-script": ["spectrum", "--n", "5", "--plot-script", "plot.py"],
    # the limit log-det is in closed form: no quadrature to size
    "logdet-gauss-points": ["logdet", "--gauss-points", "8"],
    # the argv is the whole input: no subcommand reads a config file
    **{f"{command}-config": [command, "--config", "run.cfg"]
       for command in ("sample", "spectrum", "moments", "converge", "logdet", "limits")},
    # tables are CSV and documents JSON: no subcommand takes a format
    **{f"{command}-format": [command, "--format", "json"]
       for command in ("spectrum", "moments", "converge", "logdet")},
}


@pytest.mark.parametrize("argv", list(UNREAD_FLAGS.values()), ids=list(UNREAD_FLAGS))
def test_unread_flag_is_refused(argv, capsys):
    # each subcommand accepts only the flags its handler reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# flags that the selected mode of a subcommand does not read
MODE_UNREAD_FLAGS = [
    (["moments", "--theory", "--n", "5", "--trials", "9", "--seed", "3", "--kmax", "2"], "--n"),
    (["moments", "--theory", "--R", "3"], "--R"),
    (["moments", "--theory", "--threads", "2"], "--threads"),  # no mode reads it: no thread pool
    (["moments", "--bounds", "--format", "csv"], "--format"),  # no mode reads it: no formats
    (["moments", "--theory", "--bounds"], "--bounds"),
    (["limits", "--what", "fgrid", "--v", "7"], "--v"),
    (["limits", "--what", "stieltjes", "--points", "5"], "--points"),
    (["limits", "--what", "density", "--v-max=3"], "--v-max"),
    (["limits", "--what", "stieltjes", "--v-count", "3"], "--v-count"),
]


@pytest.mark.parametrize(
    "argv,flag", MODE_UNREAD_FLAGS, ids=[f"{argv[0]}-{flag[2:]}" for argv, flag in MODE_UNREAD_FLAGS]
)
def test_mode_unread_flag_is_refused(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# values a subcommand refuses: exit 2 with the reason, no traceback
BAD_VALUES = [
    (["converge", "--n-sweep", "8", "--trials", "1", "--kmax", "1"], ">= 2"),
    (["converge", "--n-sweep", "8", "--trials", "0"], ">= 2"),
    (["converge", "--gamma", "0"], "o(N)"),
    (["sample", "--n", "0"], "n must be"),
    (["sample", "--R", "0.5"], "radius must be finite and >= 1, got 0.5"),
    (["moments", "--theory", "--kmax", "-1"], "k_max must be >= 0, got -1"),
    (["moments", "--kmax", "-2"], "k_max must be >= 0, got -2"),
    (["limits", "--what", "density", "--v", "0"], "v = 0"),
    (["zeta", "--graph", "C2"], "at least 3"),
    (["zeta", "--graph", ""], "cannot parse graph spec"),
    (["zeta", "--graph", "random:3,0,1"], "no connected graph on 3 vertices"),
    (["zeta", "--graph", "random:10,0.01,1"], "no connected graph found in 1000 tries"),
    # the default --v 1 on gauss a=0.5 has no positive shift
    (["logdet"], "v = 1 needs v^2 < phi1"),
    (["logdet", "--profile", "exp", "--a", "0.9", "--v", "1.2"], "|v| < 1"),
    (["spectrum", "--hist-bins", "-1"], "--hist-bins must be >= 0"),
    (["limits", "--what", "density", "--v", "nan"], "v must be finite"),
    (["moments", "--theory", "--v", "nan"], "v must be finite"),
    # the sampled routes refuse a non-finite v where they build H, after one draw
    (["moments", "--v", "inf"], "the scale v^2/phi1 of H is not finite"),
    (["spectrum", "--v", "nan"], "the scale v^2/phi1 of H is not finite"),
    (["moments", "--bounds", "--v", "nan"], "v must be finite"),
    (["limits", "--what", "stieltjes", "--v", "nan"], "v must be finite"),
    (["converge", "--v=-inf"], "v must be finite"),
    (["logdet", "--v", "nan"], "v must be finite"),
    (["zeta", "--graph", "C3", "--u", "nan"], "--u must be finite"),
    (["zeta", "--graph", "C3", "--u", "inf"], "--u must be finite"),
    (["zeta", "--graph", "C3", "--u", "1e200"], "--u 1e+200: the reciprocal zeta overflows"),
    (["sample", "--n", "3", "--R", "inf"], "radius must be finite and >= 1"),
    (["converge", "--n-sweep", "8", "--r-scale", "nan"], "r_scale must be finite and > 0"),
    (["converge", "--n-sweep", "8", "--r-scale", "-1"], "r_scale must be finite and > 0"),
    (["converge", "--n-sweep", "-3", "--trials", "2"], "n must be >= 1, got -3"),
    (["converge", "--n-sweep", "8,0", "--trials", "2"], "n must be >= 1, got 0"),
    (["sample", "--a", "1"], "amplitude must lie in (0, 1)"),
    (["moments", "--theory", "--kmax", "16", "--v", "1e80"], "v = 1e+80: the edge scale"),
    (["moments", "--bounds", "--v", "0"], "v = 0 makes every moment bound"),
    (["limits", "--what", "stieltjes", "--v", "1e200"], "v = 1e+200: the transform's discriminant"),
    # v^2 overflows to inf and the bound ratios to nan: the JSON writer refuses them
    (["moments", "--bounds", "--kmax", "4", "--v", "1e200"], "a value JSON cannot carry"),
    # ... and the CSV writer refuses the theory table's inf
    (["moments", "--theory", "--v", "1e200", "--kmax", "3"], "a value CSV cannot carry (inf)"),
    # the density's support overflows before any grid is laid over it
    (["limits", "--what", "density", "--v", "1e200", "--points", "3"],
     "v = 1e+200: the semicircle support's right end"),
    (["moments", "--bounds", "--kmax", "0"], "k_max must be >= 1 for a bound sweep"),
    (["converge", "--n-sweep", "3", "--trials", "2", "--kmax", "1", "--r-scale", "1e300"],
     "r_scale = 1e+300 gives R = ceil(r_scale * N^gamma) >= N = 7"),
    # every sampled route refuses the overflowed scale of H before it solves
    (["spectrum", "--n", "2", "--v", "1e200"], "v = 1e+200: the scale v^2/phi1 of H"),
    (["moments", "--n", "3", "--trials", "2", "--kmax", "2", "--v", "1e200"],
     "v = 1e+200: the scale v^2/phi1 of H"),
    (["converge", "--n-sweep", "3", "--trials", "2", "--kmax", "1", "--v", "1e200"],
     "v = 1e+200: the scale v^2/phi1 of H"),
    # a file that cannot be read or written is outside input too
    (["zeta", "--graph", "file:no/such/edges.txt"], "No such file or directory"),
    (["zeta", "--graph", "file:."], "Is a directory"),
    (["sample", "--n", "3", "--out", "no/such/dir/edges.txt"], "No such file or directory"),
    (["zeta", "--graph", "random:3,1.5,1"], "edge probability must lie in [0, 1], got 1.5"),
    (["zeta", "--graph", "random:3,nan,1"], "edge probability must lie in [0, 1], got nan"),
]


@pytest.mark.parametrize("argv,reason", BAD_VALUES, ids=[" ".join(a) for a, _ in BAD_VALUES])
def test_bad_value_is_refused(argv, reason, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"zetaspectra {argv[0]}: error: ") and reason in err


# refusals made in the library, not the CLI: each comes before any output
LIBRARY_REFUSALS = [
    ["sample", "--n", "0"],
    ["sample", "--R", "0.5"],
    ["sample", "--n", "3", "--R", "inf"],
    ["spectrum", "--v", "nan"],
    ["moments", "--v", "inf"],
    ["moments", "--kmax", "-2"],
    ["moments", "--theory", "--v", "nan"],
    ["moments", "--theory", "--kmax", "-1"],
    ["moments", "--bounds", "--kmax", "0"],
    ["moments", "--bounds", "--v", "nan"],
    ["converge", "--v=-inf"],
    ["converge", "--n-sweep", "8", "--r-scale", "nan"],
    ["converge", "--n-sweep", "8", "--r-scale", "-1"],
    ["converge", "--n-sweep", "8,16,32", "--trials", "3,3"],
    ["logdet", "--v", "nan"],
    ["limits", "--what", "density", "--v", "nan"],
    ["limits", "--what", "stieltjes", "--v", "nan"],
]


@pytest.mark.parametrize("argv", LIBRARY_REFUSALS, ids=[" ".join(a) for a in LIBRARY_REFUSALS])
def test_library_refusal_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out.txt"]) == 2
    assert capsys.readouterr().err.startswith(f"zetaspectra {argv[0]}: error: ")
    assert list(tmp_path.iterdir()) == []


SUBCOMMANDS = {"sample", "spectrum", "moments", "converge", "logdet", "zeta", "limits", "validate"}

# one small run of every subcommand, written with a sidecar
SIDECAR_RUNS = {
    "sample": ["sample", "--n", "20", "--R", "3", "--seed", "5"],
    "spectrum": ["spectrum", "--n", "10", "--R", "2", "--seed", "3", "--hist-bins", "4"],
    "moments": ["moments", "--n", "10", "--trials", "3", "--kmax", "3", "--seed", "2"],
    "converge": ["converge", "--n-sweep", "8,12", "--trials", "2", "--kmax", "2", "--seed", "1"],
    "logdet": ["logdet", "--n", "10", "--R", "3", "--v", "0.5", "--trials", "2", "--seed", "4"],
    "zeta": ["zeta", "--graph", "random:6,0.5,3", "--u", "0.2", "--check-order", "6"],
    "limits": ["limits", "--what", "stieltjes", "--v", "0.8"],
    "validate": ["validate"],
}


@pytest.mark.parametrize("command", sorted(SIDECAR_RUNS))
def test_sidecar_argv_reruns_output(command, tmp_path, capsys):
    # the argv is the whole input, so a sidecar's argv reproduces its output
    out = tmp_path / "out.txt"
    outputs = [out, tmp_path / "out.txt.hist.csv"] if command == "spectrum" else [out]
    code = main(SIDECAR_RUNS[command] + ["--out", str(out)])
    first = [path.read_bytes() for path in outputs]
    argv = json.loads((tmp_path / "out.txt.meta.json").read_text())["argv"]
    for path in outputs:
        path.unlink()
    assert main(argv) == code == 0
    assert [path.read_bytes() for path in outputs] == first


def test_readme_commands_parse():
    # every `zetaspectra ...` recipe in the README, continuation lines joined,
    # passes the parser and its mode check; every subcommand has one
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line)[1:]
        for line in text.replace("\\\n", " ").splitlines()
        if line.startswith("zetaspectra ")
    ]
    for argv in commands:
        cli._parse_args(argv)
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    # the README's flags table lists each subcommand's options, no more, no fewer
    rows = text.split("| subcommand | flags |")[1].split("\n\n")[0].splitlines()[2:]
    table = {
        cells[1].strip("` "): set(cells[2].strip("` ").split())
        for cells in (row.split("|") for row in rows)
    }
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.items()
    }
    assert table == parsed


class TestParserReuse:
    # one parser serves every main call of a process; a call must not see
    # what an earlier one parsed or refused

    def fresh_output(self, argv, capsys):
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        return capsys.readouterr()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_refused_call_leaves_no_trace(self, capsys):
        argv = ["moments", "--theory", "--kmax", "5", "--v", "0.7"]
        alone = self.fresh_output(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--theory", "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == alone

    def test_no_value_leaks_between_calls(self, capsys):
        alone = self.fresh_output(["moments", "--theory"], capsys)
        assert main(["moments", "--theory", "--kmax", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4
        assert main(["moments", "--theory"]) == 0
        after = capsys.readouterr()
        assert after == alone
        assert len(after.out.splitlines()) == 1 + cli._FLAGS["--kmax"]["default"] + 1


def test_help_shows_each_flag_default():
    # the parser holds the defaults, so --help can list them
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    seen = set()
    for sub in subparsers.values():
        # one entry per option: the lines from its flag to the next flag
        entries = re.split(r"\n  (?=-)", sub.format_help())
        for flag, spec in cli._FLAGS.items():
            entry = next((e for e in entries if e.startswith(flag + " ")), None)
            if entry is not None:
                assert " ".join(entry.split()).endswith(f"(default: {spec['default']})"), entry
                seen.add(flag)
    assert seen == set(cli._FLAGS)


class TestSample:
    def test_deterministic_bytes_and_sidecar(self, tmp_path):
        out = tmp_path / "edges.txt"
        args = ["sample", "--n", "10", "--R", "2", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        meta = json.loads((tmp_path / "edges.txt.meta.json").read_text())
        assert meta["command"] == "sample"
        assert meta["stream"] == STREAM == 2
        assert meta["argv"] == args  # what main was given, not the host's sys.argv

    def test_near_empty_for_tiny_amplitude(self, tmp_path):
        out = tmp_path / "edges.txt"
        assert main(["sample", "--n", "10", "--a", "0.01", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) <= 2

    def test_mean_degree_printed(self, capsys):
        assert main(["sample", "--n", "1000", "--R", "31", "--seed", "0"]) == 0
        err = capsys.readouterr().err
        mean_degree = float(err.split("mean_degree=")[1].split()[0])
        phi1 = 0.5 * math.sqrt(math.pi)
        assert abs(mean_degree - phi1) <= 0.1


class TestSpectrum:
    def test_negative_bins_write_nothing(self, tmp_path, monkeypatch, capsys):
        # refused before the spectrum is sampled: no table, histogram or sidecar
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--n", "5", "--hist-bins", "-1"]) == 2
        assert main(["spectrum", "--n", "5", "--hist-bins", "-1", "--out", "spec.csv"]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_csv_and_histogram(self, tmp_path):
        out = tmp_path / "spec.csv"
        args = [
            "spectrum", "--n", "20", "--R", "2", "--seed", "5",
            "--out", str(out), "--hist-bins", "10",
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,lambda"
        assert len(lines) == 42
        hist = (tmp_path / "spec.csv.hist.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_left,bin_right,density"
        assert main(args) == 0
        assert out.read_text().strip().splitlines() == lines  # byte-stable

    def test_histogram_and_semicircle(self, tmp_path):
        # The histogram of one spectrum next to the limiting semicircle density.
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", "--n", "50", "--out", str(out), "--hist-bins", "10",
        ]) == 0
        hist = (tmp_path / "spec.csv.hist.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_left,bin_right,density"
        assert len(hist) == 1 + 10
        meta = json.loads((tmp_path / "spec.csv.hist.csv.meta.json").read_text())
        assert meta["command"] == "spectrum"
        density = tmp_path / "semicircle.csv"
        assert main(["limits", "--what", "density", "--out", str(density)]) == 0
        assert density.read_text().splitlines()[0] == "lambda,density"

    def test_fifteen_digit_output(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "8", "--seed", "2", "--out", str(out)]) == 0
        value = out.read_text().strip().splitlines()[-1].split(",")[1]
        assert value == f"{float(value):.15g}"


class TestMoments:
    def test_theory_table(self, tmp_path):
        out = tmp_path / "theory.csv"
        args = [
            "moments", "--theory", "--v", "1", "--profile", "gauss", "--a", "0.5",
            "--kmax", "3", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,m_k,ell_k,mu_k"
        row1 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(1.0)  # m_1 = v^2
        assert float(row1[2]) == pytest.approx(0.0)  # odd adjacency moment
        assert float(row1[3]) == pytest.approx(1.0)  # mu_1 = v^2

    def test_empirical_table(self, tmp_path):
        out = tmp_path / "emp.csv"
        args = [
            "moments", "--n", "30", "--R", "2", "--trials", "4", "--kmax", "2",
            "--seed", "11", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,mean,stderr,theory_m_k,abs_diff,z_score"
        assert len(lines) == 4

    def test_single_trial_rejected(self, capsys):
        assert main(["moments", "--n", "10", "--trials", "1"]) == 2

    def test_bound_report(self, tmp_path):
        out = tmp_path / "bounds.json"
        args = [
            "moments", "--bounds", "--v", "1", "--profile", "gauss", "--a", "0.5",
            "--kmax", "6", "--out", str(out),
        ]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["adjacency"]["passed"] is True
        assert payload["tree"]["passed"] is True
        assert len(payload["adjacency"]["ratios"]) == 6


class TestConverge:
    def test_gamma_guard(self, capsys):
        assert main(["converge", "--gamma", "1.2", "--n-sweep", "5,10"]) == 2
        assert "o(N)" in capsys.readouterr().err

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "converge", "--n-sweep", "8,16", "--gamma", "0.5", "--trials", "3",
            "--kmax", "2", "--seed", "4", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,R,trials,k,abs_gap,stderr"
        assert len(lines) == 7  # two sizes, k = 0..2

    def test_trial_count_per_size(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "converge", "--n-sweep", "8,16", "--trials", "3,2", "--kmax", "1",
            "--out", str(out),
        ]
        assert main(args) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("17", "3"), ("17", "3"), ("33", "2"), ("33", "2")]
        assert json.loads((tmp_path / "sweep.csv.meta.json").read_text())["command"] == "converge"

    def test_trial_count_mismatch(self, capsys):
        assert main(["converge", "--n-sweep", "8,16,32", "--trials", "3,3"]) == 2
        assert "2 trial counts for 3 sizes" in capsys.readouterr().err


class TestLogdet:
    def test_row_and_sidecar(self, tmp_path):
        out = tmp_path / "logdet.csv"
        args = [
            "logdet", "--n", "20", "--R", "3", "--v", "0.5", "--trials", "3",
            "--seed", "4", "--out", str(out),
        ]
        assert main(args) == 0
        header, line = out.read_text().strip().splitlines()
        assert header == "N,R,v,phi1,trials,logdet_mean,logdet_stderr,limit_integral,gap"
        row = dict(zip(header.split(","), map(float, line.split(","))))
        assert (row["N"], row["trials"]) == (41, 3)
        assert row["limit_integral"] == pytest.approx(limits.log_det_limit(0.5, row["phi1"]), rel=1e-14)
        assert row["gap"] == pytest.approx(row["logdet_mean"] - row["limit_integral"], abs=1e-14)
        assert row["logdet_stderr"] > 0
        # trial t samples trial_seed(seed, n, t), as in `moments`
        profile = Profile.from_name("gauss", 0.5)
        values = [
            log_det_density(sample_spectrum(20, 3.0, profile, 0.5, trial_seed(4, 20, t))[1])
            for t in range(3)
        ]
        assert row["logdet_mean"] == pytest.approx(np.mean(values), rel=1e-14)
        meta = json.loads((tmp_path / "logdet.csv.meta.json").read_text())
        assert (meta["command"], meta["stream"]) == ("logdet", STREAM)

    def test_single_trial_rejected(self, capsys):
        assert main(["logdet", "--n", "10", "--trials", "1"]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("v", ["0", "1e-200"])
    def test_point_mass_limit(self, v, capsys):
        # at v = 0, and at a v whose square underflows, the limit measure is
        # a point mass at 0: mean, stderr, limit and gap all read 0 (not -0)
        assert main(["logdet", "--n", "3", "--v", v, "--trials", "2"]) == 0
        header, line = capsys.readouterr().out.strip().splitlines()
        assert header.endswith("logdet_mean,logdet_stderr,limit_integral,gap")
        assert line.endswith(",0,0,0,0")


class TestZeta:
    def test_triangle_json(self, tmp_path):
        out = tmp_path / "c3.json"
        assert main(["zeta", "--graph", "C3", "--u", "0.1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["coefficients"] == [1, 0, 0, -2, 0, 0, 1]
        assert payload["reciprocal_at_u"] == pytest.approx((1 - 0.1**3) ** 2)

    def test_tree_is_one_at_u_one(self, capsys):
        # a tree's zeta is identically 1, so u = 1 is no pole of the
        # polynomial even though (1 - u^2)^(r-1) has one for r - 1 < 0
        assert main(["zeta", "--graph", "P4", "--u", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["reciprocal_at_u"] == 1.0

    def test_series_check_exit_code(self):
        assert main(["zeta", "--graph", "K4", "--check-order", "8", "--out", ""]) == 0

    @pytest.mark.parametrize("spec", ["P0", "K0", "random:0,0.5,1"])
    def test_empty_graph(self, spec, capsys):
        # a 0 x 0 determinant is 1 and r - 1 = 0: the reciprocal polynomial is 1
        assert main(["zeta", "--graph", spec, "--check-order", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"] == [1] and payload["series_gap"] == "0"

    def test_graph_specs(self, tmp_path):
        for spec in ("P4", "K4", "random:6,0.5,3"):
            assert main(["zeta", "--graph", spec, "--out", str(tmp_path / "g.json")]) == 0

    def test_file_graph(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "z.json"
        assert main(["zeta", "--graph", f"file:{edges}", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["coefficients"] == [1, 0, 0, -2, 0, 0, 1]


class TestLimits:
    def test_fgrid(self, tmp_path):
        out = tmp_path / "f.csv"
        args = [
            "limits", "--what", "fgrid", "--v-min", "-0.5", "--v-max", "0.5",
            "--v-count", "5", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "v,F"
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0

    def test_density(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main([
            "limits", "--what", "density", "--v", "1.0", "--points", "21",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,density"
        assert len(lines) == 22

    def test_stieltjes_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["limits", "--what", "stieltjes", "--v", "1.0", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        for entry in table:
            assert entry["z_im"] * entry["g_im"] >= 0.0


class TestValidate:
    def test_fresh_build_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) >= 10

    def test_import_path_stays_light(self, tmp_path):
        # the quadrature oracles and the series tail check need neither
        # scipy's quadrature stack nor mpmath; a stray import of either puts
        # about 0.2 s and 19 MB back on every command
        script = (
            "import json, sys\n"
            "from zetaspectra.cli import main\n"
            "assert main(['validate', '--out', 'report.json']) == 0\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.special', 'mpmath')\n"
            "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_injected_binomial_fault_is_caught(self, monkeypatch, capsys):
        # perturbing the degenerate row of the extended binomial silently
        # zeroes the first-order walk weight; the enumeration oracle differs
        original = moments.extended_binomial

        def faulty(a, b):
            if (a, b) == (-1, 0):
                return 0
            return original(a, b)

        monkeypatch.setattr(moments, "extended_binomial", faulty)
        assert main(["validate"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "walk-oracle-vs-recurrence" in err

    def test_injected_tailless_fault_is_caught(self, monkeypatch, capsys, tailed_closed_paths):
        # dropping the tailless filter inflates path counts on any graph
        # with a vertex of degree three or more, breaking exactness of the
        # series pairing (cycles alone cannot see this fault)
        monkeypatch.setattr(zeta, "count_closed_paths", tailed_closed_paths)
        assert main(["validate"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "zeta-series-vs-determinant" in err

    def test_wrong_coefficient_fails_the_bridge(self, monkeypatch):
        # the triangle's u^3 coefficient off by one moves its log-density
        # by about 0.2^3 / 3 at u = 0.2; the bridge reads the polynomial, so
        # it no longer agrees with the factorised route
        original = zeta.zeta_reciprocal_polynomial

        def faulty(adj):
            poly = original(adj)
            if (poly.n_vertices, poly.n_edges) != (3, 3):
                return poly
            coefficients = list(poly.coefficients)
            coefficients[3] += 1
            return dataclasses.replace(poly, coefficients=tuple(coefficients))

        assert validate.check_zeta_bridge().passed
        monkeypatch.setattr(zeta, "zeta_reciprocal_polynomial", faulty)
        assert not validate.check_zeta_bridge().passed
