"""Each experiment script runs end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def header(path):
    return path.read_text().splitlines()[0]


def test_convergence_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script(
        "convergence_sweep.py", "--n-sweep", "8,16", "--trials", "3,3", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert header(out) == "N,R,trials,k,abs_gap,stderr"
    assert len(out.read_text().splitlines()) == 1 + 2 * 5  # two sizes, k = 0..4


def test_psi_bridge(tmp_path):
    proc = run_script(
        "psi_bridge.py", "--n", "50", "--trials", "3", "--gauss-points", "2", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "trial-averaged log-det density" in proc.stdout
    assert "moment-rule limit integral" in proc.stdout


def test_spectrum_histogram(tmp_path):
    out = tmp_path / "hist.csv"
    proc = run_script(
        "spectrum_histogram.py", "--n", "50", "--bins", "10", "--out", str(out), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert header(out) == "bin_left,bin_right,density"
    assert len(out.read_text().splitlines()) == 1 + 10
    assert header(tmp_path / "hist.semicircle.csv") == "lambda,density"
