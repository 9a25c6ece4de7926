"""Tests of the benchmark itself: gates fire on wrong answers, the tracer
accounts for a run, and BENCHMARK.json names what run.py prints.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ------------------------------------------------------------ pure gates


def test_moment_gate():
    theory = [1.0, 0.5, 1.0, 1.5, 3.0]
    sds = [0.0, 0.1, 0.1, 0.2, 0.5]
    near = [t + 2.9 * s for t, s in zip(theory, sds)]
    assert workloads.moments_within_sd(near, sds, theory)
    far = list(near)
    far[3] = theory[3] + 3.1 * sds[3]
    assert not workloads.moments_within_sd(far, sds, theory)
    assert not workloads.moments_within_sd([math.nan] * 5, sds, theory)


def test_prefactor_gate():
    phi1, u = 0.886, 0.3
    target = (phi1 / 2 - 1) * math.log(1 - u * u)
    assert workloads.prefactor_within_sd(target + 0.01, 0.01, phi1, u)
    assert not workloads.prefactor_within_sd(target + 0.04, 0.01, phi1, u)
    assert not workloads.prefactor_within_sd(math.nan, 0.01, phi1, u)


def test_finite_gate():
    assert workloads.all_finite([0.1, -2.0])
    assert not workloads.all_finite([0.1, math.nan])
    assert not workloads.all_finite([math.inf])
    assert not workloads.all_finite([])


def test_cli_verdict_gates():
    assert workloads.validate_passed({"all_passed": True})
    assert not workloads.validate_passed({"all_passed": False})
    assert not workloads.validate_passed({})
    assert workloads.series_exact({"series_gap": "0"})
    assert not workloads.series_exact({"series_gap": "1/6"})
    assert not workloads.series_exact({})


def test_oracle_gate():
    theory = [0.5, 1.25, 3.0]
    assert workloads.oracle_agrees(theory, [x * (1 + 1e-12) for x in theory])
    assert not workloads.oracle_agrees(theory, [x * (1 + 1e-8) for x in theory])
    assert not workloads.oracle_agrees(theory, theory[:2])
    assert not workloads.oracle_agrees([], [])


# ------------------------------------- gates fed wrong answers by the program


class SmallForest(workloads.McForest):
    params = dict(workloads.McForest.params, n=40, radius=4.0, trials=4,
                  sweep_n=[20, 40], sweep_trials=[2, 2])


class SmallGiant(workloads.LogdetGiant):
    params = dict(workloads.LogdetGiant.params, n=40, radius=4.0, trials=3)


def test_forest_raising_trials_fail(monkeypatch):
    from zetaspectra import montecarlo

    def crossing(*args, **kwargs):
        raise ArithmeticError("eigenvalue sum deviates from trace")

    monkeypatch.setattr(montecarlo, "eigenvalue_summary", crossing)
    w = SmallForest()
    out = w.run(w.make_inputs(1, 0, ""))
    assert out.attempted == 4 + 4 + 2 and out.failed == out.attempted
    assert out.gates == {"moments_within_3sd": False, "prefactor_within_3sd": False}


def test_forest_gates_fire_on_wrong_theory_and_prefactor(monkeypatch):
    from zetaspectra import moments, montecarlo

    real_limit, real_prefactor = moments.limit_moments, montecarlo.log_prefactor_density
    monkeypatch.setattr(moments, "limit_moments", lambda k, v, p: [3.0 * x for x in real_limit(k, v, p)])
    monkeypatch.setattr(montecarlo, "log_prefactor_density", lambda d, u: real_prefactor(d, u) + 1.0)
    w = SmallForest()
    out = w.run(w.make_inputs(1, 0, ""))
    assert out.gates == {"moments_within_3sd": False, "prefactor_within_3sd": False}
    assert out.failed == 2


def test_giant_gates_fire_on_nonfinite_logdet_and_integral(monkeypatch):
    from zetaspectra import limits, spectra

    monkeypatch.setattr(spectra, "neg_log_zeta_density", lambda degrees, summary: math.nan)
    monkeypatch.setattr(limits, "gauss_rule_from_moments", lambda mu: (np.array([-5.0]), np.array([1.0])))
    w = SmallGiant()
    out = w.run(w.make_inputs(1, 0, ""))
    assert out.gates == {"logdets_finite": False, "limit_integral_finite": False}
    assert out.failed == 3 + 2


def test_giant_crossing_counts_as_failed_trial(monkeypatch):
    from zetaspectra import spectra

    real = spectra.eigenvalue_summary
    calls = []

    def sometimes_crossing(h, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("log-determinant argument nonpositive (spectral crossing)")
        return real(h, **kwargs)

    monkeypatch.setattr(spectra, "eigenvalue_summary", sometimes_crossing)
    w = SmallGiant()
    out = w.run(w.make_inputs(1, 0, ""))
    assert out.failed == 2  # the crossing trial and the finite-logdet gate
    assert out.gates["logdets_finite"] is False and out.gates["limit_integral_finite"] is True


@pytest.fixture
def small_exact(tmp_path):
    w = workloads.Exact()
    inputs = w.make_inputs(3, 0, str(tmp_path))
    inputs.update(v_values=inputs["v_values"][:1], graph_specs=inputs["graph_specs"][:1],
                  profiles=inputs["profiles"][:1])
    return w, inputs


def test_exact_gates_fire_on_wrong_oracle_and_path_counts(small_exact, monkeypatch):
    from zetaspectra import walks, zeta

    w, inputs = small_exact
    real_oracle, real_counts = walks.oracle_moment, zeta.count_closed_paths
    monkeypatch.setattr(walks, "oracle_moment", lambda k, v, p: real_oracle(k, v, p) * (1 + 1e-6))
    monkeypatch.setattr(zeta, "count_closed_paths", lambda adj, k, tailless=True: real_counts(adj, k) + (k == 4))
    out = w.run(inputs)
    assert out.gates == {"validate_all_passed": False, "oracle_gauss_v0": False, "series_gap_0": False}
    # validate and zeta exit nonzero, plus the three failed gates
    assert out.failed == 5 and out.attempted == 3 + 3


def test_exact_passes_at_head(small_exact):
    w, inputs = small_exact
    out = w.run(inputs)
    assert out.failed == 0 and all(out.gates.values()) and out.attempted == 6


def test_exact_graphs_have_fixed_edge_count():
    from zetaspectra import graphs

    w = workloads.Exact()
    specs = w.make_inputs(5, 2, "")["graph_specs"]
    for spec, n in zip(specs, w.params["graph_sizes"]):
        size, prob, seed = spec[len("random:"):].split(",")
        adj = graphs.random_connected_graph(int(size), float(prob), int(seed))
        assert int(size) == n and adj.sum() // 2 == n + w.params["extra_edges"]


def test_inputs_are_a_function_of_seed_and_round():
    w = workloads.LogdetGiant()
    a, b = w.make_inputs(7, 0, ""), w.make_inputs(7, 0, "")
    assert a["trial_seeds"] == b["trial_seeds"]
    assert a["trial_seeds"] != w.make_inputs(7, 1, "")["trial_seeds"]
    assert a["trial_seeds"] != w.make_inputs(8, 0, "")["trial_seeds"]


# ---------------------------------------------------------------- tracer


def test_layer_metrics_busy_self_and_accounting():
    tracer = tracing.Tracer("t")

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = tracer.span("m.leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_middle = tracer.span("m.middle", middle)
    recursive = tracer.span("m.rec", lambda n: n if n == 0 else recursive(n - 1))

    tracer.run_root(lambda: (wrapped_middle(20000), recursive(3)))
    m = tracer.layer_metrics()
    assert m["m.leaf.calls"] == 2 and m["m.middle.calls"] == 1 and m["m.rec.calls"] == 4
    assert m["m.middle.busy_s"] >= m["m.leaf.busy_s"] > 0
    assert m["m.middle.self_s"] == pytest.approx(m["m.middle.busy_s"] - m["m.leaf.busy_s"], abs=1e-12)
    # nested same-name spans count once in busy_s
    rec = [s for s in tracer.spans if s[0] == "m.rec"]
    assert m["m.rec.busy_s"] == pytest.approx(rec[0][2] - rec[0][1], abs=1e-12)
    acc = tracer.accounting()
    root = tracer.spans[0]
    assert acc["nested"] and acc["self_sum_s"] == pytest.approx(root[2] - root[1], abs=1e-9)


def test_accounting_check_fires_on_escaped_span_and_unaccounted_time():
    tracer = tracing.Tracer("t")
    tracer.spans[:] = [[tracing.ROOT, 0.0, 1.0, -1, None], ["a.f", 0.5, 1.5, 0, None]]
    assert not tracer.accounting()["nested"]

    tracer.spans[:] = [[tracing.ROOT, 0.0, 1.0, -1, None], ["a.f", 0.1, 0.9, 0, None]]
    traced = {"elapsed_s": 1.0, "accounting": tracer.accounting()}
    assert run.trace_check(traced, overhead_s=0.01)[0]
    traced["elapsed_s"] = 1.2  # 0.2 s of the run outside every span
    ok, unaccounted = run.trace_check(traced, overhead_s=0.01)
    assert not ok and unaccounted == pytest.approx(0.2)


def test_round_clock_rescales_each_interval_by_the_readings_around_it():
    readings = iter([0.02, 0.01, 0.04])
    clock = hostspeed.RoundClock("python", reader=lambda kind: next(readings), every=0.0)
    clock.start()
    time.sleep(0.02)
    clock.checkpoint()
    time.sleep(0.03)
    clock.stop()
    (w1, _, b1, a1), (w2, _, b2, a2) = clock.intervals
    assert (b1, a1, b2, a2) == (0.02, 0.01, 0.01, 0.04)
    nominal = hostspeed.NOMINAL_S["python"]
    totals = clock.totals()
    assert totals["wall_raw_s"] == pytest.approx(w1 + w2)
    assert totals["wall_s"] == pytest.approx(w1 * nominal / 0.015 + w2 * nominal / 0.025)
    assert w1 >= 0.02 and w2 >= 0.03


def test_round_clock_waits_for_a_long_enough_interval():
    clock = hostspeed.RoundClock("python", reader=lambda kind: 0.011, every=60.0)
    clock.start()
    clock.checkpoint()
    clock.stop()
    assert len(clock.intervals) == 1


def test_install_wraps_names_bound_at_import():
    # in a child process, so the package stays unwrapped in this one
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import zetaspectra.cli, zetaspectra.montecarlo as mc, tracing
from zetaspectra.percolation import Profile
t = tracing.Tracer("x")
missing = t.install()
t.run_root(lambda: mc.run_ensemble(n=30, radius=3.0, profile=Profile.from_name("gauss", 0.5),
                                   v=1.0, seed=1, trials=2, k_max=4))
print(json.dumps({"missing": missing, "m": t.layer_metrics(), "acc": t.accounting()}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    m = out["m"]
    assert out["missing"] == [] and out["acc"]["nested"]
    assert m["percolation.sample_adjacency.calls"] == 2  # bound into montecarlo at import
    assert m["spectra.eigenvalue_summary.calls"] == 2
    assert m["spectra.eigen_n3"] == 2 * 61**3
    assert m["percolation.dense_bytes"] == 2 * 9 * 61**2
    assert m["montecarlo.run_trial.p50_s.N61"] > 0


# ----------------------------------------------------- contract and layout


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0 and proc.stdout == ""
