#!/usr/bin/env python3
"""zetaspectra benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc_forest --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Every round of the workload
runs in its own fresh process (perfbench/worker.py), one after the other,
so set-up, caches and peak memory belong to that round alone.  Rounds
repeat until the next one would end after --seconds; at least one runs.
OpenBLAS is pinned to BLAS_THREADS threads (recorded in the report) and
the Monte Carlo harness runs with its default threads=1.

--trace 0 prints the end-to-end metrics: medians over rounds of the timed
region's wall and CPU time and of the round's peak RSS, and the median
set-up time over rounds plus SETUP_PROBES set-up-only processes.  Times
are rescaled to a nominal host speed by reference-kernel reads taken
around them (hostspeed.py); the report keeps the raw times too.
--trace 1 runs each round twice, untraced then traced, and prints the
per-layer metrics of the traced rounds with the tracing overhead.

The last line of standard output is the result object; the line before it
holds the environment fingerprint, the input-property report and the raw
per-round numbers.  Both are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mc_forest", "logdet_giant", "exact")
BLAS_THREADS = 1  # steadier than 2 on a shared 2-core box; see README
SETUP_PROBES = 4
ROUND_TIMEOUT_S = 150.0
LAST_ROUND_START_S = 100.0  # no round starts later than this into the run

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

VALIDATE_CHECKS = [
    "check_binomial_domain", "check_oracle_vs_recurrence", "check_route_equivalence",
    "check_dense_limits", "check_adjacency_limits", "check_dense_moment_quadrature",
    "check_weighted_sum_identity", "check_bound_lemmas", "check_zeta_series",
    "check_zeta_bridge", "check_path_count_conventions", "check_limit_functions",
    "check_mean_degree_sum",
]

PER_LAYER = (
    [
        ("percolation.sample_adjacency.busy_s", "s"),
        ("percolation.build_h.busy_s", "s"),
        ("percolation.dense_bytes", "B.computed"),
        ("spectra.eigenvalue_summary.busy_s", "s"),
        ("spectra.eigenvalue_summary.calls", "count"),
        ("spectra.eigen_n3", "N3.computed"),
        ("spectra.neg_log_zeta_density.busy_s", "s"),
        ("montecarlo.run_trial.self_s", "s"),
    ]
    + [(f"montecarlo.run_trial.p50_s.N{n}", "s") for n in (501, 1001, 2001, 4001)]
    + [
        ("montecarlo.run_ensemble.busy_s", "s"),
        ("montecarlo.convergence_sweep.busy_s", "s"),
        ("moments.tree_weight_table.busy_s", "s"),
        ("moments.tree_weight_table.calls", "count"),
        ("moments.limit_moments.busy_s", "s"),
        ("moments.tree_weight_split.busy_s", "s"),
        ("moments.adjacency_weight_table.busy_s", "s"),
        ("moments.extended_binomial.calls", "count.computed"),
        ("walks.walk_profile.busy_s", "s"),
        ("walks.enumerate_tree_walks.walks", "count.computed"),
        ("zeta.series_consistency.busy_s", "s"),
        ("zeta.count_closed_paths.busy_s", "s"),
        ("zeta.count_closed_paths.calls", "count"),
        ("zeta.zeta_reciprocal_polynomial.busy_s", "s"),
        ("limits.gauss_rule_from_moments.busy_s", "s"),
        ("limits.semicircle_moment.busy_s", "s"),
        ("limits.log_zeta_limit.busy_s", "s"),
    ]
    + [(f"validate.{name}.busy_s", "s") for name in VALIDATE_CHECKS]
    + [(f"cli.{cmd}.{kind}", "s") for cmd in ("validate", "moments", "zeta") for kind in ("busy_s", "self_s")]
    + [
        ("graph.edges", "count"),
        ("graph.components", "count"),
        ("graph.largest_component_share", "ratio"),
        ("bench.round.self_s", "s"),
        ("bench.kernel_read.busy_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.counter_overhead_s", "s"),
        ("trace.unaccounted_s", "s"),
        ("fail_ratio", "ratio"),
    ]
)

ROUND_FIELDS = ("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s", "elapsed_s", "kernel_reads_s", "intervals",
                "peak_rss_mb", "attempted", "failed", "gates")
ACCOUNTING_FLOOR_S = 1e-3  # timer resolution and wrapper bookkeeping of the root span


class BenchError(RuntimeError):
    pass


def _worker_env(tmp_root: Path) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        TMPDIR=str(tmp_root), PYTHONHASHSEED="0",
    )
    return env


def run_worker(spec: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def trace_check(traced: dict, overhead_s: float) -> tuple[bool, float]:
    """Per-layer self times plus the benchmark's gaps must sum to the traced wall.

    Returns (ok, unaccounted seconds); the tolerance is the measured tracing
    overhead, floored at ACCOUNTING_FLOOR_S.
    """
    acc = traced["accounting"]
    unaccounted = traced["elapsed_s"] - acc["self_sum_s"]
    ok = acc["nested"] and abs(unaccounted) <= max(abs(overhead_s), ACCOUNTING_FLOOR_S)
    return ok, unaccounted


def measure(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path, env: dict) -> tuple[dict, dict]:
    run_id = f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    base = {"workload": workload, "seed": seed}

    probes = []
    for i in range(SETUP_PROBES):
        # probe 0 reports the inputs at the benchmark seed, probe 1 at another seed
        probe_seed = seed + 1 if i == 1 else seed
        spec = dict(base, seed=probe_seed, round=0, mode="setup", graph_report=i < 2, fingerprint=i == 0)
        probes.append(run_worker(spec, env))

    rounds, pairs = [], []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        spec = dict(base, round=index, mode="round", traced=False)
        rounds.append(run_worker(spec, env))
        if traced:
            spans_path = str(out_dir / f"spans-{run_id}-r{index}.json")
            spec = dict(spec, traced=True, run_id=run_id, spans_path=spans_path)
            pairs.append((rounds[-1], run_worker(spec, env)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds or elapsed > LAST_ROUND_START_S:
            break

    attempted = sum(r["attempted"] for r in rounds) + sum(t["attempted"] for _, t in pairs)
    failed = sum(r["failed"] for r in rounds) + sum(t["failed"] for _, t in pairs)
    report = {
        "workload": workload, "seed": seed, "run_id": run_id, "trace": int(traced),
        "blas_threads_configured": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "fingerprint": probes[0]["fingerprint"],
        "params": probes[0]["params"],
        "graph": {"seed": probes[0].get("graph"), "other_seed": probes[1].get("graph")},
        "computed_counts": [name for name, unit in PER_LAYER if unit.endswith(".computed")],
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in rounds],
        "setup_raw_s": [p["setup_raw_s"] for p in probes] + [r["setup_raw_s"] for r in rounds],
        "rounds": [{k: r[k] for k in ROUND_FIELDS} for r in rounds],
    }
    imported = os.path.realpath(report["fingerprint"]["zetaspectra_path"])
    if imported != os.path.realpath(ROOT / "src" / "zetaspectra"):
        raise BenchError(f"imported zetaspectra from {imported}, not from the checkout")

    if traced:
        values, accounted = per_layer_values(pairs, probes[0].get("graph") or {}, report)
        values["fail_ratio"] = failed / attempted
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(report["setup_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        accounted = True
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and accounted
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    return result, report


def per_layer_values(pairs: list, graph: dict, report: dict) -> tuple[dict, bool]:
    """Medians over traced rounds of the layer metrics, and the accounting verdict.

    fail_ratio is left to the caller, which holds the operation counts.
    """
    per_pair, accounted = [], True
    for untraced, traced in pairs:
        overhead = traced["wall_s"] - untraced["wall_s"]
        ok, unaccounted = trace_check(traced, overhead)
        accounted = accounted and ok
        calls = traced["layers"].get("moments.extended_binomial.calls", 0)
        per_pair.append(dict(
            traced["layers"],
            **{
                "trace.overhead_s": overhead,
                "trace.counter_overhead_s": calls * traced["counter_overhead_per_call_s"],
                "trace.unaccounted_s": unaccounted,
            },
        ))
        report.setdefault("trace_accounting", []).append(dict(
            traced["accounting"], traced_elapsed_s=traced["elapsed_s"], traced_wall_s=traced["wall_s"],
            untraced_wall_s=untraced["wall_s"], ok=ok,
        ))
    report["missing_targets"] = pairs[0][1].get("missing_targets", [])
    values = {}
    for name, _ in PER_LAYER:
        if name.startswith("graph."):
            values[name] = graph.get(name[len("graph."):], 0)
        elif name != "fail_ratio":
            values[name] = statistics.median(p.get(name, 0) for p in per_pair)
    return values, accounted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zetaspectra" / "__init__.py").is_file():
        print(f"no zetaspectra sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = ROOT / ".perfbench_out"
    tmp_root = out_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    try:
        result, report = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir, _worker_env(tmp_root)
        )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(out_dir / name, "w", encoding="ascii") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
