"""The three benchmark workloads and the correctness gates on their outputs.

Each workload turns (seed, round index) into inputs, runs one round of
work on them through the package's public functions and returns an
Outcome: operations attempted, operations failed, and the gate verdicts.
A round is the unit the benchmark times; it ends with its checked result.
Workloads call `checkpoint()` between operations, where the round clock
may read its host-speed kernel (see hostspeed.py); `reference` names the
kernel whose speed tracks the workload's dominant kind of work.

The workloads call the package through module attributes at call time
(``montecarlo.run_ensemble``, ``cli.main``, ...) so that the tracer's
wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Gates compare against the limit theory; the 3 per-trial SD rule is the
# acceptance rule of criteria 06 and 07 (the finite-size offset is a fixed
# fraction of one SD, so the rule does not depend on the random stream).
GATE_Z = 3.0
ORACLE_RTOL = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)

    def operation(self, ok: bool, weight: int = 1) -> None:
        """Record `weight` operations that all succeeded or all failed."""
        self.attempted += weight
        if not ok:
            self.failed += weight

    def gate(self, name: str, ok: bool) -> None:
        """A gate is one checked operation; its verdict is kept by name."""
        self.gates[name] = bool(ok)
        self.operation(ok)


# ---------------------------------------------------------------- gates


def moments_within_sd(means, sds, theory, ks=(1, 2, 3, 4), z=GATE_Z) -> bool:
    """Every moment mean lies within z per-trial SD of its limit value."""
    return all(
        math.isfinite(means[k]) and math.isfinite(sds[k]) and abs(means[k] - theory[k]) <= z * sds[k]
        for k in ks
    )


def prefactor_within_sd(mean: float, sd: float, phi1: float, u: float, z=GATE_Z) -> bool:
    """Prefactor mean within z SD of its expectation (phi1/2 - 1) log(1 - u^2)."""
    target = (phi1 / 2.0 - 1.0) * math.log(1.0 - u * u)
    return math.isfinite(mean) and math.isfinite(sd) and abs(mean - target) <= z * sd


def all_finite(values) -> bool:
    values = np.asarray(values, dtype=float)
    return values.size > 0 and bool(np.all(np.isfinite(values)))


def validate_passed(report: dict) -> bool:
    return report.get("all_passed") is True


def series_exact(payload: dict) -> bool:
    return payload.get("series_gap") == "0"


def oracle_agrees(theory, oracle, rtol=ORACLE_RTOL) -> bool:
    """Relative gap between each theory value and its oracle value <= rtol."""
    if len(theory) != len(oracle) or not theory:
        return False
    return all(
        math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
        for a, b in zip(theory, oracle)
    )


# ------------------------------------------------------------- helpers


def _seeds(seed: int, round_index: int, count: int) -> list[int]:
    """Independent 31-bit seeds for one round, a pure function of its key."""
    state = np.random.SeedSequence([seed, round_index]).generate_state(count, dtype=np.uint32)
    return [int(s) >> 1 for s in state]


def component_report(entries) -> dict:
    """Edges, component count and largest-component share of one sample."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = csr_matrix(np.asarray(entries))
    n_vertices = adjacency.shape[0]
    n_components, labels = connected_components(adjacency, directed=False)
    return {
        "N": int(n_vertices),
        "edges": int(adjacency.nnz // 2),
        "components": int(n_components),
        "largest_component_share": float(np.bincount(labels).max() / n_vertices),
    }


def _profile(name: str, amplitude: float):
    from zetaspectra import percolation

    return percolation.Profile.from_name(name, amplitude)


# ----------------------------------------------------------- workloads


class McForest:
    """Acceptance Monte Carlo shape at reduced trial counts, subcritical.

    Gauss a=0.5 gives phi1 ~ 0.886 < 1: the graph is a forest of small
    components, so dense eigvalsh dominates and a component-wise engine
    would do its work here.  The N=4001 point makes H (128 MB) larger
    than the last-level cache.
    """

    name = "mc_forest"
    reference = "blas"
    params = {
        "profile": "gauss", "amplitude": 0.5, "n": 1000, "radius": 40.0, "v": 1.0,
        "trials": 12, "k_max": 4, "prefactor_u": 0.3,
        "sweep_n": [250, 500, 1000, 2000], "sweep_trials": [2, 2, 2, 2],
        "gamma": 0.5, "r_scale": 0.9,
    }

    def make_inputs(self, seed: int, round_index: int, tmpdir: str) -> dict:
        ensemble_seed, sweep_seed = _seeds(seed, round_index, 2)
        return {
            "profile": _profile(self.params["profile"], self.params["amplitude"]),
            "ensemble_seed": ensemble_seed,
            "sweep_seed": sweep_seed,
        }

    def graph_report(self, inputs: dict) -> dict:
        from zetaspectra import percolation

        p = self.params
        sample = percolation.sample_adjacency(p["n"], p["radius"], inputs["profile"], inputs["ensemble_seed"])
        return component_report(sample.entries)

    def run(self, inputs: dict, checkpoint=lambda: None) -> Outcome:
        from zetaspectra import moments, montecarlo

        p, profile, out = self.params, inputs["profile"], Outcome()
        try:
            ens = montecarlo.run_ensemble(
                n=p["n"], radius=p["radius"], profile=profile, v=p["v"],
                seed=inputs["ensemble_seed"], trials=p["trials"], k_max=p["k_max"],
                prefactor_u=p["prefactor_u"],
            )
        except Exception:  # a raising trial loses the whole ensemble
            ens = None
            out.operation(False, p["trials"])
        else:
            rows = np.column_stack([ens.moments, ens.prefactors])
            bad = int(np.sum(~np.all(np.isfinite(rows), axis=1)))
            out.operation(True, p["trials"] - bad)
            out.operation(False, bad)
        checkpoint()
        try:
            points = montecarlo.convergence_sweep(
                n_values=p["sweep_n"], gamma=p["gamma"], profile=profile, v=p["v"],
                seed=inputs["sweep_seed"], trials=list(p["sweep_trials"]),
                k_max=p["k_max"], r_scale=p["r_scale"],
            )
        except Exception:
            out.operation(False, sum(p["sweep_trials"]))
        else:
            for pt in points:
                out.operation(all_finite(pt.gaps + pt.stderrs), pt.trials)

        theory = moments.limit_moments(p["k_max"], p["v"], profile.phi1)
        if ens is None:
            out.gate("moments_within_3sd", False)
            out.gate("prefactor_within_3sd", False)
        else:
            means = [ens.moment_mean(k) for k in range(p["k_max"] + 1)]
            sds = [ens.moment_std(k) if k else 0.0 for k in range(p["k_max"] + 1)]
            out.gate("moments_within_3sd", moments_within_sd(means, sds, theory))
            out.gate(
                "prefactor_within_3sd",
                prefactor_within_sd(
                    float(ens.prefactors.mean()), float(ens.prefactors.std(ddof=1)),
                    profile.phi1, p["prefactor_u"],
                ),
            )
        return out




class LogdetGiant:
    """The log-zeta route of scripts/psi_bridge.py on a supercritical profile.

    Exp a=0.9 gives phi1 = 1.8: about 70% of the vertices sit in one giant
    component, so block splitting buys nothing and the reduction is a
    log-det rather than moments.  v=0.5 keeps every spectrum clear of the
    log-det crossing (at v=1 trials cross).
    """

    name = "logdet_giant"
    reference = "blas"
    params = {
        "profile": "exp", "amplitude": 0.9, "n": 1000, "radius": 40.0, "v": 0.5,
        "trials": 5, "moment_order": 16,
    }

    def make_inputs(self, seed: int, round_index: int, tmpdir: str) -> dict:
        return {
            "profile": _profile(self.params["profile"], self.params["amplitude"]),
            "trial_seeds": _seeds(seed, round_index, self.params["trials"]),
        }

    def graph_report(self, inputs: dict) -> dict:
        from zetaspectra import percolation

        p = self.params
        sample = percolation.sample_adjacency(p["n"], p["radius"], inputs["profile"], inputs["trial_seeds"][0])
        return component_report(sample.entries)

    def run(self, inputs: dict, checkpoint=lambda: None) -> Outcome:
        from zetaspectra import limits, moments, percolation, spectra

        p, profile, out = self.params, inputs["profile"], Outcome()
        v, phi1 = p["v"], profile.phi1
        values = []
        for seed in inputs["trial_seeds"]:
            try:
                sample = percolation.sample_adjacency(p["n"], p["radius"], profile, seed)
                degrees = sample.degrees()
                h = percolation.build_h(sample.entries, degrees, v, phi1)
                summary = spectra.eigenvalue_summary(h, v=v, phi1=phi1)
                value = spectra.neg_log_zeta_density(degrees, summary)
            except Exception:
                out.operation(False)
                continue
            finally:
                checkpoint()
            values.append(value)
            out.operation(math.isfinite(value))
        mu = moments.limit_moments(p["moment_order"], v, phi1)
        nodes, weights = limits.gauss_rule_from_moments(mu)
        shift = 1.0 - v * v / phi1
        with np.errstate(invalid="ignore", divide="ignore"):
            integral = float(np.sum(weights * np.log(shift + nodes)))
        out.gate("logdets_finite", len(values) == len(inputs["trial_seeds"]) and all_finite(values))
        out.gate("limit_integral_finite", math.isfinite(integral))
        return out


class Exact:
    """The exact and theory layers through the CLI, as users call them.

    Each round runs in a fresh process, so `validate` is cold and pays the
    per-process fill of the walk tables.  Random zeta graphs are drawn with
    a fixed edge count (n + extra_edges) because the closed-path count grows
    exponentially with edge density; a fixed count keeps the cost of a
    round independent of the seed.
    """

    name = "exact"
    reference = "python"
    params = {
        "profiles": [["gauss", 0.5], ["exp", 0.9], ["lorentz", 0.5]],
        "v_count": 4, "v_range": [0.3, 1.5], "kmax": 16, "oracle_kmax": 8,
        "graph_sizes": [8, 9, 10, 8, 9, 10, 8, 9, 10, 8, 9, 10],
        "extra_edges": 4, "check_order": 10,
    }

    def make_inputs(self, seed: int, round_index: int, tmpdir: str) -> dict:
        from zetaspectra import graphs

        p = self.params
        rng = np.random.default_rng(_seeds(seed, round_index, 1))
        lo, hi = p["v_range"]
        # the CLI receives v as text; the oracle uses the value it parses
        v_values = [float(f"{v:.6f}") for v in np.sort(rng.uniform(lo, hi, p["v_count"]))]
        specs = []
        for n in p["graph_sizes"]:
            edges = n + p["extra_edges"]
            prob = 2.0 * edges / (n * (n - 1))
            while True:
                s = int(rng.integers(2**31))
                if int(graphs.random_connected_graph(n, prob, s).sum()) // 2 == edges:
                    break
            specs.append(f"random:{n},{prob!r},{s}")
        profiles = [(name, a, _profile(name, a).phi1) for name, a in p["profiles"]]
        return {"v_values": v_values, "graph_specs": specs, "profiles": profiles, "tmpdir": tmpdir}

    def run(self, inputs: dict, checkpoint=lambda: None) -> Outcome:
        from zetaspectra import cli, walks

        p, tmp, out = self.params, inputs["tmpdir"], Outcome()

        def command(argv, path) -> bool:
            try:
                code = cli.main(argv + ["--out", path])
            except (Exception, SystemExit):
                code = None
            out.operation(code == 0)
            checkpoint()
            return code == 0 and os.path.exists(path)

        path = os.path.join(tmp, "validate.json")
        report = _read_json(path) if command(["validate"], path) else {}
        out.gate("validate_all_passed", validate_passed(report))

        for i, (name, amplitude, phi1) in enumerate(inputs["profiles"]):
            for j, v in enumerate(inputs["v_values"]):
                path = os.path.join(tmp, f"moments_{i}_{j}.csv")
                argv = ["moments", "--theory", "--kmax", str(p["kmax"]),
                        "--profile", name, "--a", repr(amplitude), "--v", repr(v)]
                theory = _read_theory(path) if command(argv, path) else []
                theory = theory[1 : p["oracle_kmax"] + 1]
                ks = range(1, len(theory) + 1)
                oracle = [walks.oracle_moment(k, v, phi1) for k in ks]
                by_exits = [
                    sum(walks.oracle_tree_weight(k, r, v, phi1) for r in range(1, k + 1)) for k in ks
                ]
                out.gate(
                    f"oracle_{name}_v{j}",
                    len(theory) == p["oracle_kmax"]
                    and oracle_agrees(theory, oracle)
                    and oracle_agrees(theory, by_exits),
                )
                checkpoint()

        for i, spec in enumerate(inputs["graph_specs"]):
            path = os.path.join(tmp, f"zeta_{i}.json")
            argv = ["zeta", "--graph", spec, "--check-order", str(p["check_order"])]
            payload = _read_json(path) if command(argv, path) else {}
            out.gate(f"series_gap_{i}", series_exact(payload))
        return out


def _read_json(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read_theory(path: str) -> list[float]:
    """The m_k column of a `moments --theory` CSV, indexed by k."""
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(row["m_k"]) for row in rows]


WORKLOADS = {w.name: w for w in (McForest(), LogdetGiant(), Exact())}
