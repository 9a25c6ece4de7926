"""Command-line front end: sampling, spectra, moments, zeta, limits, validate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import graphs, limits, moments, percolation, spectra, zeta
from .montecarlo import convergence_sweep, moment_comparison, run_ensemble
from .validate import run_validation

__all__ = ["main", "ExperimentConfig", "load_config", "save_config"]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.15g}"


@dataclasses.dataclass
class ExperimentConfig:
    n: int = 50
    radius: float = 4.0
    profile: str = "gauss"
    amplitude: float = 0.5
    v: float = 1.0
    seed: int = 0
    trials: int = 2
    k_max: int = 4
    out: str = ""
    fmt: str = "csv"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.radius < 1.0:
            raise ValueError("R must be >= 1")
        if not 0.0 < self.amplitude < 1.0:
            raise ValueError("amplitude must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def make_profile(self) -> percolation.Profile:
        return percolation.Profile.from_name(self.profile, self.amplitude)


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(config, f.name)
            fh.write(f"{f.name}={_fmt(value) if isinstance(value, float) else value}\n")


def _read_config(path) -> dict:
    """The typed key=value pairs a config file sets, unvalidated."""
    items = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            caster = {"int": int, "float": float, "str": str}[_CONFIG_FIELDS[key]]
            items[key] = caster(raw)
    return items


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig(**_read_config(path))


def _write_sidecar(out_path: str, args: argparse.Namespace) -> None:
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "argv": [a for a in sys.argv[1:]],
        "command": args.command,
    }
    with open(out_path + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def _emit(text: str, out: str, args) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        _write_sidecar(out, args)
    else:
        sys.stdout.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file; flags override")
    parser.add_argument("--n", type=int, default=None, help="half-width; N = 2n+1 vertices")
    parser.add_argument("--R", dest="radius", type=float, default=None, help="interaction radius >= 1")
    parser.add_argument("--profile", choices=["exp", "gauss", "lorentz"], default=None)
    parser.add_argument("--a", dest="amplitude", type=float, default=None, help="profile amplitude in (0,1)")
    parser.add_argument("--v", type=float, default=None, help="spectral parameter")
    parser.add_argument("--seed", type=int, default=None, help="base seed (env ZS_SEED as fallback)")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--kmax", dest="k_max", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (stdout if omitted)")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
    parser.add_argument("--threads", type=int, default=1)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # precedence: flags > config file > ZS_SEED > defaults
    base = dataclasses.asdict(ExperimentConfig())
    if os.environ.get("ZS_SEED"):
        base["seed"] = int(os.environ["ZS_SEED"])
    if args.config:
        base.update(_read_config(args.config))
    for key in base:
        value = getattr(args, key, None)
        if value is not None:
            base[key] = value
    return ExperimentConfig(**base)


def _cmd_sample(args) -> int:
    cfg = _resolve_config(args)
    sample = percolation.sample_adjacency(cfg.n, cfg.radius, cfg.make_profile(), cfg.seed)
    if getattr(args, "dense", False):
        text = "\n".join(",".join(str(int(x)) for x in row) for row in sample.entries) + "\n"
    else:
        text = percolation.format_edge_list(sample)
    _emit(text, cfg.out, args)
    print(f"edges={sample.edge_count()} mean_degree={_fmt(sample.mean_degree())}", file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _resolve_config(args)
    profile = cfg.make_profile()
    sample = percolation.sample_adjacency(cfg.n, cfg.radius, profile, cfg.seed)
    h = percolation.build_h(sample.entries, sample.degrees(), cfg.v, profile.phi1)
    summary = spectra.eigenvalue_summary(
        h, v=cfg.v, phi1=profile.phi1, n=cfg.n, radius=cfg.radius, seed=cfg.seed
    )
    if cfg.fmt == "json":
        text = json.dumps({"eigenvalues": [float(x) for x in summary.eigenvalues]}) + "\n"
    else:
        text = _csv(enumerate(summary.eigenvalues), ["index", "lambda"])
    _emit(text, cfg.out, args)
    if args.hist_bins:
        left, right, dens = spectra.histogram_density(summary, bins=args.hist_bins)
        hist_text = _csv(zip(left, right, dens), ["bin_left", "bin_right", "density"])
        hist_path = (cfg.out or "spectrum") + ".hist.csv"
        with open(hist_path, "w", encoding="ascii") as fh:
            fh.write(hist_text)
    if args.plot_script:
        with open(args.plot_script, "w", encoding="ascii") as fh:
            fh.write(_PLOT_STUB.format(data=cfg.out or "spectrum.csv"))
    return 0


_PLOT_STUB = """\
import matplotlib.pyplot as plt
import numpy as np

data = np.loadtxt({data!r}, delimiter=",", skiprows=1)
plt.hist(data[:, 1], bins=60, density=True)
plt.xlabel("eigenvalue")
plt.ylabel("density")
plt.show()
"""


def _cmd_moments(args) -> int:
    cfg = _resolve_config(args)
    profile = cfg.make_profile()
    if args.bounds:
        phi1 = profile.phi1
        c_tree = moments.admissible_constant(cfg.v, phi1)
        payload = {
            "v": cfg.v,
            "phi1": phi1,
            "adjacency": moments.adjacency_bound_report(
                cfg.k_max, max(1.0, 1.0 / phi1), cfg.v, phi1
            ).as_dict(),
            "tree": moments.tree_bound_report(cfg.k_max, c_tree, cfg.v, phi1).as_dict(),
        }
        _emit(json.dumps(payload, indent=1) + "\n", cfg.out, args)
        return 0
    if args.theory:
        rows = list(
            zip(
                range(cfg.k_max + 1),
                moments.limit_moments(cfg.k_max, cfg.v, profile.phi1),
                moments.adjacency_moments(cfg.k_max, cfg.v, profile.phi1),
                moments.dense_moments(cfg.k_max, cfg.v),
            )
        )
        if cfg.fmt == "json":
            text = json.dumps(
                [dict(zip(("k", "m_k", "ell_k", "mu_k"), row)) for row in rows]
            ) + "\n"
        else:
            text = _csv(rows, ["k", "m_k", "ell_k", "mu_k"])
        _emit(text, cfg.out, args)
        return 0
    if cfg.trials < 2:
        print("empirical moments need --trials >= 2", file=sys.stderr)
        return 2
    result = run_ensemble(
        cfg.n, cfg.radius, profile, cfg.v, cfg.seed, cfg.trials, cfg.k_max,
        threads=args.threads,
    )
    rows = [
        (r.k, r.mean, r.stderr, r.theory, r.abs_diff, r.z_score)
        for r in moment_comparison(result)
    ]
    header = ["k", "mean", "stderr", "theory_m_k", "abs_diff", "z_score"]
    if cfg.fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows]) + "\n"
    else:
        text = _csv(rows, header)
    _emit(text, cfg.out, args)
    return 0


def _cmd_converge(args) -> int:
    cfg = _resolve_config(args)
    if args.gamma >= 1.0:
        print("violates R = o(N): need gamma < 1", file=sys.stderr)
        return 2
    n_values = [int(x) for x in args.n_sweep.split(",")]
    points = convergence_sweep(
        n_values,
        args.gamma,
        cfg.make_profile(),
        cfg.v,
        cfg.seed,
        cfg.trials,
        k_max=cfg.k_max,
        r_scale=args.r_scale,
        threads=args.threads,
    )
    rows = []
    for pt in points:
        for k in range(0, cfg.k_max + 1):
            rows.append((pt.n_vertices, pt.radius, pt.trials, k, pt.gaps[k], pt.stderrs[k]))
    header = ["N", "R", "trials", "k", "abs_gap", "stderr"]
    if cfg.fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows]) + "\n"
    else:
        text = _csv(rows, header)
    _emit(text, cfg.out, args)
    return 0


def _parse_graph(spec: str) -> np.ndarray:
    if spec.startswith("file:"):
        return graphs.read_edge_list(spec[5:])
    if spec.startswith("random:"):
        n, p, seed = spec[7:].split(",")
        return graphs.random_connected_graph(int(n), float(p), int(seed))
    kind, num = spec[0].upper(), spec[1:]
    if kind == "P":
        return graphs.path_graph(int(num))
    if kind == "C":
        return graphs.cycle_graph(int(num))
    if kind == "K":
        return graphs.complete_graph(int(num))
    raise ValueError(f"cannot parse graph spec {spec!r}")


def _cmd_zeta(args) -> int:
    cfg = _resolve_config(args)
    adj = _parse_graph(args.graph)
    poly = zeta.zeta_reciprocal_polynomial(adj)
    payload = {
        "coefficients": poly.as_list(),
        "n_vertices": poly.n_vertices,
        "n_edges": poly.n_edges,
        "rank_term": poly.rank_term,
    }
    if args.u is not None:
        payload["u"] = args.u
        payload["reciprocal_at_u"] = zeta.ihara_det_reciprocal(adj, args.u)
    if args.check_order:
        gap = zeta.series_consistency(adj, args.check_order)
        payload["series_gap"] = str(gap)
        if gap != 0:
            _emit(json.dumps(payload, indent=1) + "\n", cfg.out, args)
            return 1
    _emit(json.dumps(payload, indent=1) + "\n", cfg.out, args)
    return 0


def _cmd_limits(args) -> int:
    cfg = _resolve_config(args)
    if args.what == "fgrid":
        grid = np.linspace(args.v_min, args.v_max, args.v_count)
        rows = [(v, limits.log_zeta_limit(float(v))) for v in grid]
        text = _csv(rows, ["v", "F"])
    elif args.what == "density":
        lo, hi = limits.semicircle_support(cfg.v)
        grid = np.linspace(lo, hi, args.points)
        rows = [(x, limits.semicircle_density(float(x), cfg.v)) for x in grid]
        text = _csv(rows, ["lambda", "density"])
    else:
        table = []
        for z_im in (0.5, 1.0, 2.0):
            for z_re in np.linspace(-4.0, 4.0, 17):
                g = limits.stieltjes_transform(complex(z_re, z_im), cfg.v)
                table.append(
                    {"z_re": z_re, "z_im": z_im, "g_re": g.real, "g_im": g.imag}
                )
        text = json.dumps(table) + "\n"
    _emit(text, cfg.out, args)
    return 0


def _cmd_validate(args) -> int:
    report = run_validation()
    text = json.dumps(report, indent=1) + "\n"
    _emit(text, getattr(args, "out", None) or "", args)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}: {check['name']} ({check['detail']})", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaspectra",
        description="Random-matrix spectra from the zeta determinant formula "
        "on long-range percolation graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw an adjacency matrix and write its edge list")
    _add_common(p)
    p.add_argument("--dense", action="store_true", help="write the dense 0/1 CSV instead")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="eigenvalues of one sampled matrix")
    _add_common(p)
    p.add_argument("--hist-bins", type=int, default=0)
    p.add_argument("--plot-script", default="", help="also write a plotting stub here")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("moments", help="empirical vs limiting moments")
    _add_common(p)
    p.add_argument("--theory", action="store_true", help="theory table only, no sampling")
    p.add_argument("--bounds", action="store_true", help="JSON bound report up to --kmax")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("converge", help="moment gaps along a size sweep")
    _add_common(p)
    p.add_argument("--n-sweep", default="250,500,1000", help="comma-separated n values")
    p.add_argument("--gamma", type=float, default=0.5, help="R = ceil(r_scale * N^gamma)")
    p.add_argument("--r-scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("zeta", help="exact reciprocal zeta polynomial of a small graph")
    _add_common(p)
    p.add_argument("--graph", required=True, help="P5, C3, K4, random:n,p,seed or file:PATH")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--check-order", type=int, default=0)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("limits", help="limit-law tables for plotting")
    _add_common(p)
    p.add_argument("--what", choices=["fgrid", "density", "stieltjes"], default="fgrid")
    p.add_argument("--v-min", type=float, default=-2.0)
    p.add_argument("--v-max", type=float, default=2.0)
    p.add_argument("--v-count", type=int, default=41)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("validate", help="run the cross-module validation suite")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
