"""Command-line front end: sampling, spectra, moments, log-det, zeta, limits, validate."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

# Only the numpy layers load with the CLI: the handlers that sample H or
# factor it import montecarlo and spectra, and with them scipy, when they run.
from . import graphs, limits, moments, percolation, validate, zeta

__all__ = ["main"]


def _fmt(x) -> str:
    """One table cell: an integer as is, a float to 15 significant digits;
    a NaN, an infinity or a subnormal value (which has lost digits to
    underflow) is refused, not written."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"the output holds a value CSV cannot carry ({value})")
    if 0.0 < abs(value) < sys.float_info.min:
        raise ValueError(f"the output holds a subnormal value ({value:.15g}), short of 15 digits")
    return f"{value:.15g}"


def _json(payload, indent=None) -> str:
    """payload as strict JSON: a NaN or an infinity is refused, not written."""
    try:
        return json.dumps(payload, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"the output holds a value JSON cannot carry ({exc})") from None


def _write_sidecar(out_path: str, args: argparse.Namespace) -> None:
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "argv": args.argv,
        "command": args.command,
        "stream": percolation.STREAM,
    }
    with open(out_path + ".meta.json", "w", encoding="ascii") as fh:
        fh.write(_json(meta, indent=1))


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


# Experiment flags and their defaults; each subcommand takes only the ones its
# handler reads.
_FLAGS = {
    "--n": dict(type=int, default=50, help="half-width; N = 2n+1 vertices"),
    "--R": dict(dest="radius", type=float, default=4.0, help="interaction radius >= 1"),
    "--profile": dict(choices=percolation.FAMILIES, default="gauss", help="profile family"),
    "--a": dict(dest="amplitude", type=float, default=0.5, help="profile amplitude in (0,1)"),
    "--v": dict(type=float, default=1.0, help="spectral parameter"),
    "--seed": dict(type=int, default=0, help="base seed"),
    "--trials": dict(type=int, default=2, help="number of trials, >= 2"),
    "--kmax": dict(dest="k_max", type=int, default=4, help="highest moment order"),
    "--out": dict(default="", help="output path; stdout if empty"),
}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _add_flags(parser: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        parser.add_argument(flag, **_FLAGS[flag])


def _cmd_sample(args) -> int:
    profile = percolation.Profile.from_name(args.profile, args.amplitude)
    sample = percolation.sample_adjacency(args.n, args.radius, profile, args.seed)
    _emit(percolation.format_edge_list(sample), args.out, args)
    print(f"edges={sample.edge_count()} mean_degree={_fmt(sample.mean_degree())}", file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    if args.hist_bins < 0:
        raise ValueError(f"--hist-bins must be >= 0 (0 writes no histogram), got {args.hist_bins}")
    from . import montecarlo

    profile = percolation.Profile.from_name(args.profile, args.amplitude)
    _, summary = montecarlo.sample_spectrum(args.n, args.radius, profile, args.v, args.seed)
    _emit(_csv(enumerate(summary.eigenvalues), ["index", "lambda"]), args.out, args)
    if args.hist_bins:
        dens, edges = np.histogram(summary.eigenvalues, bins=args.hist_bins, density=True)
        hist_text = _csv(zip(edges[:-1], edges[1:], dens), ["bin_left", "bin_right", "density"])
        _emit(hist_text, (args.out or "spectrum") + ".hist.csv", args)
    return 0


def _cmd_moments(args) -> int:
    profile = percolation.Profile.from_name(args.profile, args.amplitude)
    v, phi1, k_max = args.v, profile.phi1, args.k_max
    if args.bounds:
        # the tree report first: its order check names k_max
        tree = asdict(moments.tree_bound_report(k_max, v, phi1))
        payload = {
            "v": v,
            "phi1": phi1,
            "adjacency": asdict(moments.adjacency_bound_report(k_max, v, phi1)),
            "tree": tree,
        }
        _emit(_json(payload, indent=1), args.out, args)
        return 0
    if args.theory:
        rows = zip(
            range(k_max + 1),
            moments.limit_moments(k_max, v, phi1),
            moments.adjacency_moments(k_max, v, phi1),
            moments.dense_moments(k_max, v),
        )
        _emit(_csv(rows, ["k", "m_k", "ell_k", "mu_k"]), args.out, args)
        return 0
    from . import montecarlo

    result = montecarlo.run_ensemble(args.n, args.radius, profile, v, args.seed, args.trials, k_max)
    rows = [
        (r.k, r.mean, r.stderr, r.theory, r.abs_diff, r.z_score)
        for r in montecarlo.moment_comparison(result)
    ]
    header = ["k", "mean", "stderr", "theory_m_k", "abs_diff", "z_score"]
    _emit(_csv(rows, header), args.out, args)
    return 0


def _cmd_converge(args) -> int:
    from . import montecarlo

    trials = args.trials
    if len(trials) == 1:
        trials = trials * len(args.n_sweep)
    points = montecarlo.convergence_sweep(
        args.n_sweep,
        args.gamma,
        percolation.Profile.from_name(args.profile, args.amplitude),
        args.v,
        args.seed,
        trials,
        k_max=args.k_max,
        r_scale=args.r_scale,
    )
    rows = []
    for pt in points:
        for k in range(0, args.k_max + 1):
            rows.append((pt.n_vertices, pt.radius, pt.trials, k, pt.gaps[k], pt.stderrs[k]))
    header = ["N", "R", "trials", "k", "abs_gap", "stderr"]
    _emit(_csv(rows, header), args.out, args)
    return 0


def _cmd_logdet(args) -> int:
    from . import montecarlo, spectra

    n, trials = args.n, args.trials
    if trials < 2:
        raise ValueError("the log-det mean needs --trials >= 2")
    profile = percolation.Profile.from_name(args.profile, args.amplitude)
    v, phi1 = args.v, profile.phi1
    limit = limits.log_det_limit(v, phi1)
    seeds = (montecarlo.trial_seed(args.seed, n, t) for t in range(trials))
    values = np.array([
        spectra.log_det_density(montecarlo.sample_spectrum(n, args.radius, profile, v, seed)[1])
        for seed in seeds
    ])
    mean = values.mean()
    stderr = values.std(ddof=1) / np.sqrt(trials)
    row = (2 * n + 1, args.radius, v, phi1, trials, mean, stderr, limit, mean - limit)
    header = ["N", "R", "v", "phi1", "trials", "logdet_mean", "logdet_stderr",
              "limit_integral", "gap"]
    _emit(_csv([row], header), args.out, args)
    return 0


def _parse_graph(spec: str):
    """The vertex count of a graph spec and a call that builds its adjacency.
    Nothing n x n is built here, so a spec beyond the budget can be refused
    first."""
    if spec.startswith("file:"):
        n, edges = graphs.read_edge_list(spec[5:])
        return n, lambda: graphs.from_edges(n, edges)
    try:
        if spec.startswith("random:"):
            n, p, seed = spec[7:].split(",")
            build, rest = graphs.random_connected_graph, (float(p), int(seed))
        else:
            kinds = {"P": graphs.path_graph, "C": graphs.cycle_graph, "K": graphs.complete_graph}
            build, n, rest = kinds[spec[:1].upper()], spec[1:], ()
        n = int(n)
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse graph spec {spec!r}") from None
    if n < 0:
        raise ValueError(f"graph spec {spec!r} has a negative vertex count")
    return n, lambda: build(n, *rest)


def _cmd_zeta(args) -> int:
    if args.u is not None and not math.isfinite(args.u):
        raise ValueError(f"--u must be finite, got {args.u}")
    n, build = _parse_graph(args.graph)
    zeta._check_vertex_count(n)  # refuse before the n x n array exists
    adj = build()
    if args.check_order:
        zeta._check_path_budget(adj, args.check_order)  # refuse before the polynomial
    poly = zeta.zeta_reciprocal_polynomial(adj)
    payload = {
        "coefficients": list(poly.coefficients),
        "n_vertices": poly.n_vertices,
        "n_edges": poly.n_edges,
        "rank_term": poly.rank_term,
    }
    if args.u is not None:
        value = poly(args.u)
        if not math.isfinite(value):
            raise ValueError(f"--u {args.u!r}: the reciprocal zeta overflows a float ({value})")
        payload["u"] = args.u
        payload["reciprocal_at_u"] = value
    gap = 0
    if args.check_order:
        gap = zeta.series_consistency(adj, poly, args.check_order)
        payload["series_gap"] = str(gap)
    _emit(_json(payload, indent=1), args.out, args)
    return 1 if gap else 0


def _cmd_limits(args) -> int:
    if args.what == "fgrid":
        grid = np.linspace(args.v_min, args.v_max, args.v_count)
        rows = [(v, limits.log_zeta_limit(float(v))) for v in grid]
        text = _csv(rows, ["v", "F"])
    elif args.what == "density":
        lo, hi = limits.semicircle_support(args.v)
        grid = np.linspace(lo, hi, args.points)
        rows = [(x, limits.semicircle_density(float(x), args.v)) for x in grid]
        text = _csv(rows, ["lambda", "density"])
    else:
        rows = []
        for z_im in (0.5, 1.0, 2.0):
            for z_re in np.linspace(-4.0, 4.0, 17):
                g = limits.stieltjes_transform(complex(z_re, z_im), args.v)
                rows.append((z_re, z_im, g.real, g.imag))
        text = _json([dict(zip(["z_re", "z_im", "g_re", "g_im"], row)) for row in rows])
    _emit(text, args.out, args)
    return 0


def _cmd_validate(args) -> int:
    report = validate.run_validation()
    _emit(_json(report, indent=1), args.out, args)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}: {check['name']} ({check['detail']})", file=sys.stderr)
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it is a pure function of this
    module, and parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="zetaspectra",
        description="Random-matrix spectra from the zeta determinant formula "
        "on long-range percolation graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags) -> argparse.ArgumentParser:
        # allow_abbrev=False: a flag the subcommand lacks must not resolve to
        # a longer one it has (`converge --n` is not `--n-sweep`)
        p = sub.add_parser(name, help=summary, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        _add_flags(p, flags)
        p.set_defaults(func=func)
        return p

    command("sample", _cmd_sample, "draw an adjacency matrix and write its edge list",
            "--n --R --profile --a --seed --out")

    p = command("spectrum", _cmd_spectrum, "eigenvalues of one sampled matrix",
                "--n --R --profile --a --v --seed --out")
    p.add_argument("--hist-bins", type=int, default=0, help="histogram bins (0: no histogram)")

    p = command("moments", _cmd_moments, "empirical vs limiting moments",
                "--n --R --profile --a --v --seed --trials --kmax --out")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--theory", action="store_true", help="theory table only, no sampling")
    mode.add_argument("--bounds", action="store_true", help="JSON bound report up to --kmax")

    p = command("converge", _cmd_converge, "moment gaps along a size sweep",
                "--profile --a --v --seed --kmax --out")
    p.add_argument("--n-sweep", type=_int_list, default="250,500,1000",
                   help="comma-separated n values")
    # a string default: argparse converts it on each parse, so no call shares a list
    p.add_argument("--trials", type=_int_list, default="2",
                   help="trials per size: one count, or one per --n-sweep entry")
    p.add_argument("--gamma", type=float, default=0.5, help="R = ceil(r_scale * N^gamma)")
    p.add_argument("--r-scale", type=float, default=1.0, help="radius prefactor r_scale > 0")

    command("logdet", _cmd_logdet, "trial-mean log-det density against its closed-form limit",
            "--n --R --profile --a --v --seed --trials --out")

    p = command("zeta", _cmd_zeta, "exact reciprocal zeta polynomial of a small graph", "--out")
    p.add_argument("--graph", required=True, help="P5, C3, K4, random:n,p,seed or file:PATH")
    p.add_argument("--u", type=float, default=None, help="point at which to evaluate the polynomial")
    p.add_argument("--check-order", type=int, default=0,
                   help="check the path-count series up to this order (0: no check)")

    p = command("limits", _cmd_limits, "limit-law tables for plotting", "--v --out")
    p.add_argument("--what", choices=["fgrid", "density", "stieltjes"], default="fgrid",
                   help="table to write")
    p.add_argument("--v-min", type=float, default=-2.0, help="left end of the fgrid v grid")
    p.add_argument("--v-max", type=float, default=2.0, help="right end of the fgrid v grid")
    p.add_argument("--v-count", type=int, default=41, help="points on the fgrid v grid")
    p.add_argument("--points", type=int, default=101, help="points on the density grid")

    command("validate", _cmd_validate, "run the cross-module validation suite", "--out")
    return parser


# Flags a mode of a subcommand does not read: (command, dest, value) -> flags.
_UNREAD_IN_MODE = {
    ("moments", "theory", True): "--n --R --seed --trials",
    ("moments", "bounds", True): "--n --R --seed --trials",
    ("limits", "what", "fgrid"): "--v --points",
    ("limits", "what", "density"): "--v-min --v-max --v-count",
    ("limits", "what", "stieltjes"): "--points --v-min --v-max --v-count",
}


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, refusing a flag that the selected mode does not read."""
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {token.partition("=")[0] for token in argv}
    for (command, dest, value), flags in _UNREAD_IN_MODE.items():
        unread = [f for f in flags.split() if f in given]
        if args.command == command and getattr(args, dest) == value and unread:
            mode = f"--{dest}" if value is True else f"--{dest} {value}"
            parser.error(f"{command} {mode} does not read {', '.join(unread)}")
    return args


def main(argv=None) -> int:
    """Run one subcommand; a value it refuses, or a file it cannot read or
    write, exits 2 with the reason on stderr."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"zetaspectra {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
