#!/usr/bin/env python3
"""Reported (not asserted) bridge between the sampled log-determinant term
and its conjectured limit integral.

The trial-averaged (1/N) log det((1 - v^2/phi1) I + H) is compared against
the integral of log(1 - v^2/phi1 + lambda) over the limiting measure.  The
limiting measure is known only through its moments, so the integral is
evaluated with a Gauss rule synthesized from the exact moment recurrences.
Whether the two sides converge to each other is an open question the
simulation can illustrate but not settle; the script prints both numbers
and their gap without judging them.
"""

import argparse
import sys

import numpy as np

from zetaspectra.limits import gauss_rule_from_moments
from zetaspectra.moments import limit_moments
from zetaspectra.percolation import Profile, build_h, sample_adjacency
from zetaspectra.spectra import eigenvalue_summary, log_det_density


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000, help="N = 2n+1 (default 2001)")
    parser.add_argument("--R", type=float, default=40.0)
    parser.add_argument("--v", type=float, default=0.5)
    parser.add_argument("--a", type=float, default=0.5)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--gauss-points", type=int, default=8)
    args = parser.parse_args()

    profile = Profile.from_name("gauss", args.a)
    v, phi1 = args.v, profile.phi1

    values = []
    for t in range(args.trials):
        sample = sample_adjacency(args.n, args.R, profile, args.seed + t)
        h = build_h(sample.entries, sample.degrees(), v, phi1)
        summary = eigenvalue_summary(h, v=v, phi1=phi1)
        values.append(log_det_density(summary))
    values = np.array(values)

    mu = limit_moments(2 * args.gauss_points, v, phi1)
    nodes, weights = gauss_rule_from_moments(mu)
    shift = 1.0 - v * v / phi1
    integral = float(np.sum(weights * np.log(shift + nodes)))

    mean = values.mean()
    stderr = values.std(ddof=1) / np.sqrt(len(values))
    print(f"N={2 * args.n + 1} R={args.R} v={v} phi1={phi1:.6f} trials={args.trials}")
    print(f"trial-averaged log-det density : {mean:.8f} (stderr {stderr:.2e})")
    print(f"moment-rule limit integral     : {integral:.8f} ({args.gauss_points} nodes)")
    print(f"gap                            : {mean - integral:+.8f}")
    print("(descriptive only: convergence of the two sides is conjectural)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
