#!/usr/bin/env python3
"""Empirical spectral density of one large sample against the dense-limit
semicircle, written as plot-ready CSV files."""

import argparse
import sys

import numpy as np

from zetaspectra.limits import semicircle_density, semicircle_support
from zetaspectra.percolation import Profile, build_h, sample_adjacency
from zetaspectra.spectra import eigenvalue_summary, histogram_density


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--R", type=float, default=40.0)
    parser.add_argument("--v", type=float, default=1.0)
    parser.add_argument("--a", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=80)
    parser.add_argument("--out", default="spectrum_histogram.csv")
    args = parser.parse_args()

    profile = Profile.from_name("gauss", args.a)
    sample = sample_adjacency(args.n, args.R, profile, args.seed)
    h = build_h(sample.entries, sample.degrees(), args.v, profile.phi1)
    summary = eigenvalue_summary(h, v=args.v, phi1=profile.phi1)

    left, right, density = histogram_density(summary, bins=args.bins)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("bin_left,bin_right,density\n")
        for l, r, d in zip(left, right, density):
            fh.write(f"{l:.15g},{r:.15g},{d:.15g}\n")

    lo, hi = semicircle_support(args.v)
    grid = np.linspace(lo, hi, 400)
    ref_path = args.out.replace(".csv", "") + ".semicircle.csv"
    with open(ref_path, "w", encoding="ascii") as fh:
        fh.write("lambda,density\n")
        for x in grid:
            fh.write(f"{x:.15g},{semicircle_density(float(x), args.v):.15g}\n")

    print(f"wrote {args.out} and {ref_path}")
    print(f"spectrum range [{summary.eigenvalues[0]:.4f}, {summary.eigenvalues[-1]:.4f}], "
          f"semicircle support [{lo:.4f}, {hi:.4f}] (dense-degree reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
