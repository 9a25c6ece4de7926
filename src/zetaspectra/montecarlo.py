"""Seeded Monte Carlo harness over the percolation ensemble.

Trial t of an experiment at half-width n draws from its own stream,
`trial_seed(seed, n, t)` = SeedSequence(seed, spawn_key=(n, t)): the base
seed names the experiment, so ensembles with different base seeds, and the
sizes of one sweep, share no trial graph.  Trials are pure functions of
(n, radius, profile, v, seed, t), so runs are reproducible, and results are
reduced in trial-index order.  The stream version that covers this keying
and the sampler's draw order is `percolation.STREAM`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import limit_moments
from .percolation import Profile, build_h, sample_adjacency
from .spectra import (
    SpectralSummary,
    eigenvalue_summary,
    log_prefactor_density,
    trace_moments,
)

__all__ = [
    "trial_seed",
    "EnsembleResult",
    "sample_spectrum",
    "run_trial",
    "run_ensemble",
    "ComparisonRow",
    "moment_comparison",
    "SweepPoint",
    "convergence_sweep",
]


def trial_seed(seed: int, n: int, t: int) -> np.random.SeedSequence:
    """The seed of trial t of the experiment named by `seed` at half-width n."""
    return np.random.SeedSequence(seed, spawn_key=(n, t))


@dataclass
class EnsembleResult:
    """Per-trial spectral moments (rows) and log-prefactor densities."""

    profile: Profile
    v: float
    k_max: int
    moments: np.ndarray = field(repr=False)  # (trials, k_max + 1)
    prefactor_u: float = 0.3
    prefactors: np.ndarray = field(repr=False, default=None)  # (trials,)

    @property
    def trials(self) -> int:
        return self.moments.shape[0]

    def moment_mean(self, k: int) -> float:
        return float(self.moments[:, k].mean())

    def moment_std(self, k: int) -> float:
        return float(self.moments[:, k].std(ddof=1))

    def moment_stderr(self, k: int) -> float:
        return self.moment_std(k) / math.sqrt(self.trials)


def sample_spectrum(
    n: int, radius: float, profile: Profile, v: float, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, SpectralSummary]:
    """One seeded draw: its degree vector and the checked summary of its H."""
    sample = sample_adjacency(n, radius, profile, seed)
    degrees = sample.degrees()
    h = build_h(sample.adjacency(), degrees, v, profile.phi1)
    return degrees, eigenvalue_summary(h, v=v, phi1=profile.phi1)


def run_trial(
    n: int,
    radius: float,
    profile: Profile,
    v: float,
    seed: int | np.random.SeedSequence,
    k_max: int,
    prefactor_u: float = 0.3,
):
    """One seeded draw: spectral moments 0..k_max and the log-prefactor density.

    The moments (1/N) tr H^k come from sparse powers of H (`trace_moments`);
    no trial solves its spectrum.
    """
    degrees, summary = sample_spectrum(n, radius, profile, v, seed)
    return trace_moments(summary, k_max), log_prefactor_density(degrees, prefactor_u)


def run_ensemble(
    n: int,
    radius: float,
    profile: Profile,
    v: float,
    seed: int,
    trials: int,
    k_max: int,
    prefactor_u: float = 0.3,
) -> EnsembleResult:
    """Independent trials, trial t seeded by trial_seed(seed, n, t).

    Every reader of the result takes a ddof=1 standard deviation, so at
    least two trials are needed.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a standard error, got {trials}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    moments = np.empty((trials, k_max + 1))
    prefactors = np.empty(trials)
    for t in range(trials):
        moments[t], prefactors[t] = run_trial(
            n, radius, profile, v, trial_seed(seed, n, t), k_max, prefactor_u=prefactor_u
        )
    return EnsembleResult(
        profile=profile, v=v, k_max=k_max,
        moments=moments, prefactor_u=prefactor_u, prefactors=prefactors,
    )


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    mean: float
    stderr: float
    theory: float
    abs_diff: float
    z_score: float


def moment_comparison(result: EnsembleResult) -> list[ComparisonRow]:
    """Empirical moment means against the limiting theory values.

    The z_score column is abs_diff over the standard error of the mean;
    at finite (N, R) it reflects the systematic finite-size gap, which
    shrinks only as N and R grow.
    """
    theory = limit_moments(result.k_max, result.v, result.profile.phi1)
    rows = []
    for k in range(0, result.k_max + 1):
        mean = result.moment_mean(k)
        stderr = result.moment_stderr(k) if k > 0 else 0.0
        diff = abs(mean - theory[k])
        z = diff / stderr if stderr > 0 else 0.0
        rows.append(ComparisonRow(k, mean, stderr, theory[k], diff, z))
    return rows


@dataclass(frozen=True)
class SweepPoint:
    n_vertices: int
    radius: float
    trials: int
    gaps: tuple[float, ...]      # |mean M_k - m_k| for k = 0..k_max
    stderrs: tuple[float, ...]


def convergence_sweep(
    n_values,
    gamma: float,
    profile: Profile,
    v: float,
    seed: int,
    trials,
    k_max: int = 4,
    r_scale: float = 1.0,
) -> list[SweepPoint]:
    """Gap-versus-size table along R = ceil(r_scale * N^gamma).

    gamma must lie in (0, 1) so that R grows sublinearly in N, and r_scale
    must be finite and > 0 and keep R below N at every size.  trials holds
    one count per entry of n_values.
    Every argument is checked before any size is sampled.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("violates sublinear radius growth R = o(N): need 0 < gamma < 1")
    if not 0.0 < r_scale < math.inf:
        raise ValueError(f"r_scale must be finite and > 0, got {r_scale}")
    n_values = list(n_values)
    if min(n_values, default=1) < 1:
        raise ValueError(f"n must be >= 1, got {min(n_values)}")
    if len(trials) != len(n_values):
        raise ValueError(f"{len(trials)} trial counts for {len(n_values)} sizes")
    # run_ensemble refuses fewer than two trials; refuse before any size is sampled
    if min(trials, default=2) < 2:
        raise ValueError(f"trials must be >= 2 for a standard error, got {min(trials)}")
    scaled = [r_scale * (2 * n + 1) ** gamma for n in n_values]
    for n, x in zip(n_values, scaled):
        # R = ceil(x) < N = 2n + 1 exactly when x <= 2n; x may overflow to inf
        if x > 2 * n:
            raise ValueError(
                f"r_scale = {r_scale:g} gives R = ceil(r_scale * N^gamma) >= N = {2 * n + 1}: "
                "the sweep shows R = o(N), so R must stay below N"
            )
    theory = limit_moments(k_max, v, profile.phi1)
    points = []
    for n, n_trials, x in zip(n_values, trials, scaled):
        n_vertices = 2 * n + 1
        radius = max(1.0, math.ceil(x))
        result = run_ensemble(n, radius, profile, v, seed, n_trials, k_max)
        gaps = tuple(abs(result.moment_mean(k) - theory[k]) for k in range(k_max + 1))
        errs = tuple(result.moment_stderr(k) if k else 0.0 for k in range(k_max + 1))
        points.append(SweepPoint(n_vertices, radius, n_trials, gaps, errs))
    return points
