"""Long-range percolation graph sampler on the integer segment {-n, ..., n}.

A profile function phi with 0 < phi(t) < 1 sets the edge probability
phi((x - y)/R)/R for each pair of distinct sites, and phi1 = integral of phi
is the limiting mean vertex degree.  From a sampled 0/1 adjacency matrix we
build the degree vector and the symmetric matrix

    H = (v^2/phi1) * diag(degrees) - (v/sqrt(phi1)) * A,

whose spectrum is the object of study downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProfileFamily",
    "Profile",
    "AdjacencySample",
    "edge_probability",
    "sample_adjacency",
    "degree_vector",
    "build_h",
    "circuit_rank_term",
    "format_edge_list",
]


class ProfileFamily(enum.Enum):
    """Closed-form-integrable profile shapes, all even and strictly
    decreasing in |t|, bounded by the amplitude."""

    EXPONENTIAL = "exp"
    GAUSSIAN = "gauss"
    LORENTZIAN = "lorentz"


_FAMILY_ALIASES = {f.value: f for f in ProfileFamily}
_FAMILY_ALIASES.update({f.name.lower(): f for f in ProfileFamily})


@dataclass(frozen=True)
class Profile:
    """An edge-probability profile a*shape(t) with amplitude a in (0, 1).

    The mean-degree constant phi1 is the exact integral of the profile:
    2a (exponential), a*sqrt(pi) (gaussian), a*pi (lorentzian).
    """

    family: ProfileFamily
    amplitude: float

    def __post_init__(self):
        if not 0.0 < self.amplitude < 1.0:
            raise ValueError(f"amplitude must lie in (0, 1), got {self.amplitude}")

    @classmethod
    def from_name(cls, name: str, amplitude: float) -> "Profile":
        try:
            family = _FAMILY_ALIASES[name.lower()]
        except KeyError:
            raise ValueError(f"unknown profile family {name!r}") from None
        return cls(family, amplitude)

    @property
    def phi1(self) -> float:
        a = self.amplitude
        if self.family is ProfileFamily.EXPONENTIAL:
            return 2.0 * a
        if self.family is ProfileFamily.GAUSSIAN:
            return a * math.sqrt(math.pi)
        return a * math.pi

    def phi(self, t):
        """Profile value; accepts scalars or numpy arrays."""
        a = self.amplitude
        t = np.asarray(t, dtype=float)
        if self.family is ProfileFamily.EXPONENTIAL:
            out = a * np.exp(-np.abs(t))
        elif self.family is ProfileFamily.GAUSSIAN:
            out = a * np.exp(-t * t)
        else:
            out = a / (1.0 + t * t)
        return out if out.ndim else float(out)


def edge_probability(x: int, y: int, radius: float, profile: Profile) -> float:
    """Probability of the edge {x, y} at interaction radius R >= 1.

    The diagonal carries no Bernoulli variable; asking for it is an error.
    """
    if x == y:
        raise ValueError("diagonal entry has no Bernoulli law")
    if radius < 1.0:
        raise ValueError(f"radius must be >= 1, got {radius}")
    p = profile.phi((x - y) / radius) / radius
    if p >= 1.0:
        raise ValueError("profile violates 0<phi<1")
    return float(p)


@dataclass(frozen=True)
class AdjacencySample:
    """One seeded draw of the symmetric 0/1 adjacency matrix.

    Vertices are indexed -n..n, so the matrix is N x N with N = 2n + 1.
    Entries are stored with row/column 0 corresponding to site -n.
    """

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return 2 * self.n + 1

    def degrees(self) -> np.ndarray:
        return degree_vector(self.entries)

    def edge_count(self) -> int:
        return int(self.entries.sum()) // 2

    def mean_degree(self) -> float:
        return float(self.entries.sum()) / self.n_vertices

    def iter_edges(self):
        """Yield edges (x, y) with -n <= x < y <= n in site coordinates."""
        rows, cols = np.nonzero(np.triu(self.entries, k=1))
        for i, j in zip(rows, cols):
            yield int(i) - self.n, int(j) - self.n


def sample_adjacency(n: int, radius: float, profile: Profile, seed: int) -> AdjacencySample:
    """Draw the upper triangle row by row and mirror it.

    The draw order is fixed row-major over the upper triangle, so identical
    (n, radius, profile, seed) reproduce bit-identical matrices.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if radius < 1.0:
        raise ValueError(f"radius must be >= 1, got {radius}")
    N = 2 * n + 1
    offsets = np.arange(1, N)
    p_by_offset = profile.phi(offsets / radius) / radius
    if np.any(p_by_offset >= 1.0):
        raise ValueError("profile violates 0<phi<1")
    rng = np.random.default_rng(seed)
    entries = np.zeros((N, N), dtype=np.int8)
    for i in range(N - 1):
        m = N - 1 - i
        entries[i, i + 1 :] = rng.random(m) < p_by_offset[:m]
    entries = entries + entries.T
    return AdjacencySample(n=n, entries=entries)


def degree_vector(entries: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix (the diagonal degree matrix)."""
    return np.asarray(entries).sum(axis=1).astype(np.int64)


def build_h(entries: np.ndarray, degrees: np.ndarray, v: float, phi1: float) -> np.ndarray:
    """Assemble (v^2/phi1) diag(degrees) - (v/sqrt(phi1)) A as float64."""
    if phi1 <= 0.0:
        raise ValueError(f"phi1 must be positive, got {phi1}")
    h = np.multiply(entries, -v / math.sqrt(phi1), dtype=float)
    idx = np.arange(h.shape[0])
    h[idx, idx] = (v * v / phi1) * np.asarray(degrees, dtype=float)
    return h


def circuit_rank_term(degrees: np.ndarray) -> float:
    """The exponent r - 1 = Tr(B - 2I)/2 of the reciprocal-zeta prefactor."""
    degrees = np.asarray(degrees)
    return (float(degrees.sum()) - 2.0 * degrees.shape[0]) / 2.0


def format_edge_list(sample: AdjacencySample) -> str:
    lines = [f"{x} {y}" for x, y in sample.iter_edges()]
    return "\n".join(lines) + ("\n" if lines else "")

