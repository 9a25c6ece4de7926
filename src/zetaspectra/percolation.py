"""Long-range percolation graph sampler on the integer segment {-n, ..., n}.

A profile function phi with 0 < phi(t) < 1 sets the edge probability
p_d = phi(d/R)/R for each pair of distinct sites at distance d, and phi1 =
integral of phi is the limiting mean vertex degree.  offset_probabilities is
the one home of that law and of its refusals; the sampler and the exact
finite-size moments both read it.  A sample is its edge array, drawn in
O(N + edges) diagonal by diagonal (a binomial edge count per offset, then
that many distinct positions); the dense 0/1 matrix is built only on
request (`entries`, for tests and the benchmark).  From the edges we build
the degree vector and, in O(N + edges), the sparse symmetric matrix

    H = (v^2/phi1) * diag(degrees) - (v/sqrt(phi1)) * A,

whose spectrum is the object of study downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, issparse

__all__ = [
    "ProfileFamily",
    "Profile",
    "AdjacencySample",
    "offset_probabilities",
    "sample_adjacency",
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
            family = ProfileFamily(name)
        except ValueError:
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


def offset_probabilities(n: int, radius: float, profile: Profile) -> np.ndarray:
    """p_d = phi(d/R)/R, the edge probability of two sites at distance d, for
    d = 1..2n on {-n, ..., n}.  Refuses n < 1 and an R that is not finite
    and >= 1 (at R = inf every p_d is 0); then p_d <= a/R < 1 follows from
    the profile's amplitude check."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and >= 1, got {radius}")
    return profile.phi(np.arange(1, 2 * n + 1) / radius) / radius


@dataclass(frozen=True)
class AdjacencySample:
    """One seeded draw of the graph, as its upper-triangle edge list.

    Vertices are indexed -n..n, so there are N = 2n + 1 of them, stored
    0-based with index 0 for site -n.  Column e of the (2, E) array `edges`
    is one edge i < j; the edges run in row-major order.
    """

    n: int
    edges: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return 2 * self.n + 1

    @property
    def entries(self) -> np.ndarray:
        """The dense symmetric N x N int8 adjacency, built on each access."""
        i, j = self.edges
        entries = np.zeros((self.n_vertices,) * 2, dtype=np.int8)
        entries[i, j] = entries[j, i] = 1
        return entries

    def adjacency(self) -> coo_matrix:
        """The symmetric adjacency as a sparse 0/1 matrix, two entries per edge."""
        ends = np.hstack((self.edges, self.edges[::-1]))
        ones = np.ones(ends.shape[1], dtype=np.int8)
        return coo_matrix((ones, tuple(ends)), shape=(self.n_vertices,) * 2)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)

    def edge_count(self) -> int:
        return self.edges.shape[1]

    def mean_degree(self) -> float:
        return 2.0 * self.edge_count() / self.n_vertices


def sample_adjacency(
    n: int, radius: float, profile: Profile, seed: int | np.random.SeedSequence
) -> AdjacencySample:
    """Draw each diagonal's edge count, then that many distinct positions.

    Diagonal d = j - i holds N - d pairs, each an edge with probability
    p_d = phi(d/R)/R independently, so its edge count is Binomial(N - d, p_d)
    and, given the count, the edges are a uniform subset of that size.  One
    binomial call draws every count and one integer call a start i for each
    edge (i, i + d); while some (d, i) repeats, the first occurrence stays
    and all the others are redrawn in one call, which keeps the subset
    uniform.  The work is O(N + edges), the law is exact, and this draw
    order fixes the stream: identical (n, radius, profile, seed) reproduce
    bit-identical edge lists.  `seed` is an int or a SeedSequence.
    """
    p_by_offset = offset_probabilities(n, radius, profile)
    N = 2 * n + 1
    offsets = np.arange(1, N)
    rng = np.random.default_rng(seed)
    d = np.repeat(offsets, rng.binomial(N - offsets, p_by_offset))
    i = rng.integers(0, N - d)
    while True:
        again = np.ones(d.size, dtype=bool)
        again[np.unique(d * N + i, return_index=True)[1]] = False
        if not again.any():
            break
        i[again] = rng.integers(0, N - d[again])
    j = i + d
    edges = np.stack((i, j))[:, np.lexsort((j, i))]
    edges.flags.writeable = False
    return AdjacencySample(n=n, edges=edges)


def build_h(entries, degrees: np.ndarray, v: float, phi1: float) -> csr_matrix:
    """Assemble (v^2/phi1) diag(degrees) - (v/sqrt(phi1)) A as a float64 CSR
    matrix from the 0/1 adjacency A, a dense array or a scipy sparse matrix,
    in O(N + edges) for a sparse A.  Zero values are not stored, and a scale
    that is not finite is refused (v^2 overflows from |v| ~ 1e154).
    """
    if phi1 <= 0.0:
        raise ValueError(f"phi1 must be positive, got {phi1}")
    diagonal_scale, edge_scale = v * v / phi1, v / math.sqrt(phi1)
    if not (math.isfinite(diagonal_scale) and math.isfinite(edge_scale)):
        raise ValueError(f"v = {v:g}: the scale v^2/phi1 of H is not finite (phi1 = {phi1:g})")
    if issparse(entries):
        rows, cols = entries.nonzero()
    else:  # a flat scan of a boolean array is far faster than np.nonzero in 2-D
        entries = np.asarray(entries)
        rows, cols = np.divmod(np.flatnonzero(entries != 0), entries.shape[1])
    off = rows != cols
    size = entries.shape[0]
    vertices = np.arange(size)
    rows = np.concatenate((rows[off], vertices)).astype(np.int64)  # row * size fits
    cols = np.concatenate((cols[off], vertices))
    values = np.concatenate((
        np.full(np.count_nonzero(off), -edge_scale),
        diagonal_scale * np.asarray(degrees, dtype=float),
    ))
    keep = values != 0.0
    key = rows[keep] * size + cols[keep]
    order = np.argsort(key)
    indptr = np.searchsorted(key[order], np.arange(size + 1) * size)
    return csr_matrix((values[keep][order], cols[keep][order], indptr), shape=(size, size))


def circuit_rank_term(degrees: np.ndarray) -> float:
    """The exponent r - 1 = Tr(B - 2I)/2 of the reciprocal-zeta prefactor."""
    degrees = np.asarray(degrees)
    return (float(degrees.sum()) - 2.0 * degrees.shape[0]) / 2.0


def format_edge_list(sample: AdjacencySample) -> str:
    """One line "x y" per edge, -n <= x < y <= n in site coordinates."""
    return "".join(f"{i - sample.n} {j - sample.n}\n" for i, j in sample.edges.T.tolist())

