"""Spectra of sampled matrices and the log-determinant quantities.

A sampled H is block-diagonal under a permutation: its nonzero pattern
is the graph plus the diagonal, so each connected component of the graph
is one block.  `eigenvalue_summary` finds the components, stacks the
blocks of each size and solves every stack with one batched symmetric
eigensolve; isolated vertices contribute their diagonal entry.  On the
subcritical ensemble, a forest of small pieces, the solves cost O(N) for
bounded block sizes in place of one O(N^3) dense solve (finding the
blocks scans H once); a giant component costs at most the dense solve of
its own size.

The normalized log of the zeta function of a sampled graph splits into a
prefactor term driven by the degree sum and a log-determinant term driven
by the spectrum:

    -(1/N) log Z(u) = log_prefactor_density(degrees, u) + log_det_density(summary)

with u = v/sqrt(phi1).  Both pieces are exposed separately because the
prefactor has a closed-form expectation while the determinant term is the
object the moment theory describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "SpectralSummary",
    "eigenvalue_summary",
    "counting_function",
    "empirical_moment",
    "log_det_density",
    "log_prefactor_density",
    "neg_log_zeta_density",
    "histogram_density",
]

SYMMETRY_TOL = 1e-12
TRACE_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted spectrum of one realization plus the (v, phi1) of its H."""

    eigenvalues: np.ndarray = field(repr=False)
    v: float
    phi1: float
    trace_check: float = 0.0

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def eigenvalue_summary(h: np.ndarray, v: float, phi1: float) -> SpectralSummary:
    """Full ascending spectrum of a symmetric matrix, one block at a time.

    Rejects matrices that are not symmetric to within 1e-12 entrywise, and
    cross-checks the eigenvalue sum against the matrix trace.  The symmetry
    check runs block by block and is still exact: a nonzero h[i, j] puts i
    and j in one block, so every entry that can differ from its transpose
    lies inside a block.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    parts = []
    for members in _blocks_by_size(h):
        if members.shape[1] == 1:
            parts.append(h[members[:, 0], members[:, 0]])
            continue
        blocks = h[members[:, :, None], members[:, None, :]]
        asym = _max_asymmetry(blocks)
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric (max deviation {asym:.3e})")
        parts.append(np.linalg.eigvalsh(blocks).ravel())
    eigs = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    trace = float(np.trace(h))
    gap = abs(float(eigs.sum()) - trace)
    tol = TRACE_RTOL * h.shape[0] * max(1.0, abs(trace))
    if gap > tol:
        raise ArithmeticError(f"eigenvalue sum deviates from trace by {gap:.3e}")
    return SpectralSummary(eigenvalues=eigs, v=v, phi1=phi1, trace_check=gap)


def _blocks_by_size(h: np.ndarray):
    """Yield, for each block size s present, an (m, s) array of vertex
    indices: row r lists the vertices of the r-th block of that size in
    ascending order.  Blocks are the connected components of the nonzero
    pattern of h, read as an undirected graph."""
    _, labels = connected_components(csr_matrix(h != 0.0), directed=False)
    sizes = np.bincount(labels)
    order = np.lexsort((labels, sizes[labels]))
    start = 0
    for s, m in enumerate(np.bincount(sizes)):
        if m:
            yield order[start : start + m * s].reshape(m, s)
            start += m * s


def _max_asymmetry(blocks: np.ndarray) -> float:
    """Largest |b[i, j] - b[j, i]| over a stack of square blocks, with one
    block-sized temporary."""
    skew = blocks - blocks.swapaxes(1, 2)
    return float(np.abs(skew, out=skew).max())


def counting_function(summary: SpectralSummary, lam: float) -> float:
    """Normalized eigenvalue counting function: fraction of spectrum <= lam."""
    eigs = summary.eigenvalues
    return float(np.searchsorted(eigs, lam, side="right")) / eigs.shape[0]


def empirical_moment(summary: SpectralSummary, k: int) -> float:
    """One-realization spectral moment (1/N) sum lambda_j^k."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    if k == 0:
        return 1.0
    return float(np.mean(summary.eigenvalues**k))


def log_det_density(summary: SpectralSummary) -> float:
    """(1/N) log det((1 - v^2/phi1) I + H) through the spectrum.

    Any nonpositive argument means the shifted matrix crossed zero; that is
    a hard error carrying the offending eigenvalue.
    """
    shift = 1.0 - summary.v**2 / summary.phi1
    args = shift + summary.eigenvalues
    if np.any(args <= 0.0):
        bad = float(summary.eigenvalues[int(np.argmin(args))])
        raise ValueError(
            f"log-determinant argument nonpositive (spectral crossing) at eigenvalue {bad!r}"
        )
    return float(np.mean(np.log(args)))


def log_prefactor_density(degrees: np.ndarray, u: float) -> float:
    """(1/2N) Tr(B - 2I) log(1 - u^2), the prefactor term of -(1/N) log Z."""
    if abs(u) >= 1.0:
        raise ValueError(f"need |u| < 1, got u={u}")
    degrees = np.asarray(degrees)
    n_vertices = degrees.shape[0]
    return (float(degrees.sum()) - 2.0 * n_vertices) / (2.0 * n_vertices) * math.log1p(-u * u)


def neg_log_zeta_density(degrees: np.ndarray, summary: SpectralSummary) -> float:
    """-(1/N) log Z at u = v/sqrt(phi1), from degrees and the spectrum."""
    u = summary.v / math.sqrt(summary.phi1)
    return log_prefactor_density(degrees, u) + log_det_density(summary)


def histogram_density(summary: SpectralSummary, bins: int = 60):
    """Histogram of the spectrum normalized to unit mass.

    Returns (bin_left, bin_right, density) arrays ready for CSV export.
    """
    counts, edges = np.histogram(summary.eigenvalues, bins=bins, density=True)
    return edges[:-1], edges[1:], counts
