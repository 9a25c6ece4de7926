"""Spectra of sampled matrices and the log-determinant quantities.

A sampled H is block-diagonal under a permutation: each connected
component of its nonzero pattern is one block.  `eigenvalue_summary`
reads H as CSR, finds the components and scatters the nonzeros straight
into one stack of dense blocks per block size, solved by one batched
symmetric eigensolve; no N x N array is formed.  On the subcritical
ensemble, a forest of small pieces, that is O(N + nnz) work; a giant
component costs the dense solve of its own size.  Block entries outside
the pattern hold the signed zero 0.0 * (-v/sqrt(phi1)), as the dense H
did: LAPACK's Householder step branches on the sign of zero, and a +0.0
fill moves the spectrum in the last digits.

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
from scipy.sparse import csr_matrix, issparse
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


def eigenvalue_summary(h, v: float, phi1: float) -> SpectralSummary:
    """Full ascending spectrum of a symmetric matrix, one block at a time.

    h is square, dense or scipy sparse.  Rejects matrices that are not
    symmetric to within 1e-12 entrywise (an entry whose mirror is not
    stored reads against 0), and cross-checks the eigenvalue sum against
    the trace.
    """
    h = h.tocsr() if issparse(h) else csr_matrix(np.asarray(h, dtype=float))
    if not (h.has_canonical_format and h.data.all()):
        h = h.copy()
        h.sum_duplicates()  # sorted indices, no duplicates
        h.eliminate_zeros()  # the stored pattern is the nonzero pattern
    n = h.shape[0]
    if h.shape[1] != n:
        raise ValueError("matrix must be square")
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    cols, values = h.indices.astype(np.intp), h.data
    keys, mirrors = rows * n + cols, cols * n + rows  # keys ascend in a canonical CSR
    at = np.searchsorted(keys, mirrors).clip(max=keys.shape[0] - 1)
    asym = np.abs(values - np.where(keys[at] == mirrors, values[at], 0.0)).max(initial=0.0)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max deviation {asym:.3e})")
    diagonal = h.diagonal()

    # A pair stored both ways lies in one strongly connected component, so on
    # a symmetric pattern these are the connected components, found without a
    # transpose; an entry with no stored mirror (at most 1e-12) is left out.
    _, labels = connected_components(h, connection="strong")
    # Vertices sorted by (block size, block), ascending within a block; each
    # owns one block row of `size` cells in a flat buffer, so the blocks of
    # each size s lie back to back as one (m_s, s, s) stack.
    size = np.bincount(labels)[labels]
    order = np.lexsort((labels, size))
    cells = size[order]
    group = np.searchsorted(cells, cells)  # sorted position where each size starts
    row, local = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    row[order] = np.cumsum(cells) - cells
    local[order] = (np.arange(n) - group) % cells
    flat = np.full(int(cells.sum()), math.copysign(0.0, -v))  # = 0.0 * (-v / sqrt(phi1))
    flat[row + local] = diagonal
    inside = (rows != cols) & (labels[rows] == labels[cols])
    flat[row[rows[inside]] + local[cols[inside]]] = values[inside]
    heads = np.unique(group)
    parts = [stack if s == 1 else np.linalg.eigvalsh(stack.reshape(-1, s, s)).ravel()
             for s, stack in zip(cells[heads], np.split(flat, row[order[heads[1:]]]))]
    eigs = np.sort(np.concatenate(parts)) if parts else np.empty(0)
    trace = float(diagonal.sum())
    gap = abs(float(eigs.sum()) - trace)
    tol = TRACE_RTOL * n * max(1.0, abs(trace))
    if gap > tol:
        raise ArithmeticError(f"eigenvalue sum deviates from trace by {gap:.3e}")
    return SpectralSummary(eigenvalues=eigs, v=v, phi1=phi1, trace_check=gap)


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
