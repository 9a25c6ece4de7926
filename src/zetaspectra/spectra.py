"""Spectra of sampled matrices, their trace moments and the log-determinant
quantities.

`eigenvalue_summary` checks a sampled H; its spectrum is solved on first
read (`eigenvalues`, `counting_function`, `histogram_density`), and nothing
else reads it.  `trace_moments` takes (1/N) tr H^k from sparse powers of H
by Frobenius identities, with no eigensolve.

H is block-diagonal under a permutation: each connected component
of its nonzero pattern is one block.  The solve scatters the nonzeros straight
into one stack of dense blocks per block size, solved by one batched
symmetric eigensolve; no N x N array is formed.  A forest of small pieces
costs O(N + nnz); a giant component costs the dense solve of its own size.
Block entries outside the pattern hold the signed zero 0.0 * (-v/sqrt(phi1)),
as the dense H did: LAPACK's Householder step branches on the sign of zero,
and a +0.0 fill moves the spectrum in the last digits.

`log_det_density` factors (1 - v^2/phi1) I + H as a sparse LDL^T and sums
the logs of its pivots.  By Sylvester's law of inertia the nonpositive
pivots count the eigenvalues at or below -shift, the spectral crossing.

The normalized log of the zeta function of a sampled graph splits into a
prefactor term driven by the degree sum and the log-determinant term:

    -(1/N) log Z(u) = log_prefactor_density(degrees, u) + log_det_density(summary)

with u = v/sqrt(phi1).  Both pieces are exposed separately because the
prefactor has a closed-form expectation while the determinant term is the
object the moment theory describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .percolation import circuit_rank_term

__all__ = [
    "SpectralSummary",
    "eigenvalue_summary",
    "counting_function",
    "trace_moments",
    "log_det_density",
    "log_prefactor_density",
    "neg_log_zeta_density",
    "histogram_density",
]

SYMMETRY_TOL = 1e-12
TRACE_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralSummary:
    """One realization's checked H (canonical CSR) and its (v, phi1)."""

    h: csr_matrix = field(repr=False)
    v: float
    phi1: float

    @property
    def size(self) -> int:
        return self.h.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, solved on first read one block at a time and
        checked against the trace."""
        h, n = self.h, self.size
        rows = np.repeat(np.arange(n), np.diff(h.indptr))
        cols, values = h.indices.astype(np.intp), h.data
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
        flat = np.full(int(cells.sum()), math.copysign(0.0, -self.v))  # = 0.0 * (-v / sqrt(phi1))
        flat[row + local] = diagonal
        inside = (rows != cols) & (labels[rows] == labels[cols])
        flat[row[rows[inside]] + local[cols[inside]]] = values[inside]
        heads = np.unique(group)
        parts = [stack if s == 1 else np.linalg.eigvalsh(stack.reshape(-1, s, s)).ravel()
                 for s, stack in zip(cells[heads], np.split(flat, row[order[heads[1:]]]))]
        eigs = np.sort(np.concatenate(parts)) if parts else np.empty(0)
        eigs.flags.writeable = False
        trace = float(diagonal.sum())
        gap = abs(float(eigs.sum()) - trace)
        tol = TRACE_RTOL * n * max(1.0, abs(trace))
        if gap > tol:
            raise ArithmeticError(f"eigenvalue sum deviates from trace by {gap:.3e}")
        return eigs


def eigenvalue_summary(h, v: float, phi1: float) -> SpectralSummary:
    """Check a symmetric matrix, dense or scipy sparse, and keep it as CSR.

    Rejects matrices that hold a NaN or are not symmetric to within 1e-12
    entrywise (an entry whose mirror is not stored reads against 0).  Solves
    nothing: the summary keeps h itself when it is canonical CSR, so do not
    modify it.
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
    if not asym <= SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max deviation {asym:.3e})")
    return SpectralSummary(h=h, v=v, phi1=phi1)


def counting_function(summary: SpectralSummary, lam: float) -> float:
    """Normalized eigenvalue counting function: fraction of spectrum <= lam."""
    eigs = summary.eigenvalues
    return float(np.searchsorted(eigs, lam, side="right")) / eigs.shape[0]


def trace_moments(summary: SpectralSummary, k_max: int) -> np.ndarray:
    """The moments (1/N) tr H^k, k = 0..k_max, from sparse powers of H.

    Builds H^j for j <= ceil(k_max/2) and reads each order by a Frobenius
    identity of the symmetric powers: tr H = the diagonal sum, tr H^(2j) =
    |H^j|_F^2 and tr H^(2j+1) = <H^(j+1), H^j>_F.  The even orders sum the
    squares of the stored values, which holds because a canonical CSR
    matrix, and scipy's CSR product, store no duplicate entries.  Solves
    nothing.
    """
    if k_max < 0:
        raise ValueError(f"moment order must be >= 0, got {k_max}")
    h = summary.h
    traces = np.empty(k_max + 1)
    traces[0] = summary.size
    if k_max >= 1:
        traces[1] = h.diagonal().sum()
    if k_max >= 2:
        traces[2] = h.data @ h.data
    power = h
    for k in range(3, k_max + 1, 2):
        higher = h @ power  # H^((k+1)/2)
        traces[k] = higher.multiply(power).data.sum()
        if k < k_max:
            traces[k + 1] = higher.data @ higher.data
        power = higher
    return traces / summary.size


def log_det_density(summary: SpectralSummary) -> float:
    """(1/N) log det((1 - v^2/phi1) I + H) from a sparse LDL^T factorization.

    SuperLU factors the shifted matrix in a symmetric fill-reducing order
    with diagonal pivots only, so U's diagonal holds the LDL^T pivots.  A
    nonpositive pivot (by inertia, one per eigenvalue of H at or below
    -shift), an exactly singular factor, or a row swap (after which the
    pivots are not LDL^T pivots) is the spectral-crossing error.
    """
    shift = 1.0 - summary.v**2 / summary.phi1
    crossing = "log-determinant argument nonpositive (spectral crossing)"
    try:
        lu = splu(summary.h.tocsc() + shift * identity(summary.size, format="csc"),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "exactly singular" not in str(exc):
            raise
        raise ValueError(f"{crossing}: a zero pivot") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ValueError(f"{crossing}: a zero pivot forced a row swap")
    pivots = lu.U.diagonal()
    bad = int(np.count_nonzero(pivots <= 0.0))
    if bad:
        raise ValueError(f"{crossing}: {bad} eigenvalue(s) of H at or below -shift = {-shift!r}")
    return float(np.log(pivots).sum() / summary.size)


def log_prefactor_density(degrees: np.ndarray, u: float) -> float:
    """((r - 1)/N) log(1 - u^2), the prefactor term of -(1/N) log Z."""
    if abs(u) >= 1.0:
        raise ValueError(f"need |u| < 1, got u={u}")
    return circuit_rank_term(degrees) / len(degrees) * math.log1p(-u * u)


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
