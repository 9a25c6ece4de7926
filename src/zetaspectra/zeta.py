"""Exact Ihara zeta function of small explicit graphs.

The reciprocal of the zeta function is the polynomial

    (1 - u^2)^(r-1) * det(I + u^2 (B - I) - u A)

with A the adjacency matrix, B the diagonal degree matrix and
r - 1 = Tr(B - 2I)/2.  The determinant is evaluated exactly over the
integer polynomial ring by fraction-free elimination, so the coefficients
come out as exact integers.  Calling the ReciprocalZeta evaluates it at a
float u; it is the package's one reciprocal-zeta value.

Independently, the zeta function is the exponential of the generating
series of closed backtrackless tailless path counts.  count_closed_paths
counts them by the non-backtracking edge matrix, sharing no code with the
determinant; series_consistency multiplies the exponential of their series
(in exact rationals) against the reciprocal polynomial and reports the
worst deviation from 1.  On a correct build the deviation is exactly zero
through the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ReciprocalZeta",
    "zeta_reciprocal_polynomial",
    "count_closed_paths",
    "series_consistency",
]

MAX_EXACT_VERTICES = 12
MAX_PATH_VERTICES = 10
MAX_PATH_LENGTH = 12


# ---------------------------------------------------------------------------
# integer polynomial helpers; a polynomial is a list of int coefficients
# indexed by degree, normalized to no trailing zeros ([] is the zero poly)

def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p

def _psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)

def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)

def _pdiv_exact(num, den):
    """Exact division in the integer polynomial ring; raises if inexact.

    Long division in place: each quotient coefficient is one divmod of the
    working leading coefficient, and q * den is subtracted into the list."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    top, lead = len(den) - 1, den[-1]
    quot = [0] * max(len(rem) - top, 1)
    for shift in range(len(rem) - 1 - top, -1, -1):
        q, r = divmod(rem[shift + top], lead)
        if r:
            raise ValueError("determinant not divisible - graph/implementation inconsistency")
        if q:
            quot[shift] = q
            for j, c in enumerate(den):
                rem[shift + j] -= q * c
    if any(rem[:top]):
        raise ValueError("determinant not divisible - graph/implementation inconsistency")
    return _trim(quot)

def _poly_det_bareiss(mat: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a matrix of integer polynomials."""
    n = len(mat)
    m = [[list(entry) for entry in row] for row in mat]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for swap in range(k + 1, n):
                if m[swap][k]:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _psub(_pmul(m[i][j], m[k][k]), _pmul(m[i][k], m[k][j]))
                m[i][j] = _pdiv_exact(num, prev) if num else []
        prev = m[k][k]
    det = m[n - 1][n - 1] if n else [1]  # the empty determinant is 1
    return [-c for c in det] if sign < 0 else det


@dataclass(frozen=True)
class ReciprocalZeta:
    """Exact integer coefficients of the reciprocal zeta polynomial."""

    coefficients: tuple[int, ...]
    n_vertices: int
    n_edges: int
    rank_term: float  # r - 1

    def __call__(self, u: float) -> float:
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * u + c
        return out

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_list(self) -> list[int]:
        return list(self.coefficients)


def _validate_small_graph(adj: np.ndarray, limit: int) -> np.ndarray:
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if adj.shape[0] > limit:
        raise ValueError(f"graph too large for exact budget ({adj.shape[0]} > {limit})")
    if np.any(adj != adj.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(adj) != 0):
        raise ValueError("graph must have no loops")
    if np.any((adj != 0) & (adj != 1)):
        raise ValueError("graph must be simple (0/1 entries)")
    return adj.astype(np.int64)


def zeta_reciprocal_polynomial(adj: np.ndarray) -> ReciprocalZeta:
    """Exact coefficients of the reciprocal zeta polynomial.

    For forests r - 1 < 0 and the determinant must be exactly divisible by
    (1 - u^2)^(1-r); inexact division signals an inconsistent input.
    """
    adj = _validate_small_graph(adj, limit=MAX_EXACT_VERTICES)
    n = adj.shape[0]
    degrees = adj.sum(axis=1)
    n_edges = int(degrees.sum()) // 2
    rank = n_edges - n  # r - 1 as an exact integer
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(_trim([1, 0, int(degrees[i]) - 1]))
            else:
                row.append(_trim([0, -int(adj[i, j])]))
        mat.append(row)
    det = _poly_det_bareiss(mat)
    one_minus_u2 = [1, 0, -1]
    poly = det
    if rank >= 0:
        for _ in range(rank):
            poly = _pmul(poly, one_minus_u2)
    else:
        for _ in range(-rank):
            poly = _pdiv_exact(poly, one_minus_u2)
    if not poly or poly[0] != 1:
        raise ValueError("reciprocal zeta polynomial must have constant term 1")
    return ReciprocalZeta(
        coefficients=tuple(poly),
        n_vertices=n,
        n_edges=n_edges,
        rank_term=float(rank),
    )


def count_closed_paths(adj: np.ndarray, k: int, tailless: bool = True) -> int:
    """Number of closed backtrackless tailless paths of length k.

    Paths are counted individually: each starting vertex and each direction
    contributes one, so a triangle has 6 paths of length 3.  On the 2E
    darts (directed edges), B[(x, y), (y, z)] = 1 when z != x, and tr(B^k)
    counts the paths whose first step does not reverse their last
    (Hashimoto).  With tailless=False, J[(a, b), (c, d)] = [b = c] closes
    the path and the count is tr(B^(k-1) J).
    """
    adj = _validate_small_graph(adj, limit=MAX_PATH_VERTICES)
    if k < 1:
        raise ValueError("path length must be >= 1")
    if k > MAX_PATH_LENGTH:
        raise ValueError(f"path length {k} beyond path-count budget {MAX_PATH_LENGTH}")
    tails, heads = np.nonzero(adj)
    follows = heads[:, None] == tails[None, :]
    step = (follows & (tails[:, None] != heads[None, :])).astype(np.int64)
    # a dart has at most MAX_PATH_VERTICES - 2 successors, so within the
    # budgets every entry and the trace stay below 2E * 8^12 ~ 6e12: int64
    # is exact
    if tailless:
        return int(np.trace(np.linalg.matrix_power(step, k)))
    return int(np.trace(np.linalg.matrix_power(step, k - 1) @ follows.astype(np.int64)))


def series_consistency(adj: np.ndarray, poly: ReciprocalZeta, order: int) -> Fraction:
    """Largest |coefficient - delta_{j,0}| of exp(path series) * poly.

    poly is zeta_reciprocal_polynomial(adj), computed once by the caller.
    Both factors are exact (rational series coefficients against integer
    polynomial coefficients), so a correct pairing returns Fraction(0).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if (poly.n_vertices, poly.n_edges) != (len(adj), int(np.sum(adj)) // 2):
        raise ValueError("polynomial belongs to another graph")
    counts = [0] + [count_closed_paths(adj, k) for k in range(1, order + 1)]
    # exp of S = sum_k counts[k) u^k / k via E' = S'E, all in Fractions
    exp_coeffs = [Fraction(1)]
    for m in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += Fraction(counts[i]) * exp_coeffs[m - i]
        exp_coeffs.append(acc / m)
    coeffs = poly.coefficients
    worst = Fraction(0)
    for j in range(order + 1):
        c = sum(
            exp_coeffs[i] * coeffs[j - i]
            for i in range(max(0, j - len(coeffs) + 1), j + 1)
        )
        target = 1 if j == 0 else 0
        worst = max(worst, abs(c - target))
    return worst
