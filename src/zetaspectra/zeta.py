"""Exact Ihara zeta function of small explicit graphs.

The reciprocal of the zeta function is the polynomial (Ihara-Bass)

    (1 - u^2)^(r-1) * det(I + u^2 (B - I) - u A)

with A the adjacency matrix, B the diagonal degree matrix and
r - 1 = Tr(B - 2I)/2.  Both factors are taken at u = 2^b, on plain
integers: the determinant is one fraction-free (Bareiss) elimination, the
factor (1 - u^2)^|r-1| one product or one exact divmod, and b puts 2^(b-2)
above a bound on every coefficient's magnitude, so the signed base-2^b
digits of the result are exactly the coefficients.  Calling the
ReciprocalZeta evaluates it at a float u; it is the package's one
reciprocal-zeta value.

Independently, the zeta function is the exponential of the generating
series sum_k N_k u^k / k of closed backtrackless tailless path counts.
count_closed_paths counts them by the non-backtracking edge matrix, sharing
no code with the determinant; series_consistency checks the reciprocal
polynomial's coefficients c_k against them by Newton's identities,
k c_k + sum_(i<=k) N_i c_(k-i) = 0 (the log-derivative of the
exponential), in plain integers.  On a correct build every residual is
exactly zero through the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix whose leading
    principal minors are all nonzero (they are Bareiss's pivots); m is
    overwritten."""
    n = len(m)
    prev = 1
    for k in range(n - 1):
        row_k, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return m[n - 1][n - 1] if n else 1  # the empty determinant is 1


@dataclass(frozen=True)
class ReciprocalZeta:
    """Exact integer coefficients of the reciprocal zeta polynomial."""

    coefficients: tuple[int, ...]
    n_vertices: int
    n_edges: int

    @property
    def rank_term(self) -> float:
        """r - 1 = E - N."""
        return float(self.n_edges - self.n_vertices)

    def __call__(self, u: float) -> float:
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * u + c
        return out


def _check_vertex_count(
    n: int, limit: int = MAX_EXACT_VERTICES, budget: str = "exact-polynomial"
) -> None:
    """Refuse n vertices beyond a budget, by default the exact polynomial's;
    the CLI calls it on a graph spec before building its n x n array."""
    if n > limit:
        raise ValueError(f"graph too large for the {budget} budget ({n} > {limit})")


def _validate_small_graph(adj: np.ndarray, limit: int, budget: str) -> np.ndarray:
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    _check_vertex_count(adj.shape[0], limit, budget)
    if np.any(adj != adj.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(adj) != 0):
        raise ValueError("graph must have no loops")
    if np.any((adj != 0) & (adj != 1)):
        raise ValueError("graph must be simple (0/1 entries)")
    return adj.astype(np.int64)


def zeta_reciprocal_polynomial(adj: np.ndarray) -> ReciprocalZeta:
    """Exact coefficients of the reciprocal zeta polynomial.

    The whole polynomial is one integer at u = X = 2^b (Kronecker
    substitution), unpacked into signed base-X digits.  Row i of the
    polynomial matrix has coefficient magnitudes summing to
    1 + |d_i - 1| + d_i, so their product B bounds the summed coefficient
    magnitudes of the determinant (and of every minor).  With k = |r - 1|:

    - r - 1 >= 0: the product with (1 - u^2)^k has summed magnitudes at
      most B 2^k;
    - r - 1 < 0: a quotient by (1 - u^2)^k is the determinant times the
      series sum_i C(k-1+i, i) u^(2i) of (1 - u^2)^-k, truncated at i = n
      (long division from the top reads the same series in 1/u), so its
      coefficients are at most B 2^(k+n-1), and those of a remainder of
      the polynomial division at most B (1 + 2^(2k+n-1)).

    b puts X/4 above the bound.  Then digits below X/2 are exactly the
    coefficients, and the integer divmod by (1 - X^2)^k is exact only when
    the polynomial division is: a nonzero remainder r(u) of degree < 2k has
    0 < |r(X)| < |1 - X^2|^k, so it leaves a nonzero integer remainder.  An
    inexact division signals an inconsistent input and raises.
    """
    adj = _validate_small_graph(adj, MAX_EXACT_VERTICES, "exact-polynomial")
    n = adj.shape[0]
    degrees = adj.sum(axis=1).tolist()
    n_edges = sum(degrees) // 2
    rank = n_edges - n  # r - 1 as an exact integer
    k = abs(rank)
    bound = 2**k if rank >= 0 else 1 + 2 ** (2 * k + n - 1)
    for d in degrees:
        bound *= 1 + abs(d - 1) + d
    bits = bound.bit_length() + 2
    scale = 1 << bits
    # every leading principal minor is 1 at u = 0, so 1 mod X at u = X:
    # no pivot is zero
    rows = [[-scale * a for a in row] for row in adj.tolist()]
    for i, d in enumerate(degrees):
        rows[i][i] = 1 + (d - 1) * scale * scale
    packed = _det_bareiss(rows)
    factor = (1 - scale * scale) ** k
    if rank >= 0:
        packed *= factor
    else:
        packed, rest = divmod(packed, factor)
        if rest:
            raise ValueError("determinant not divisible - graph/implementation inconsistency")
    poly = []
    while packed:
        digit = packed & (scale - 1)
        if digit >= scale >> 1:
            digit -= scale
        poly.append(digit)
        packed = (packed - digit) >> bits
    if not poly or poly[0] != 1:
        raise ValueError("reciprocal zeta polynomial must have constant term 1")
    return ReciprocalZeta(coefficients=tuple(poly), n_vertices=n, n_edges=n_edges)


def _check_path_budget(adj: np.ndarray, order: int) -> np.ndarray:
    """Refuse path counts of lengths 1..order beyond the path-count budget,
    before any work; returns the validated adjacency."""
    adj = _validate_small_graph(adj, MAX_PATH_VERTICES, "path-count")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_PATH_LENGTH:
        raise ValueError(f"path length {order} beyond path-count budget {MAX_PATH_LENGTH}")
    return adj


def count_closed_paths(adj: np.ndarray, k: int) -> int:
    """Number of closed backtrackless tailless paths of length k.

    Paths are counted individually: each starting vertex and each direction
    contributes one, so a triangle has 6 paths of length 3.  On the 2E
    darts (directed edges), B[(x, y), (y, z)] = 1 when z != x, and tr(B^k)
    counts the paths whose first step does not reverse their last
    (Hashimoto).
    """
    adj = _check_path_budget(adj, k)
    tails, heads = np.nonzero(adj)
    follows = heads[:, None] == tails[None, :]
    step = (follows & (tails[:, None] != heads[None, :])).astype(np.int64)
    # a dart has at most MAX_PATH_VERTICES - 2 successors, so within the
    # budgets every entry and the trace stay below 2E * 8^12 ~ 6e12: int64
    # is exact
    return int(np.trace(np.linalg.matrix_power(step, k)))


def series_consistency(adj: np.ndarray, poly: ReciprocalZeta, order: int) -> int:
    """Largest Newton residual of poly against the path counts N_k:
    max(|c_0 - 1|, max_(1<=k<=order) |k c_k + sum_(i=1..k) N_i c_(k-i)|).

    poly is zeta_reciprocal_polynomial(adj), computed once by the caller.
    exp(sum_k N_k u^k / k) * poly = 1 + O(u^(order+1)) holds exactly when
    c_0 = 1 and poly' + S' poly = O(u^order), S' = sum_k N_k u^(k-1), whose
    coefficients are the residuals; so a correct pairing returns 0.
    """
    adj = _check_path_budget(adj, order)
    if (poly.n_vertices, poly.n_edges) != (len(adj), int(np.sum(adj)) // 2):
        raise ValueError("polynomial belongs to another graph")
    counts = [0] + [count_closed_paths(adj, k) for k in range(1, order + 1)]
    coeffs = list(poly.coefficients[: order + 1])
    coeffs += [0] * (order + 1 - len(coeffs))
    worst = abs(coeffs[0] - 1)
    for k in range(1, order + 1):
        residual = k * coeffs[k] + sum(counts[i] * coeffs[k - i] for i in range(1, k + 1))
        worst = max(worst, abs(residual))
    return worst
