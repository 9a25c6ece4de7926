"""Exact Ihara zeta function of small explicit graphs.

The reciprocal of the zeta function is the polynomial

    (1 - u^2)^(r-1) * det(I + u^2 (B - I) - u A)

with A the adjacency matrix, B the diagonal degree matrix and
r - 1 = Tr(B - 2I)/2.  The determinant is one fraction-free (Bareiss)
elimination over plain integers, at u = 2^b: the product over vertices of
1 + |d - 1| + d bounds every coefficient's magnitude, b puts 2^(b-1)
above that bound, and the signed base-2^b digits of the integer are then
exactly the coefficients.  Calling the ReciprocalZeta evaluates it at a
float u; it is the package's one reciprocal-zeta value.

Independently, the zeta function is the exponential of the generating
series of closed backtrackless tailless path counts.  count_closed_paths
counts them by the non-backtracking edge matrix, sharing no code with the
determinant; series_consistency multiplies the exponential of their series
against the reciprocal polynomial and reports the worst deviation from 1,
exactly: the series runs on integers scaled by factorials, and only the
deviation at each order is a fraction.  On a correct build the deviation
is exactly zero through the requested order.
"""

from __future__ import annotations

import math
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
    rank_term: float  # r - 1

    def __call__(self, u: float) -> float:
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * u + c
        return out

    def as_list(self) -> list[int]:
        return list(self.coefficients)


def _validate_small_graph(adj: np.ndarray, limit: int, budget: str) -> np.ndarray:
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if adj.shape[0] > limit:
        raise ValueError(f"graph too large for the {budget} budget ({adj.shape[0]} > {limit})")
    if np.any(adj != adj.T):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diag(adj) != 0):
        raise ValueError("graph must have no loops")
    if np.any((adj != 0) & (adj != 1)):
        raise ValueError("graph must be simple (0/1 entries)")
    return adj.astype(np.int64)


def zeta_reciprocal_polynomial(adj: np.ndarray) -> ReciprocalZeta:
    """Exact coefficients of the reciprocal zeta polynomial.

    det(I - uA + u^2 (B - I)) is one integer determinant at u = X = 2^b
    (Kronecker substitution), unpacked into signed base-X digits.  Row i
    of the polynomial matrix has coefficient magnitudes summing to
    1 + |d_i - 1| + d_i, so their product bounds the coefficient magnitudes
    of the determinant (and of every minor); b makes X/2 exceed it, and
    the digits are exactly the coefficients.

    For forests r - 1 < 0 and the determinant must be exactly divisible by
    (1 - u^2)^(1-r); inexact division signals an inconsistent input.
    """
    adj = _validate_small_graph(adj, MAX_EXACT_VERTICES, "exact-polynomial")
    n = adj.shape[0]
    degrees = adj.sum(axis=1).tolist()
    n_edges = sum(degrees) // 2
    rank = n_edges - n  # r - 1 as an exact integer
    bound = 1
    for d in degrees:
        bound *= 1 + abs(d - 1) + d
    bits = bound.bit_length() + 1
    scale = 1 << bits
    # every leading principal minor is 1 at u = 0, so 1 mod X at u = X:
    # no pivot is zero
    rows = [[-scale * a for a in row] for row in adj.tolist()]
    for i, d in enumerate(degrees):
        rows[i][i] = 1 + (d - 1) * scale * scale
    packed = _det_bareiss(rows)
    poly = []
    while packed:
        digit = packed & (scale - 1)
        if digit >= scale >> 1:
            digit -= scale
        poly.append(digit)
        packed = (packed - digit) >> bits
    one_minus_u2 = [1, 0, -1]
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


def count_closed_paths(adj: np.ndarray, k: int) -> int:
    """Number of closed backtrackless tailless paths of length k.

    Paths are counted individually: each starting vertex and each direction
    contributes one, so a triangle has 6 paths of length 3.  On the 2E
    darts (directed edges), B[(x, y), (y, z)] = 1 when z != x, and tr(B^k)
    counts the paths whose first step does not reverse their last
    (Hashimoto).
    """
    adj = _validate_small_graph(adj, MAX_PATH_VERTICES, "path-count")
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
    return int(np.trace(np.linalg.matrix_power(step, k)))


def series_consistency(adj: np.ndarray, poly: ReciprocalZeta, order: int) -> Fraction:
    """Largest |coefficient - delta_{j,0}| of exp(path series) * poly.

    poly is zeta_reciprocal_polynomial(adj), computed once by the caller.
    Both factors are exact, so a correct pairing returns Fraction(0).  The
    series runs on integers scaled by factorials: e_m = m! E_m for the
    exponential's coefficients E_m, and j! c_j for the product's, so the
    only division is the gap's own.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if (poly.n_vertices, poly.n_edges) != (len(adj), int(np.sum(adj)) // 2):
        raise ValueError("polynomial belongs to another graph")
    counts = [0] + [count_closed_paths(adj, k) for k in range(1, order + 1)]
    # exp of S = sum_k counts[k] u^k / k via E' = S'E: m E_m = sum_i counts[i] E_(m-i)
    scaled_exp = [1]
    for m in range(1, order + 1):
        scaled_exp.append(sum(
            counts[i] * math.perm(m - 1, i - 1) * scaled_exp[m - i] for i in range(1, m + 1)
        ))
    coeffs = poly.coefficients
    worst = Fraction(0)
    for j in range(order + 1):
        scaled = sum(
            scaled_exp[i] * math.perm(j, j - i) * coeffs[j - i]
            for i in range(max(0, j - len(coeffs) + 1), j + 1)
        )
        gap = abs(scaled - (1 if j == 0 else 0))
        if gap:
            worst = max(worst, Fraction(gap, math.factorial(j)))
    return worst
