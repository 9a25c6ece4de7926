"""Exact limiting-moment recurrences for the percolation spectral ensemble.

Everything here is closed-form combinatorics in the two parameters
(v, phi1): no sampling, no linear algebra.  Each quantity is built as one
table up to a maximal order; lower orders are prefixes of it.

* tree_weight_table(k_max): T[k][r], the total weight of tree-type closed
  walks of k steps with r steps leaving the root; the limiting spectral
  moment is m_k = sum_r T[k][r] (limit_moments).
* adjacency_weight_table(p_max): the analogous array for the normalized
  adjacency matrix alone, whose even moments are L_p = sum_r A[p][r]
  (adjacency_moments).
* dense limits: as phi1 -> infinity the arrays collapse to the moments of a
  semicircle distribution shifted by v^2 (dense_moments, catalan_moment).
* finite_moments: the exact expectations of the first two sampled moments
  at finite (N, R), from the sampler's own per-offset edge probabilities
  (percolation.offset_probabilities).

Both tables are one root-exit composition (_compose).  Criterion 02 checks
it and its first-edge cache against the plain loop tree_weight_split; the
independent route is the brute-force enumeration oracle in the walks module.
The recurrences read binomials only from _binomial_rows, whose domain is
exactly that of extended_binomial up to a row: a lookup outside it raises
KeyError, and extended_binomial refuses an out-of-pattern call outright.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .percolation import offset_probabilities

__all__ = [
    "extended_binomial",
    "tree_weight_table",
    "tree_weight_split",
    "limit_moments",
    "finite_moments",
    "adjacency_weight_table",
    "adjacency_moments",
    "dense_moments",
    "dense_tree_weight_table",
    "catalan_moment",
    "weighted_adjacency_sum",
    "BoundReport",
    "adjacency_bound_report",
    "tree_bound_report",
    "admissible_constant",
]

def extended_binomial(a: int, b: int) -> int:
    """Binomial coefficient extended to the degenerate rows the weight
    recurrences touch.

    Rules: C(a, b) for a >= b >= 0; 1 for b == 0 (including a == -1);
    0 for a == b - 1 with b > 0.  Every other (a, b) is refused.
    """
    if a < -1:
        raise ValueError(f"extended binomial undefined for a={a} < -1")
    if b < 0:
        raise ValueError(f"extended binomial needs b >= 0, got {b}")
    if a < b - 1:
        raise ValueError(f"extended binomial undefined for a={a} < b - 1 = {b - 1}")
    return 1 if b == 0 else math.comb(a, b)


def _check_params(phi1: float) -> None:
    if phi1 <= 0.0:
        raise ValueError(f"phi1 must be positive, got {phi1}")


def _binomial_rows(k_max: int) -> dict[int, dict[int, int]]:
    """rows[a][b] = extended_binomial(a, b) on the domain the recurrences of
    order k_max read, -1 <= a <= k_max and 0 <= b <= a + 1; a lookup outside
    it raises KeyError.  Built through the module attribute at call time, so
    a patched extended_binomial reaches every table."""
    return {a: {b: extended_binomial(a, b) for b in range(a + 2)} for a in range(-1, k_max + 1)}


def _edge_scales(k_max: int, v: float, phi1: float) -> list[float]:
    """scales[e] = v^(2e)/phi1^(e-1) for 0 <= e <= k_max; a non-finite v and
    a subnormal v^2 (0 < |v| below ~1.5e-154) are refused."""
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    v2 = v * v
    if 0.0 < v2 < sys.float_info.min:
        raise ValueError(f"v = {v:g}: v^2 = {v2:.3g} is subnormal, so the edge scales lose digits")
    try:
        return [v2**e / phi1 ** (e - 1) for e in range(k_max + 1)]
    except OverflowError:
        raise ValueError(
            f"v = {v:g}: the edge scale v^(2k)/phi1^(k-1) overflows a float by k = {k_max}"
        ) from None


def _compose(k_max: int, binom, first_edge, exit_scales) -> list[list[float]]:
    """T[k][r] = sum_g sum_s exit_scales[g] C(r-1, g-1) T[s][r-g] F(k-s, g) for
    0 <= r <= k <= k_max, T[0][0] = 1, with C read from binom, which holds
    _binomial_rows(k_max - 1) at least.  Each F(k, g) = first_edge(table, k, g)
    reads rows below k only and is computed once, at the start of row k."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    table = [[0.0] * (k + 1) for k in range(k_max + 1)]
    table[0][0] = 1.0
    firsts = [[]]
    for k in range(1, k_max + 1):
        firsts.append([0.0] + [first_edge(table, k, g) for g in range(1, k + 1)])
        for r in range(1, k + 1):
            total = 0.0
            row = binom[r - 1]
            for g in range(1, r + 1):
                # the scale stays a factor of its own, multiplied in this
                # order: folded into F it changes the last bits of the tables
                coef = exit_scales[g] * row[g - 1]
                for s in range(r - g, k - g + 1):
                    left = table[s][r - g]
                    if left == 0.0:
                        continue
                    total += coef * left * firsts[k - s][g]
            table[k][r] = total
    return table


def tree_weight_table(k_max: int, v: float, phi1: float) -> list[list[float]]:
    """Triangular table T[k][r] of tree-type walk weights, 0 <= r <= k <= k_max:
    walks of k steps split at their first root edge into g root steps along
    it, an s-step remainder at the root, and the first-edge rest."""
    _check_params(phi1)
    binom = _binomial_rows(k_max)
    scales = _edge_scales(k_max, v, phi1)
    return _compose(
        k_max,
        binom,
        lambda table, ks, g: _first_edge_weight_from(table, binom, scales, ks, g),
        [1.0] * (k_max + 1),
    )


def _first_edge_weight_from(table, binom, scales, ks: int, g: int) -> float:
    """ks-step walks with g root steps along the first root edge, w doubled
    (paired) traversals, h out-and-back excursions from the far endpoint
    back to the root, and a t-branch sub-walk hanging off the far endpoint.
    binom is _binomial_rows(k) and scales is _edge_scales(k, v, phi1), k >= ks."""
    total = 0.0
    for w in range(0, g + 1):
        cgw = binom[g][w]
        for h in range(0, ks - g - w + 1):
            c_wh = binom[w + h - 1][h]
            if c_wh == 0:
                continue
            scale = scales[g + h] * cgw * c_wh
            rest = table[ks - g - w - h]
            for t in range(0, ks - g - w - h + 1):
                c_t = binom[w + h + t - 1][t]
                if c_t == 0:
                    continue
                total += scale * c_t * rest[t]
    return total


def tree_weight_split(k_max: int, v: float, phi1: float) -> list[list[float]]:
    """Tree walk weight table by the plain root-exit loop, recomputing the
    first-edge weight per term: the reference that criterion 02 checks
    _compose and its cache against.  It shares _first_edge_weight_from with
    tree_weight_table, so it is no independent derivation."""
    _check_params(phi1)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    binom = _binomial_rows(k_max)
    scales = _edge_scales(k_max, v, phi1)
    table = [[0.0] * (k + 1) for k in range(k_max + 1)]
    table[0][0] = 1.0
    for k in range(1, k_max + 1):
        for r in range(1, k + 1):
            total = 0.0
            for g in range(1, r + 1):
                for s in range(r - g, k - g + 1):
                    outer = binom[r - 1][g - 1] * table[s][r - g]
                    if outer == 0.0:
                        continue
                    total += outer * _first_edge_weight_from(table, binom, scales, k - s, g)
            table[k][r] = total
    return table


def limit_moments(k_max: int, v: float, phi1: float) -> list[float]:
    """Limiting spectral moments m_0..m_k_max of the rescaled ensemble."""
    table = tree_weight_table(k_max, v, phi1)
    out = [1.0]
    for k in range(1, k_max + 1):
        out.append(sum(table[k][r] for r in range(1, k + 1)))
    return out


def finite_moments(k_max: int, n: int, radius: float, profile, v: float) -> list[float]:
    """Exact expectations E M_0..E M_k_max of one sample's spectral moments
    at finite (N, R), N = 2n + 1, for k_max <= 2, in O(N).

    With p_d = phi(d/R)/R from offset_probabilities, which refuses the
    (n, R) the sampler refuses, and c = v^2/phi1, vertex x has E d_x = C(x) +
    C(N-1-x) and Var d_x = V(x) + V(N-1-x), where C(m) and V(m) sum p_d and
    p_d(1 - p_d) over d <= m; then E M_1 = c mean E d_x and
    E M_2 = mean[c^2 (Var d_x + (E d_x)^2) + c E d_x].
    """
    if not 0 <= k_max <= 2:
        raise ValueError(
            f"finite moments need 0 <= k_max <= 2, got {k_max}: M_3 and M_4 need "
            "the path and triangle sums of ROADMAP item 1"
        )
    n_vertices = 2 * n + 1
    p = offset_probabilities(n, radius, profile)
    prefix = np.concatenate(([0.0], np.cumsum(p)))
    prefix_var = np.concatenate(([0.0], np.cumsum(p * (1.0 - p))))
    x = np.arange(n_vertices)
    mean_d = prefix[x] + prefix[n_vertices - 1 - x]
    var_d = prefix_var[x] + prefix_var[n_vertices - 1 - x]
    c = v * v / profile.phi1
    out = [1.0, c * float(mean_d.mean()), float(np.mean(c * c * (var_d + mean_d**2) + c * mean_d))]
    return out[: k_max + 1]


def adjacency_weight_table(p_max: int, v: float, phi1: float) -> list[list[float]]:
    """Triangular table of root-exit-resolved adjacency walk weights, with
    exit scale v^(2g)/phi1^(g-1) and F(ps, g) = sum_t C(g+t-1, t) A[ps-g][t]."""
    _check_params(phi1)
    binom = _binomial_rows(p_max - 1)

    def first_edge(table, ps, g):
        inner = 0.0
        rest = table[ps - g]
        for t in range(0, ps - g + 1):
            inner += binom[g + t - 1][t] * rest[t]
        return inner

    return _compose(p_max, binom, first_edge, _edge_scales(p_max, v, phi1))


def adjacency_moments(k_max: int, v: float, phi1: float) -> list[float]:
    """Limiting moments ell_0..ell_k_max of the normalized adjacency matrix:
    zero for odd k, the Catalan-like sum L_p for k = 2p."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    table = adjacency_weight_table(k_max // 2, v, phi1)
    out = [1.0]
    for k in range(1, k_max + 1):
        out.append(0.0 if k % 2 else sum(table[k // 2][r] for r in range(1, k // 2 + 1)))
    return out


def dense_moments(k_max: int, v: float) -> list[float]:
    """Moments mu_0..mu_k_max of the v^2-shifted semicircle law, by the
    quadratic convolution recurrence."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v2 = v * v
    mu = [1.0]
    if k_max >= 1:
        mu.append(v2)
    for k in range(2, k_max + 1):
        conv = sum(mu[j] * mu[k - j - 2] for j in range(0, k - 1))
        mu.append(v2 * mu[k - 1] + v2 * conv)
    return mu


def dense_tree_weight_table(k_max: int, v: float) -> list[list[float]]:
    """Dense-degree limit of the tree weight table (phi1 -> infinity)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v2 = v * v
    table = [[0.0] * (k + 1) for k in range(k_max + 1)]
    table[0][0] = 1.0
    for k in range(1, k_max + 1):
        for r in range(1, k + 1):
            val = v2 * table[k - 1][r - 1]
            for s in range(r - 1, k):
                row = k - s - 2
                if row < 0:
                    continue
                branch = sum(table[row][t] for t in range(0, row + 1))
                val += v2 * table[s][r - 1] * branch
            table[k][r] = val
    return table


def catalan_moment(p: int, v: float) -> float:
    """Even moment of the Wigner semicircle law: v^(2p) (2p)!/(p!(p+1)!)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return v ** (2 * p) * math.comb(2 * p, p) / (p + 1)


def weighted_adjacency_sum(i: int, row) -> float:
    """Row A[p] of adjacency_weight_table summed with rising-factorial
    coefficients: sum_r [(r+1)(r+2)...(r+i-1)/(i-1)!] * A[p][r].

    Order i = 1 has unit weight and reproduces the adjacency moment L_p.
    """
    if i < 1:
        raise ValueError("order i must be >= 1")
    total = 0.0
    for r, weight in enumerate(row):
        coeff = 1.0
        for j in range(1, i):
            coeff *= r + j
        coeff /= math.factorial(i - 1)
        total += coeff * weight
    return total


@dataclass
class BoundReport:
    """Outcome of sweeping an upper bound over orders 1..order_max."""

    passed: bool
    constant: float
    order_max: int
    tightest_ratio: float
    ratios: list[float] = field(default_factory=list)


def _check_bound_order(name: str, order: int) -> None:
    if order < 1:
        raise ValueError(f"{name} must be >= 1 for a bound sweep over orders 1..{name}, got {order}")


def _check_bound_v(v: float) -> None:
    if v * v == 0.0:  # v = 0, or |v| below ~1.5e-162 where v^2 underflows
        raise ValueError(f"v = {v:g} makes every moment bound (C v^2)^k zero")


def _adjacency_constant(phi1: float) -> float:
    """Smallest C admissible for the adjacency bound: C >= 1 and C*phi1 >= 1."""
    return max(1.0, 1.0 / phi1)


def adjacency_bound_report(p_max: int, v: float, phi1: float) -> BoundReport:
    """Check max_r A[p][r] <= (C v^2)^p p^(2p) for p <= p_max at the smallest
    admissible C.  The bound grows with C, so passing here implies passing
    at any larger C."""
    _check_bound_order("p_max", p_max)
    _check_bound_v(v)
    constant = _adjacency_constant(phi1)
    table = adjacency_weight_table(p_max, v, phi1)
    ratios = []
    for p in range(1, p_max + 1):
        biggest = max(table[p][r] for r in range(1, p + 1))
        bound = (constant * v * v) ** p * float(p) ** (2 * p)
        ratios.append(biggest / bound)
    ok = all(rho <= 1.0 for rho in ratios)
    return BoundReport(ok, constant, p_max, max(ratios), ratios)


def _tree_bound_inequalities(constant: float, v: float, phi1: float) -> tuple[float, float]:
    _check_bound_v(v)
    c = constant
    lhs1 = (1.0 / c) * (1.0 + 1.0 / (c * v * v)) * math.exp(1.0 / (c * phi1))
    lhs2 = (1.0 / (c * phi1)) * (1.0 + 1.0 / (c * v * v))
    return lhs1, lhs2


def admissible_constant(v: float, phi1: float) -> float:
    """Smallest C > 0 satisfying both admissibility inequalities of the
    tree-weight bound, found by bisection to a relative 1e-12 (both sides
    decrease in C)."""
    tol = 1e-12
    lo, hi = tol, 1.0
    while max(_tree_bound_inequalities(hi, v, phi1)) > 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"v = {v:g}, phi1 = {phi1:g}: no admissible constant below 1e12")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if max(_tree_bound_inequalities(mid, v, phi1)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def tree_bound_report(k_max: int, v: float, phi1: float) -> BoundReport:
    """Check max_r T[k][r] <= (C v^2 k)^k for k <= k_max, and the
    corollary m_k <= (C v^2)^k k^(k+1) on the summed moments, at the smallest
    admissible C (admissible_constant).  Both bounds grow with C, so passing
    here implies passing at any larger C."""
    _check_bound_order("k_max", k_max)
    constant = admissible_constant(v, phi1)
    table = tree_weight_table(k_max, v, phi1)
    ratios = []
    for k in range(1, k_max + 1):
        biggest = max(table[k][r] for r in range(1, k + 1))
        bound = (constant * v * v * k) ** k
        ratios.append(biggest / bound)
        m_k = sum(table[k][r] for r in range(1, k + 1))
        moment_bound = (constant * v * v) ** k * float(k) ** (k + 1)
        ratios.append(m_k / moment_bound)
    ok = all(rho <= 1.0 for rho in ratios)
    return BoundReport(ok, constant, k_max, max(ratios), ratios)
