"""Cross-module validation suite behind the `validate` CLI command and the
exact acceptance criteria (tests/test_acceptance.py calls these checks).

Each check pairs two independent routes to the same quantity (enumeration
against recurrence, exact series against determinant, recurrence against
quadrature, ...) and fails loudly on disagreement.  All functions resolve
their targets through the module objects at call time, so a fault injected
into any single route is caught by its counterpart.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import graphs, limits, moments, percolation, walks, zeta

__all__ = ["CheckResult", "run_validation", "VALIDATION_GRID"]

VALIDATION_GRID = [(v, p) for v in (0.5, 1.0, 2.0) for p in (0.5, 1.0, 2.0, 10.0)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _gap(value: float, reference: float) -> float:
    """Relative gap of value against its reference route; a zeroed
    reference (a broken route) gives a huge gap instead of raising."""
    return abs(value - reference) / max(abs(reference), 1e-300)


def _worst_table_gap(values, references) -> float:
    """Largest relative gap over the entries k >= 1, 1 <= r <= k of two
    triangular tables."""
    return max(
        _gap(values[k][r], references[k][r])
        for k in range(1, len(references))
        for r in range(1, k + 1)
    )


def check_binomial_domain() -> CheckResult:
    """The degenerate rows and the refusal of an out-of-pattern call.  The
    recurrences read the binomial row tables, which raise KeyError outside
    the same pattern, so every table check would crash on a stray lookup."""
    ok = (
        moments.extended_binomial(-1, 0) == 1
        and moments.extended_binomial(0, 1) == 0
        and moments.extended_binomial(3, 2) == 3
    )
    try:
        moments.extended_binomial(0, 2)
        refused = False
    except ValueError:
        refused = True
    return CheckResult(
        "extended-binomial-domain",
        ok and refused,
        f"degenerate rows ok={ok}, out-of-pattern call refused={refused}",
    )


def check_oracle_vs_recurrence() -> CheckResult:
    k_max = 8
    worst = 0.0
    for v, phi1 in VALIDATION_GRID:
        table = moments.tree_weight_table(k_max, v, phi1)
        oracle = [
            [walks.oracle_tree_weight(k, r, v, phi1) for r in range(k + 1)]
            for k in range(k_max + 1)
        ]
        worst = max(worst, _worst_table_gap(oracle, table))
    return CheckResult(
        "walk-oracle-vs-recurrence", worst <= 1e-9, f"worst relative gap {worst:.3e}"
    )


def check_route_equivalence() -> CheckResult:
    """The shared root-exit composition and its first-edge cache against the
    plain loop that recomputes each first-edge weight; both use the same
    first-edge sum, so this is no independent route (the walk oracle is)."""
    k_max = 10
    worst = 0.0
    for v, phi1 in VALIDATION_GRID:
        table = moments.tree_weight_table(k_max, v, phi1)
        split = moments.tree_weight_split(k_max, v, phi1)
        worst = max(worst, _worst_table_gap(split, table))
    return CheckResult(
        "recurrence-route-equivalence", worst <= 1e-12, f"worst relative gap {worst:.3e}"
    )


def check_dense_limits() -> CheckResult:
    k_max = 10
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        m_inf = moments.limit_moments(k_max, v, 1e8)
        mu = moments.dense_moments(k_max, v)
        for k in range(1, k_max + 1):
            worst = max(worst, _gap(m_inf[k], mu[k]))
        table = moments.tree_weight_table(k_max, v, 1e8)
        worst = max(worst, _worst_table_gap(table, moments.dense_tree_weight_table(k_max, v)))
    return CheckResult("dense-degree-limit", worst <= 1e-6, f"worst relative gap {worst:.3e}")


def check_adjacency_limits() -> CheckResult:
    p_max = 6
    worst = 0.0
    odd_ok = True
    for v in (0.5, 1.0, 2.0):
        ell = moments.adjacency_moments(2 * p_max, v, 1e8)
        for p in range(1, p_max + 1):
            worst = max(worst, _gap(ell[2 * p], moments.catalan_moment(p, v)))
            odd_ok = odd_ok and ell[2 * p - 1] == 0.0
    return CheckResult(
        "adjacency-catalan-limit",
        worst <= 1e-6 and odd_ok,
        f"worst relative gap {worst:.3e}, odd moments zero={odd_ok}",
    )


def check_dense_moment_quadrature() -> CheckResult:
    k_max = 12
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        mu = moments.dense_moments(k_max, v)
        for k in range(0, k_max + 1):
            worst = max(worst, _gap(limits.semicircle_moment(k, v), mu[k]))
    return CheckResult(
        "semicircle-moment-quadrature", worst <= 1e-8, f"worst relative gap {worst:.3e}"
    )


def check_weighted_sum_identity() -> CheckResult:
    p_max = 6
    worst = 0.0
    for v, phi1 in VALIDATION_GRID:
        table = moments.adjacency_weight_table(p_max, v, phi1)
        for p in range(1, p_max + 1):
            lhs = moments.weighted_adjacency_sum(1, table[p])
            rhs = 0.0
            for g in range(1, p + 1):
                conv = sum(
                    moments.weighted_adjacency_sum(g, table[p - g - j])
                    * moments.weighted_adjacency_sum(g, table[j])
                    for j in range(0, p - g + 1)
                )
                rhs += v ** (2 * g) / phi1 ** (g - 1) * conv
            worst = max(worst, _gap(rhs, lhs))
    return CheckResult(
        "weighted-adjacency-identity", worst <= 1e-9, f"worst relative gap {worst:.3e}"
    )


def check_bound_lemmas() -> CheckResult:
    details = []
    ok = True
    for v, phi1 in VALIDATION_GRID:
        rep = moments.adjacency_bound_report(8, v, phi1)
        ok = ok and rep.passed
        rep2 = moments.tree_bound_report(8, v, phi1)
        ok = ok and rep2.passed
        details.append(max(rep.tightest_ratio, rep2.tightest_ratio))
    return CheckResult(
        "weight-upper-bounds", ok, f"largest bound ratio {max(details):.3e}"
    )


def check_zeta_series() -> CheckResult:
    bad = []
    for name, adj in graphs.zeta_corpus():
        gap = zeta.series_consistency(adj, zeta.zeta_reciprocal_polynomial(adj), 10)
        if gap != 0:
            bad.append(name)
    return CheckResult(
        "zeta-series-vs-determinant",
        not bad,
        "all corpus graphs exact" if not bad else f"nonzero on {bad}",
    )


def check_zeta_bridge() -> CheckResult:
    """The sampled route against the exact one: -(1/N) log Z from the
    prefactor term and the sparse LDLᵀ log-det of H (phi1 = 1, so v = u)
    against log(poly(u)) / N, with poly the exact reciprocal polynomial that
    check_zeta_series proves against the path-count series.  A wrong
    coefficient or a wrong factorisation shows here.  This check alone
    reads spectra, so it alone imports it (and scipy with it)."""
    from . import spectra

    worst = 0.0
    for name, adj in graphs.zeta_corpus():
        degrees = adj.sum(axis=1)
        n = adj.shape[0]
        poly = zeta.zeta_reciprocal_polynomial(adj)
        for u in (-0.2, -0.1, 0.05, 0.1, 0.2):
            h = percolation.build_h(adj, degrees, u, 1.0)
            summary = spectra.eigenvalue_summary(h, v=u, phi1=1.0)
            lhs = spectra.neg_log_zeta_density(degrees, summary)
            rhs = math.log(poly(u)) / n
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "zeta-density-bridge", worst <= 1e-9, f"worst absolute gap {worst:.3e}"
    )


def check_path_count_conventions() -> CheckResult:
    c3 = graphs.cycle_graph(3)
    ok = (
        zeta.count_closed_paths(c3, 3) == 6
        and zeta.count_closed_paths(c3, 4) == 0
        and zeta.count_closed_paths(c3, 5) == 0
        and zeta.count_closed_paths(c3, 6) == 6
    )
    for n in (4, 5, 6):
        cn = graphs.cycle_graph(n)
        for k in range(1, 13):
            expect = 2 * n if k % n == 0 else 0
            ok = ok and zeta.count_closed_paths(cn, k) == expect
    for k in range(1, 9):
        ok = ok and zeta.count_closed_paths(graphs.path_graph(4), k) == 0
    return CheckResult("closed-path-counts", ok, "cycle and tree counts match closed forms")


def check_limit_functions() -> CheckResult:
    worst = 0.0
    for v in (0.3, 0.7, 0.9, 1.5):
        f = limits.log_zeta_limit(v)
        other = v * v / 2.0 - limits.semicircle_log_integral(v)
        worst = max(worst, abs(f - other))
    resid = 0.0
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-6, 6), rng.uniform(1e-3, 6))
        g = limits.stieltjes_transform(z, 1.0)
        resid = max(resid, abs(g * (1.0 - z - g) - 1.0))
    tail_ok = stieltjes_tail_within_bound()
    ok = worst <= 1e-8 and resid <= 1e-12 and tail_ok and limits.log_zeta_limit(0.0) == 0.0
    return CheckResult(
        "limit-function-consistency",
        ok,
        f"integral gap {worst:.3e}, transform residual {resid:.3e}, tail bound ok={tail_ok}",
    )


def stieltjes_tail_within_bound() -> bool:
    """Truncated moment series vs the transform at v = 1, in high precision.

    The truncation bound (3/z)^terms/(z - 3) drops below float64 resolution
    already at z = 10, so the comparison runs at 60 significant digits; the
    moments themselves are exact integers at v = 1.
    """
    terms = 41
    mu = [int(round(m)) for m in moments.dense_moments(terms - 1, 1.0)]
    with localcontext() as ctx:
        ctx.prec = 60
        for z in (4, 6, 10):
            z = Decimal(z)
            g = (-(z - 1) + ((z - 1) ** 2 - 4).sqrt()) / 2
            series = -sum(Decimal(mu[k]) / z ** (k + 1) for k in range(terms))
            bound = Decimal(3) ** terms / z**terms / (z - 3)
            if abs(g - series) > bound:
                return False
    return True


def check_mean_degree_sum() -> CheckResult:
    # expected edges per vertex E[E]/N = sum_(d>=1) (N - d) p_d / N, the
    # precursor of the prefactor expectation, against its limit phi1/2
    n = 2000
    profile = percolation.Profile.from_name("gauss", 0.5)
    n_vertices = 2 * n + 1
    radius = math.sqrt(n_vertices)
    pairs = n_vertices - np.arange(1, n_vertices)  # site pairs at distance d
    total = float(np.dot(pairs, percolation.offset_probabilities(n, radius, profile))) / n_vertices
    target = profile.phi1 / 2.0
    gap = abs(total - target) / target
    return CheckResult(
        "mean-degree-sum-limit", gap <= 0.02, f"relative gap {gap:.3e} at N={n_vertices}"
    )


ALL_CHECKS = [
    check_binomial_domain,
    check_oracle_vs_recurrence,
    check_route_equivalence,
    check_dense_limits,
    check_adjacency_limits,
    check_dense_moment_quadrature,
    check_weighted_sum_identity,
    check_bound_lemmas,
    check_zeta_series,
    check_zeta_bridge,
    check_path_count_conventions,
    check_limit_functions,
    check_mean_degree_sum,
]


def run_validation() -> dict:
    """Run every check; the report is JSON-ready."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed route is a failed check
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return {
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
