import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaspectra import cli, zeta
from zetaspectra.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    is_connected,
    path_graph,
    random_connected_graph,
    read_edge_list,
    zeta_corpus,
)
from zetaspectra.percolation import sample_adjacency
from zetaspectra.zeta import (
    ReciprocalZeta,
    count_closed_paths,
    series_consistency,
    zeta_reciprocal_polynomial,
)


class TestGraphs:
    def test_constructors(self):
        assert path_graph(3).sum() == 4
        assert cycle_graph(4).sum() == 8
        assert complete_graph(5).sum() == 20
        with pytest.raises(ValueError):
            from_edges(2, [(0, 0)])

    def test_random_connected(self):
        adj = random_connected_graph(7, 0.4, seed=42)
        assert is_connected(adj)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        again = random_connected_graph(7, 0.4, seed=42)
        assert np.array_equal(adj, again)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_random_edge_probability_domain(self, p):
        # refused by name before any draw; nan used to make all MAX_TRIES draws first
        with pytest.raises(ValueError, match="edge probability must lie in \\[0, 1\\]"):
            random_connected_graph(3, p, seed=1)

    def test_edge_list_roundtrip(self, tmp_path, gauss_profile):
        # `sample --out` writes site labels -n..n; reading relabels the
        # vertices that carry an edge to 0..m-1 in site order
        path = tmp_path / "graph.txt"
        assert cli.main(["sample", "--n", "6", "--R", "2", "--seed", "9", "--out", str(path)]) == 0
        entries = sample_adjacency(6, 2.0, gauss_profile, seed=9).entries
        touched = entries.sum(axis=1) > 0
        assert touched.sum() >= 2
        assert np.array_equal(read_edge_list(path), entries[np.ix_(touched, touched)])

    def test_corpus_contents(self):
        names = [name for name, _ in zeta_corpus()]
        assert names[:9] == ["P2", "P3", "P4", "P5", "C3", "C4", "C5", "C6", "K4"]
        assert len(names) == 14
        for _, adj in zeta_corpus():
            assert adj.shape[0] <= 8
            assert is_connected(adj)


class TestDeterminantFormula:
    # the exact polynomial evaluated at u; its coefficients are pinned in
    # TestExactPolynomial and proved against the path-count series below

    def test_value_at_zero_is_one(self):
        for _, adj in zeta_corpus():
            assert zeta_reciprocal_polynomial(adj)(0.0) == 1.0

    @pytest.mark.parametrize("u", [0.1, 0.3, -0.2])
    def test_triangle_closed_form(self, u):
        # the triangle zeta is (1 - u^3)^(-2); hand check: adjacency
        # eigenvalues 2, -1, -1 give (1-u)^2 (1+u+u^2)^2
        value = zeta_reciprocal_polynomial(cycle_graph(3))(u)
        assert value == pytest.approx((1.0 - u**3) ** 2, rel=1e-12)

    def test_path_graph_is_identically_one(self):
        # a tree's zeta is 1 for every u, u = +-1 included: the polynomial
        # has no pole where the prefactor (1 - u^2)^(r-1) alone has one
        poly = zeta_reciprocal_polynomial(path_graph(3))
        for u in (-1.0, -0.9, -0.3, 0.0, 0.5, 0.99, 1.0):
            assert poly(u) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zeta_reciprocal_polynomial(np.array([[0, 1], [0, 0]]))  # asymmetric
        with pytest.raises(ValueError):
            zeta_reciprocal_polynomial(np.array([[1]]))  # loop


class TestExactDivision:
    @given(st.data())
    def test_nonzero_remainder_raises(self, data):
        # a forest's determinant is (1 - u^2)^k, k its component count;
        # plus a nonzero remainder of degree < 2k it no longer divides.  The
        # last vertex is isolated, so its diagonal entry at u = X is 1 - X^2
        adj = np.pad(data.draw(forests(11)), (0, 1))
        k = len(adj) - int(adj.sum()) // 2
        rest = data.draw(st.lists(st.integers(-3, 3), min_size=2 * k, max_size=2 * k).filter(any))
        original = zeta._det_bareiss

        def with_remainder(m):
            scale = math.isqrt(1 - m[-1][-1])
            return original(m) + sum(r * scale**j for j, r in enumerate(rest))

        with pytest.MonkeyPatch.context() as patch, pytest.raises(ValueError, match="not divisible"):
            patch.setattr(zeta, "_det_bareiss", with_remainder)
            zeta_reciprocal_polynomial(adj)

    def test_forest_with_a_cycle_divides_exactly(self):
        # a triangle beside a separate edge: r - 1 = -1, so the determinant
        # is divided once by 1 - u^2, and the tree part contributes 1
        adj = np.zeros((5, 5), dtype=int)
        adj[:3, :3] = cycle_graph(3)
        adj[3, 4] = adj[4, 3] = 1
        poly = zeta_reciprocal_polynomial(adj)
        assert poly.rank_term == -1.0
        assert poly.coefficients == zeta_reciprocal_polynomial(cycle_graph(3)).coefficients


class TestExactPolynomial:
    def test_triangle_coefficients(self):
        poly = zeta_reciprocal_polynomial(cycle_graph(3))
        assert poly.coefficients == (1, 0, 0, -2, 0, 0, 1)  # (1 - u^3)^2

    def test_edgeless_graph(self):
        poly = zeta_reciprocal_polynomial(empty_graph(5))
        assert poly.coefficients == (1,)

    def test_tree_polynomial_is_one(self):
        for n in range(2, 6):
            assert zeta_reciprocal_polynomial(path_graph(n)).coefficients == (1,)

    def test_evaluation_matches_determinant(self):
        # float reference: (1 - u^2)^(r-1) det(I + u^2 (B - I) - u A)
        u = 0.17
        for _, adj in zeta_corpus():
            poly = zeta_reciprocal_polynomial(adj)
            n, degrees = len(adj), adj.sum(axis=1)
            mat = np.eye(n) + u * u * np.diag(degrees - 1) - u * adj
            reference = (1.0 - u * u) ** (degrees.sum() // 2 - n) * np.linalg.det(mat)
            assert poly(u) == pytest.approx(reference, rel=1e-12)

    def test_degree_bounds(self):
        for _, adj in zeta_corpus():
            poly = zeta_reciprocal_polynomial(adj)
            assert poly.coefficients[0] == 1
            degree = len(poly.coefficients) - 1
            assert degree <= 2 * poly.n_edges
            if min(adj.sum(axis=1)) >= 2:
                assert degree == 2 * poly.n_edges

    def test_budget(self):
        with pytest.raises(ValueError, match=r"exact-polynomial budget \(13 > 12\)"):
            zeta_reciprocal_polynomial(complete_graph(13))


class TestClosedPaths:
    def test_trees_have_none(self):
        for n in (2, 3, 4, 5):
            for k in range(1, 9):
                assert count_closed_paths(path_graph(n), k) == 0

    def test_triangle_counts(self):
        c3 = cycle_graph(3)
        assert count_closed_paths(c3, 3) == 6
        assert count_closed_paths(c3, 4) == 0
        assert count_closed_paths(c3, 5) == 0
        assert count_closed_paths(c3, 6) == 6

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycle_winding_counts(self, n):
        cn = cycle_graph(n)
        for k in range(1, 13):
            assert count_closed_paths(cn, k) == (2 * n if k % n == 0 else 0)

    def test_budgets(self):
        with pytest.raises(ValueError):
            count_closed_paths(cycle_graph(3), 13)
        with pytest.raises(ValueError, match=r"path-count budget \(11 > 10\)"):
            count_closed_paths(complete_graph(11), 3)
        with pytest.raises(ValueError):
            count_closed_paths(cycle_graph(3), 0)

    def test_tailless_constraint_matters_on_k4(self, tailed_closed_paths):
        # on cycles every backtrackless closed path winds one way, so the
        # tailless condition only bites once a vertex has degree >= 3
        k4 = complete_graph(4)
        with_tail = tailed_closed_paths(k4, 5)
        without_tail = count_closed_paths(k4, 5)
        assert with_tail > without_tail


def dfs_closed_paths(adj, k, tailless=True):
    """Closed backtrackless paths of length k listed one by one: from each
    start and first step, extend by every neighbour but the one just left;
    a path closes at its start, and tailless rejects a last step that
    reverses the first."""
    nbrs = [list(np.nonzero(row)[0]) for row in adj]
    count = 0

    def extend(start, first, prev, here, steps_left):
        nonlocal count
        if steps_left == 0:
            if here == start and (not tailless or prev != first):
                count += 1
            return
        for nxt in nbrs[here]:
            if nxt != prev:
                extend(start, first, here, nxt, steps_left - 1)

    for start in range(len(adj)):
        for first in nbrs[start]:
            extend(start, first, start, first, k - 1)
    return count


class TestClosedPathsAgainstListing:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed, tailed_closed_paths):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.5), 1)
            adj = (upper | upper.T).astype(int)
            for k in range(1, 11):
                assert count_closed_paths(adj, k) == dfs_closed_paths(adj, k), (adj.tolist(), k)
                expect = dfs_closed_paths(adj, k, tailless=False)
                assert tailed_closed_paths(adj, k) == expect, (adj.tolist(), k)

    @pytest.mark.parametrize("tailless", [True, False])
    def test_budget_corner_is_exact(self, tailless, tailed_closed_paths):
        # complete_graph(10) at k = 12 holds the largest entries the budgets
        # allow; Python integers cannot overflow
        adj = complete_graph(10)
        darts = [(x, y) for x in range(10) for y in range(10) if adj[x, y]]
        step = np.array([[int(b == c and d != a) for c, d in darts] for a, b in darts], dtype=object)
        close = np.array([[int(b == c) for c, d in darts] for a, b in darts], dtype=object)
        last = step if tailless else close
        expect = sum(np.diagonal(np.linalg.matrix_power(step, 11) @ last))
        assert expect > 2**31
        count = count_closed_paths if tailless else tailed_closed_paths
        assert count(adj, 12) == expect


def series_gap(adj, order):
    return series_consistency(adj, zeta_reciprocal_polynomial(adj), order)


class TestSeriesConsistency:
    def test_triangle_exact(self):
        assert series_gap(cycle_graph(3), 10) == 0

    def test_tree_exact(self):
        assert series_gap(path_graph(4), 10) == 0

    def test_complete_graph_exact(self):
        assert series_gap(complete_graph(4), 8) == 0

    def test_full_corpus_exact(self):
        for name, adj in zeta_corpus():
            assert series_gap(adj, 10) == 0, name

    def test_refuses_another_graphs_polynomial(self):
        with pytest.raises(ValueError, match="another graph"):
            series_consistency(cycle_graph(4), zeta_reciprocal_polynomial(cycle_graph(3)), 6)


# ---------------------------------------------------------------------------
# the routes the package used before its exact layer ran on plain integers,
# kept as oracles: Bareiss elimination over the integer polynomial ring, with
# (1 - u^2)^(r-1) applied by polynomial long multiplication and division,
# and the exponential of the path series in Fractions.  A polynomial is a
# list of int coefficients indexed by degree, with no trailing zeros.

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdiv_exact(num, den):
    """Exact long division by den; raises if the remainder is nonzero."""
    rem = list(num)
    top, lead = len(den) - 1, den[-1]
    quot = [0] * max(len(rem) - top, 1)
    for shift in range(len(rem) - 1 - top, -1, -1):
        q, r = divmod(rem[shift + top], lead)
        if r:
            raise ValueError("not divisible")
        quot[shift] = q
        for j, c in enumerate(den):
            rem[shift + j] -= q * c
    if any(rem[:top]):
        raise ValueError("not divisible")
    return _trim(quot)


def _psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _poly_det_bareiss(mat):
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


def polynomial_ring_coefficients(adj):
    """(1 - u^2)^(r-1) det(I + u^2 (B - I) - u A), eliminated entry by
    entry over the polynomial ring."""
    n, degrees = len(adj), adj.sum(axis=1)
    mat = [
        [_trim([1, 0, int(degrees[i]) - 1]) if i == j else _trim([0, -int(adj[i, j])]) for j in range(n)]
        for i in range(n)
    ]
    poly = _poly_det_bareiss(mat)
    rank = int(degrees.sum()) // 2 - n
    for _ in range(max(rank, 0)):
        poly = _pmul(poly, [1, 0, -1])
    for _ in range(max(-rank, 0)):
        poly = _pdiv_exact(poly, [1, 0, -1])
    return tuple(poly)


def fraction_series_gap(adj, poly, order):
    """series_consistency with the exponential's coefficients in Fractions."""
    counts = [0] + [count_closed_paths(adj, k) for k in range(1, order + 1)]
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
        worst = max(worst, abs(c - (1 if j == 0 else 0)))
    return worst


def _from_upper(n, bits):
    adj = np.zeros((n, n), dtype=int)
    adj[np.triu_indices(n, 1)] = bits
    return adj + adj.T


def _forest(parents):
    # vertex i + 1 hangs from parents[i], or starts a new tree when that is i + 1
    adj = np.zeros((len(parents) + 1,) * 2, dtype=int)
    for child, parent in enumerate(parents, start=1):
        if parent < child:
            adj[child, parent] = adj[parent, child] = 1
    return adj


def forests(max_n):
    return st.integers(0, max_n - 1).flatmap(
        lambda m: st.tuples(*[st.integers(0, i + 1) for i in range(m)]).map(_forest)
    )


def simple_graphs(max_n):
    dense = st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda bits: _from_upper(n, bits))
    )
    return st.one_of(dense, forests(max_n))


def _triangle_beside(isolated):
    adj = np.zeros((3 + isolated,) * 2, dtype=int)
    adj[:3, :3] = cycle_graph(3)
    return adj


def _two_triangles_and_an_edge():
    adj = np.zeros((8, 8), dtype=int)
    adj[:3, :3] = adj[3:6, 3:6] = cycle_graph(3)
    adj[6, 7] = adj[7, 6] = 1
    return adj


class TestIntegerRoutesMatchTheirOracles:
    # the Kronecker-packed integer route against the polynomial-ring
    # elimination, equal coefficients and not close ones; and the Newton
    # residuals against the Fraction exponential, zero exactly together

    @given(simple_graphs(12))
    @example(empty_graph(0))  # packed value 1
    @example(empty_graph(1))  # packed value 1 - X^2 < 0
    @example(empty_graph(7))
    @example(path_graph(12))
    @example(_forest([0, 1, 1, 4, 4, 0, 7, 8]))
    @example(_two_triangles_and_an_edge())
    @example(complete_graph(12))  # the largest coefficient bound, 22^12; r - 1 = 54
    @example(empty_graph(12))  # r - 1 = -12, the most negative
    @example(_triangle_beside(9))  # r - 1 = -9 on a nonconstant determinant
    def test_polynomial_equals_the_polynomial_ring_route(self, adj):
        assert zeta_reciprocal_polynomial(adj).coefficients == polynomial_ring_coefficients(adj)

    @settings(max_examples=60)
    @given(simple_graphs(10), st.integers(1, 12), st.integers(0, 14), st.integers(-3, 3))
    @example(complete_graph(10), 12, 0, 0)
    @example(cycle_graph(3), 12, 3, 1)
    def test_series_gap_equals_the_fraction_route(self, adj, order, index, bump):
        # bump = 0 pairs the graph with its own polynomial (gap 0); otherwise
        # one coefficient moves, possibly past the polynomial's degree
        poly = zeta_reciprocal_polynomial(adj)
        coeffs = list(poly.coefficients) + [0] * max(0, index + 1 - len(poly.coefficients))
        coeffs[index] += bump
        poly = ReciprocalZeta(tuple(coeffs), poly.n_vertices, poly.n_edges)
        gap = series_consistency(adj, poly, order)
        assert type(gap) is int
        assert (gap == 0) == (fraction_series_gap(adj, poly, order) == 0) == (bump == 0 or index > order)
