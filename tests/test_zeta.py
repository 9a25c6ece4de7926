from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaspectra import cli
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
    _pdiv_exact,
    _pmul,
    _trim,
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


POLY = st.lists(st.integers(-50, 50), max_size=8).map(_trim)
NONZERO_POLY = st.lists(st.integers(-50, 50), max_size=6).flatmap(
    lambda low: st.integers(-9, 9).filter(bool).map(lambda lead: low + [lead])
)


class TestExactDivision:
    @given(POLY, NONZERO_POLY)
    def test_undoes_multiplication(self, a, b):
        assert _pdiv_exact(_pmul(a, b), b) == a

    @given(POLY, NONZERO_POLY.filter(lambda b: len(b) > 1), st.data())
    def test_nonzero_remainder_raises(self, a, b, data):
        # a * b plus a nonzero remainder of lower degree than b
        rest = data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=len(b) - 1).filter(any))
        num = _pmul(a, b) + [0] * len(b)
        for i, c in enumerate(rest):
            num[i] += c
        with pytest.raises(ValueError, match="not divisible"):
            _pdiv_exact(_trim(num), b)

    def test_indivisible_leading_coefficient_raises(self):
        with pytest.raises(ValueError, match="not divisible"):
            _pdiv_exact([0, 1], [0, 2])  # u / 2u has no integer quotient

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            _pdiv_exact([1, 2], [])

    def test_forest_with_a_cycle_divides_exactly(self):
        # a triangle beside a separate edge: r - 1 = -1, so the determinant
        # is divided once by 1 - u^2, and the tree part contributes 1
        adj = np.zeros((5, 5), dtype=int)
        adj[:3, :3] = cycle_graph(3)
        adj[3, 4] = adj[4, 3] = 1
        poly = zeta_reciprocal_polynomial(adj)
        assert poly.rank_term == -1.0
        assert poly.as_list() == zeta_reciprocal_polynomial(cycle_graph(3)).as_list()


class TestExactPolynomial:
    def test_triangle_coefficients(self):
        poly = zeta_reciprocal_polynomial(cycle_graph(3))
        assert poly.as_list() == [1, 0, 0, -2, 0, 0, 1]  # (1 - u^3)^2

    def test_edgeless_graph(self):
        poly = zeta_reciprocal_polynomial(empty_graph(5))
        assert poly.as_list() == [1]

    def test_tree_polynomial_is_one(self):
        for n in range(2, 6):
            assert zeta_reciprocal_polynomial(path_graph(n)).as_list() == [1]

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
        with pytest.raises(ValueError, match="budget"):
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
        with pytest.raises(ValueError):
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
        assert series_gap(cycle_graph(3), 10) == Fraction(0)

    def test_tree_exact(self):
        assert series_gap(path_graph(4), 10) == Fraction(0)

    def test_complete_graph_exact(self):
        assert series_gap(complete_graph(4), 8) == Fraction(0)

    def test_full_corpus_exact(self):
        for name, adj in zeta_corpus():
            assert series_gap(adj, 10) == Fraction(0), name

    def test_refuses_another_graphs_polynomial(self):
        with pytest.raises(ValueError, match="another graph"):
            series_consistency(cycle_graph(4), zeta_reciprocal_polynomial(cycle_graph(3)), 6)
