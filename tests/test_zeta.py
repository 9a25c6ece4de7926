from fractions import Fraction

import numpy as np
import pytest

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
    count_closed_paths,
    ihara_det_reciprocal,
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
    def test_value_at_zero_is_one(self):
        for _, adj in zeta_corpus():
            assert ihara_det_reciprocal(adj, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("u", [0.1, 0.3, -0.2])
    def test_triangle_closed_form(self, u):
        # the triangle zeta is (1 - u^3)^(-2); hand check: adjacency
        # eigenvalues 2, -1, -1 give (1-u)^2 (1+u+u^2)^2
        value = ihara_det_reciprocal(cycle_graph(3), u)
        assert value == pytest.approx((1.0 - u**3) ** 2, rel=1e-12)

    def test_path_graph_is_identically_one(self):
        for u in (-0.9, -0.3, 0.0, 0.5, 0.99):
            assert ihara_det_reciprocal(path_graph(3), u) == pytest.approx(1.0, rel=1e-12)

    def test_pole_of_prefactor(self):
        with pytest.raises(ValueError, match="pole"):
            ihara_det_reciprocal(path_graph(4), 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ihara_det_reciprocal(np.array([[0, 1], [0, 0]]), 0.1)  # asymmetric
        with pytest.raises(ValueError):
            ihara_det_reciprocal(np.array([[1]]), 0.1)  # loop


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
        for _, adj in zeta_corpus():
            poly = zeta_reciprocal_polynomial(adj)
            assert poly(0.17) == pytest.approx(ihara_det_reciprocal(adj, 0.17), rel=1e-12)

    def test_degree_bounds(self):
        for _, adj in zeta_corpus():
            poly = zeta_reciprocal_polynomial(adj)
            assert poly.coefficients[0] == 1
            assert poly.degree <= 2 * poly.n_edges
            if min(adj.sum(axis=1)) >= 2:
                assert poly.degree == 2 * poly.n_edges

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

    def test_tailless_constraint_matters_on_k4(self):
        # on cycles every backtrackless closed path winds one way, so the
        # tailless condition only bites once a vertex has degree >= 3
        k4 = complete_graph(4)
        with_tail = count_closed_paths(k4, 5, tailless=False)
        without_tail = count_closed_paths(k4, 5)
        assert with_tail > without_tail


class TestSeriesConsistency:
    def test_triangle_exact(self):
        assert series_consistency(cycle_graph(3), 10) == Fraction(0)

    def test_tree_exact(self):
        assert series_consistency(path_graph(4), 10) == Fraction(0)

    def test_complete_graph_exact(self):
        assert series_consistency(complete_graph(4), 8) == Fraction(0)

    def test_full_corpus_exact(self):
        for name, adj in zeta_corpus():
            assert series_consistency(adj, 10) == Fraction(0), name
