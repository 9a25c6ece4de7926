import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaspectra import moments
from zetaspectra.moments import (
    adjacency_bound_report,
    adjacency_moments,
    adjacency_weight_table,
    admissible_constant,
    catalan_moment,
    dense_moments,
    dense_tree_weight_table,
    extended_binomial,
    first_edge_weight,
    limit_moments,
    tree_bound_report,
    tree_weight_split,
    tree_weight_table,
    weighted_adjacency_sum,
)

PARAMS = st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 20.0))


class TestExtendedBinomial:
    def test_degenerate_rows(self):
        assert extended_binomial(-1, 0) == 1
        assert extended_binomial(0, 1) == 0
        assert extended_binomial(3, 2) == 3
        assert extended_binomial(0, 0) == 1
        assert extended_binomial(4, 5) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            extended_binomial(-2, 0)
        with pytest.raises(ValueError):
            extended_binomial(3, -1)

    def test_hockey_stick_identity(self):
        # sum_{l<=j} C*(l+i-1, l) telescopes to C(i+j, i), the workhorse
        # identity behind both upper-bound lemmas
        for i in range(0, 7):
            for j in range(0, 9):
                total = sum(extended_binomial(l + i - 1, l) for l in range(j + 1))
                assert total == math.comb(i + j, i)

    def test_recurrences_stay_in_domain(self):
        moments.reset_extended_binomial_counter()
        limit_moments(9, 1.3, 0.7)
        adjacency_moments(12, 0.8, 3.0)
        tree_weight_split(7, 1.1, 2.2)
        assert moments.extended_binomial_other_hits() == 0


class TestTreeWeights:
    def test_initial_conditions(self):
        table = tree_weight_table(5, 1.7, 2.3)
        assert table[0][0] == 1.0
        for k in range(1, 6):
            assert table[k][0] == 0.0

    @pytest.mark.parametrize("v,phi1", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_hand_values(self, v, phi1):
        table = tree_weight_table(2, v, phi1)
        assert table[1][1] == pytest.approx(v**2, rel=1e-14)
        assert table[2][1] == pytest.approx(v**2, rel=1e-14)
        assert table[2][2] == pytest.approx(v**4 + v**4 / phi1, rel=1e-14)

    def test_bad_indices(self):
        for build in (tree_weight_table, tree_weight_split):
            with pytest.raises(ValueError):
                build(-1, 1.0, 1.0)
            with pytest.raises(ValueError):
                build(3, 1.0, 0.0)

    @settings(max_examples=30)
    @given(params=PARAMS)
    def test_positivity(self, params):
        v, phi1 = params
        table = tree_weight_table(6, v, phi1)
        for k in range(1, 7):
            for r in range(1, k + 1):
                assert table[k][r] > 0.0


class TestFirstEdgeWeight:
    @pytest.mark.parametrize("v,phi1", [(1.0, 1.0), (0.7, 3.0), (2.0, 0.5)])
    def test_single_edge_closed_form(self, v, phi1):
        for g in range(1, 6):
            expected = v ** (2 * g) / phi1 ** (g - 1)
            assert first_edge_weight(g, g, v, phi1) == pytest.approx(expected, rel=1e-13)
        assert first_edge_weight(1, 1, v, phi1) == pytest.approx(v * v, rel=1e-14)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            first_edge_weight(2, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            first_edge_weight(2, 0, 1.0, 1.0)


class TestLimitMoments:
    def test_normalization_and_first_moments(self):
        for v, phi1 in [(0.5, 1.0), (1.0, 0.8862269254527579), (2.0, 4.0)]:
            ms = limit_moments(4, v, phi1)
            assert ms[0] == 1.0
            assert ms[1] == pytest.approx(v * v, rel=1e-13)
            assert ms[2] == pytest.approx(v**2 + v**4 + v**4 / phi1, rel=1e-13)

    def test_dense_limit(self):
        for v in (0.5, 1.0, 2.0):
            big = limit_moments(10, v, 1e8)
            mu = dense_moments(10, v)
            for k in range(1, 11):
                assert big[k] == pytest.approx(mu[k], rel=1e-6)

    def test_monotone_approach_to_dense_limit(self):
        mu = dense_moments(8, 1.0)
        gaps = []
        for phi1 in (1e2, 1e4, 1e6, 1e8):
            ms = limit_moments(8, 1.0, phi1)
            gaps.append(max(abs(ms[k] - mu[k]) for k in range(1, 9)))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < gaps[0] * 1e-4


class TestAdjacencyWeights:
    def test_initial_conditions_and_hand_values(self):
        v, phi1 = 1.3, 0.7
        table = adjacency_weight_table(2, v, phi1)
        assert table[0][0] == 1.0
        assert table[1][0] == 0.0
        assert table[1][1] == pytest.approx(v**2, rel=1e-14)
        # p = 2 row, derived by expanding the recurrence once
        assert table[2][1] == pytest.approx(v**4, rel=1e-13)
        assert table[2][2] == pytest.approx(v**4 + v**4 / phi1, rel=1e-13)

    @settings(max_examples=30)
    @given(params=PARAMS)
    def test_positivity(self, params):
        v, phi1 = params
        table = adjacency_weight_table(6, v, phi1)
        for p in range(1, 7):
            for r in range(1, p + 1):
                assert table[p][r] >= 0.0

    def test_moment_parity(self):
        ell = adjacency_moments(7, 1.5, 2.0)
        assert ell[0] == 1.0
        for k in (1, 3, 5, 7):
            assert ell[k] == 0.0
        assert ell[2] == pytest.approx(1.5**2, rel=1e-13)

    def test_catalan_limit(self):
        for v in (0.5, 1.0, 2.0):
            ell = adjacency_moments(12, v, 1e8)
            for p in range(1, 7):
                assert ell[2 * p] == pytest.approx(catalan_moment(p, v), rel=1e-6)

    def test_monotone_approach(self):
        target = catalan_moment(4, 1.0)
        gaps = [abs(adjacency_moments(8, 1.0, phi1)[8] - target) for phi1 in (1e2, 1e4, 1e6, 1e8)]
        assert gaps == sorted(gaps, reverse=True)


class TestDenseRecurrences:
    def test_mu_initial_values(self):
        for v in (0.5, 1.0, 2.0):
            mu = dense_moments(3, v)
            assert mu[0] == 1.0
            assert mu[1] == pytest.approx(v**2)
            assert mu[2] == pytest.approx(v**4 + v**2)

    def test_motzkin_numbers_at_unit_v(self):
        # at v = 1 the shifted semicircle has radius 2 around 1 and its
        # moments are the Motzkin numbers
        assert [round(m) for m in dense_moments(10, 1.0)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188,
        ]

    def test_theta_sums_to_mu(self):
        for v in (0.5, 1.0, 2.0):
            mu = dense_moments(12, v)
            table = dense_tree_weight_table(12, v)
            for k in range(1, 13):
                total = sum(table[k][r] for r in range(1, k + 1))
                assert total == pytest.approx(mu[k], rel=1e-13)

    def test_theta_limit_of_tree_weight(self):
        for v in (0.5, 1.0, 2.0):
            dense = dense_tree_weight_table(8, v)
            finite = tree_weight_table(8, v, 1e8)
            for k in range(1, 9):
                for r in range(1, k + 1):
                    assert finite[k][r] == pytest.approx(dense[k][r], rel=1e-6)

    def test_theta_first_step(self):
        assert dense_tree_weight_table(1, 1.4)[1][1] == pytest.approx(1.4**2)


class TestTablePrefixStability:
    """Lower orders are exact prefixes of one table, so every caller can
    build a table once at its largest order and index it."""

    K = 16

    def test_moment_lists(self, param_grid):
        for v, phi1 in param_grid:
            for build in (
                lambda k: limit_moments(k, v, phi1),
                lambda k: adjacency_moments(k, v, phi1),
                lambda k: dense_moments(k, v),
            ):
                full = build(self.K)
                for k in range(self.K + 1):
                    assert full[: k + 1] == build(k)

    def test_split_table_rows(self, param_grid):
        for v, phi1 in param_grid:
            full = tree_weight_split(self.K, v, phi1)
            for k in range(self.K + 1):
                assert full[: k + 1] == tree_weight_split(k, v, phi1)


class TestCatalan:
    def test_closed_form(self):
        assert catalan_moment(0, 1.7) == 1.0
        assert catalan_moment(2, 1.0) == 2.0
        assert catalan_moment(3, 1.0) == 5.0
        v = 0.9
        assert catalan_moment(2, v) == pytest.approx(2 * v**4)
        assert catalan_moment(3, v) == pytest.approx(5 * v**6)

    def test_convolution_recurrence(self):
        v = 1.3
        for p in range(1, 9):
            conv = sum(catalan_moment(p - 1 - j, v) * catalan_moment(j, v) for j in range(p))
            assert catalan_moment(p, v) == pytest.approx(v * v * conv, rel=1e-12)


class TestWeightedAdjacencySums:
    def test_order_one_is_moment(self):
        v, phi1 = 1.1, 0.9
        ell = adjacency_moments(12, v, phi1)
        for p in range(1, 7):
            assert weighted_adjacency_sum(1, p, v, phi1) == pytest.approx(ell[2 * p], rel=1e-13)

    def test_order_zero_row(self):
        for i in range(1, 6):
            assert weighted_adjacency_sum(i, 0, 1.5, 2.5) == 1.0


class TestBounds:
    def test_adjacency_bound_passes(self):
        report = adjacency_bound_report(8, 1.0, 1.0, 1.0)
        assert report.passed
        assert report.tightest_ratio <= 1.0

    def test_adjacency_bound_first_order(self):
        # order 1 reduces to v^2 <= C v^2
        report = adjacency_bound_report(1, 2.0, 1.3, 1.0)
        assert report.passed

    def test_inadmissible_constant_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            adjacency_bound_report(4, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="inadmissible"):
            tree_bound_report(4, 0.1, 1.0, 1.0)

    def test_tree_bound_passes(self):
        report = tree_bound_report(8, 3.0, 1.0, 2.0)
        assert report.passed

    def test_bisected_constant_is_admissible_and_tight(self, param_grid):
        for v, phi1 in param_grid:
            c = admissible_constant(v, phi1)
            report = tree_bound_report(8, c, v, phi1)
            assert report.passed
            # nudging the constant below the bisected value must violate
            # one of the two admissibility inequalities
            with pytest.raises(ValueError):
                tree_bound_report(2, c * (1 - 1e-6), v, phi1)
