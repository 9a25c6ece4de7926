import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaspectra import moments
from zetaspectra.percolation import Profile
from zetaspectra.moments import (
    adjacency_bound_report,
    adjacency_moments,
    adjacency_weight_table,
    admissible_constant,
    catalan_moment,
    dense_moments,
    dense_tree_weight_table,
    extended_binomial,
    finite_moments,
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


# At v = phi1 = 1 every weight is an integer count; frozen from the tables
# as built before the root-exit composition was shared.
UNIT_TREE_MOMENTS = [
    1, 1, 3, 11, 46, 212, 1055, 5595, 31347, 184455, 1135393, 7290791, 48748739,
    338967059, 2448907161, 18370737441, 143017800382,
]
UNIT_ADJACENCY_MOMENTS = [
    1, 0, 1, 0, 3, 0, 12, 0, 57, 0, 303, 0, 1747, 0, 10727, 0, 69331, 0, 467963, 0,
    3280353, 0, 23785699, 0, 177877932,
]


class TestLimitMoments:
    def test_exact_counts_at_unit_parameters(self):
        assert limit_moments(16, 1.0, 1.0) == UNIT_TREE_MOMENTS

    def test_normalization_and_first_moments(self):
        for v, phi1 in [(0.5, 1.0), (1.0, 0.8862269254527579), (2.0, 4.0)]:
            ms = limit_moments(4, v, phi1)
            assert ms[0] == 1.0
            assert ms[1] == pytest.approx(v * v, rel=1e-13)
            assert ms[2] == pytest.approx(v**2 + v**4 + v**4 / phi1, rel=1e-13)

    def test_monotone_approach_to_dense_limit(self):
        mu = dense_moments(8, 1.0)
        gaps = []
        for phi1 in (1e2, 1e4, 1e6, 1e8):
            ms = limit_moments(8, 1.0, phi1)
            gaps.append(max(abs(ms[k] - mu[k]) for k in range(1, 9)))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < gaps[0] * 1e-4


class TestFiniteMoments:
    @pytest.mark.parametrize("n,radius,family,amplitude", [
        (1, 1.0, "exp", 0.9), (2, 1.0, "exp", 0.9), (2, 1.5, "gauss", 0.5), (2, 3.0, "lorentz", 0.5),
    ])
    def test_matches_enumeration_of_every_graph(self, n, radius, family, amplitude):
        # E (1/N) Tr H^k summed over all 2^(N(N-1)/2) graphs with their probabilities
        profile = Profile.from_name(family, amplitude)
        v = 0.7
        c = v * v / profile.phi1
        size = 2 * n + 1
        pairs = list(itertools.combinations(range(size), 2))
        probs = [profile.phi((j - i) / radius) / radius for i, j in pairs]
        expected = np.zeros(3)
        for present in itertools.product((0, 1), repeat=len(pairs)):
            weight = 1.0
            adjacency = np.zeros((size, size))
            for (i, j), p, bit in zip(pairs, probs, present):
                weight *= p if bit else 1.0 - p
                adjacency[i, j] = adjacency[j, i] = bit
            h = c * np.diag(adjacency.sum(axis=1)) - math.sqrt(c) * adjacency
            expected += weight * np.array([1.0, np.trace(h) / size, np.trace(h @ h) / size])
        assert finite_moments(2, n, radius, profile, v) == pytest.approx(expected, rel=1e-12)
        assert finite_moments(1, n, radius, profile, v) == finite_moments(2, n, radius, profile, v)[:2]

    def test_approaches_the_limit(self):
        # boundary gap ~ R/N and cycle gap ~ 1/R
        profile = Profile.from_name("gauss", 0.5)
        finite = finite_moments(2, 100_000, 400.0, profile, 1.0)
        assert finite == pytest.approx(limit_moments(2, 1.0, profile.phi1), rel=5e-3)

    def test_refuses_higher_orders(self):
        profile = Profile.from_name("gauss", 0.5)
        with pytest.raises(ValueError, match="item 1"):
            finite_moments(3, 10, 2.0, profile, 1.0)


class TestAdjacencyWeights:
    def test_exact_counts_at_unit_parameters(self):
        assert adjacency_moments(24, 1.0, 1.0) == UNIT_ADJACENCY_MOMENTS

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
