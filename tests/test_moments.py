import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaspectra import moments, validate
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
        with pytest.raises(ValueError):
            extended_binomial(0, 2)  # a < b - 1: outside every recurrence's pattern

    def test_hockey_stick_identity(self):
        # sum_{l<=j} C*(l+i-1, l) telescopes to C(i+j, i), the workhorse
        # identity behind both upper-bound lemmas
        for i in range(0, 7):
            for j in range(0, 9):
                total = sum(extended_binomial(l + i - 1, l) for l in range(j + 1))
                assert total == math.comb(i + j, i)

    def test_recurrences_stay_in_domain(self):
        # a lookup outside the row tables' pattern would raise KeyError
        limit_moments(9, 1.3, 0.7)
        adjacency_moments(12, 0.8, 3.0)
        tree_weight_split(7, 1.1, 2.2)

    @pytest.mark.parametrize("k_max", [0, 1, 5, 16])
    def test_rows_equal_the_function_on_their_domain(self, k_max):
        rows = moments._binomial_rows(k_max)
        domain = {(a, b) for a in range(-1, k_max + 1) for b in range(a + 2)}
        assert {(a, b) for a in rows for b in rows[a]} == domain
        assert all(rows[a][b] == extended_binomial(a, b) for a, b in domain)

    @pytest.mark.parametrize("a,b", [(-2, 0), (6, 0), (3, 5), (0, 2), (2, -1), (-1, -1), (-1, 1)])
    def test_rows_refuse_lookups_outside_their_domain(self, a, b):
        rows = moments._binomial_rows(5)
        with pytest.raises(KeyError):
            rows[a][b]


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
        # g root steps and nothing else: F(g, g) = v^(2g)/phi1^(g-1)
        table = tree_weight_table(0, v, phi1)
        rows, scales = moments._binomial_rows(5), moments._edge_scales(5, v, phi1)
        for g in range(1, 6):
            expected = v ** (2 * g) / phi1 ** (g - 1)
            weight = moments._first_edge_weight_from(table, rows, scales, g, g)
            assert weight == pytest.approx(expected, rel=1e-13)


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


class TestLimitMomentBits:
    # float.hex of limit_moments(16, v, phi1) as the recurrences gave them
    # when they still called extended_binomial per term: any reordering of
    # their float operations shows here first (criterion 08's tightest ratio
    # sits at its bound, so last-bit changes matter)
    PINNED = {
        (0.5, 1.8): (
            "0x1.0000000000000p+0 0x1.0000000000000p-2 0x1.638e38e38e38ep-2 0x1.5a4587e6b74f1p-2 "
            "0x1.ca118eecaf954p-2 0x1.2ea3b8ac9e1a5p-1 0x1.b375828f5f007p-1 0x1.43fce494a4578p+0 "
            "0x1.f5b56e988b3ddp+0 0x1.8fd54ea8b1d83p+1 0x1.473efa045ccbfp+2 0x1.120c0470af14cp+3 "
            "0x1.d4ad71bfbabbap+3 0x1.987c21cb60baep+4 0x1.6a69d19f53684p+5 0x1.46fbbdf3a4c55p+6 "
            "0x1.2bcb8c6edd6e3p+7"
        ),
        (1.0, Profile.from_name("gauss", 0.5).phi1): (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.906eba8214db6p+1 0x1.8164789eb2da2p+3 "
            "0x1.a78841e0b16f7p+5 0x1.0108c5226d40ap+8 0x1.51afb9fa1c224p+10 0x1.d9eb3533ce258p+12 "
            "0x1.602403861c657p+15 0x1.136d1f026aa71p+18 0x1.c3b259384742bp+20 0x1.833cd34c3ed2cp+23 "
            "0x1.5a6a4d5cce1f0p+26 0x1.42f1304bfd2dcp+29 0x1.396dd7769c591p+32 0x1.3c740fd314f9ep+35 "
            "0x1.4c2830a380366p+38"
        ),
    }

    @pytest.mark.parametrize("v,phi1", list(PINNED))
    def test_bits_are_pinned(self, v, phi1):
        assert " ".join(x.hex() for x in limit_moments(16, v, phi1)) == self.PINNED[v, phi1]


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

    @pytest.mark.parametrize("n,radius,reason", [
        (-1, 2.0, "n must be"), (0, 2.0, "n must be"),
        (5, 0.5, "radius must be"), (5, float("nan"), "radius must be"),
    ])
    def test_refuses_what_the_sampler_refuses(self, n, radius, reason):
        profile = Profile.from_name("gauss", 0.9)
        with pytest.raises(ValueError, match=reason):
            finite_moments(2, n, radius, profile, 1.0)


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

    def test_adjacency_table_rows(self, param_grid):
        # the weighted-sum identity check reads every row from one table
        for v, phi1 in param_grid:
            full = adjacency_weight_table(self.K, v, phi1)
            for p in range(self.K + 1):
                assert full[: p + 1] == adjacency_weight_table(p, v, phi1)


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
        table = adjacency_weight_table(6, v, phi1)
        for p in range(1, 7):
            assert weighted_adjacency_sum(1, table[p]) == pytest.approx(ell[2 * p], rel=1e-13)

    def test_order_zero_row(self):
        row = adjacency_weight_table(3, 1.5, 2.5)[0]
        for i in range(1, 6):
            assert weighted_adjacency_sum(i, row) == 1.0

    def test_identity_check_builds_one_table_per_grid_point(self, monkeypatch):
        calls = []
        real = moments.adjacency_weight_table
        monkeypatch.setattr(
            moments, "adjacency_weight_table", lambda *a: calls.append(a) or real(*a)
        )
        assert validate.check_weighted_sum_identity().passed
        assert len(calls) <= len(validate.VALIDATION_GRID) == 12


class TestBounds:
    def test_adjacency_bound_passes(self):
        report = adjacency_bound_report(8, 1.0, 1.0)
        assert report.passed and report.constant == 1.0
        assert report.tightest_ratio <= 1.0

    def test_adjacency_bound_first_order(self):
        # order 1 reduces to v^2 <= C v^2, at C = 1/phi1 = 2
        report = adjacency_bound_report(1, 1.3, 0.5)
        assert report.passed and report.constant == 2.0
        assert report.ratios == [pytest.approx(0.5, rel=1e-15)]

    def test_tree_bound_passes(self):
        report = tree_bound_report(8, 1.0, 2.0)
        assert report.passed

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("table", [
        tree_weight_table, tree_weight_split, adjacency_weight_table, limit_moments,
        adjacency_bound_report, tree_bound_report,
    ])
    def test_non_finite_v_is_refused(self, table, v):
        # every weight table reads its edge scales, which refuse a non-finite
        # v instead of filling the table with NaN
        with pytest.raises(ValueError, match="v must be finite"):
            table(3, v, 1.0)

    @pytest.mark.parametrize("name,report", [("p_max", adjacency_bound_report), ("k_max", tree_bound_report)])
    def test_order_below_one_is_refused_by_name(self, name, report):
        with pytest.raises(ValueError, match=f"{name} must be >= 1 .* got 0"):
            report(0, 1.0, 1.0)

    def test_bisected_constant_is_admissible_and_tight(self, param_grid):
        for v, phi1 in param_grid:
            report = tree_bound_report(8, v, phi1)
            assert report.passed
            c = report.constant
            assert c == admissible_constant(v, phi1)
            # the bisected constant satisfies both admissibility
            # inequalities, and nudging it down violates one of them
            assert max(moments._tree_bound_inequalities(c, v, phi1)) <= 1.0
            assert max(moments._tree_bound_inequalities(c * (1 - 1e-6), v, phi1)) > 1.0

    @settings(max_examples=40, deadline=None)
    @given(params=PARAMS, factor=st.floats(1.0, 100.0))
    def test_ratios_do_not_grow_with_the_constant(self, params, factor):
        # every bound grows with C, so the smallest admissible C gives the
        # strictest check: that is why the reports pick C themselves
        v, phi1 = params
        for name, report in (
            ("_adjacency_constant", adjacency_bound_report),
            ("admissible_constant", tree_bound_report),
        ):
            smallest = report(6, v, phi1)
            real = getattr(moments, name)
            with mock.patch.object(moments, name, lambda *a: factor * real(*a)):
                larger = report(6, v, phi1)
            assert larger.constant == factor * smallest.constant
            assert all(b <= a for a, b in zip(smallest.ratios, larger.ratios, strict=True))
