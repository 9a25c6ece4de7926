import math

import numpy as np
import pytest

from zetaspectra.graphs import cycle_graph
from zetaspectra.percolation import build_h, degree_vector, sample_adjacency
from zetaspectra.spectra import (
    SpectralSummary,
    counting_function,
    eigenvalue_summary,
    empirical_moment,
    histogram_density,
    log_det_density,
    log_prefactor_density,
    neg_log_zeta_density,
)
from zetaspectra.zeta import ihara_det_reciprocal


def summary_from_eigs(eigs, v=1.0, phi1=1.0):
    return SpectralSummary(eigenvalues=np.sort(np.asarray(eigs, dtype=float)), v=v, phi1=phi1)


class TestEigenvalueSummary:
    def test_zero_matrix(self):
        s = eigenvalue_summary(np.zeros((4, 4)), v=1.0, phi1=1.0)
        assert np.all(s.eigenvalues == 0.0)

    def test_single_edge(self):
        h = np.array([[1.0, -1.0], [-1.0, 1.0]])
        s = eigenvalue_summary(h, v=1.0, phi1=1.0)
        assert np.allclose(s.eigenvalues, [0.0, 2.0])

    def test_rejects_asymmetric(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalue_summary(m, v=1.0, phi1=1.0)

    def test_trace_identity(self, gauss_profile):
        sample = sample_adjacency(40, 3.0, gauss_profile, seed=6)
        h = build_h(sample.entries, sample.degrees(), 1.2, gauss_profile.phi1)
        s = eigenvalue_summary(h, v=1.2, phi1=gauss_profile.phi1)
        assert float(s.eigenvalues.sum()) == pytest.approx(np.trace(h), rel=1e-10)

    def test_eigenpair_residual_spot_check(self, gauss_profile):
        sample = sample_adjacency(30, 2.5, gauss_profile, seed=8)
        h = build_h(sample.entries, sample.degrees(), 0.9, gauss_profile.phi1)
        vals, vecs = np.linalg.eigh(h)
        norm = np.linalg.norm(h, 2)
        for j in (0, len(vals) // 2, len(vals) - 1):
            residual = np.linalg.norm(h @ vecs[:, j] - vals[j] * vecs[:, j])
            assert residual <= 1e-10 * max(norm, 1.0)


class TestCountingFunction:
    def test_endpoints(self):
        s = summary_from_eigs([-1.0, 0.0, 2.0])
        assert counting_function(s, -1.5) == 0.0
        assert counting_function(s, 2.0) == 1.0
        assert counting_function(s, 5.0) == 1.0

    def test_padded_single_edge(self):
        n = 10
        s = summary_from_eigs([0.0] * (n - 1) + [2.0])
        assert counting_function(s, 1.0) == pytest.approx((n - 1) / n)

    def test_is_a_cdf(self, rng):
        s = summary_from_eigs(rng.standard_normal(50))
        grid = np.linspace(-4, 4, 100)
        vals = [counting_function(s, x) for x in grid]
        assert vals == sorted(vals)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0


class TestEmpiricalMoments:
    def test_zeroth_is_one(self):
        s = summary_from_eigs([1.0, 2.0, 3.0])
        assert empirical_moment(s, 0) == 1.0

    def test_first_is_normalized_trace(self, gauss_profile):
        sample = sample_adjacency(25, 2.0, gauss_profile, seed=4)
        h = build_h(sample.entries, sample.degrees(), 1.0, gauss_profile.phi1)
        s = eigenvalue_summary(h, v=1.0, phi1=gauss_profile.phi1)
        assert empirical_moment(s, 1) == pytest.approx(np.trace(h) / h.shape[0], rel=1e-10)

    def test_trace_identities_dual_route(self, gauss_profile):
        # spectrum route against direct matrix powers for k = 1..4
        sample = sample_adjacency(25, 2.0, gauss_profile, seed=5)
        h = build_h(sample.entries, sample.degrees(), 1.1, gauss_profile.phi1)
        s = eigenvalue_summary(h, v=1.1, phi1=gauss_profile.phi1)
        n = h.shape[0]
        for k in range(1, 5):
            trace = np.trace(np.linalg.matrix_power(h, k)) / n
            assert empirical_moment(s, k) == pytest.approx(trace, rel=1e-8)


class TestLogDetDensity:
    def test_zero_v(self):
        s = summary_from_eigs(np.zeros(6), v=0.0, phi1=1.0)
        assert log_det_density(s) == 0.0

    def test_zero_matrix_any_v(self):
        s = summary_from_eigs(np.zeros(6), v=0.5, phi1=1.0)
        assert log_det_density(s) == pytest.approx(math.log(1 - 0.25))

    def test_padded_single_edge_value(self):
        # spectrum {0, 2} padded with zeros, evaluated at v = 1, phi1 = 2
        n = 12
        s = summary_from_eigs([2.0] + [0.0] * (n - 1), v=1.0, phi1=2.0)
        expected = (math.log(5.0 / 2.0) + (n - 1) * math.log(0.5)) / n
        assert log_det_density(s) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_argument_error(self):
        s = summary_from_eigs([-2.0, 0.0, 1.0], v=0.5, phi1=1.0)
        with pytest.raises(ValueError, match="spectral crossing"):
            log_det_density(s)

    def test_matches_lu_logdet(self, gauss_profile):
        sample = sample_adjacency(80, 3.0, gauss_profile, seed=12)
        v, phi1 = 0.5, gauss_profile.phi1
        h = build_h(sample.entries, sample.degrees(), v, phi1)
        s = eigenvalue_summary(h, v=v, phi1=phi1)
        n = h.shape[0]
        sign, logdet = np.linalg.slogdet((1 - v * v / phi1) * np.eye(n) + h)
        assert sign > 0
        assert log_det_density(s) == pytest.approx(logdet / n, rel=1e-8)


class TestPrefactorDensity:
    def test_zero_u(self):
        assert log_prefactor_density(np.array([2, 2, 2]), 0.0) == 0.0

    def test_empty_graph(self):
        degrees = np.zeros(9)
        assert log_prefactor_density(degrees, 0.5) == pytest.approx(-math.log(0.75))

    def test_u_domain(self):
        with pytest.raises(ValueError):
            log_prefactor_density(np.array([1, 1]), 1.0)
        with pytest.raises(ValueError):
            log_prefactor_density(np.array([1, 1]), -1.2)


class TestNegLogZetaDensity:
    def test_zero_v(self):
        s = summary_from_eigs(np.zeros(4), v=0.0, phi1=1.0)
        assert neg_log_zeta_density(np.zeros(4), s) == 0.0

    def test_triangle_closed_form(self):
        # u = 0.2 via v = 0.2, phi1 = 1; zeta of the triangle is (1-u^3)^(-2)
        adj = cycle_graph(3)
        degrees = degree_vector(adj)
        u = 0.2
        h = build_h(adj, degrees, u, 1.0)
        s = eigenvalue_summary(h, v=u, phi1=1.0)
        expected = (2.0 / 3.0) * math.log(1.0 - u**3)
        assert neg_log_zeta_density(degrees, s) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(math.log(ihara_det_reciprocal(adj, u)) / 3.0)


def test_histogram_density_normalized(rng):
    s = summary_from_eigs(rng.standard_normal(500))
    left, right, dens = histogram_density(s, bins=40)
    mass = float(np.sum(dens * (right - left)))
    assert mass == pytest.approx(1.0, rel=1e-9)
