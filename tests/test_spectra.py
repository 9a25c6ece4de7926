import math

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.sparse import coo_matrix, csr_matrix, issparse

from zetaspectra import spectra
from zetaspectra.graphs import cycle_graph
from zetaspectra.percolation import AdjacencySample, Profile, build_h, sample_adjacency
from zetaspectra.spectra import (
    counting_function,
    eigenvalue_summary,
    histogram_density,
    log_det_density,
    log_prefactor_density,
    neg_log_zeta_density,
    trace_moments,
)
from zetaspectra.zeta import zeta_reciprocal_polynomial


def summary_from_eigs(eigs, v=1.0, phi1=1.0):
    return eigenvalue_summary(np.diag(np.asarray(eigs, dtype=float)), v=v, phi1=phi1)


class TestEigenvalueSummary:
    def test_zero_matrix(self):
        s = eigenvalue_summary(np.zeros((4, 4)), v=1.0, phi1=1.0)
        assert np.all(s.eigenvalues == 0.0)

    def test_single_edge(self):
        h = np.array([[1.0, -1.0], [-1.0, 1.0]])
        s = eigenvalue_summary(h, v=1.0, phi1=1.0)
        assert np.allclose(s.eigenvalues, [0.0, 2.0])

    def test_rejects_asymmetric(self):
        # an entry whose transpose is zero: it alone joins two isolated vertices
        m = np.zeros((3, 3))
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalue_summary(m, v=1.0, phi1=1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalue_summary(csr_matrix(m), v=1.0, phi1=1.0)
        # a perturbed entry inside a block of a block-diagonal matrix
        m = block_diag(np.eye(2), np.ones((3, 3)), [[4.0]])
        m[3, 4] += 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalue_summary(m, v=1.0, phi1=1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalue_summary(csr_matrix(m), v=1.0, phi1=1.0)

    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_nan(self, at):
        # nan > tol is False, so a plain deviation test lets NaN through
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        m[at] = math.nan
        for h in (m, csr_matrix(m)):
            with pytest.raises(ValueError, match="not symmetric"):
                eigenvalue_summary(h, v=1.0, phi1=1.0)

    def test_sparse_duplicates_summed(self):
        # a COO input whose duplicate entries sum to a symmetric matrix
        h = coo_matrix(([0.5, 0.5, 1.0, 2.0], ([0, 0, 1, 1], [1, 1, 0, 1])), shape=(3, 3))
        s = eigenvalue_summary(h, v=1.0, phi1=1.0)
        assert np.allclose(s.eigenvalues, np.linalg.eigvalsh(h.toarray()))

    def test_trace_identity(self, gauss_profile):
        sample = sample_adjacency(40, 3.0, gauss_profile, seed=6)
        h = build_h(sample.entries, sample.degrees(), 1.2, gauss_profile.phi1)
        s = eigenvalue_summary(h, v=1.2, phi1=gauss_profile.phi1)
        assert float(s.eigenvalues.sum()) == pytest.approx(h.diagonal().sum(), rel=1e-10)

    def test_trace_mismatch_raises(self, monkeypatch):
        # a block solve whose eigenvalues do not sum to the trace is refused
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + 1.0)
        s = eigenvalue_summary(block_diag(np.ones((2, 2)), [[3.0]]), v=1.0, phi1=1.0)
        with pytest.raises(ArithmeticError, match="deviates from trace"):
            s.eigenvalues

    def test_eigenpair_residual_spot_check(self, gauss_profile):
        sample = sample_adjacency(30, 2.5, gauss_profile, seed=8)
        h = build_h(sample.entries, sample.degrees(), 0.9, gauss_profile.phi1).toarray()
        vals, vecs = np.linalg.eigh(h)
        norm = np.linalg.norm(h, 2)
        for j in (0, len(vals) // 2, len(vals) - 1):
            residual = np.linalg.norm(h @ vecs[:, j] - vals[j] * vecs[:, j])
            assert residual <= 1e-10 * max(norm, 1.0)


def assert_matches_dense(h):
    # the block route, on a dense or a sparse h, against one dense solve
    dense = np.linalg.eigvalsh(h.toarray() if issparse(h) else h)
    eigs = eigenvalue_summary(h, v=1.0, phi1=1.0).eigenvalues
    assert eigs.shape == dense.shape
    assert np.all(np.diff(eigs) >= 0.0)
    assert np.max(np.abs(eigs - dense)) <= 1e-12 * max(1.0, np.abs(dense).max())


class TestBlockRouteAgainstDense:
    @pytest.mark.parametrize("family,amplitude,v", [("gauss", 0.5, 1.0), ("exp", 0.9, 0.5)])
    def test_sampled_h(self, family, amplitude, v):
        # subcritical forest (gauss, phi1 ~ 0.89) and supercritical giant (exp, phi1 = 1.8)
        profile = Profile.from_name(family, amplitude)
        sample = sample_adjacency(200, 20.0, profile, seed=31)
        h = build_h(sample.adjacency(), sample.degrees(), v, profile.phi1)
        assert isinstance(h, csr_matrix)
        assert_matches_dense(h)
        assert_matches_dense(h.toarray())

    def test_permuted_block_matrix(self, rng):
        blocks = []
        for size in (1, 1, 2, 2, 2, 3, 5, 5, 8, 13):
            b = rng.standard_normal((size, size))
            blocks.append(b + b.T)
        h = block_diag(*blocks)
        perm = rng.permutation(h.shape[0])
        assert_matches_dense(h[np.ix_(perm, perm)])
        assert_matches_dense(csr_matrix(h[np.ix_(perm, perm)]))

    def test_all_isolated(self):
        diagonal = np.array([3.0, -1.0, 0.0, 2.5, -1.0])
        s = eigenvalue_summary(np.diag(diagonal), v=1.0, phi1=1.0)
        assert np.array_equal(s.eigenvalues, np.sort(diagonal))

    def test_one_by_one_and_empty(self):
        assert np.array_equal(eigenvalue_summary(np.array([[2.5]]), 1.0, 1.0).eigenvalues, [2.5])
        empty = eigenvalue_summary(np.zeros((0, 0)), 1.0, 1.0)
        assert empty.size == 0 and empty.eigenvalues.size == 0


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


def sampled_h(family, amplitude, n, radius, v, seed):
    profile = Profile.from_name(family, amplitude)
    sample = sample_adjacency(n, radius, profile, seed=seed)
    return build_h(sample.adjacency(), sample.degrees(), v, profile.phi1), profile.phi1


class TestEmpiricalMoments:
    """`trace_moments` against moments of the dense spectrum and of dense powers."""

    def test_zeroth_is_one(self):
        s = summary_from_eigs([1.0, 2.0, 3.0])
        assert trace_moments(s, 0).tolist() == [1.0]
        with pytest.raises(ValueError, match=">= 0"):
            trace_moments(s, -1)

    def test_first_is_normalized_trace(self, gauss_profile):
        sample = sample_adjacency(25, 2.0, gauss_profile, seed=4)
        h = build_h(sample.entries, sample.degrees(), 1.0, gauss_profile.phi1)
        s = eigenvalue_summary(h, v=1.0, phi1=gauss_profile.phi1)
        assert trace_moments(s, 1)[1] == pytest.approx(h.diagonal().sum() / h.shape[0], rel=1e-10)

    def test_trace_identities_dual_route(self, gauss_profile):
        # Frobenius identities against traces of dense matrix powers for k = 1..4
        sample = sample_adjacency(25, 2.0, gauss_profile, seed=5)
        h = build_h(sample.entries, sample.degrees(), 1.1, gauss_profile.phi1).toarray()
        s = eigenvalue_summary(h, v=1.1, phi1=gauss_profile.phi1)
        n = h.shape[0]
        traces = trace_moments(s, 4)
        for k in range(1, 5):
            assert traces[k] == pytest.approx(np.trace(np.linalg.matrix_power(h, k)) / n, rel=1e-8)

    @pytest.mark.parametrize("family,amplitude,v", [
        ("gauss", 0.5, 1.0),  # subcritical forest
        ("exp", 0.9, 0.5),  # supercritical, a giant component
        ("lorentz", 0.5, 1.0),
    ])
    def test_matches_dense_spectrum(self, family, amplitude, v):
        for n, seed in ((200, 0), (200, 1), (400, 2)):
            h, phi1 = sampled_h(family, amplitude, n, 20.0, v, seed)
            eigs = np.linalg.eigvalsh(h.toarray())
            s = eigenvalue_summary(h, v=v, phi1=phi1)
            traces = trace_moments(s, 12)
            assert traces == pytest.approx([np.mean(eigs**k) for k in range(13)], rel=1e-12)
            # a shorter table is a prefix of a longer one, bit for bit
            for k_max in range(12):
                assert np.array_equal(trace_moments(s, k_max), traces[: k_max + 1])

    def test_edgeless_sample(self):
        sample = AdjacencySample(n=3, edges=np.empty((2, 0), dtype=np.int64))
        h = build_h(sample.adjacency(), sample.degrees(), 1.0, 0.9)
        assert h.nnz == 0
        traces = trace_moments(eigenvalue_summary(h, v=1.0, phi1=0.9), 7)
        assert traces.tolist() == [1.0] + [0.0] * 7

    def test_csr_power_holds_no_duplicates(self):
        # the even orders sum squared stored values, so no entry may be stored twice
        h, _ = sampled_h("exp", 0.9, 200, 20.0, 0.5, 3)
        power = h
        for _ in range(3):
            power = h @ power
            rows = np.repeat(np.arange(power.shape[0]), np.diff(power.indptr))
            assert np.unique(rows * power.shape[0] + power.indices).size == power.nnz


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
        # v = 0, so the shift is 1: the shifted matrix has a zero pivot with
        # a nonzero below it (a row swap), or is singular
        for h, reason in (
            ([[-1.0, 1.0], [1.0, -1.0]], "row swap"),
            ([[-1.0, 0.0], [0.0, 2.0]], "zero pivot"),
        ):
            with pytest.raises(ValueError, match=rf"spectral crossing\): .*{reason}"):
                log_det_density(eigenvalue_summary(np.array(h), v=0.0, phi1=1.0))

    def test_matches_lu_logdet(self):
        for family, amplitude, n, radius, seed in (
            ("gauss", 0.5, 80, 3.0, 12),  # subcritical forest, N = 161
            ("exp", 0.9, 1000, 40.0, 3),  # supercritical, giant of ~70% of N = 2001
        ):
            profile = Profile.from_name(family, amplitude)
            sample = sample_adjacency(n, radius, profile, seed=seed)
            v, phi1 = 0.5, profile.phi1
            h = build_h(sample.adjacency(), sample.degrees(), v, phi1)
            s = eigenvalue_summary(h, v=v, phi1=phi1)
            shift = 1 - v * v / phi1
            value = log_det_density(s)
            sign, logdet = np.linalg.slogdet(shift * np.eye(s.size) + h.toarray())
            assert sign > 0
            assert value == pytest.approx(logdet / s.size, abs=1e-12)
            assert value == pytest.approx(np.mean(np.log(shift + s.eigenvalues)), abs=1e-12)

    @pytest.mark.parametrize("v", [0.8, 1.0, 1.2, 1.3])
    def test_refuses_exactly_at_crossing(self, v):
        # by inertia the count of nonpositive pivots is the count of
        # eigenvalues at or below -shift; exp 0.9 has phi1 = 1.8 > v^2
        profile = Profile.from_name("exp", 0.9)
        shift = 1 - v * v / profile.phi1
        for seed in range(20):
            sample = sample_adjacency(100, 40.0, profile, seed=seed)
            h = build_h(sample.adjacency(), sample.degrees(), v, profile.phi1)
            s = eigenvalue_summary(h, v, profile.phi1)
            below = int(np.count_nonzero(shift + np.linalg.eigvalsh(h.toarray()) <= 0.0))
            if below:
                with pytest.raises(ValueError, match=rf"spectral crossing\): {below} eigenvalue"):
                    log_det_density(s)
            else:
                assert math.isfinite(log_det_density(s))

    def test_runs_no_eigensolve(self, monkeypatch):
        profile = Profile.from_name("exp", 0.9)
        sample = sample_adjacency(200, 40.0, profile, seed=5)
        degrees = sample.degrees()
        h = build_h(sample.adjacency(), degrees, 0.5, profile.phi1)

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(spectra.np.linalg, "eigvalsh", refuse)
        s = eigenvalue_summary(h, v=0.5, phi1=profile.phi1)
        assert math.isfinite(neg_log_zeta_density(degrees, s))
        with pytest.raises(AssertionError, match="eigensolve called"):
            s.eigenvalues  # the spectrum is solved only when it is read


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

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_u_refused(self, u):
        # abs(nan) >= 1 is False: the domain test must be written so NaN fails it
        with pytest.raises(ValueError, match=r"need \|u\| < 1"):
            log_prefactor_density(np.array([1, 1]), u)


class TestNegLogZetaDensity:
    def test_zero_v(self):
        s = summary_from_eigs(np.zeros(4), v=0.0, phi1=1.0)
        assert neg_log_zeta_density(np.zeros(4), s) == 0.0

    def test_triangle_closed_form(self):
        # u = 0.2 via v = 0.2, phi1 = 1; zeta of the triangle is (1-u^3)^(-2)
        adj = cycle_graph(3)
        degrees = adj.sum(axis=1)
        u = 0.2
        h = build_h(adj, degrees, u, 1.0)
        s = eigenvalue_summary(h, v=u, phi1=1.0)
        expected = (2.0 / 3.0) * math.log(1.0 - u**3)
        assert neg_log_zeta_density(degrees, s) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(math.log(zeta_reciprocal_polynomial(adj)(u)) / 3.0)


def test_histogram_density_normalized(rng):
    s = summary_from_eigs(rng.standard_normal(500))
    left, right, dens = histogram_density(s, bins=40)
    mass = float(np.sum(dens * (right - left)))
    assert mass == pytest.approx(1.0, rel=1e-9)
