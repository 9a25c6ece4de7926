import tracemalloc

import numpy as np
import pytest

from zetaspectra import montecarlo
from zetaspectra.montecarlo import (
    EnsembleResult,
    convergence_sweep,
    moment_comparison,
    run_ensemble,
    run_trial,
    sample_spectrum,
    trial_seed,
)


def ensemble_of(moments, profile):
    moments = np.array(moments, dtype=float)
    return EnsembleResult(profile=profile, v=1.0, k_max=moments.shape[1] - 1, moments=moments)


class TestEnsembleResult:
    def test_identical_trials_zero_stderr(self, gauss_profile):
        # three trials with the same spectrum {1, 2}: moments 1, 3/2, 5/2, 9/2
        result = ensemble_of([[1.0, 1.5, 2.5, 4.5]] * 3, gauss_profile)
        assert result.moment_mean(0) == 1.0
        for k in range(4):
            assert result.moment_stderr(k) == 0.0

    def test_two_trial_mean(self, gauss_profile):
        # first moments of the spectra {1, 3} and {2, 4}
        result = ensemble_of([[1.0, 2.0], [1.0, 3.0]], gauss_profile)
        assert result.moment_mean(1) == pytest.approx((2.0 + 3.0) / 2.0)


class TestRunTrial:
    def test_reproducible(self, gauss_profile):
        m1, p1 = run_trial(20, 2.0, gauss_profile, 1.0, seed=5, k_max=4)
        m2, p2 = run_trial(20, 2.0, gauss_profile, 1.0, seed=5, k_max=4)
        assert np.array_equal(m1, m2) and p1 == p2

    def test_runs_no_eigensolve(self, gauss_profile, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        moments, _ = run_trial(200, 20.0, gauss_profile, 1.0, seed=3, k_max=12)
        assert moments.shape == (13,) and moments[0] == 1.0
        assert np.all(np.isfinite(moments))


class TestSampleSpectrum:
    def test_no_dense_matrix_at_n8001(self, gauss_profile):
        # a dense int8 adjacency plus a float64 H would take 9 N^2 bytes, 576 MB
        tracemalloc.start()
        try:
            degrees, summary = sample_spectrum(4000, 40.0, gauss_profile, 1.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert degrees.shape == (8001,) and summary.size == 8001
        assert peak < 64 * 2**20


class TestRunEnsemble:
    def test_sibling_seeds_share_no_trial(self, gauss_profile):
        # with seed + t keying, row t + 1 of seed s was row t of seed s + 1
        first = run_ensemble(15, 2.0, gauss_profile, 1.0, seed=9, trials=6, k_max=3)
        second = run_ensemble(15, 2.0, gauss_profile, 1.0, seed=10, trials=6, k_max=3)
        assert not any(np.array_equal(a, b) for a in first.moments for b in second.moments)

    def test_trial_seed_is_keyed(self):
        seed = trial_seed(20260810, 1000, 7)
        assert (seed.entropy, seed.spawn_key) == (20260810, (1000, 7))

    def test_moment_comparison_columns(self, gauss_profile):
        result = run_ensemble(15, 2.0, gauss_profile, 1.0, seed=2, trials=5, k_max=3)
        rows = moment_comparison(result)
        assert [r.k for r in rows] == [0, 1, 2, 3]
        assert rows[0].mean == 1.0 and rows[0].abs_diff == 0.0
        for row in rows[1:]:
            assert row.abs_diff == pytest.approx(abs(row.mean - row.theory))
            if row.stderr > 0:
                assert row.z_score == pytest.approx(row.abs_diff / row.stderr)

    def test_trials_must_be_positive(self, gauss_profile):
        with pytest.raises(ValueError):
            run_ensemble(10, 2.0, gauss_profile, 1.0, seed=0, trials=0, k_max=2)
        # every reader takes a ddof=1 standard deviation
        with pytest.raises(ValueError, match=">= 2"):
            run_ensemble(10, 2.0, gauss_profile, 1.0, seed=0, trials=1, k_max=2)

    def test_negative_order_refused_before_sampling(self, gauss_profile, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before the order was checked")

        monkeypatch.setattr(montecarlo, "sample_adjacency", no_draw)
        with pytest.raises(ValueError, match="k_max must be >= 0, got -2"):
            run_ensemble(10, 2.0, gauss_profile, 1.0, seed=0, trials=2, k_max=-2)


class TestConvergenceSweep:
    def test_gamma_domain(self, gauss_profile):
        with pytest.raises(ValueError, match="sublinear"):
            convergence_sweep([10, 20], 1.0, gauss_profile, 1.0, 0, [2, 2])

    def test_sweep_shape(self, gauss_profile):
        points = convergence_sweep(
            [10, 20], 0.5, gauss_profile, 1.0, seed=1, trials=[3, 3], k_max=2, r_scale=0.9
        )
        assert [pt.n_vertices for pt in points] == [21, 41]
        for pt in points:
            assert pt.radius >= 1.0
            assert len(pt.gaps) == 3
            assert pt.gaps[0] == 0.0

    def test_trial_counts_per_size(self, gauss_profile):
        points = convergence_sweep([8, 16], 0.5, gauss_profile, 1.0, seed=1, trials=[2, 3], k_max=1)
        assert [(pt.n_vertices, pt.trials) for pt in points] == [(17, 2), (33, 3)]
        with pytest.raises(ValueError, match="3 sizes"):
            convergence_sweep([8, 16, 32], 0.5, gauss_profile, 1.0, seed=1, trials=[3], k_max=1)

    @pytest.fixture
    def draws(self, monkeypatch):
        """The arguments of every sample_adjacency call the test makes."""
        draws = []
        real = montecarlo.sample_adjacency

        def counted(*args, **kwargs):
            draws.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_adjacency", counted)
        return draws

    def test_trial_counts_checked_before_sampling(self, gauss_profile, draws):
        with pytest.raises(ValueError, match=">= 2"):
            convergence_sweep([150, 4], 0.5, gauss_profile, 1.0, seed=1, trials=[3, 1], k_max=1)
        assert draws == []

    @pytest.mark.parametrize("n_values", [[-3], [8, 0]])
    def test_sizes_checked_before_sampling(self, gauss_profile, draws, n_values):
        with pytest.raises(ValueError, match="n must be >= 1"):
            convergence_sweep(
                n_values, 0.5, gauss_profile, 1.0, seed=1, trials=[2] * len(n_values), k_max=1
            )
        assert draws == []

    @pytest.mark.parametrize("r_scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_r_scale_checked_before_sampling(self, gauss_profile, draws, r_scale):
        with pytest.raises(ValueError, match="r_scale must be finite and > 0"):
            convergence_sweep([8, 16], 0.5, gauss_profile, 1.0, seed=1, trials=[2, 2], k_max=1,
                              r_scale=r_scale)
        assert draws == []

    @pytest.mark.parametrize("r_scale", [1e300, 2.3])
    def test_radius_below_size_checked_before_sampling(self, gauss_profile, draws, r_scale):
        # N = 7 at n = 3: 2.3 * sqrt(7) = 6.09 rounds up to R = 7 = N
        with pytest.raises(ValueError, match=r"R = o\(N\), so R must stay below N"):
            convergence_sweep([8, 3], 0.5, gauss_profile, 1.0, seed=1, trials=[2, 2], k_max=1,
                              r_scale=r_scale)
        assert draws == []

    def test_sizes_share_no_trial_stream(self, gauss_profile, monkeypatch):
        # one base seed for every size; the trial streams must still differ
        streams = []
        real = montecarlo.sample_adjacency

        def recorded(n, radius, profile, seed):
            streams.append(int(np.random.default_rng(seed).integers(2**63)))
            return real(n, radius, profile, seed)

        monkeypatch.setattr(montecarlo, "sample_adjacency", recorded)
        convergence_sweep([8, 16, 32], 0.5, gauss_profile, 1.0, seed=1, trials=[4, 4, 4], k_max=1)
        assert len(streams) == 12 and len(set(streams)) == 12

    def test_radius_rule(self, gauss_profile):
        (pt,) = convergence_sweep(
            [1000], 0.5, gauss_profile, 1.0, seed=1, trials=[2], k_max=1, r_scale=0.9
        )
        assert pt.radius == np.ceil(0.9 * np.sqrt(2001))
