import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from zetaspectra import cli, percolation
from zetaspectra.percolation import (
    Profile,
    ProfileFamily,
    build_h,
    circuit_rank_term,
    edge_probability,
    format_edge_list,
    sample_adjacency,
)

FAMILIES = ["exp", "gauss", "lorentz"]


@pytest.mark.parametrize("family", FAMILIES)
def test_phi1_matches_quadrature(family):
    profile = Profile.from_name(family, 0.37)
    val, _ = integrate.quad(lambda t: profile.phi(t), -np.inf, np.inf, epsabs=1e-14)
    assert abs(profile.phi1 - val) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_profile_shape(family):
    profile = Profile.from_name(family, 0.8)
    grid = np.linspace(0.0, 10.0, 2000)  # past ~27 the gaussian underflows float64
    vals = profile.phi(grid)
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)  # strictly decreasing for t >= 0
    assert np.allclose(profile.phi(-grid), vals)  # even


@pytest.mark.parametrize("amplitude", [0.0, 1.0, -0.2, 1.5])
def test_bad_amplitude_rejected(amplitude):
    with pytest.raises(ValueError):
        Profile(ProfileFamily.GAUSSIAN, amplitude)


def test_edge_probability_value():
    # direct evaluation: phi(2/4)/4 with the exponential profile, a = 0.5
    profile = Profile.from_name("exp", 0.5)
    expected = 0.5 * math.exp(-0.5) / 4.0
    assert edge_probability(0, 2, 4.0, profile) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0758163, abs=5e-8)


def test_edge_probability_diagonal_error():
    profile = Profile.from_name("exp", 0.5)
    with pytest.raises(ValueError, match="no Bernoulli law"):
        edge_probability(3, 3, 2.0, profile)


@given(
    x=st.integers(-50, 50),
    y=st.integers(-50, 50),
    radius=st.floats(1.0, 100.0),
    amplitude=st.floats(0.01, 0.99),
    family=st.sampled_from(FAMILIES),
)
def test_edge_probability_symmetry(x, y, radius, amplitude, family):
    if x == y:
        return
    profile = Profile.from_name(family, amplitude)
    assert edge_probability(x, y, radius, profile) == edge_probability(y, x, radius, profile)


def test_sample_is_symmetric_zero_diagonal(gauss_profile):
    sample = sample_adjacency(20, 3.0, gauss_profile, seed=7)
    a = sample.entries
    assert a.shape == (41, 41)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0, 1}


def test_sample_reproducible(gauss_profile):
    s1 = sample_adjacency(15, 2.5, gauss_profile, seed=123)
    s2 = sample_adjacency(15, 2.5, gauss_profile, seed=123)
    s3 = sample_adjacency(15, 2.5, gauss_profile, seed=124)
    assert np.array_equal(s1.entries, s2.entries)
    assert not np.array_equal(s1.entries, s3.entries)


def test_tiny_amplitude_near_empty():
    profile = Profile.from_name("exp", 0.01)
    sample = sample_adjacency(10, 1.0, profile, seed=5)
    assert sample.edge_count() <= 2


def test_degree_vector_and_handshake(gauss_profile):
    # degrees counted from the edge list against the dense row sums
    sample = sample_adjacency(12, 2.0, gauss_profile, seed=3)
    deg = sample.degrees()
    assert deg.dtype == np.int64
    assert np.array_equal(deg, sample.entries.sum(axis=1))
    assert deg.sum() == 2 * sample.edge_count()


def test_edge_frequency_matches_probability(exp_profile):
    # marginal law of one pair over many seeds, binomial error bars
    seeds = 100_000
    n, radius = 1, 1.5
    x_idx, y_idx = 0, 2  # sites -1 and 1, distance 2
    p = edge_probability(-1, 1, radius, exp_profile)
    hits = 0
    for seed in range(seeds):
        hits += int(sample_adjacency(n, radius, exp_profile, seed).entries[x_idx, y_idx])
    freq = hits / seeds
    stderr = math.sqrt(p * (1.0 - p) / seeds)
    assert abs(freq - p) <= 4.0 * stderr


def test_mean_degree_sum_tends_to_half_phi1(gauss_profile):
    # deterministic double sum (1/2NR) sum phi((x-t)/R) at N=4001, R=sqrt(N)
    n = 2000
    n_vertices = 2 * n + 1
    radius = math.sqrt(n_vertices)
    d = np.arange(-(n_vertices - 1), n_vertices)
    weights = n_vertices - np.abs(d)
    total = float(np.sum(weights * gauss_profile.phi(d / radius)))
    value = total / (2.0 * n_vertices * radius)
    assert abs(value - gauss_profile.phi1 / 2.0) <= 0.02 * (gauss_profile.phi1 / 2.0)


def test_build_h_zero_v(gauss_profile):
    sample = sample_adjacency(8, 2.0, gauss_profile, seed=1)
    h = build_h(sample.entries, sample.degrees(), 0.0, gauss_profile.phi1)
    assert h.nnz == 0 and h.shape == (17, 17)


def test_build_h_trace(gauss_profile):
    sample = sample_adjacency(8, 2.0, gauss_profile, seed=2)
    deg = sample.degrees()
    v, phi1 = 1.3, gauss_profile.phi1
    h = build_h(sample.entries, deg, v, phi1)
    assert h.diagonal().sum() == pytest.approx(v * v / phi1 * deg.sum(), rel=1e-12)
    with pytest.raises(ValueError):
        build_h(sample.entries, deg, v, 0.0)


def test_build_h_single_edge():
    entries = np.array([[0, 1], [1, 0]], dtype=np.int8)
    h = build_h(entries, entries.sum(axis=1), 1.0, 1.0).toarray()
    assert np.allclose(h, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.linalg.eigvalsh(h), [0.0, 2.0])


def test_circuit_rank_term_values():
    assert circuit_rank_term(np.array([1, 2, 1])) == -1.0  # path on 3 vertices
    assert circuit_rank_term(np.array([2, 2, 2])) == 0.0  # triangle
    assert circuit_rank_term(np.zeros(7)) == -7.0  # edgeless


def test_edge_list_format(gauss_profile):
    sample = sample_adjacency(3, 1.5, gauss_profile, seed=11)
    text = format_edge_list(sample)
    for line in text.strip().splitlines():
        x, y = map(int, line.split())
        assert -3 <= x < y <= 3
        assert sample.entries[x + 3, y + 3] == 1


def test_file_exports(tmp_path, gauss_profile):
    # `sample` is the one writer: edge list by default, dense 0/1 CSV on --dense
    sample = sample_adjacency(3, 1.5, gauss_profile, seed=11)
    edge_path = tmp_path / "edges.txt"
    dense_path = tmp_path / "dense.csv"
    args = ["sample", "--n", "3", "--R", "1.5", "--seed", "11", "--out"]
    assert cli.main(args + [str(edge_path)]) == 0
    assert cli.main(args + [str(dense_path), "--dense"]) == 0
    assert edge_path.read_text() == format_edge_list(sample)
    dense = np.loadtxt(dense_path, delimiter=",", dtype=np.int8)
    assert np.array_equal(dense, sample.entries)


def dense_draw(n, radius, profile, seed):
    """The row-major dense draw the edge-array sampler reproduces: one
    rng.random call per row of the upper triangle.  Returns its edges."""
    N = 2 * n + 1
    p_by_offset = profile.phi(np.arange(1, N) / radius) / radius
    rng = np.random.default_rng(seed)
    entries = np.zeros((N, N), dtype=np.int8)
    for i in range(N - 1):
        m = N - 1 - i
        entries[i, i + 1 :] = rng.random(m) < p_by_offset[:m]
    return np.nonzero(entries)


def assert_same_stream(n, radius, profile, seed):
    sample = sample_adjacency(n, radius, profile, seed)
    assert np.array_equal(sample.edges, np.stack(dense_draw(n, radius, profile, seed)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 150])
@pytest.mark.parametrize("radius", [1.0, 2.5, 40.0])
def test_sampler_keeps_the_dense_stream(family, n, radius):
    profile = Profile.from_name(family, 0.5)
    for seed in (0, 1, 20260810):
        assert_same_stream(n, radius, profile, seed)


@pytest.mark.parametrize("chunk", [1, 50, 1000])
def test_sampler_stream_across_draw_chunks(monkeypatch, chunk, gauss_profile):
    # chunks of whole rows: one row per call (chunk=1, rows longer than a
    # chunk) up to many rows per call; each must draw the same stream
    monkeypatch.setattr(percolation, "_DRAW_CHUNK", chunk)
    for seed in (3, 4):
        assert_same_stream(40, 2.5, gauss_profile, seed)


def test_sampler_stream_over_two_default_chunks():
    # N = 1501 draws 1 125 750 uniforms, more than one default chunk
    assert_same_stream(750, 40.0, Profile.from_name("lorentz", 0.5), 11)


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_sample_edge_count_matches_matrix(seed, exp_profile):
    sample = sample_adjacency(5, 2.0, exp_profile, seed=seed)
    assert sample.edge_count() == int(sample.entries.sum()) // 2
