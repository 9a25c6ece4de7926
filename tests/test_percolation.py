import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from zetaspectra import cli
from zetaspectra.percolation import (
    Profile,
    ProfileFamily,
    build_h,
    circuit_rank_term,
    degree_vector,
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
    sample = sample_adjacency(12, 2.0, gauss_profile, seed=3)
    deg = degree_vector(sample.entries)
    assert deg.sum() == 2 * sample.edge_count()
    empty = np.zeros((5, 5), dtype=np.int8)
    assert np.array_equal(degree_vector(empty), np.zeros(5, dtype=np.int64))
    complete = np.ones((6, 6), dtype=np.int8) - np.eye(6, dtype=np.int8)
    assert np.array_equal(degree_vector(complete), np.full(6, 5))


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
    assert np.all(h == 0.0)


def test_build_h_trace(gauss_profile):
    sample = sample_adjacency(8, 2.0, gauss_profile, seed=2)
    deg = sample.degrees()
    v, phi1 = 1.3, gauss_profile.phi1
    h = build_h(sample.entries, deg, v, phi1)
    assert np.trace(h) == pytest.approx(v * v / phi1 * deg.sum(), rel=1e-12)
    with pytest.raises(ValueError):
        build_h(sample.entries, deg, v, 0.0)


def test_build_h_single_edge():
    entries = np.array([[0, 1], [1, 0]], dtype=np.int8)
    h = build_h(entries, degree_vector(entries), 1.0, 1.0)
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


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_sample_edge_count_matches_matrix(seed, exp_profile):
    sample = sample_adjacency(5, 2.0, exp_profile, seed=seed)
    assert sample.edge_count() == len(list(sample.iter_edges()))
