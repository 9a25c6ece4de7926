import hashlib
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


def test_edge_frequency_matches_probability():
    # every pair of a dense small graph, where repeated positions get redrawn:
    # its frequency over many seeds within 4 binomial SE of its probability
    profile = Profile.from_name("exp", 0.9)
    samples, n, radius = 10_000, 3, 1.0
    hits = np.zeros((2 * n + 1,) * 2)
    for seed in range(samples):
        hits += sample_adjacency(n, radius, profile, seed).entries
    i, j = np.triu_indices(2 * n + 1, 1)
    p = profile.phi((j - i) / radius) / radius
    stderr = np.sqrt(p * (1.0 - p) / samples)
    assert np.all(np.abs(hits[i, j] / samples - p) <= 4.0 * stderr)


@pytest.mark.parametrize("family", FAMILIES)
def test_offset_counts_match_probability(family):
    # edges per offset d pooled over seeds against (N - d) p_d per sample,
    # counted on the graph so a repeated pair counts once; offsets expecting
    # fewer than 25 edges are pooled into one tail bin, where a single rare
    # hit would otherwise read as many SE
    profile = Profile.from_name(family, 0.5)
    samples, n, radius = 1000, 50, 2.5
    N = 2 * n + 1
    counts = np.zeros(N - 1)
    for seed in range(samples):
        i, j = np.nonzero(np.triu(sample_adjacency(n, radius, profile, seed).entries))
        counts += np.bincount(j - i, minlength=N)[1:]
    d = np.arange(1, N)
    p = profile.phi(d / radius) / radius
    expected = samples * (N - d) * p
    variance = expected * (1.0 - p)
    bulk = expected >= 25.0
    observed, mean, var = (np.append(x[bulk], x[~bulk].sum()) for x in (counts, expected, variance))
    assert np.all(np.abs(observed - mean) <= 4.0 * np.sqrt(var))


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
    """The stream-2 draw written out on dense N x N matrices: per redraw
    round, walk the pending (d, i) in order and mark each cell; a cell
    already marked this round sends its entry to the next redraw call.
    Returns the edges, row-major."""
    N = 2 * n + 1
    offsets = np.arange(1, N)
    rng = np.random.default_rng(seed)
    d = np.repeat(offsets, rng.binomial(N - offsets, profile.phi(offsets / radius) / radius))
    i = rng.integers(0, N - d)
    while True:
        marked = np.zeros((N, N), dtype=bool)
        again = []
        for k in range(d.size):
            if marked[i[k], i[k] + d[k]]:
                again.append(k)
            marked[i[k], i[k] + d[k]] = True
        if not again:
            return np.stack(np.nonzero(marked))
        i[again] = rng.integers(0, N - d[again])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 150])
@pytest.mark.parametrize("radius", [1.0, 2.5, 40.0])
def test_sampler_keeps_the_dense_stream(family, n, radius):
    profile = Profile.from_name(family, 0.5)
    for seed in (0, 1, 20260810):
        sample = sample_adjacency(n, radius, profile, seed)
        assert np.array_equal(sample.edges, dense_draw(n, radius, profile, seed))


# Stream-2 pins at seeds 0, 1 and 20260810: the edges "i-j" of small
# samples, and the sha256 of the three `edges.tobytes()` of larger ones.
PIN_SEEDS = (0, 1, 20260810)
PINNED_EDGES = {
    (1.0, 1, "exp"): ("", "0-2", ""),
    (1.0, 1, "gauss"): ("", "", ""),
    (1.0, 1, "lorentz"): ("0-1", "0-2", ""),
    (1.0, 7, "exp"): ("2-3 10-11 11-12", "1-2 1-3 4-5 4-8 5-6 5-7 12-14", "0-1 10-14 11-13 13-14"),
    (1.0, 7, "gauss"): ("2-3 10-11 11-12", "1-2 4-5 5-7 13-14", "0-1 12-13"),
    (1.0, 7, "lorentz"): (
        "0-1 1-3 2-3 7-13 10-11 11-12",
        "1-2 1-3 4-5 4-8 5-6 5-7 12-14",
        "0-1 5-7 9-12 10-14 12-13 12-14 13-14",
    ),
    (2.5, 1, "exp"): ("", "0-2", ""),
    (2.5, 1, "gauss"): ("", "0-2", ""),
    (2.5, 1, "lorentz"): ("", "0-2", ""),
    (2.5, 7, "exp"): (
        "1-2 1-7 8-13 10-11",
        "1-2 1-3 1-5 4-5 4-8 5-7 12-14",
        "0-1 0-2 8-12 10-14 11-13 11-14",
    ),
    (2.5, 7, "gauss"): (
        "1-2 2-4 10-11 11-12",
        "1-2 1-3 1-5 4-5 5-7 12-14",
        "0-1 8-12 11-13 11-14 12-14 13-14",
    ),
    (2.5, 7, "lorentz"): (
        "0-1 0-5 2-4 7-13 10-11 11-12",
        "1-2 1-3 2-6 4-5 4-8 5-7 11-13 12-14",
        "0-1 6-7 8-12 8-14 10-14 11-13 11-14 12-14",
    ),
    (40.0, 1, "exp"): ("", "", ""),
    (40.0, 1, "gauss"): ("", "", ""),
    (40.0, 1, "lorentz"): ("", "", ""),
    (40.0, 7, "exp"): ("6-12", "1-3 3-7", "0-4"),
    (40.0, 7, "gauss"): ("6-12", "1-3 3-7", "0-4"),
    (40.0, 7, "lorentz"): ("6-12", "1-3 3-7", "0-4"),
}
PINNED_SHA256 = {
    (1.0, 150, "exp"): "82807ddff7c35c24d108412cee9b0bc8c06cf2e518510cee2bc01ce342d9edd9",
    (1.0, 150, "gauss"): "680f8f044b5fb7eb0dd769094846f40cac172bddff31e76bece2a995777d9e36",
    (1.0, 150, "lorentz"): "396d8cc79ffd3358f4cd034b640d3b12e879b4b4aa08f9f87becb1da071b6014",
    (1.0, 750, "exp"): "d663f9e8150509c4a98ad29dc3cdd9b6eda318d665fcc1c7ff0d5ce309b2bcea",
    (1.0, 750, "gauss"): "0ca945aee46ca65e5220b66b1d9f1549bdcdc484aa16e7fa32a29e8171a26ae4",
    (1.0, 750, "lorentz"): "f9892f3accdb3fa022f1cac33a426be7d1f84edb65f8e4831e3269b7bf4417b3",
    (2.5, 150, "exp"): "dcd255118033b69892c1093960a97cfd952932a5e2dba016725f2929a9f88a74",
    (2.5, 150, "gauss"): "d38370908e85aec2d266ebe2e53069d56b5117646b312082b35840e3bd4e164d",
    (2.5, 150, "lorentz"): "33cbaa37fecdc6572c46c1e8436424ac863cc2ed4ffd22f278d01fd0f3c10a72",
    (2.5, 750, "exp"): "e72f93c27b70acdd07cb79b7d86444682147e54aa582bbd48af1658365621c47",
    (2.5, 750, "gauss"): "b54194fb42256138a9aae8f4854023c0643a9c3a38833234b60f055f72af1f4e",
    (2.5, 750, "lorentz"): "44bb47a016fedf3b4f2136adb1b834b810230f722bcf8c874778f227107a2265",
    (40.0, 150, "exp"): "440cbfb04e2c5ea7a805c59a98c7227643b04f76912af76f46e3f0a62876da8c",
    (40.0, 150, "gauss"): "4660b91db61484892e518ccf56dce219aa9d89c22323067bc8a207420d4e5178",
    (40.0, 150, "lorentz"): "7d3de1c4df1fc8a796625a8ec70871deac8a183a87e8f929ee4f042f14b7a20f",
    (40.0, 750, "exp"): "b4cd235acbf2a898770bfce20706f3bda1f4d5f8bcc31350c92f51a256229c3c",
    (40.0, 750, "gauss"): "f1e2bf92f4d98ba900b5b54bc022a50840afe93980c7f974e8d0d679a27326e3",
    (40.0, 750, "lorentz"): "9ef31994fcb44bc81a71deeb0ef9a3b34392a75adb0d373a0eec0054a2621adc",
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 7, 150, 750])
@pytest.mark.parametrize("radius", [1.0, 2.5, 40.0])
def test_sampler_pins_stream_2(family, n, radius):
    profile = Profile.from_name(family, 0.5)
    samples = [sample_adjacency(n, radius, profile, seed) for seed in PIN_SEEDS]
    if n <= 7:
        pairs = [" ".join(f"{i}-{j}" for i, j in s.edges.T.tolist()) for s in samples]
        assert tuple(pairs) == PINNED_EDGES[radius, n, family]
    else:
        digest = hashlib.sha256(b"".join(s.edges.tobytes() for s in samples)).hexdigest()
        assert digest == PINNED_SHA256[radius, n, family]


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_sample_edge_count_matches_matrix(seed, exp_profile):
    sample = sample_adjacency(5, 2.0, exp_profile, seed=seed)
    assert sample.edge_count() == int(sample.entries.sum()) // 2
