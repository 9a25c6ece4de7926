"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 1-5 and 8-11 take their verdict and detail from the `validate`
checks, the same functions behind `zetaspectra validate`.  The Monte Carlo
criteria (6, 7 and 13) share one ensemble run at N = 2001 and one size sweep;
both are module-scoped fixtures and dominate the module's wall time
(about 2.5 s of 4.5 s), so they carry the `slow` marker.

Tolerance note for criteria 6 and 7: the empirical mean at finite (N, R)
carries a systematic finite-size offset that is deterministic and an order
of magnitude larger than the standard error of a 200-trial mean, while the
same criterion requires the offset trend to shrink with N.  The acceptance
tolerance is therefore three per-trial standard deviations; the table
output still reports the standard error of the mean.  Criterion 13 removes
that offset for M_1, M_2 and the prefactor: it compares the same ensemble
with the exact finite-(N, R) expectations (`moments.finite_moments`)
within three standard errors.
"""

import math

import pytest

from zetaspectra import cli, moments, validate, zeta
from zetaspectra.graphs import cycle_graph
from zetaspectra.montecarlo import convergence_sweep, run_ensemble
from zetaspectra.percolation import Profile
from zetaspectra.zeta import zeta_reciprocal_polynomial

ACC_PROFILE = Profile.from_name("gauss", 0.5)
ACC_V = 1.0
ACC_SEED = 20260810


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def report_checks(num: int, name: str, *checks) -> bool:
    """Run validate checks as one criterion; its verdict is theirs."""
    results = [check() for check in checks]
    ok = all(r.passed for r in results)
    report(num, name, ok, "; ".join(f"{r.name}: {r.detail}" for r in results))
    return ok


@pytest.fixture(scope="module")
def mc_main():
    # 200 trials at N = 2001, R = 40
    return run_ensemble(
        n=1000, radius=40.0, profile=ACC_PROFILE, v=ACC_V,
        seed=ACC_SEED, trials=200, k_max=4, prefactor_u=0.3,
    )


@pytest.fixture(scope="module")
def mc_sweep():
    # R = ceil(0.9 sqrt(N)) along N = 501, 1001, 2001, 4001
    return convergence_sweep(
        n_values=[250, 500, 1000, 2000],
        gamma=0.5,
        profile=ACC_PROFILE,
        v=ACC_V,
        seed=ACC_SEED + 1,
        trials=[240, 160, 120, 40],
        k_max=4,
        r_scale=0.9,
    )


def test_criterion_01_oracle_equivalence():
    assert report_checks(1, "walk-oracle-equivalence", validate.check_oracle_vs_recurrence)


def test_criterion_02_route_equivalence():
    assert report_checks(2, "recurrence-route-equivalence", validate.check_route_equivalence)


def test_criterion_03_semicircle_limit():
    assert report_checks(
        3, "semicircle-limit",
        validate.check_dense_limits, validate.check_dense_moment_quadrature,
    )


def test_criterion_04_adjacency_limit():
    assert report_checks(4, "adjacency-catalan-limit", validate.check_adjacency_limits)


def test_criterion_05_zeta_exactness():
    series = validate.check_zeta_series()
    triangle = list(zeta_reciprocal_polynomial(cycle_graph(3)).coefficients)
    ok = series.passed and triangle == [1, 0, 0, -2, 0, 0, 1]
    report(5, "zeta-exactness", ok, f"{series.name}: {series.detail}; triangle {triangle}")
    assert ok


@pytest.mark.slow
def test_criterion_06_monte_carlo_convergence(mc_main, mc_sweep):
    theory = moments.limit_moments(4, ACC_V, ACC_PROFILE.phi1)
    z_scores = []
    for k in (1, 2, 3, 4):
        gap = abs(mc_main.moment_mean(k) - theory[k])
        z_scores.append(gap / mc_main.moment_std(k))
    k2_gaps = [pt.gaps[2] for pt in mc_sweep]
    monotone = all(a > b for a, b in zip(k2_gaps, k2_gaps[1:]))
    ok = all(z <= 3.0 for z in z_scores) and monotone
    report(
        6, "monte-carlo-convergence", ok,
        "z per trial sd " + "/".join(f"{z:.2f}" for z in z_scores)
        + ", k=2 gaps " + "/".join(f"{g:.3f}" for g in k2_gaps),
    )
    assert ok


@pytest.mark.slow
def test_criterion_07_prefactor_expectation(mc_main):
    u = mc_main.prefactor_u
    theory = (ACC_PROFILE.phi1 / 2.0 - 1.0) * math.log(1.0 - u * u)
    mean = float(mc_main.prefactors.mean())
    sd = float(mc_main.prefactors.std(ddof=1))
    z = abs(mean - theory) / sd
    ok = z <= 3.0
    report(7, "prefactor-expectation", ok, f"mean {mean:.6f} vs {theory:.6f}, z {z:.2f}")
    assert ok


def test_criterion_08_appendix_bounds():
    assert report_checks(8, "weight-upper-bounds", validate.check_bound_lemmas)


def test_criterion_09_weighted_sum_identity():
    assert report_checks(9, "weighted-sum-identity", validate.check_weighted_sum_identity)


def test_criterion_10_limit_functions():
    assert report_checks(10, "limit-function-consistency", validate.check_limit_functions)


def test_criterion_11_zeta_bridge():
    assert report_checks(11, "zeta-bridge", validate.check_zeta_bridge)


def test_criterion_12_mutation_sensitivity(monkeypatch, capsys, tailed_closed_paths):
    original_binomial = moments.extended_binomial

    def faulty_binomial(a, b):
        if (a, b) == (-1, 0):
            return 0
        return original_binomial(a, b)

    monkeypatch.setattr(moments, "extended_binomial", faulty_binomial)
    first = cli.main(["validate"])
    monkeypatch.setattr(moments, "extended_binomial", original_binomial)

    original_counts = zeta.count_closed_paths
    monkeypatch.setattr(zeta, "count_closed_paths", tailed_closed_paths)
    second = cli.main(["validate"])
    monkeypatch.setattr(zeta, "count_closed_paths", original_counts)
    capsys.readouterr()

    ok = first == 1 and second == 1
    report(12, "mutation-sensitivity", ok, f"exit codes {first} and {second}")
    assert ok


@pytest.mark.slow
def test_criterion_13_finite_size_moments(mc_main):
    # the exact finite-(N, R) means, judged at the scale of the standard error
    exact = moments.finite_moments(2, 1000, 40.0, ACC_PROFILE, ACC_V)
    c = ACC_V**2 / ACC_PROFILE.phi1
    u = mc_main.prefactor_u
    pairs = {  # E M_1 = c * mean degree, and the prefactor is affine in it
        "M_1": (mc_main.moments[:, 1], exact[1]),
        "M_2": (mc_main.moments[:, 2], exact[2]),
        "prefactor": (mc_main.prefactors, (exact[1] / c - 2.0) / 2.0 * math.log1p(-u * u)),
    }
    z = {
        name: (values.mean() - target) / (values.std(ddof=1) / math.sqrt(len(values)))
        for name, (values, target) in pairs.items()
    }
    ok = all(abs(value) <= 3.0 for value in z.values())
    report(
        13, "finite-size-moments", ok,
        "z per standard error " + ", ".join(f"{name} {value:+.2f}" for name, value in z.items()),
    )
    assert ok
