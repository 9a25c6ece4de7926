import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from zetaspectra.moments import dense_moments, limit_moments
from zetaspectra.percolation import Profile
from zetaspectra.validate import VALIDATION_GRID
from zetaspectra.limits import (
    gauss_rule_from_moments,
    log_det_limit,
    log_zeta_limit,
    semicircle_density,
    semicircle_log_integral,
    semicircle_moment,
    semicircle_support,
    stieltjes_transform,
)


QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)

# the grid for the oracle references: inside, at and just around |v| = 1,
# where the support touches -1, and outside
REFERENCE_V = (0.3, 0.7, 0.9, 0.99, 1.0, 1.01, 1.4, 2.0)


def adaptive_semicircle_moment(k: int, v: float) -> float:
    """Reference for `semicircle_moment`: adaptive quadrature of x^k
    against the density over the support."""
    lo, hi = semicircle_support(v)
    val, _ = integrate.quad(lambda x: x**k * semicircle_density(x, v), lo, hi, **QUAD_OPTS)
    return val


def adaptive_semicircle_log_integral(v: float) -> float:
    """Reference for `semicircle_log_integral`: adaptive quadrature after
    lambda = v^2 + 2 v sin(theta), which removes the square-root endpoint
    behaviour; the integrand then vanishes quadratically at the endpoints
    even when the support touches -1."""

    def integrand(theta):
        return math.log(1.0 + v * v + 2.0 * v * math.sin(theta)) * math.cos(theta) ** 2

    val, _ = integrate.quad(integrand, -math.pi / 2.0, math.pi / 2.0, **QUAD_OPTS)
    return 2.0 / math.pi * val


def closed_form_limit(v: float) -> float:
    """Log-potential evaluation of the limiting function: zero inside the
    unit interval, v^2/2 - 2 log|v| - 1/(2 v^2) outside."""
    if abs(v) <= 1.0:
        return 0.0
    return v * v / 2.0 - 2.0 * math.log(abs(v)) - 1.0 / (2.0 * v * v)


class TestSemicircleDensity:
    def test_peak_value(self):
        for v in (0.5, 1.0, -2.0):
            assert semicircle_density(v * v, v) == pytest.approx(1.0 / (math.pi * abs(v)))

    def test_zero_outside_support(self):
        lo, hi = semicircle_support(1.5)
        assert semicircle_density(lo - 0.01, 1.5) == 0.0
        assert semicircle_density(hi + 0.01, 1.5) == 0.0

    def test_normalization(self):
        for v in (0.5, 1.0, 2.0):
            lo, hi = semicircle_support(v)
            mass, _ = integrate.quad(lambda x: semicircle_density(x, v), lo, hi, epsabs=1e-12)
            assert abs(mass - 1.0) < 1e-10

    def test_v_zero_degenerate(self):
        with pytest.raises(ValueError):
            semicircle_density(0.0, 0.0)


class TestSemicircleMoments:
    def test_low_orders(self):
        for v in (0.5, 1.3):
            assert semicircle_moment(0, v) == pytest.approx(1.0, abs=1e-12)
            assert semicircle_moment(1, v) == pytest.approx(v * v, rel=1e-10)

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
    def test_matches_recurrence(self, v):
        mu = dense_moments(12, v)
        for k in range(0, 13):
            assert semicircle_moment(k, v) == pytest.approx(mu[k], rel=1e-8)

    @pytest.mark.parametrize("v", REFERENCE_V)
    def test_matches_references_to_order_16(self, v):
        # measured worst relative gaps over this grid: 1.1e-15 to the
        # recurrence, 1.2e-13 to adaptive quadrature (the latter's own error)
        mu = dense_moments(16, v)
        for k in range(0, 17):
            rule = semicircle_moment(k, v)
            assert rule == pytest.approx(mu[k], rel=1e-14)
            assert rule == pytest.approx(adaptive_semicircle_moment(k, v), rel=1e-12)

    def test_refusals(self):
        with pytest.raises(ValueError, match="k must be"):
            semicircle_moment(-1, 1.0)
        with pytest.raises(ValueError, match="v = 0"):
            semicircle_moment(2, 0.0)


class TestStieltjesTransform:
    def test_real_point_value(self):
        # root of g^2 + 3g + 1 selected by the upper-half-plane limit; off the
        # support the real part moves only at second order in Im z
        expected = (-3.0 + math.sqrt(5.0)) / 2.0
        g = stieltjes_transform(complex(4.0, 1e-9), 1.0)
        assert g.real == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.381966, abs=5e-7)

    def test_large_z_decay(self):
        for z in (50.0, 200.0):
            g = stieltjes_transform(complex(z, 1e-9), 1.0)
            assert g.real == pytest.approx(-1.0 / z, rel=0.1)

    @settings(max_examples=100)
    @given(
        re=st.floats(-6.0, 6.0),
        im=st.floats(1e-3, 6.0),
        v=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_defining_quadratic(self, re, im, v):
        z = complex(re, im)
        g = stieltjes_transform(z, v)
        assert abs(v * v * g * g + (z - v * v) * g + 1.0) <= 1e-12
        assert z.imag * g.imag >= 0.0

    @pytest.mark.parametrize("v", [1.0, 1e-3, 1e-6, 1e-8, 1e-100, 1e-160])
    def test_quadratic_residual_at_small_v(self, v):
        # the textbook (-b +- disc)/(2 v^2) cancels in the small root once
        # v^2 is small beside |z|; at v = 1e-160, v^2 is subnormal
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(-6.0, 6.0), rng.uniform(1e-3, 6.0) * rng.choice([-1.0, 1.0]))
            g = stieltjes_transform(z, v)
            assert abs(v * v * g * g + (z - v * v) * g + 1.0) <= 2e-15
            assert z.imag * g.imag > 0.0

    def test_on_support_rejected(self):
        # real z is refused on the support and off it alike
        for z in (1.0, 4.0, complex(-7.0, 0.0)):
            with pytest.raises(ValueError, match="Im z"):
                stieltjes_transform(z, 1.0)
        with pytest.raises(ValueError):
            stieltjes_transform(1.0, 0.0)

    def test_series_tail_bound(self):
        # 40-term moment series at v = 1; the bound is the geometric tail
        # with |lambda| <= 3, checked in high precision in the validate
        # module because it dips below float64 at z = 10
        mu = dense_moments(40, 1.0)
        for z in (complex(4.0, 1e-9), complex(6.0, 1e-9), complex(10.0, 1e-9)):
            series = -sum(mu[k] / z ** (k + 1) for k in range(41))
            bound = (3.0 / abs(z)) ** 41 / (abs(z) - 3.0)
            gap = abs(stieltjes_transform(z, 1.0) - series)
            assert gap <= max(bound, 64.0 * np.finfo(float).eps)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteV:
    @pytest.mark.parametrize("v", NON_FINITE)
    def test_support_refuses(self, v):
        with pytest.raises(ValueError, match="finite"):
            semicircle_support(v)

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_quadrature_oracles_refuse(self, v):
        # both sum the rule mapped by semicircle_support
        with pytest.raises(ValueError, match="finite"):
            semicircle_moment(2, v)
        with pytest.raises(ValueError, match="finite"):
            semicircle_log_integral(v)

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_stieltjes_transform_refuses(self, v):
        # by name, before the discriminant is formed
        with pytest.raises(ValueError, match="v must be finite"):
            stieltjes_transform(1j, v)

    @pytest.mark.parametrize("v", NON_FINITE)
    def test_log_zeta_limit_refuses(self, v):
        with pytest.raises(ValueError, match="finite"):
            log_zeta_limit(v)


@given(st.floats(-4.0, 4.0).filter(lambda v: v * v != 0.0))  # v^2 = 0 is refused
def test_support_never_crosses_minus_one(v):
    # (|v| - 1)^2 >= 0 survives rounding, so log(1 + lambda) stays finite on
    # every rule node and semicircle_log_integral needs no refusal for it
    assert semicircle_support(v)[0] >= -1.0


class TestLogZetaLimit:
    def test_zero_at_origin(self):
        assert log_zeta_limit(0.0) == 0.0

    def test_even(self):
        for v in (0.4, 0.9, 1.7):
            assert log_zeta_limit(-v) == pytest.approx(log_zeta_limit(v), abs=1e-12)

    def test_vanishes_inside_unit_interval(self):
        # the log-potential of the shifted semicircle cancels v^2/2 exactly
        # for |v| <= 1; this is the pole-free statement in disguise
        for v in (0.2, 0.5, 0.8, 0.95):
            assert abs(log_zeta_limit(v)) < 1e-10

    @pytest.mark.parametrize("v", [1.2, 1.5, 2.0, 3.0])
    def test_closed_form_outside_unit_interval(self, v):
        assert log_zeta_limit(v) == pytest.approx(closed_form_limit(v), abs=1e-9)

    def test_continuous_on_grid(self):
        grid = np.linspace(-2.0, 2.0, 41)  # includes the endpoint cases +-1
        vals = [log_zeta_limit(float(v)) for v in grid]
        assert all(math.isfinite(x) for x in vals)
        assert np.allclose(vals, vals[::-1], atol=1e-9)

    def test_consistency_with_log_integral(self):
        for v in (0.3, 0.7, 0.9, 1.4):
            lhs = log_zeta_limit(v)
            rhs = v * v / 2.0 - semicircle_log_integral(v)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestSemicircleLogIntegral:
    def test_density_route_agrees(self):
        # same integral by a second quadrature scheme, straight against
        # the density over the support
        for v in (0.3, 0.7, 0.9):
            lo, hi = semicircle_support(v)
            direct, _ = integrate.quad(
                lambda x: math.log1p(x) * semicircle_density(x, v), lo, hi,
                epsabs=1e-12, limit=300,
            )
            assert semicircle_log_integral(v) == pytest.approx(direct, abs=1e-8)

    def test_small_v_vanishes(self):
        assert abs(semicircle_log_integral(1e-4)) < 1e-6

    @pytest.mark.parametrize("v", REFERENCE_V)
    def test_matches_adaptive_reference(self, v):
        # measured gaps: at most 4.4e-16 off |v| = 1, and 1.7e-11 at |v| = 1,
        # where the rule converges only algebraically
        tol = 1e-10 if abs(v) == 1.0 else 1e-14
        assert semicircle_log_integral(v) == pytest.approx(
            adaptive_semicircle_log_integral(v), abs=tol
        )

    def test_touching_endpoint_converges(self):
        # at |v| = 1 the support touches -1; the rule's weights vanish
        # quadratically there, so the value stays finite
        val = semicircle_log_integral(1.0)
        assert math.isfinite(val)
        assert val == pytest.approx(0.5, abs=1e-6)  # equals v^2/2 at v = 1

    def test_v_zero_degenerate(self):
        with pytest.raises(ValueError):
            semicircle_log_integral(0.0)


class TestGaussFromMoments:
    def test_reproduces_moments(self):
        v = 0.5
        mu = dense_moments(12, v)
        nodes, weights = gauss_rule_from_moments(mu)
        assert len(nodes) == 6
        for k in range(0, 12):
            quad = float(np.sum(weights * nodes**k))
            assert quad == pytest.approx(mu[k], rel=1e-9, abs=1e-12)

    def test_nodes_inside_support(self):
        v = 0.5
        lo, hi = semicircle_support(v)
        nodes, weights = gauss_rule_from_moments(dense_moments(12, v))
        assert np.all(nodes >= lo - 1e-9) and np.all(nodes <= hi + 1e-9)
        assert np.all(weights > 0.0)

    def test_log_integral_approximation(self):
        # 8-point rule against the 4096-node Gauss-Chebyshev rule for
        # log(1 + lambda); the nearby singularity at -1 makes the
        # convergence geometric but slow
        v = 0.5
        nodes, weights = gauss_rule_from_moments(dense_moments(16, v))
        approx = float(np.sum(weights * np.log1p(nodes)))
        assert approx == pytest.approx(semicircle_log_integral(v), abs=1e-5)

    def test_needs_odd_moment_count(self):
        with pytest.raises(ValueError):
            gauss_rule_from_moments([1.0, 0.5])

    def test_ill_conditioned_hankel_refused(self):
        # the float Hankel Cholesky of the 24-point rule fails at v = 0.9 on gauss a=0.5
        phi1 = Profile.from_name("gauss", 0.5).phi1
        refusal = r"24-point .* not positive definite .*condition number \d\.\d+e\+\d\d"
        with pytest.raises(ValueError, match=refusal):
            gauss_rule_from_moments(limit_moments(48, 0.9, phi1))


# every VALIDATION_GRID point with v <= 0.5 and v^2 < phi1, and v = 0.3 at the same phi1
_GRID_POINTS = [(v, phi1) for v, phi1 in VALIDATION_GRID if v <= 0.5 and v * v < phi1]
ORACLE_POINTS = _GRID_POINTS + [(0.3, phi1) for _, phi1 in _GRID_POINTS]


class TestLogDetLimit:
    def test_hand_value(self):
        # phi1 = 1, v = 1/2: (1 - 1/2) log(1 - 1/4)
        assert log_det_limit(0.5, 1.0) == pytest.approx(0.5 * math.log(0.75), rel=1e-15)
        assert log_det_limit(-0.5, 1.0) == log_det_limit(0.5, 1.0)
        assert log_det_limit(0.7, 2.0) == 0.0  # (N - E)/N -> 0: the Euler term vanishes

    @pytest.mark.parametrize("v,phi1,reason", [
        (1.0, 0.886, "v = 1 needs v^2 < phi1"),
        (0.5, 0.25, "needs v^2 < phi1"),
        (1.2, 1.8, "|v| < 1"),
        (-1.0, 4.0, "|v| < 1"),
        (math.nan, 1.0, "finite"),
        (math.inf, 1.0, "finite"),
        (1e-160, 1.0, "v^2 = 1e-320 is subnormal"),  # so logdet refuses it before any trial
    ])
    def test_refusals(self, v, phi1, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            log_det_limit(v, phi1)

    @pytest.mark.parametrize("v,phi1", ORACLE_POINTS)
    def test_gauss_rule_converges_to_it(self, v, phi1):
        # the Q-point rule of the exact limit moments integrates
        # log(1 - v^2/phi1 + lambda); measured worst gap at Q = 16: 6.5e-6
        # at phi1 = 0.5, v = 0.5
        shift, exact = 1.0 - v * v / phi1, log_det_limit(v, phi1)
        gaps = []
        for q in (4, 8, 12, 16):
            nodes, weights = gauss_rule_from_moments(limit_moments(2 * q, v, phi1))
            gaps.append(abs(float(np.sum(weights * np.log(shift + nodes))) - exact))
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5
