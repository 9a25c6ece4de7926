"""Closed-form limit objects: the shifted semicircle law, its Stieltjes
transform, and the limiting log-zeta integrals.

In the dense-degree limit the spectral measure is a Wigner semicircle of
radius 2|v| centered at v^2.  The limiting normalized log of the zeta
function is

    log_zeta_limit(v) = v^2/2 - semicircle_log_integral(v)

where the second term integrates log(1 + lambda) against the semicircle.
A classical log-potential computation shows the difference vanishes
identically for |v| <= 1 and equals v^2/2 - 2 log|v| - 1/(2 v^2) outside;
both routes are computed numerically here and the closed form is kept to
the test suite as an oracle.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate

__all__ = [
    "semicircle_support",
    "semicircle_density",
    "semicircle_moment",
    "stieltjes_transform",
    "log_zeta_limit",
    "semicircle_log_integral",
    "gauss_rule_from_moments",
]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=400)


def semicircle_support(v: float) -> tuple[float, float]:
    if v == 0.0:
        raise ValueError("v = 0 degenerates the semicircle to a point mass")
    return v * v - 2.0 * abs(v), v * v + 2.0 * abs(v)


def semicircle_density(lam: float, v: float) -> float:
    """Density of the v^2-shifted semicircle of radius 2|v|."""
    lo, hi = semicircle_support(v)
    if lam < lo or lam > hi:
        return 0.0
    return math.sqrt(max(4.0 * v * v - (lam - v * v) ** 2, 0.0)) / (2.0 * math.pi * v * v)


def semicircle_moment(k: int, v: float) -> float:
    """Moment of order k by adaptive quadrature over the support."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lo, hi = semicircle_support(v)
    val, _ = integrate.quad(lambda x: x**k * semicircle_density(x, v), lo, hi, **_QUAD_OPTS)
    return val


def stieltjes_transform(z: complex, v: float) -> complex:
    """The branch of (v^2 g^2 + (z - v^2) g + 1 = 0) with Im z * Im g >= 0.

    For real z off the support, the value is the boundary limit from the
    upper half-plane (real there).  Real z inside the support is rejected.
    """
    if v == 0.0:
        raise ValueError("v = 0 degenerates the transform")
    z = complex(z)
    shift = z - v * v
    if z.imag == 0.0:
        lo, hi = semicircle_support(v)
        if lo <= z.real <= hi:
            raise ValueError("on-support evaluation requires Im z > 0")
        x = shift.real
        root = math.sqrt(x * x - 4.0 * v * v)
        return complex((-x + math.copysign(root, x)) / (2.0 * v * v))
    disc = cmath.sqrt(shift * shift - 4.0 * v * v)
    for g in ((-shift + disc) / (2 * v * v), (-shift - disc) / (2 * v * v)):
        if z.imag * g.imag >= 0.0:
            return g
    raise ArithmeticError("no admissible branch found")  # pragma: no cover


def _chebyshev_second_integral(f, nodes: int) -> float:
    """Integral of f(t) sqrt(1-t^2) over [-1, 1] by Gauss-Chebyshev (2nd kind)."""
    theta = np.arange(1, nodes + 1) * math.pi / (nodes + 1)
    weights = math.pi / (nodes + 1) * np.sin(theta) ** 2
    return float(np.sum(weights * f(np.cos(theta))))


def log_zeta_limit(v: float, tol: float = 1e-10, max_nodes: int = 1 << 22) -> float:
    """The limiting -(1/N) E log Z as a function of the rescaled parameter.

    Gauss-Chebyshev nodes are doubled until two successive values agree to
    tol.  At |v| = 1 the integrand has an integrable endpoint log
    singularity and convergence is slow; past max_nodes this errors out.
    """
    if v == 0.0:
        return 0.0

    def integrand(t):
        return np.log(1.0 + v * v + 2.0 * v * t)

    nodes = 16
    prev = None
    while nodes <= max_nodes:
        val = v * v / 2.0 - (2.0 / math.pi) * _chebyshev_second_integral(integrand, nodes)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        nodes *= 2
    raise ArithmeticError(f"quadrature did not stabilize below {tol} within {max_nodes} nodes")


def semicircle_log_integral(v: float) -> float:
    """Integral of log(1 + lambda) against the shifted semicircle.

    Uses the substitution lambda = v^2 + 2 v sin(theta), which removes the
    square-root endpoint behavior; the integrand then vanishes
    quadratically at the endpoints even when the support touches -1.
    """
    if v == 0.0:
        raise ValueError("v = 0 degenerates the semicircle")
    lo, _ = semicircle_support(v)
    if lo < -1.0:
        raise ValueError("support crosses lambda = -1; the integral diverges")

    def integrand(theta):
        return math.log(1.0 + v * v + 2.0 * v * math.sin(theta)) * math.cos(theta) ** 2

    val, _ = integrate.quad(integrand, -math.pi / 2.0, math.pi / 2.0, **_QUAD_OPTS)
    return 2.0 / math.pi * val


def gauss_rule_from_moments(moments) -> tuple[np.ndarray, np.ndarray]:
    """Gauss quadrature nodes and weights for a measure given by moments.

    moments must hold orders 0..2Q (an odd count); the rule has Q points
    and integrates polynomials up to degree 2Q-1 exactly.  Classic
    Hankel-Cholesky route to the Jacobi matrix.
    """
    moments = np.asarray(moments, dtype=float)
    if moments.size < 3 or moments.size % 2 == 0:
        raise ValueError("need an odd number of moments m_0..m_{2Q}, Q >= 1")
    q = (moments.size - 1) // 2
    hankel = np.array([[moments[i + j] for j in range(q + 1)] for i in range(q + 1)])
    try:
        chol = np.linalg.cholesky(hankel).T  # upper triangular
    except np.linalg.LinAlgError:
        raise ValueError(
            f"the moment Hankel matrix of the {q}-point Gauss rule is not positive definite "
            f"in floating point (condition number {np.linalg.cond(hankel):.3g})"
        ) from None
    alpha = np.empty(q)
    beta = np.empty(q - 1) if q > 1 else np.empty(0)
    alpha[0] = chol[0, 1] / chol[0, 0]
    for j in range(1, q):
        alpha[j] = chol[j, j + 1] / chol[j, j] - chol[j - 1, j] / chol[j - 1, j - 1]
        beta[j - 1] = chol[j, j] / chol[j - 1, j - 1]
    jacobi = np.diag(alpha)
    if q > 1:
        jacobi += np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = moments[0] * vectors[0, :] ** 2
    return nodes, weights
