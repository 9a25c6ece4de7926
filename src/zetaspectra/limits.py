"""Closed-form limit objects: the shifted semicircle law, its Stieltjes
transform, and the limiting log-zeta integrals.

In the dense-degree limit the spectral measure is a Wigner semicircle of
radius 2|v| centered at v^2.  The limiting normalized log of the zeta
function is

    log_zeta_limit(v) = v^2/2 - semicircle_log_integral(v)

where the second term integrates log(1 + lambda) against the semicircle.
A classical log-potential computation shows the difference vanishes
identically for |v| <= 1 and equals v^2/2 - 2 log|v| - 1/(2 v^2) outside.
`log_zeta_limit` is that closed form; `semicircle_log_integral` computes
the integral with a fixed Gauss-Chebyshev rule and serves as its numerical
oracle.  The same rule gives `semicircle_moment`, the oracle for the
dense-degree moment recurrence.  The rule shares no code with either route
it checks, and it needs no quadrature library.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "semicircle_support",
    "semicircle_density",
    "semicircle_moment",
    "stieltjes_transform",
    "log_zeta_limit",
    "semicircle_log_integral",
    "gauss_rule_from_moments",
]

# Node count of the Gauss-Chebyshev rule behind both quadrature oracles.  The
# rule is exact for moments below order 2 * _RULE_NODES and converges
# geometrically for log(1 + lambda) when the support stays off -1.  At
# |v| = 1 the support touches -1 and the error falls only as n^-3 (measured
# against the exact value 1/2: 1.1e-9 at 1024 nodes, 1.7e-11 at 4096,
# 2.2e-12 at 8192), so 4096 keeps it three orders below the 1e-8 checks in
# `validate` at about 0.1 ms per call.
_RULE_NODES = 4096


def _check_v(v: float) -> None:
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")


def semicircle_support(v: float) -> tuple[float, float]:
    _check_v(v)
    if v == 0.0:
        raise ValueError("v = 0 degenerates the semicircle to a point mass")
    return v * v - 2.0 * abs(v), v * v + 2.0 * abs(v)


def semicircle_density(lam: float, v: float) -> float:
    """Density of the v^2-shifted semicircle of radius 2|v|."""
    lo, hi = semicircle_support(v)
    if lam < lo or lam > hi:
        return 0.0
    return math.sqrt(max(4.0 * v * v - (lam - v * v) ** 2, 0.0)) / (2.0 * math.pi * v * v)


def _semicircle_rule(v: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Chebyshev rule of the second kind mapped onto the semicircle.

    Nodes v^2 + 2|v| cos(j pi/(n+1)) and weights 2/(n+1) sin^2(j pi/(n+1)),
    j = 1..n: the Gauss rule of the shifted semicircle law itself.
    """
    semicircle_support(v)  # refuses v = 0 and non-finite v
    theta = np.arange(1, _RULE_NODES + 1) * (math.pi / (_RULE_NODES + 1))
    nodes = v * v + 2.0 * abs(v) * np.cos(theta)
    weights = 2.0 / (_RULE_NODES + 1) * np.sin(theta) ** 2
    return nodes, weights


def semicircle_moment(k: int, v: float) -> float:
    """Moment of order k by the fixed Gauss-Chebyshev rule, exact up to
    rounding for k < 2 * _RULE_NODES."""
    if k < 0:
        raise ValueError("k must be >= 0")
    nodes, weights = _semicircle_rule(v)
    return float(np.dot(weights, nodes**k))


def stieltjes_transform(z: complex, v: float) -> complex:
    """The branch of (v^2 g^2 + (z - v^2) g + 1 = 0) with Im z * Im g >= 0.

    Real z is refused: evaluate at Im z != 0.
    """
    if v == 0.0:
        raise ValueError("v = 0 degenerates the transform")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError(f"the transform needs Im z != 0, got z = {z}")
    shift = z - v * v
    disc = cmath.sqrt(shift * shift - 4.0 * v * v)
    if not cmath.isfinite(disc):
        raise ValueError(f"v = {v:g}: the transform's discriminant overflows a float")
    for g in ((-shift + disc) / (2 * v * v), (-shift - disc) / (2 * v * v)):
        if z.imag * g.imag >= 0.0:
            return g
    raise ArithmeticError("no admissible branch found")  # pragma: no cover


def log_zeta_limit(v: float) -> float:
    """The limiting -(1/N) E log Z as a function of the rescaled parameter.

    Closed form: 0 for |v| <= 1, else v^2/2 - 2 log|v| - 1/(2 v^2).
    """
    _check_v(v)
    if abs(v) <= 1.0:
        return 0.0
    return v * v / 2.0 - 2.0 * math.log(abs(v)) - 1.0 / (2.0 * v * v)


def semicircle_log_integral(v: float) -> float:
    """Integral of log(1 + lambda) against the shifted semicircle.

    Sums the fixed Gauss-Chebyshev rule.  The support never crosses -1:
    v^2 - 2|v| >= -1 holds in floating point too, with equality at |v| = 1.
    There the rule's weights vanish quadratically at the endpoint, so the
    sum stays finite and converges algebraically (see _RULE_NODES).
    """
    nodes, weights = _semicircle_rule(v)
    return float(np.dot(weights, np.log1p(nodes)))


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
