"""Closed-form limit objects: the shifted semicircle law, its Stieltjes
transform, the limiting log-zeta integrals and the limit log-det.

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

`log_det_limit` is the limit log-det density in closed form (Ihara-Bass);
the Gauss rule of the limit moments is its test oracle.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = [
    "semicircle_support",
    "semicircle_density",
    "semicircle_moment",
    "stieltjes_transform",
    "log_zeta_limit",
    "semicircle_log_integral",
    "log_det_limit",
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
    if v * v == 0.0:  # v = 0, or |v| below ~1.5e-162 where v^2 underflows
        raise ValueError(f"v = {v:g} degenerates the semicircle to a point mass")
    hi = v * v + 2.0 * abs(v)
    if not math.isfinite(hi):
        raise ValueError(f"v = {v:g}: the semicircle support's right end v^2 + 2|v| overflows a float")
    return v * v - 2.0 * abs(v), hi


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

    Real z is refused: evaluate at Im z != 0.  With b = z - v^2, the roots
    are q/v^2 and 1/q for q = -(b + disc)/2, the sign of disc = sqrt(b^2 -
    4 v^2) taken so that b + disc does not cancel: the textbook
    (-b +- disc)/(2 v^2) loses every digit of the small root once v^2 is
    small beside |b|.
    """
    _check_v(v)
    if v * v == 0.0:  # v = 0, or |v| below ~1.5e-162 where v^2 underflows
        raise ValueError(f"v = {v:g} degenerates the transform")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError(f"the transform needs Im z != 0, got z = {z}")
    b = z - v * v
    disc = cmath.sqrt(b * b - 4.0 * v * v)
    if not cmath.isfinite(disc):
        raise ValueError(f"v = {v:g}: the transform's discriminant overflows a float")
    if (b.conjugate() * disc).real < 0.0:
        disc = -disc
    q = -(b + disc) / 2.0
    # the roots' product 1/v^2 is real and positive, and Im z != 0 keeps
    # them off the real axis, so exactly one lies in Im z's half-plane
    g = 1.0 / q
    return g if z.imag * g.imag >= 0.0 else q / (v * v)


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


def log_det_limit(v: float, phi1: float) -> float:
    """The limit of (1/N) log det((1 - v^2/phi1) I + H): (1 - phi1/2) log(1 - v^2/phi1).

    With u = v/sqrt(phi1), Ihara-Bass gives on every graph with E edges
    (1/N) log det((1 - u^2) I + H) = ((N - E)/N) log(1 - u^2) + (1/N) log zeta^-1(u).
    E/N tends to phi1/2, and the zeta term vanishes in the limit for |v| < 1.
    """
    _check_v(v)
    if 0.0 < v * v < sys.float_info.min:
        raise ValueError(f"v = {v:g}: v^2 = {v * v:.3g} is subnormal, so the limit loses digits")
    if v * v >= phi1:
        # H has the eigenvalue 0 at any isolated vertex, so a shift
        # 1 - v^2/phi1 <= 0 puts the sampled log-det at a crossing
        raise ValueError(f"v = {v:g} needs v^2 < phi1 = {phi1:.6g} for a positive shift")
    if abs(v) >= 1.0:
        raise ValueError(f"v = {v:g}: the limit log-det needs |v| < 1, where the zeta term vanishes")
    # + 0.0 writes a vanished limit as 0, not -0
    return (1.0 - phi1 / 2.0) * math.log1p(-v * v / phi1) + 0.0


def gauss_rule_from_moments(moments) -> tuple[np.ndarray, np.ndarray]:
    """Gauss quadrature nodes and weights for a measure given by moments.

    moments must hold orders 0..2Q (an odd count); the rule has Q points
    and integrates polynomials up to degree 2Q-1 exactly.  Classic
    Hankel-Cholesky route to the Jacobi matrix.  No command reads it.  Fed
    `limit_moments`, it converges to `log_det_limit` and is its test oracle;
    it stays here while the benchmark's `logdet_giant` workload calls it.
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
