"""Volume normalization factors for the supported norm families.

The induced volume form of an (alpha, beta)-norm with constant
coefficients is a constant multiple f(b) of the Euclidean volume. This
module computes f(b) two ways: by Gauss-Legendre quadrature of the ratio

    f(b) = integral(sin(t)**(n-2), 0, pi)
           / integral(sin(t)**(n-2) / phi(b*cos(t))**n, 0, pi)

with node doubling from 64 up to 16384 nodes until two estimates agree to
1e-12 relative (module constants), and by the exact closed form
2/(2 + b**2) available for the slope family in dimension n = 2. Both
take b as a plain float and check it with metric.check_b. The volume form
is Busemann-Hausdorff; no other branch is implemented.

The Gauss-Legendre rule is computed here with numpy alone: Newton's method
on P_n, evaluated by the three-term recurrence for all positive roots at
once, from the guesses cos(pi*(k - 1/4)/(n + 1/2)); weights
2/((1 - x**2) * P_n'(x)**2); the negative half by symmetry. This is the
recurrence-based Newton rule that Hale & Townsend, SIAM J. Sci. Comput.
35(2) (2013), compare with Golub-Welsch. It takes O(n) memory, where the
dense companion matrix of numpy.polynomial.legendre.leggauss takes
O(n**2), and O(n**2) time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureConvergenceError
from .metric import PhiFamily, _phi, check_b

__all__ = ["bh_factor_quadrature", "bh_factor_closed_matsumoto"]

# Node doubling runs from _INITIAL_NODES up to _MAX_NODES (powers of two) and
# stops once two estimates agree to _RTOL relative to the last.
_INITIAL_NODES = 64
_MAX_NODES = 16384
_RTOL = 1e-12

# Newton stops once no root moves by more than a few ulp of 1; from the
# guesses below it takes four steps at every node count from 64 to 16384.
_NEWTON_STEP_TOL = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 8


def _legendre(n: int, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n_nodes: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n_nodes even.

    The roots of P_n come in pairs +-x: Newton runs on the n/2 positive
    roots at once and the rule is mirrored.
    """
    k = np.arange(1, n_nodes // 2 + 1)
    x = np.cos(math.pi * (k - 0.25) / (n_nodes + 0.5))
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre(n_nodes, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_STEP_TOL:
            break
    else:
        raise ArithmeticError(f"Legendre root Newton iteration stalled at {n_nodes} nodes")
    _, dp = _legendre(n_nodes, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


@lru_cache(maxsize=64)
def _nodes_weights(n_nodes: int):
    # Gauss-Legendre on [-1, 1] mapped onto [0, pi].
    x, w = _gauss_legendre(n_nodes)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


def _ratio_estimate(b: float, family: PhiFamily, n: int, n_nodes: int) -> float:
    t, w = _nodes_weights(n_nodes)
    sin_pow = np.sin(t) ** (n - 2) if n > 2 else np.ones_like(t)
    phi = _phi(family, b * np.cos(t))
    # At large n, phi**n overflows (those terms add 0) or underflows to 0 where
    # sin_pow has too (0/0); the caller rejects a non-finite ratio, so no warnings.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        num = w @ sin_pow
        den = w @ (sin_pow / phi**n)
        return float(num / den)


def bh_factor_quadrature(b: float, family: PhiFamily = PhiFamily.MATSUMOTO, n: int = 2):
    """(value, nodes_used): the volume factor in dimension n by node-doubling
    quadrature of the defining ratio, and the node count at which it converged.

    Convergence is judged on the ratio itself (shared nodes cancel smooth
    error in both integrals) and relative to its size, so factors far below
    1 get as many digits as factors near 1. Raises
    QuadratureConvergenceError, carrying the last two estimates, at the
    first non-finite estimate or when doubling is exhausted; the message
    names the node counts. DomainError unless b is admissible for the family
    and n is an integer >= 2.
    """
    b = check_b(b, family)
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension n={n} must be an integer >= 2")
    n_nodes = _INITIAL_NODES
    prev = est = _ratio_estimate(b, family, n, n_nodes)
    while math.isfinite(est) and n_nodes < _MAX_NODES:
        n_nodes *= 2
        prev, est = est, _ratio_estimate(b, family, n, n_nodes)
        if abs(est - prev) <= _RTOL * abs(est):
            return est, n_nodes
    if not math.isfinite(est):
        raise QuadratureConvergenceError(
            f"quadrature ratio is {est} at b={b}, n={n} with "
            f"{n_nodes} nodes (the integrands over- or underflow)",
            (prev, est),
        )
    raise QuadratureConvergenceError(
        f"quadrature ratio did not converge below rtol={_RTOL} within "
        f"{_MAX_NODES} nodes: {prev!r} at {max(n_nodes // 2, _INITIAL_NODES)} "
        f"nodes, {est!r} at {n_nodes} nodes",
        (prev, est),
    )


def bh_factor_closed_matsumoto(b: float) -> float:
    """Exact factor 2/(2 + b**2) for the slope family in dimension 2."""
    b = check_b(b)
    return 2.0 / (2.0 + b * b)
