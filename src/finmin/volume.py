"""Volume normalization factors for the supported norm families.

The induced volume form of an (alpha, beta)-norm with constant
coefficients is a constant multiple f(b) of the Euclidean volume. This
module computes f(b) two ways: by Gauss-Legendre quadrature of the ratio

    f(b) = integral(sin(t)**(n-2), 0, pi)
           / integral(sin(t)**(n-2) / phi(b*cos(t))**n, 0, pi)

with node doubling until the ratio stabilizes, and by the exact closed
form 2/(2 + b**2) available for the slope family in dimension n = 2.
The volume form is Busemann-Hausdorff; no other branch is implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureConvergenceError
from .metric import MetricParams, _phi

__all__ = [
    "QuadraturePolicy",
    "VolumeFactorRequest",
    "bh_factor_quadrature",
    "bh_factor_closed_matsumoto",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class QuadraturePolicy:
    """Node-count policy: start at initial_nodes, double up to max_nodes."""

    initial_nodes: int = 64
    max_nodes: int = 16384
    rtol: float = 1e-12

    def __post_init__(self):
        for name in ("initial_nodes", "max_nodes"):
            n = getattr(self, name)
            if not isinstance(n, int) or not _is_pow2(n) or not (64 <= n <= 16384):
                raise DomainError(
                    f"{name}={n} must be a power of two between 64 and 16384"
                )
        if self.initial_nodes > self.max_nodes:
            raise DomainError("initial_nodes must not exceed max_nodes")
        if not (0.0 < self.rtol < 1.0):
            raise DomainError("rtol must lie in (0, 1)")


@dataclass(frozen=True)
class VolumeFactorRequest:
    params: MetricParams
    n: int = 2
    quadrature: QuadraturePolicy = field(default_factory=QuadraturePolicy)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension n={self.n} must be an integer >= 2")


@lru_cache(maxsize=64)
def _nodes_weights(n_nodes: int):
    # Gauss-Legendre on [-1, 1] mapped onto [0, pi]. scipy is imported on
    # first use, not at module load, so only `volume` pays for it.
    from scipy.special import roots_legendre

    x, w = roots_legendre(n_nodes)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


def _ratio_estimate(params: MetricParams, n: int, n_nodes: int) -> float:
    t, w = _nodes_weights(n_nodes)
    sin_pow = np.sin(t) ** (n - 2) if n > 2 else np.ones_like(t)
    phi = _phi(params.family, params.b * np.cos(t))
    num = float(w @ sin_pow)
    den = float(w @ (sin_pow / phi**n))
    return num / den


def bh_factor_quadrature(req: VolumeFactorRequest):
    """(value, nodes_used): the volume factor by node-doubling quadrature of
    the defining ratio, and the node count at which it converged.

    Convergence is judged on the ratio itself (shared nodes cancel smooth
    error in both integrals). Raises QuadratureConvergenceError, carrying
    the last two estimates, if doubling is exhausted.
    """
    pol = req.quadrature
    n_nodes = pol.initial_nodes
    prev = est = _ratio_estimate(req.params, req.n, n_nodes)
    while n_nodes < pol.max_nodes:
        n_nodes *= 2
        prev, est = est, _ratio_estimate(req.params, req.n, n_nodes)
        if abs(est - prev) <= pol.rtol * max(1.0, abs(est)):
            return est, n_nodes
    raise QuadratureConvergenceError(
        f"quadrature ratio did not converge below rtol={pol.rtol} "
        f"within {pol.max_nodes} nodes",
        (prev, est),
    )


def bh_factor_closed_matsumoto(b: float) -> float:
    """Exact factor 2/(2 + b**2) for the slope family in dimension 2."""
    b = float(b)
    if not (0.0 <= b < 0.5):
        raise DomainError(f"b={b} outside [0, 0.5)")
    return 2.0 / (2.0 + b * b)
