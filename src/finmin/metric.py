"""(alpha, beta)-type Minkowski norms on R^3 and their fundamental tensors.

alpha is the Euclidean norm and beta the constant one-form ``b * dy3``.
Three profile families are supported: the slope profile ``1/(1-s)``
(Matsumoto), the linear profile ``1+s`` (Randers), and the constant
profile (Euclidean). The full norm is ``F(y) = alpha * phi(beta/alpha)``,
which for the slope family is ``alpha**2 / (alpha - beta)``.

The families, parameters and profile are plain Python; numpy and the dual
numbers load only with the norm and the fundamental tensor, so commands
that need neither start without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "PhiFamily",
    "MetricParams",
    "phi_eval",
    "minkowski_norm",
    "fundamental_tensor",
]


class PhiFamily(Enum):
    """Profile-function family defining the norm F = alpha * phi(beta/alpha)."""

    MATSUMOTO = "matsumoto"
    RANDERS = "randers"
    EUCLIDEAN = "euclidean"

    @property
    def s_interval(self):
        """Open interval of admissible profile arguments s = beta/alpha."""
        if self is PhiFamily.MATSUMOTO:
            return (-0.5, 0.5)
        if self is PhiFamily.RANDERS:
            return (-1.0, 1.0)
        return (-math.inf, math.inf)

    @property
    def b_interval(self):
        """Admissible one-form norms, closed on the left (b = 0 allowed)."""
        if self is PhiFamily.MATSUMOTO:
            return (0.0, 0.5)
        if self is PhiFamily.RANDERS:
            return (0.0, 1.0)
        return (0.0, math.inf)


def _phi(family, s):
    # No domain checks here: callers guarantee admissibility, and s may be
    # a Dual or a numpy array.
    if family is PhiFamily.MATSUMOTO:
        return 1.0 / (1.0 - s)
    if family is PhiFamily.RANDERS:
        return 1.0 + s
    return 1.0 + 0.0 * s


@dataclass(frozen=True)
class MetricParams:
    """Norm parameters: one-form norm b and profile family."""

    b: float
    family: PhiFamily = PhiFamily.MATSUMOTO

    def __post_init__(self):
        b = float(self.b)
        object.__setattr__(self, "b", b)
        lo, hi = self.family.b_interval
        if not math.isfinite(b) or not (lo <= b < hi):
            raise DomainError(
                f"one-form norm b={b} outside [{lo}, {hi}) for family "
                f"{self.family.value!r}"
            )

    @property
    def euclidean_degeneration(self) -> bool:
        """True when b == 0, i.e. the norm collapses to the Euclidean one."""
        return self.b == 0.0


def phi_eval(family: PhiFamily, s: float) -> float:
    """Evaluate the profile function phi(s) for the given family.

    Raises DomainError when s lies outside the family's admissible interval.
    """
    s = float(s)
    lo, hi = family.s_interval
    if not (lo < s < hi):
        raise DomainError(
            f"profile argument s={s} outside the admissible interval ({lo}, {hi}) "
            f"of family {family.value!r}"
        )
    return float(_phi(family, s))


def _half_sq_norm(params, y0, y1, y2):
    # F^2/2 written with generic arithmetic so Duals pass through.
    from . import dual

    alpha = dual.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
    f = alpha * _phi(params.family, params.b * y2 / alpha)
    return 0.5 * f * f


def minkowski_norm(params: MetricParams, y) -> float:
    """Norm F(y) = alpha * phi(b * y3 / alpha); positively 1-homogeneous.

    y must be nonzero (the norm lives on the slit tangent space). For
    admissible parameters the profile argument automatically stays in the
    family's interval because |y3| <= |y|.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    if y.shape != (3,):
        raise DomainError("y must be a 3-vector")
    if not y.any():
        raise DomainError("norm undefined at y = 0 (slit tangent space)")
    alpha = float(np.linalg.norm(y))
    return alpha * float(_phi(params.family, params.b * y[2] / alpha))


def fundamental_tensor(params: MetricParams, y, method: str = "dual", step=None):
    """Hessian of F^2/2 at y, the fundamental tensor g_ij.

    method="dual" nests forward differentiation twice and is exact up to
    rounding; method="central" uses finite differences with step
    1e-5 * max(1, |y|) unless one is supplied, and serves as the
    cross-check. Positive definite for admissible parameters.
    """
    import numpy as np

    from . import dual

    y = np.asarray(y, dtype=float)
    if y.shape != (3,):
        raise DomainError("y must be a 3-vector")
    if not y.any():
        raise DomainError("fundamental tensor undefined at y = 0")

    def fun(v):
        return _half_sq_norm(params, v[0], v[1], v[2])

    if method == "dual":
        return dual.hessian(fun, y)
    if method == "central":
        h = step if step is not None else 1e-5 * max(1.0, float(np.linalg.norm(y)))
        return dual.central_hessian(fun, y, h)
    raise ValueError(f"unknown differentiation method: {method!r}")
