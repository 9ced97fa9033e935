"""Profile families and parameters of the (alpha, beta)-norms on R^3.

alpha is the Euclidean norm and beta the constant one-form ``b * dy3``.
Three profile families are supported: the slope profile ``1/(1-s)``
(Matsumoto), the linear profile ``1+s`` (Randers), and the constant
profile (Euclidean). The full norm is ``F(y) = alpha * phi(beta/alpha)``,
which for the slope family is ``alpha**2 / (alpha - beta)``.

The admissible b of each family are those where F is a Minkowski norm:
phi(s) > 0 and phi(s) - s phi'(s) + (b**2 - s**2) phi''(s) > 0 for
|s| <= b (Chern & Shen, Riemann-Finsler Geometry, Lemma 1.1.2). For the
slope profile the condition reads (1 - b)(1 - 2b) > 0, hence b < 1/2;
tests/test_symbolic_chain.py checks every family from ``_phi`` itself.
The norm enters the computations only through ``_phi`` (the volume
quadrature) and the area integrand of the jet module.
"""

import math
from enum import Enum

from .errors import DomainError

__all__ = ["PhiFamily", "check_b"]


class PhiFamily(Enum):
    """Profile-function family defining the norm F = alpha * phi(beta/alpha)."""

    MATSUMOTO = "matsumoto"
    RANDERS = "randers"
    EUCLIDEAN = "euclidean"

    @property
    def b_interval(self):
        """Admissible one-form norms, closed on the left (b = 0 allowed)."""
        if self is PhiFamily.MATSUMOTO:
            return (0.0, 0.5)
        if self is PhiFamily.RANDERS:
            return (0.0, 1.0)
        return (0.0, math.inf)


def _phi(family, s):
    # No domain checks here: callers guarantee admissibility. s may be a
    # float or a sympy expression; integer literals keep the last exact.
    if family is PhiFamily.MATSUMOTO:
        return 1 / (1 - s)
    if family is PhiFamily.RANDERS:
        return 1 + s
    return 1 + 0 * s


def check_b(b, family=PhiFamily.MATSUMOTO) -> float:
    """b as a float; DomainError unless it is an admissible one-form norm."""
    b = float(b)
    lo, hi = family.b_interval
    if not math.isfinite(b) or not (lo <= b < hi):
        raise DomainError(f"one-form norm b={b} outside [{lo}, {hi}) for family {family.value!r}")
    return b
