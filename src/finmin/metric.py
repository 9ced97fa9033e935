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
_divisor_excess writes the slope metric's graph-equation divisor once, for
the graph_pde, solver and translation modules. _uniform_rows, on
_random01, is the one draw of the jet and graph_pde modules' sampled
checks: blocks of rows -h + 2h u, never more rows than are still
missing, each block filtered by an optional keep-mask.
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


def _divisor_excess(w2, w, b2):
    """(S*(S - 2 b^2 w^2), 2 b^2 (S + 4 b^2 w^2)): the positive divisor of
    the graph equation and the numerator of R (graph_pde's docstring).
    Arithmetic only; the integer literals keep Fractions exact."""
    s = (2 + b2) * w2 - b2 * w * w
    return s * (s - 2 * b2 * w * w), 2 * b2 * (s + 4 * b2 * w * w)


def _random01(rng, n):
    """The next n values of rng.random(), rng a random.Random, as one
    float64 array; rng is left as n random() calls leave it.

    random() takes two 32-bit words w0, w1 of the generator and returns
    ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53, a stream Python keeps the
    same in every version. getrandbits(64 n) takes the same 2n words,
    the first in the lowest bits, so one call yields all n values."""
    import numpy as np

    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _uniform_rows(rng, n, width, h, block, keep=None):
    """Blocks (start, rows) of n rows of width values -h + 2h u, u =
    rng.random() in row order, rng a random.Random. A block draws at most
    block rows, never more than are still missing, and keeps the rows where
    keep(rows), if given, is True: the rows and rng's state are those of
    drawing and testing one row at a time, whatever the block."""
    filled = 0
    while filled < n:
        rows = (-h + 2.0 * h * _random01(rng, width * min(n - filled, block))).reshape(-1, width)
        if keep is not None:
            rows = rows[keep(rows)]
        yield filled, rows
        filled += len(rows)
