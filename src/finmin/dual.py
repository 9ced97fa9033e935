"""Forward-mode dual numbers, nestable for exact second derivatives.

A :class:`Dual` holds a value and a single derivative channel. Components
may be floats, numpy arrays (elementwise), or further ``Dual`` instances;
nesting two levels gives hyper-dual numbers whose inner-inner channel
carries one exact mixed second derivative. Only the operations the area
integrand and the graph residual need are implemented: addition,
subtraction, multiplication, division by a Dual or a constant, and
square roots.

The four derivative oracles take points x of shape (n, *S): the
coordinate axis first, then any sample shape S (S = () is one point).
``fun`` receives a list of n components, each of shape S, and must be
built from elementwise arithmetic, so one pass covers every sample.
Gradients come back as (n, *S) and Hessians as (n, n, *S); each sample's
values are bit-for-bit those of a call on that sample alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dual",
    "sqrt",
    "gradient",
    "hessian",
    "central_gradient",
    "central_hessian",
]


class Dual:
    """Value plus one derivative channel: ``re + du * eps`` with ``eps**2 == 0``."""

    __slots__ = ("re", "du")

    # Keep numpy from broadcasting over us elementwise; reflected
    # operators must run so array * Dual builds a Dual of arrays.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        # -1.0 * du is exact negation and also serves a nested Dual du
        return Dual(other - self.re, -1.0 * self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.re / other.re
            return Dual(q, (self.du - q * other.du) / other.re)
        return Dual(self.re / other, self.du / other)


def sqrt(x):
    """Square root that recurses through Dual components."""
    if isinstance(x, Dual):
        r = sqrt(x.re)
        return Dual(r, x.du / (2.0 * r))
    return np.sqrt(x)


def gradient(fun, x):
    """Exact gradient of ``fun: R^n -> R`` at every sample of x, shape (n, *S).

    One dual pass per coordinate, each over all samples at once.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    g = np.empty(x.shape)
    for i in range(n):
        args = [Dual(x[k], 1.0) if k == i else x[k] for k in range(n)]
        g[i] = fun(args).du
    return g


def hessian(fun, x):
    """Exact Hessian of ``fun: R^n -> R`` at every sample of x, shape (n, n, *S).

    One nested (hyper-dual) pass per row i: coordinate k carries the first
    seed delta_ki and, along a new leading axis j, the second seed
    delta_kj, so the pass returns the row h[i] as an (n, *S) array. Every
    entry is bit for bit what a pass seeded with the single pair (i, j)
    gives. The entries (i, j) and (j, i) come from different passes, which
    round differently, so neither is copied from the other.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    columns = _unit_steps(x, 1.0)
    h = np.empty((n,) + x.shape)
    for i in range(n):
        args = [Dual(Dual(x[k], 1.0 if k == i else 0.0), Dual(columns[k], 0.0)) for k in range(n)]
        h[i] = fun(args).du.du
    return h


def _unit_steps(x, step):
    """Rows e[i] = step * (unit vector i), shaped to broadcast against x."""
    n = x.shape[0]
    return (np.eye(n) * step).reshape((n, n) + (1,) * (x.ndim - 1))


def central_gradient(fun, x, step):
    """Second-order central-difference gradient with a fixed step, shape (n, *S)."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.shape)
    for i, e in enumerate(_unit_steps(x, step)):
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def central_hessian(fun, x, step):
    """Nested central-difference Hessian (4-point mixed stencil), shape (n, n, *S)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = np.empty((n,) + x.shape)
    f0 = fun(x)
    e = _unit_steps(x, step)
    for i in range(n):
        for j in range(n):
            if i == j:
                h[i, i] = (fun(x + e[i]) - 2.0 * f0 + fun(x - e[i])) / step**2
                continue
            h[i, j] = (
                fun(x + e[i] + e[j]) - fun(x + e[i] - e[j]) - fun(x - e[i] + e[j]) + fun(x - e[i] - e[j])
            ) / (4.0 * step**2)
    return h
