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
``fun`` receives n components and must be built from elementwise
arithmetic, so one pass covers every sample. Each oracle also covers its
seeds or offsets in that pass, on leading axes before S: the gradient
and the Hessian take one (hyper-)dual pass, the central gradient one
pass over its 2n points, the central Hessian one at x and one per row.
Gradients come back as (n, *S) and Hessians as (n, n, *S); each sample's
values are bit-for-bit those of a call on that sample alone, and of one
pass per seed or per point. Memory grows with the samples of a call
times n (times n**2 for the hyper-dual Hessian), so callers with many
samples pass them in blocks.
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

    One dual pass: coordinate k carries the seed delta_ki along a new
    leading axis i, so the pass returns every partial at once. Each entry
    is bit for bit what a pass seeded in coordinate i alone gives.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty(x.shape)
    g[...] = fun([Dual(xk, ek) for xk, ek in zip(x, _seeds(x))]).du
    return g


def hessian(fun, x):
    """Exact Hessian of ``fun: R^n -> R`` at every sample of x, shape (n, n, *S).

    One nested (hyper-dual) pass: coordinate k carries the first seed
    delta_ki along a leading axis i and the second seed delta_kj along the
    axis j after it, so the pass returns h[i, j] for every pair. Every
    entry is bit for bit what a pass seeded with the single pair (i, j)
    gives. The entries (i, j) and (j, i) come from different seeds, which
    round differently, so neither is copied from the other.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    rows = _seeds(x[:, None])  # delta_ki, shape (n, 1, *S) per k
    columns = _seeds(x)[:, None]  # delta_kj, shape (1, n, *S) per k
    h = np.empty((n,) + x.shape)
    h[...] = fun([Dual(Dual(xk, r), Dual(c, 0.0)) for xk, r, c in zip(x, rows, columns)]).du.du
    return h


def _seeds(x):
    """Rows e[k] = unit vector k, shaped to broadcast against x: e[k] holds
    delta_ki along a leading axis i."""
    n = x.shape[0]
    return np.eye(n).reshape((n, n) + (1,) * (x.ndim - 1))


def _points(x, offsets):
    """x + offsets[m] for every m, shape (n, m, *S): fun's input for m
    offsets (rows of length n) in one pass."""
    return x[:, None] + offsets.T.reshape(offsets.shape[::-1] + (1,) * (x.ndim - 1))


def central_gradient(fun, x, step):
    """Second-order central-difference gradient with a fixed step, shape (n, *S).

    One pass of fun over the 2n points x + e_i and x - e_i.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    e = np.eye(n) * step
    values = fun(_points(x, np.concatenate((e, -e))))
    return (values[:n] - values[n:]) / (2.0 * step)


def central_hessian(fun, x, step):
    """Nested central-difference Hessian (4-point mixed stencil), shape (n, n, *S).

    One pass of fun at x and one per row i, over its 2 + 4 (n - 1) points
    x +- e_i and x +- e_i +- e_j (j != i). Each offset has at most one
    nonzero entry per coordinate, so x + offset is bit for bit
    x +- e_i +- e_j added one step at a time.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = np.empty((n,) + x.shape)
    f0 = fun(x)
    e = np.eye(n) * step
    for i in range(n):
        others = np.delete(e, i, axis=0)
        offsets = np.concatenate(([e[i], -e[i]], e[i] + others, e[i] - others, others - e[i], -e[i] - others))
        values = fun(_points(x, offsets))
        h[i, i] = (values[0] - 2.0 * f0 + values[1]) / step**2
        pp, pm, mp, mm = values[2:].reshape((4, n - 1) + x.shape[1:])
        h[i, np.arange(n) != i] = (pp - pm - mp + mm) / (4.0 * step**2)
    return h
