"""Shared sampling helpers for the test suite."""

import math

import numpy as np

from finmin.jet import _matrix_rel_err as max_rel_err  # noqa: F401  (re-exported)
from finmin.jet import _random_jets, area_integrand_hess


def rand_jet(rng):
    """One random (3, 2) jet, drawn as check-derivatives draws its jets."""
    return _random_jets(rng, 1)[..., 0]


def graph_euler_lagrange(f, hess, m, b):
    """Euler-Lagrange operator sum_eh d2L/df_e df_h H_eh of a graph, from the
    closed-form Hessian of the area integrand.

    The graph over the plane of the orthogonal frame m has the jet
    z = m[:, :2] + m[:, 2] f^T, so L(f) = F(z) and the second f-derivatives
    are the Hessian of F contracted twice with the graph direction m[:, 2].
    """
    k = m[:, 2]
    h = area_integrand_hess(m[:, :2] + np.outer(k, f), b).reshape(3, 2, 3, 2)
    return float(np.einsum("i,iejh,j,eh->", k, h, k, np.asarray(hess, dtype=float)))


def cleared_euler_lagrange(f, hess, m, b):
    """S^3 / (2 W) times graph_euler_lagrange: the graph residual kernel at
    frame row k = m[2] (tests/test_symbolic_chain.py proves it exactly),
    with S = (2 + b^2) W^2 - b^2 w^2 and w = k3 - k1 f1 - k2 f2."""
    w2 = 1.0 + f[0] * f[0] + f[1] * f[1]
    w = m[2, 2] - m[2, 0] * f[0] - m[2, 1] * f[1]
    s = (2.0 + b * b) * w2 - b * b * w * w
    return s**3 / (2.0 * math.sqrt(w2)) * graph_euler_lagrange(f, hess, m, b)


def rand_rotation(rng):
    """Uniform random rotation matrix (det +1) from a quaternion draw.

    Not graph_pde.random_rotations(rng, 1)[0]: that sums the quaternion's
    norm in a different order, so about one seed in eight (seed 32 of
    test_bound_pinned_values among them) gives a matrix a last bit apart.
    """
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def fib_sphere(n):
    """n quasi-uniform points on the unit sphere (Fibonacci lattice)."""
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / n
    st = np.sqrt(1.0 - ct * ct)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])


# Scherk-type reference surface: f(x, y) = log(cos x) - log(cos y) solves the
# classical (b = 0) minimal-graph equation on (-pi/2, pi/2)^2.


def scherk(x, y):
    return math.log(math.cos(x)) - math.log(math.cos(y))


def scherk_gradient(x, y):
    return -math.tan(x), math.tan(y)


def scherk_hessian(x, y):
    return -1.0 / math.cos(x) ** 2, 0.0, 1.0 / math.cos(y) ** 2
