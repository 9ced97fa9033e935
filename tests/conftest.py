"""Shared sampling helpers for the test suite."""

import math

import numpy as np

from finmin.cli import _matrix_rel_err as max_rel_err  # noqa: F401  (re-exported)
from finmin.cli import _random_jet as rand_jet  # noqa: F401  (re-exported)
from finmin.jet import ImmersionJet2


def rand_jet2(rng, span=1.5):
    """Random symmetric second-order jet."""
    s = np.zeros((3, 2, 2))
    for i in range(3):
        h11, h12, h22 = rng.uniform(-span, span, 3)
        s[i] = [[h11, h12], [h12, h22]]
    return ImmersionJet2(s)


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
