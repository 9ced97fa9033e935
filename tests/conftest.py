"""Shared sampling helpers for the test suite."""

import math
import random

import numpy as np

from finmin.jet import _matrix_rel_err as max_rel_err  # noqa: F401  (re-exported)
from finmin.jet import area_integrand_hess


def _library_versions():
    import platform

    import hypothesis
    import scipy
    import sympy

    versions = [("python", platform.python_version()), ("numpy", np.__version__)]
    versions += [(m.__name__, m.__version__) for m in (scipy, sympy, hypothesis)]
    return "finmin libraries: " + ", ".join(f"{name} {version}" for name, version in versions)


def pytest_report_header(config):
    """The library versions of the run: the exact pins (the ellipticity and
    check-derivatives values, the bit-equality tests) were measured on
    numpy 2.4.6 and scipy 1.17.1, so a failing pin reads against these."""
    return _library_versions()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header; a failing quiet run names the versions here.
    if exitstatus and config.get_verbosity() < 0:
        terminalreporter.write_line(_library_versions())


def _random_jets_one_at_a_time(rng, count):
    """count jets (3, 2, count) with entries uniform in [-1.5, 1.5), drawn
    and tested one at a time, kept where the Gram determinant is at least
    0.25. From a random.Random, the draw check-derivatives makes (-1.5 + 3
    rng.random(), row by row); from a numpy Generator, the one it made
    before, which the property tests keep as their data."""
    jets = []
    while len(jets) < count:
        if isinstance(rng, random.Random):
            z = np.array([-1.5 + 3.0 * rng.random() for _ in range(6)]).reshape(3, 2)
        else:
            z = rng.uniform(-1.5, 1.5, size=(3, 2))
        a = z.T @ z
        if a[0, 0] * a[1, 1] - a[0, 1] ** 2 >= 0.25:
            jets.append(z)
    return np.stack(jets, axis=-1)


def rand_jet(rng):
    """One random (3, 2) jet from a numpy Generator."""
    return _random_jets_one_at_a_time(rng, 1)[..., 0]


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

    Not built on test_graph_pde's _rotations_in_one_draw, which forms
    only the last row and sums the quaternion's norm in a different order,
    so about one seed in eight (seed 32 of test_bound_pinned_values among
    them) gives a row a last bit apart.
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


def assert_channels_near(got, want, ulps=16):
    """got equals want, channel by channel along the first axis, within
    ulps * eps of the channel's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    eps = np.finfo(float).eps
    for c, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= ulps * eps * np.max(np.abs(w)), c


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
