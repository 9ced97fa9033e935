import math
from random import Random

import numpy as np
import pytest
from conftest import assert_channels_near, cleared_euler_lagrange, rand_rotation, scherk_gradient, scherk_hessian

from finmin import graph_pde
from finmin.dual import Dual
from finmin.errors import DomainError
from finmin.graph_pde import (
    _residual_partials,
    _residual_terms,
    ellipticity_quotients,
    graph_residual,
    mean_curvature_type_bound,
    random_rotations,
)
from finmin.solver import GridProblem, _stencil_point, assemble_residual


IDENTITY = np.eye(3)


def rand_gp(rng, span=2.0):
    """(f1, f2, h11, h12, h22) of a random graph point."""
    f1, f2 = rng.uniform(-span, span, 2)
    h11, h12, h22 = rng.uniform(-span, span, 3)
    return float(f1), float(f2), float(h11), float(h12), float(h22)


def _rotations_in_one_draw(rng, n):
    """n uniformly random frame rows (n, 3) from a numpy Generator: the last
    rotation rows of one (n, 4) quaternion draw, as random_rotations drew
    them before it took a random.Random. The property tests keep these
    rows as their data."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    return np.column_stack((2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d))


# ---------------------------------------------------------------------------
# residuals


def test_plane_is_minimal_for_every_b():
    gp = (1.3, -0.4, 0.0, 0.0, 0.0)
    for b in (0.0, 0.2, 0.45):
        assert graph_residual(*gp, b) == 0.0


def test_b0_example_value():
    gp = (1.0, 0.0, 1.0, 0.0, 0.0)
    assert graph_residual(*gp, 0.0) == pytest.approx(8.0, rel=1e-14)


def test_scherk_solves_b0():
    f1, f2 = scherk_gradient(0.3, 0.4)
    h11, h12, h22 = scherk_hessian(0.3, 0.4)
    gp = (f1, f2, h11, h12, h22)
    assert abs(graph_residual(*gp, 0.0)) <= 1e-9
    assert abs(graph_residual(*gp, 0.3)) > 1e-4


def test_b0_reduction_is_classical_operator():
    rng = np.random.default_rng(21)
    for _ in range(500):
        gp = f1, f2, h11, h12, h22 = rand_gp(rng)
        classical = (1 + f2**2) * h11 - 2 * f1 * f2 * h12 + (1 + f1**2) * h22
        r = graph_residual(*gp, 0.0)
        w2 = 1.0 + f1 * f1 + f2 * f2
        assert r == pytest.approx(4.0 * w2 * classical, rel=1e-12, abs=1e-12)


def test_identity_frame_reduces_exactly():
    # graph_residual is the kernel at k = (0, 0, 1); flipping the graph
    # direction to k = (0, 0, -1) changes no bit.
    rng = np.random.default_rng(22)
    flipped = np.diag([1.0, -1.0, -1.0])
    for _ in range(200):
        gp = rand_gp(rng)
        b = rng.uniform(0.0, 0.5)
        assert _residual_terms(*gp, *IDENTITY[2], b)[0] == graph_residual(*gp, b)
        assert _residual_terms(*gp, *flipped[2], b)[0] == graph_residual(*gp, b)


def test_frame_unit_k():
    rng = np.random.default_rng(23)
    for _ in range(50):
        frame = rand_rotation(rng)
        assert np.sum(frame[2] ** 2) == pytest.approx(1.0, rel=1e-12)


def _cleared(gp, frame, b):
    f1, f2, h11, h12, h22 = gp
    return cleared_euler_lagrange([f1, f2], [[h11, h12], [h12, h22]], frame, b)


def test_residual_matches_jet_bracket():
    # The kernel equals the Euler-Lagrange operator built from the jet
    # module's closed-form Hessian, cleared by the positive S^3 / (2 W):
    # simultaneous zeros, positive ratio.
    rng = np.random.default_rng(24)
    for i in range(500):
        gp = rand_gp(rng)
        frame = IDENTITY if i % 5 == 0 else rand_rotation(rng)
        b = rng.uniform(0.0, 0.5)
        res = _residual_terms(*gp, *frame[2], b)[0]
        assert _cleared(gp, frame, b) == pytest.approx(res, rel=1e-9, abs=1e-9)


def test_vertical_plane_frame_is_finite():
    # k3 = 0: graph over a vertical plane; everything stays finite.
    frame = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert frame[2, 2] == 0.0
    gp = (0.7, -0.3, 1.0, 0.2, -0.5)
    for b in (0.0, 0.3, 0.49):
        r = _residual_terms(*gp, *frame[2], b)[0]
        assert math.isfinite(r)
        assert _cleared(gp, frame, b) == pytest.approx(r, rel=1e-9)


def _reference_residual(f1, f2, h11, h12, h22, k1, k2, k3, b):
    # (r, D): the coefficient form and its divisor written out in the
    # operation order the residual kernel has always used; floats, arrays
    # and Duals all pass through.
    w2 = 1.0 + f1 * f1 + f2 * f2
    w = k3 - k1 * f1 - k2 * f2
    b2 = b * b
    s = (2.0 + b2) * w2 - b2 * w * w
    hform = (h11 + h22) - (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
    u1 = k1 + w * f1 / w2
    u2 = k2 + w * f2 / w2
    uform = u1 * u1 * h11 + 2.0 * u1 * u2 * h12 + u2 * u2 * h22
    divisor = s * (s - 2.0 * b2 * w * w)
    return divisor * hform + 2.0 * b2 * (s + 4.0 * b2 * w * w) * w2 * uform, divisor


def test_pointwise_residuals_bitwise_equal_reference():
    rng = np.random.default_rng(35)
    for i in range(300):
        gp = rand_gp(rng, span=3.0)
        frame = IDENTITY if i % 5 == 0 else rand_rotation(rng)
        b = rng.uniform(0.0, 0.5)
        assert _residual_terms(*gp, *frame[2], b) == _reference_residual(*gp, *frame[2], b)  # (r, D)
        assert graph_residual(*gp, b) == _reference_residual(*gp, 0.0, 0.0, 1.0, b)[0]


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_grid_residual_bitwise_and_partials_near_reference(b):
    problem = GridProblem((-1.0, 1.0, -0.5, 0.5), 11, 9, b, lambda x, y: 0.0)
    f = np.random.default_rng(36).uniform(-1.0, 1.0, (13, 11))
    vals = _stencil_point(problem, f)
    assert np.array_equal(assemble_residual(problem, f), _reference_residual(*vals, 0.0, 0.0, 1.0, b)[0])
    want = []
    for i in range(5):
        args = [Dual(v, np.ones_like(v)) if k == i else v for k, v in enumerate(vals)]
        want.append(_reference_residual(*args, 0.0, 0.0, 1.0, b)[0].du)
    assert_channels_near(_residual_partials(*vals, b), want)


# ---------------------------------------------------------------------------
# ellipticity


def _quotients(gps, frames, xi, b):
    f = np.array([gp[:2] for gp in gps])
    k = np.array([frame[2] for frame in frames])
    return ellipticity_quotients(f, k, np.asarray(xi, dtype=float), b)


def test_coefficients_b0_are_classical():
    # At b = 0 the excess vanishes: W^2 a(xi) / |xi|^2 is the classical
    # W^2 h(xi) / |xi|^2 and the divisor is S^2 = 4 W^4.
    rng = np.random.default_rng(25)
    frame = rand_rotation(rng)
    gps = [rand_gp(rng) for _ in range(50)]
    xi = rng.normal(size=(50, 2))
    ratio, divisor = _quotients(gps, [frame] * 50, xi, 0.0)
    for (f1, f2, *_), x, r, d in zip(gps, xi, ratio, divisor):
        w2 = 1.0 + f1 * f1 + f2 * f2
        h = x @ x - (f1 * x[0] + f2 * x[1]) ** 2 / w2
        assert r == pytest.approx(w2 * h / (x @ x), rel=1e-14)
        assert d == pytest.approx(4.0 * w2**2, rel=1e-14)


def test_coefficients_flat_point_identity_frame():
    # u vanishes, so a is exactly the identity: the quotient is 1 in every
    # probe direction.
    gp = (0.0, 0.0, 0.0, 0.0, 0.0)
    xi = np.column_stack([np.cos(np.arange(16)), np.sin(np.arange(16))]) * 3.0
    for b in (0.1, 0.3, 0.49):
        ratio, divisor = _quotients([gp] * 16, [IDENTITY] * 16, xi, b)
        assert np.all(ratio == 1.0)
        assert np.all(divisor > 0.0)


def test_coefficients_reject_large_b():
    gp = (0.0, 0.0, 0.0, 0.0, 0.0)
    for b in (0.5, -0.1, math.nan):
        with pytest.raises(DomainError):
            _quotients([gp], [IDENTITY], [[1.0, 0.0]], b)


def test_quadratic_form_lower_bound():
    # W^2 a(xi) >= |xi|^2, that is a >= |xi|^2 / W^2.
    rng = np.random.default_rng(26)
    for _ in range(20):
        gps = [rand_gp(rng, span=3.0) for _ in range(100)]
        frames = [rand_rotation(rng) for _ in range(100)]
        ratio, _ = _quotients(gps, frames, rng.normal(size=(100, 2)), rng.uniform(0.0, 0.5))
        assert np.all(ratio > 1.0 - 1e-12)


def test_sampler_form_is_the_residual_kernel():
    # The form ellipticity_quotients reads is a(xi) = r / D with r the
    # kernel at H = xi xi^T. Here r is the Euler-Lagrange operator built from
    # the jet module's closed-form Hessian, cleared by S^3 / (2 W)
    # (conftest.cleared_euler_lagrange), which shares no code with the
    # kernel, on full random frames: ratio = r / D * W^2 / |xi|^2.
    rng = np.random.default_rng(37)
    for i in range(300):
        frame = rand_rotation(rng)
        f = rng.uniform(-3.0, 3.0, 2)
        xi = rng.normal(size=2)
        b = 0.0 if i % 5 == 0 else rng.uniform(0.0, 0.5)
        ratio, divisor = ellipticity_quotients(f[None, :], frame[2:], xi[None, :], b)
        w2 = 1.0 + f @ f
        w = frame[2, 2] - frame[2, :2] @ f
        s = (2.0 + b * b) * w2 - b * b * w * w
        assert divisor[0] == pytest.approx(s * (s - 2.0 * b * b * w * w), rel=1e-12)
        r = cleared_euler_lagrange(f, np.outer(xi, xi), frame, b)
        assert ratio[0] == pytest.approx(r / divisor[0] * w2 / (xi @ xi), rel=1e-9)


def test_divisor_positivity():
    rng = np.random.default_rng(27)
    n = 10_000
    f1, f2 = rng.uniform(-5, 5, (2, n))
    k = rng.normal(size=(n, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    b = rng.uniform(0.0, 0.5, n)
    w2 = 1 + f1**2 + f2**2
    w = k[:, 2] - k[:, 0] * f1 - k[:, 1] * f2
    s = (2 + b**2) * w2 - b**2 * w**2
    assert np.all(s * (s - 2 * b**2 * w**2) > 0.0)


def test_smallest_eigenvalue_bound():
    # The smallest eigenvalue of a is >= 1 / W^2: the minimum of the
    # quotient over a dense sweep of probe angles stays >= 1.
    rng = np.random.default_rng(28)
    angles = np.linspace(0.0, math.pi, 720, endpoint=False)
    xi = np.column_stack([np.cos(angles), np.sin(angles)])
    for _ in range(300):
        gp = rand_gp(rng)
        frame = rand_rotation(rng)
        ratio, _ = _quotients([gp] * 720, [frame] * 720, xi, rng.uniform(0.0, 0.5))
        assert np.min(ratio) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# mean-curvature-type bound


def _type_constant(b):
    return 2.0 * b * b / (2.0 + b * b)


def _samples(rng, n, span=3.0):
    """(f, k): n gradients and frame rows from a numpy Generator, drawn as
    the ellipticity command drew them before it took a random.Random."""
    return rng.uniform(-span, span, size=(n, 2)), _rotations_in_one_draw(rng, n)


def _excess_quotient(f, k, xi, b):
    # a(xi) / h(xi) - 1 = R W^2 (u . xi)^2 / h(xi), written out for one
    # sample (f, k) and an array of probe directions xi, independently of
    # the library kernels.
    b2 = b * b
    w2 = 1.0 + f @ f
    w = k[2] - k[:2] @ f
    s = (2.0 + b2) * w2 - b2 * w * w
    rb = 2.0 * b2 * (s + 4.0 * b2 * w * w) / (s * (s - 2.0 * b2 * w * w))
    u = k[:2] + w * f / w2
    hform = np.einsum("ij,ij->i", xi, xi) - (xi @ f) ** 2 / w2
    return rb * w2 * (xi @ u) ** 2 / hform


def test_bound_identity_frame_zero_gradient_contribution():
    # k = (0, 0, 1) and f = 0: w^2 = W^2, so the sample contributes nothing.
    for b in (0.0, 0.3, 0.45):
        assert mean_curvature_type_bound(np.zeros((1, 2)), IDENTITY[2:], b) == 0.0
    f, _ = _samples(np.random.default_rng(23), 50)
    assert 0.0 < mean_curvature_type_bound(f, np.tile(IDENTITY[2], (50, 1)), 0.3) < _type_constant(0.3)


def test_bound_t0_general_frame():
    rng = np.random.default_rng(29)
    frame = rand_rotation(rng)
    b = 0.3
    k1, k2, k3 = frame[2]
    s0 = (2 + b * b) - b * b * k3 * k3
    rb0 = 2 * b * b * (s0 + 4 * b * b * k3 * k3) / (s0 * (s0 - 2 * b * b * k3 * k3))
    c0 = mean_curvature_type_bound(np.zeros((1, 2)), frame[2:], b)
    assert c0 == pytest.approx(rb0 * (k1 * k1 + k2 * k2), rel=1e-12)


@pytest.mark.parametrize("b", [0.15, 0.3, 0.45, 0.4999])
def test_bound_equals_the_constant_where_w_vanishes(b):
    # f = 0 under k = (1, 0, 0), and f = (1, 1/2) under k = (1, 0, 1)/sqrt(2):
    # w = 0 exactly, where R (W^2 - w^2) is C.
    exact = _type_constant(b)
    for f, k in ([[0.0, 0.0]], [[1.0, 0.0, 0.0]]), ([[1.0, 0.5]], [[1.0, 0.0, 1.0]]):
        k = np.array(k) / np.linalg.norm(k)
        assert abs(mean_curvature_type_bound(np.array(f), k, b) - exact) <= 4 * np.spacing(exact)


@pytest.mark.parametrize("b", [0.15, 0.3, 0.45])
def test_bound_approaches_the_exact_constant_from_below(b):
    # The mean-curvature-type constant is 2 b^2 / (2 + b^2) for every frame
    # (tests/test_symbolic_chain.py); the command's 10 000 samples reach it
    # from below.
    exact = _type_constant(b)
    rng = np.random.default_rng(35)
    for _ in range(5):
        c = mean_curvature_type_bound(*_samples(rng, 10_000), b)
        assert exact * (1.0 - 1e-6) <= c <= exact * (1.0 + 1e-12)


def test_bound_vanishes_at_b0_and_stays_below_the_constant():
    rng = np.random.default_rng(38)
    for _ in range(40):
        f, k = _samples(rng, 500, span=rng.choice([0.1, 3.0, 1e3]))
        assert mean_curvature_type_bound(f, k, 0.0) == 0.0
        for b in (*rng.uniform(0.0, 0.5, 3), 0.4999):
            assert 0.0 < mean_curvature_type_bound(f, k, b) <= _type_constant(b) * (1.0 + 1e-12)


def test_bound_sandwich_on_sampler_grid():
    # On the command's samples and probe directions, h <= a <= (1 + C) h
    # with C the bound over those samples.
    rng = np.random.default_rng(30)
    b = 0.35
    f, k = _samples(rng, 5000)
    xi = rng.normal(size=(5000, 2))
    c = mean_curvature_type_bound(f, k, b)
    w2 = 1.0 + f[:, 0] ** 2 + f[:, 1] ** 2
    ratio, _ = ellipticity_quotients(f, k, xi, b)
    aform = ratio * np.einsum("ij,ij->i", xi, xi) / w2
    hform = np.einsum("ij,ij->i", xi, xi) - np.einsum("ij,ij->i", f, xi) ** 2 / w2
    assert np.all(aform >= hform * (1.0 - 1e-12))
    assert np.max(aform / hform - 1.0) <= c * (1.0 + 1e-9)


def test_bound_stability_under_horizon_growth():
    # At large gradients the bound depends on their directions only, and
    # the divisor stays finite up to |f| ~ 1e76: the same directions at
    # magnitudes 1e3, 1e4 and 1e75 give bounds within 1e-8 of each other.
    rng = np.random.default_rng(31)
    e = rng.normal(size=(2000, 2))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    k = _rotations_in_one_draw(rng, 2000)
    c1 = mean_curvature_type_bound(1e3 * e, k, 0.3)
    for t in (1e4, 1e75):
        assert abs(mean_curvature_type_bound(t * e, k, 0.3) - c1) <= 1e-8 * c1


def test_bound_pinned_values():
    # Bit-exact pin of the closed form on fixed samples.
    f, k = _samples(np.random.default_rng(32), 200)
    got = [mean_curvature_type_bound(f, k, b) for b in (0.15, 0.3, 0.45)]
    assert got == [0.022249457538507128, 0.08612371738547758, 0.18388120664137178]


@pytest.mark.parametrize("b", [0.0, 0.15, 0.3, 0.45])
def test_bound_blocks_equal_the_one_array_evaluation(b):
    # The bound is a maximum of per-sample values: over blocks of 1, 32 and
    # 33 samples it is the maximum of the blocks' bounds, bit for bit.
    f, k = _samples(np.random.default_rng(36), 513)
    whole = mean_curvature_type_bound(f, k, b)
    for size in (1, 32, 33):
        blocks = [mean_curvature_type_bound(f[i : i + size], k[i : i + size], b) for i in range(0, 513, size)]
        assert max(blocks) == whole


def test_bound_keeps_a_nan_from_a_middle_block(monkeypatch):
    # Python's max would drop a nan that is not first; np.max keeps it.
    real = graph_pde._divisor_excess

    def nan_in_the_middle(w2, w, b2):
        divisor, excess = real(w2, w, b2)
        excess[len(excess) // 2] = np.nan
        return divisor, excess

    monkeypatch.setattr(graph_pde, "_divisor_excess", nan_in_the_middle)
    assert math.isnan(mean_curvature_type_bound(*_samples(np.random.default_rng(37), 100), 0.3))


def _disk_one_at_a_time(rng, n):
    """Reference: n points (u, v, s), s = u^2 + v^2, uniform in the
    punctured unit disk, one pair of rng.random() calls per candidate."""
    points = []
    while len(points) < n:
        u, v = -1.0 + 2.0 * rng.random(), -1.0 + 2.0 * rng.random()
        s = u * u + v * v
        if 0.0 < s < 1.0:
            points.append((u, v, s))
    return points


def _rotations_one_at_a_time(rng, n):
    """Reference: Marsaglia's map of each disk point, one row at a time."""
    rows = []
    for u, v, s in _disk_one_at_a_time(rng, n):
        t = 2.0 * math.sqrt(1.0 - s)
        rows.append((u * t, v * t, 1.0 - 2.0 * s))
    return np.array(rows).reshape(n, 3)


@pytest.mark.parametrize("n", [1, 7, 8, 23, 5000])
@pytest.mark.parametrize("block", [7, graph_pde._SAMPLE_BLOCK])
def test_rotations_drawn_in_blocks_equal_one_draw(monkeypatch, n, block):
    # A block never draws more candidates than rows are still missing, so
    # the rows do not depend on the block size, and the generator is left
    # in the same state.
    monkeypatch.setattr(graph_pde, "_SAMPLE_BLOCK", block)
    rng, ref = Random(n), Random(n)
    k = random_rotations(rng, n)
    assert k.shape == (n, 3)
    assert np.array_equal(k, _rotations_one_at_a_time(ref, n))
    assert rng.getstate() == ref.getstate()


def test_rotation_rows_have_unit_norm():
    # |k|^2 = 4 s (1 - s) + (1 - 2 s)^2 = 1, to within 4 ulps after rounding.
    k = random_rotations(Random(41), 100_000)
    assert np.max(np.abs(np.linalg.norm(k, axis=1) - 1.0)) <= 4 * np.finfo(float).eps


def test_rotation_rows_are_uniform_on_the_sphere():
    # Each coordinate of a uniform point on S^2 is uniform on [-1, 1]:
    # mean 0 and variance 1/3, within 5 standard errors on 10^5 rows.
    k = random_rotations(Random(42), 100_000)
    assert np.all(np.abs(k.mean(axis=0)) <= 5 * math.sqrt(1 / 3 / 100_000))
    assert np.all(np.abs(k.var(axis=0) - 1 / 3) <= 5 * math.sqrt(4 / 45 / 100_000))


@pytest.mark.parametrize("block", [7, graph_pde._SAMPLE_BLOCK])
def test_sweep_draws_equal_draws_one_at_a_time(monkeypatch, block):
    # The ellipticity sweep's gradients -3 + 6 random(), frame rows and
    # probe directions, each drawn whole, in that order, whatever the block.
    n = 23
    seen = []
    real = graph_pde.ellipticity_quotients
    monkeypatch.setattr(graph_pde, "_SAMPLE_BLOCK", block)
    monkeypatch.setattr(
        graph_pde, "ellipticity_quotients", lambda f, k, xi, b: seen.append((f, k, xi)) or real(f, k, xi, b)
    )
    rng, ref = Random(n), Random(n)
    graph_pde._sweep(rng, n, 0.3)
    f, k, xi = (np.concatenate(parts) for parts in zip(*seen))
    assert np.array_equal(f, np.array([-3.0 + 6.0 * ref.random() for _ in range(2 * n)]).reshape(n, 2))
    assert np.array_equal(k, _rotations_one_at_a_time(ref, n))
    assert np.array_equal(xi, np.array([(u, v) for u, v, _ in _disk_one_at_a_time(ref, n)]))
    assert rng.getstate() == ref.getstate()


_ORACLE_FRAMES = [
    IDENTITY,
    rand_rotation(np.random.default_rng(33)),
    rand_rotation(np.random.default_rng(34)),
]
_CIRCLE = np.linspace(0.0, math.pi, 2048, endpoint=False)


def _directions(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("b", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("frame", _ORACLE_FRAMES, ids=["identity", "rot33", "rot34"])
def test_bound_dominates_gamma_theta_grid(frame, b):
    # The closed form is the supremum over the probe direction, so on each
    # random sample it cannot fall below the maximum over a circle of
    # directions (the quotient is even in xi: a half circle holds it all).
    rng = np.random.default_rng(39)
    xi = _directions(_CIRCLE)
    for t in (0.0, 0.1, 1.0, 3.0, 30.0):
        for f in t * rng.normal(size=(8, 2)):
            bound = mean_curvature_type_bound(f[None, :], frame[2:], b)
            assert bound >= np.max(_excess_quotient(f, frame[2], xi, b)) * (1.0 - 1e-12)


@pytest.mark.parametrize("b", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("frame", _ORACLE_FRAMES, ids=["identity", "rot33", "rot34"])
def test_bound_matches_dense_theta_maximum(frame, b):
    # A dense sweep of probe directions (2048 on the half circle, then 4096
    # across the two cells around the best one) approaches the closed-form
    # supremum to 1e-6 and stays below it.
    rng = np.random.default_rng(40)
    step = _CIRCLE[1]
    for f in rng.uniform(-3.0, 3.0, size=(20, 2)):
        bound = mean_curvature_type_bound(f[None, :], frame[2:], b)
        coarse = _excess_quotient(f, frame[2], _directions(_CIRCLE), b)
        fine = _CIRCLE[np.argmax(coarse)] + np.linspace(-step, step, 4096)
        dense = max(np.max(coarse), np.max(_excess_quotient(f, frame[2], _directions(fine), b)))
        assert dense <= bound * (1.0 + 1e-12)
        assert dense >= bound * (1.0 - 1e-6)
