import math

import numpy as np
import pytest
from conftest import cleared_euler_lagrange, rand_rotation, scherk_gradient, scherk_hessian

from finmin import graph_pde
from finmin.dual import Dual
from finmin.errors import DomainError
from finmin.graph_pde import (
    _residual_terms,
    _t_grid,
    ellipticity_quotients,
    graph_residual,
    mean_curvature_type_bound,
    random_rotations,
)
from finmin.solver import GridProblem, _point_partials, _stencil_point, assemble_residual


IDENTITY = np.eye(3)


def rand_gp(rng, span=2.0):
    """(f1, f2, h11, h12, h22) of a random graph point."""
    f1, f2 = rng.uniform(-span, span, 2)
    h11, h12, h22 = rng.uniform(-span, span, 3)
    return float(f1), float(f2), float(h11), float(h12), float(h22)


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
        assert _residual_terms(*gp, *IDENTITY[2], b) == graph_residual(*gp, b)
        assert _residual_terms(*gp, *flipped[2], b) == graph_residual(*gp, b)


def test_frame_validation():
    with pytest.raises(DomainError, match="orthogonal"):
        mean_curvature_type_bound(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0.3)
    with pytest.raises(DomainError, match="3x3"):
        mean_curvature_type_bound(np.eye(2), 0.3)


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
        res = _residual_terms(*gp, *frame[2], b)
        assert _cleared(gp, frame, b) == pytest.approx(res, rel=1e-9, abs=1e-9)


def test_vertical_plane_frame_is_finite():
    # k3 = 0: graph over a vertical plane; everything stays finite.
    frame = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert frame[2, 2] == 0.0
    gp = (0.7, -0.3, 1.0, 0.2, -0.5)
    for b in (0.0, 0.3, 0.49):
        r = _residual_terms(*gp, *frame[2], b)
        assert math.isfinite(r)
        assert _cleared(gp, frame, b) == pytest.approx(r, rel=1e-9)


def _reference_residual(f1, f2, h11, h12, h22, k1, k2, k3, b):
    # The coefficient form written out in the operation order the residual
    # kernel has always used; floats, arrays and Duals all pass through.
    w2 = 1.0 + f1 * f1 + f2 * f2
    w = k3 - k1 * f1 - k2 * f2
    b2 = b * b
    s = (2.0 + b2) * w2 - b2 * w * w
    hform = (h11 + h22) - (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
    u1 = k1 + w * f1 / w2
    u2 = k2 + w * f2 / w2
    uform = u1 * u1 * h11 + 2.0 * u1 * u2 * h12 + u2 * u2 * h22
    return s * (s - 2.0 * b2 * w * w) * hform + 2.0 * b2 * (s + 4.0 * b2 * w * w) * w2 * uform


def test_pointwise_residuals_bitwise_equal_reference():
    rng = np.random.default_rng(35)
    for i in range(300):
        gp = rand_gp(rng, span=3.0)
        frame = IDENTITY if i % 5 == 0 else rand_rotation(rng)
        b = rng.uniform(0.0, 0.5)
        assert _residual_terms(*gp, *frame[2], b) == _reference_residual(*gp, *frame[2], b)
        assert graph_residual(*gp, b) == _reference_residual(*gp, 0.0, 0.0, 1.0, b)


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_grid_residual_and_partials_bitwise_equal_reference(b):
    problem = GridProblem((-1.0, 1.0, -0.5, 0.5), 11, 9, b, lambda x, y: 0.0)
    f = np.random.default_rng(36).uniform(-1.0, 1.0, (13, 11))
    vals = _stencil_point(problem, f)
    assert np.array_equal(assemble_residual(problem, f), _reference_residual(*vals, 0.0, 0.0, 1.0, b))
    for i, got in enumerate(_point_partials(problem, f)):
        args = [Dual(v, np.ones_like(v)) if k == i else v for k, v in enumerate(vals)]
        assert np.array_equal(got, _reference_residual(*args, 0.0, 0.0, 1.0, b).du)


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
    # The quotient ellipticity_quotients and the bound sampler work with is
    # the kernel itself at H = xi xi^T: ratio * divisor * |xi|^2 / W^2.
    rng = np.random.default_rng(37)
    n = 2000
    f = rng.uniform(-3.0, 3.0, (n, 2))
    k = random_rotations(rng, n)[:, 2, :]
    xi = rng.normal(size=(n, 2))
    for b in (0.0, 0.2, 0.45):
        ratio, divisor = ellipticity_quotients(f, k, xi, b)
        w2 = 1.0 + f[:, 0] ** 2 + f[:, 1] ** 2
        x1, x2 = xi[:, 0], xi[:, 1]
        kernel = _residual_terms(f[:, 0], f[:, 1], x1 * x1, x1 * x2, x2 * x2, k[:, 0], k[:, 1], k[:, 2], b)
        np.testing.assert_allclose(ratio * divisor * (x1 * x1 + x2 * x2) / w2, kernel, rtol=1e-12)


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
# mean-curvature-type bound sampler


def test_bound_identity_frame_zero_gradient_contribution():
    # k12 = 0: the t = 0 slice contributes nothing.
    frame = IDENTITY
    c0 = mean_curvature_type_bound(frame, 0.3, t_max=0.0)
    assert c0 == 0.0
    c = mean_curvature_type_bound(frame, 0.3, t_max=50.0, t_nodes=64, angle_nodes=64)
    assert math.isfinite(c)


def test_bound_t0_general_frame():
    rng = np.random.default_rng(29)
    frame = rand_rotation(rng)
    b = 0.3
    k1, k2, k3 = frame[2]
    s0 = (2 + b * b) - b * b * k3 * k3
    rb0 = 2 * b * b * (s0 + 4 * b * b * k3 * k3) / (s0 * (s0 - 2 * b * b * k3 * k3))
    c0 = mean_curvature_type_bound(frame, b, t_max=0.0)
    assert c0 == pytest.approx(rb0 * (k1 * k1 + k2 * k2), rel=1e-12)


def test_bound_sandwich_on_sampler_grid():
    # Reconstruct (gradient, probe direction) from each sampler triple and
    # check h <= a <= (1 + C) h with C the sampler maximum.
    rng = np.random.default_rng(30)
    frame = rand_rotation(rng)
    b = 0.35
    config = dict(t_max=100.0, t_nodes=24, angle_nodes=16)
    c_est = mean_curvature_type_bound(frame, b, **config)
    k1, k2, k3 = frame[2]
    gamma0 = math.atan2(k2, k1)
    gammas = np.linspace(0.0, 2 * math.pi, config["angle_nodes"], endpoint=False)
    thetas = np.linspace(0.0, 2 * math.pi, config["angle_nodes"], endpoint=False)
    # every (t, gamma, theta) triple at once; xi is a unit vector, so
    # a(xi) is the quotient divided by W^2
    ts = _t_grid(config["t_max"], config["t_nodes"])
    t_abs, gamma, theta = np.meshgrid(ts, gammas, thetas, indexing="ij")
    xi_ang = (gamma0 - gamma).ravel()
    t_ang = xi_ang + theta.ravel()
    f = t_abs.ravel()[:, None] * np.column_stack([np.cos(t_ang), np.sin(t_ang)])
    xi = np.column_stack([np.cos(xi_ang), np.sin(xi_ang)])
    w2 = 1.0 + f[:, 0] ** 2 + f[:, 1] ** 2
    ratio, _ = ellipticity_quotients(f, np.tile(frame[2], (len(f), 1)), xi, b)
    aform = ratio / w2
    hform = np.einsum("ij,ij->i", xi, xi) - np.einsum("ij,ij->i", f, xi) ** 2 / w2
    assert np.all(aform >= hform * (1.0 - 1e-12))
    worst = float(np.max(aform / hform - 1.0))
    assert worst <= c_est * (1.0 + 1e-9) + 1e-15


def test_bound_stability_under_horizon_growth():
    rng = np.random.default_rng(31)
    frame = rand_rotation(rng)
    b = 0.3
    c1 = mean_curvature_type_bound(frame, b, t_max=1e3, t_nodes=256, angle_nodes=128)
    # The largest horizon would lose every digit to cancellation in
    # W^2 |k12| cos(delta) + w t; the sampler evaluates it without the t^2 terms.
    for t_max in (1e4, 1e75):
        c = mean_curvature_type_bound(frame, b, t_max=t_max, t_nodes=256, angle_nodes=128)
        assert abs(c - c1) <= 0.01 * c1


def test_bound_pinned_values():
    # Bit-exact pin of the closed-form kernel on fixed frames.
    config = dict(t_max=100.0, t_nodes=48, angle_nodes=64)
    frames = {
        "identity": IDENTITY,
        "rotation": rand_rotation(np.random.default_rng(32)),
    }
    got = {
        name: [mean_curvature_type_bound(frame, b, **config) for b in (0.15, 0.3, 0.45)]
        for name, frame in frames.items()
    }
    assert got == {
        "identity": [0.022247639462993213, 0.0861183859500277, 0.18387539839260603],
        "rotation": [0.022249684926466444, 0.0861243841729065, 0.1838819330011001],
    }


def _one_array_bound(m, b, t_max=1e3, t_nodes=512, angle_nodes=256):
    # The sampler's evaluation over the whole (t, delta) grid as one array,
    # the reference for its evaluation in blocks of t rows.
    k1, k2, k3 = m[2]
    k12 = math.hypot(k1, k2)
    t = _t_grid(t_max, t_nodes)[:, None]
    delta = np.linspace(0.0, 2.0 * math.pi, angle_nodes, endpoint=False)[: angle_nodes // 2 + 1]
    k12_cos = k12 * np.cos(delta)
    w2 = 1.0 + t * t
    w = k3 - k12_cos * t
    divisor, excess = graph_pde._divisor_excess(w2, w, b * b)
    lead = k12_cos + k3 * t
    return float(np.max(excess / divisor * (lead * lead + w2 * (k12 * np.sin(delta)) ** 2)))


@pytest.mark.parametrize("b", [0.0, 0.15, 0.3, 0.45])
def test_bound_blocks_equal_the_one_array_evaluation(b):
    rng = np.random.default_rng(36)
    frames = [IDENTITY, *(rand_rotation(rng) for _ in range(4))]
    # 1, 32, 33 and 513 t rows: one block, exactly one, one and a row, 17
    configs = [
        dict(t_max=0.0),
        dict(t_max=100.0, t_nodes=31, angle_nodes=64),
        dict(t_max=1e75, t_nodes=32, angle_nodes=7),
        {},
    ]
    for frame in frames:
        for config in configs:
            assert mean_curvature_type_bound(frame, b, **config) == _one_array_bound(frame, b, **config)


def test_bound_keeps_a_nan_from_a_middle_block(monkeypatch):
    # Python's max would drop a nan that is not first; np.max keeps it.
    real = graph_pde._divisor_excess
    calls = []

    def nan_in_second_block(w2, w, b2):
        divisor, excess = real(w2, w, b2)
        calls.append(w2.shape)
        if len(calls) == 2:
            excess = np.full_like(excess, np.nan)
        return divisor, excess

    monkeypatch.setattr(graph_pde, "_divisor_excess", nan_in_second_block)
    assert math.isnan(mean_curvature_type_bound(rand_rotation(np.random.default_rng(37)), 0.3))
    assert len(calls) == 17


@pytest.mark.parametrize("b", [0.15, 0.3, 0.45])
def test_bound_approaches_the_exact_constant_from_below(b):
    # The mean-curvature-type constant is 2 b^2 / (2 + b^2) for every frame
    # (tests/test_symbolic_chain.py); the sampler is a lower estimate of it.
    exact = 2.0 * b * b / (2.0 + b * b)
    rng = np.random.default_rng(35)
    for _ in range(5):
        c = mean_curvature_type_bound(rand_rotation(rng), b)
        assert exact * (1.0 - 1e-6) <= c <= exact * (1.0 + 1e-12)


def _grid_quotient(k12, k3, t, gamma, theta, b):
    # Brute-force reference: the excess quotient at gradient magnitude t,
    # angle gamma between (k1, k2) and the probe direction and angle theta
    # between the gradient and the probe direction, no closed form in theta.
    b2 = b * b
    w2 = 1.0 + t * t
    w = k3 - k12 * t * np.cos(gamma - theta)
    s = (2.0 + b2) * w2 - b2 * w * w
    rb = 2.0 * b2 * (s + 4.0 * b2 * w * w) / (s * (s - 2.0 * b2 * w * w))
    num = (w2 * k12 * np.cos(gamma) + w * t * np.cos(theta)) ** 2
    return rb * num / (1.0 + (t * np.sin(theta)) ** 2)


_ORACLE_FRAMES = [
    IDENTITY,
    rand_rotation(np.random.default_rng(33)),
    rand_rotation(np.random.default_rng(34)),
]


@pytest.mark.parametrize("b", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("frame", _ORACLE_FRAMES, ids=["identity", "rot33", "rot34"])
def test_bound_dominates_gamma_theta_grid(frame, b):
    # The closed form is the supremum over theta, so it cannot fall below
    # the maximum over the (t, gamma, theta) grid it replaced.
    config = dict(t_max=100.0, t_nodes=24, angle_nodes=32)
    k1, k2, k3 = frame[2]
    angles = np.linspace(0.0, 2.0 * math.pi, config["angle_nodes"], endpoint=False)
    grid_max = max(
        float(np.max(_grid_quotient(math.hypot(k1, k2), k3, t, angles[:, None], angles[None, :], b)))
        for t in _t_grid(config["t_max"], config["t_nodes"])
    )
    assert mean_curvature_type_bound(frame, b, **config) >= grid_max * (1.0 - 1e-12)


@pytest.mark.parametrize("b", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("frame", _ORACLE_FRAMES, ids=["identity", "rot33", "rot34"])
def test_bound_matches_dense_theta_maximum(frame, b):
    # At the sampler's (t, delta) nodes, a theta sweep (4096 nodes on the
    # circle, then 4096 across the two cells around each node's best theta)
    # stays below the closed-form supremum and approaches it.
    config = dict(t_max=100.0, t_nodes=24, angle_nodes=32)
    k1, k2, k3 = frame[2]
    k12 = math.hypot(k1, k2)
    delta = np.linspace(0.0, 2.0 * math.pi, config["angle_nodes"], endpoint=False)[:, None]
    step = 2.0 * math.pi / 4096
    theta = np.arange(4096)[None, :] * step
    dense = 0.0
    for t in _t_grid(config["t_max"], config["t_nodes"]):
        coarse = _grid_quotient(k12, k3, t, delta + theta, theta, b)
        fine = theta[0, np.argmax(coarse, axis=1)][:, None] + np.linspace(-step, step, 4096)[None, :]
        dense = max(dense, float(np.max(coarse)), float(np.max(_grid_quotient(k12, k3, t, delta + fine, fine, b))))
    c = mean_curvature_type_bound(frame, b, **config)
    assert dense <= c * (1.0 + 1e-12)
    assert dense >= c * (1.0 - 1e-6)


def test_sampler_config_rejects_empty_grids():
    # Bad horizons are rejected through the CLI (tests/test_cli.py).
    for kwargs in ({"t_nodes": 0}, {"angle_nodes": 0}):
        with pytest.raises(DomainError, match="must be >= 1"):
            mean_curvature_type_bound(IDENTITY, 0.3, **kwargs)
