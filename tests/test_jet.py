import math

import numpy as np
import pytest
from conftest import (
    _random_jets_one_at_a_time,
    graph_euler_lagrange,
    max_rel_err,
    rand_jet,
    rand_rotation,
    scherk_gradient,
    scherk_hessian,
)

from finmin.errors import DegenerateJetError, DomainError
from finmin.graph_pde import _residual_terms, graph_residual
from finmin.jet import (
    _flat_area_fun,
    _minors,
    area_integrand_grad,
    area_integrand_grad_central,
    area_integrand_grad_dual,
    area_integrand_hess,
    area_integrand_hess_central,
    area_integrand_hess_dual,
)


# The jets of the flat graph (x1, x2) -> (x1, x2, 0) and of the graph with
# gradient (1, 0).
FLAT = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
SLOPE = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def area(z, b):
    """F at the jet matrix z through the dual oracle's function, the one
    float copy of F besides the closed-form derivatives."""
    return float(_flat_area_fun(b)(np.asarray(z, dtype=float).ravel()))


# ---------------------------------------------------------------------------
# jet validation and scalars


def test_jet_validation():
    # Every entry point checks its jet through the one shared helper.
    entries = [area_integrand_grad, area_integrand_hess]
    entries += [area_integrand_grad_dual, area_integrand_hess_dual]
    entries += [area_integrand_grad_central, area_integrand_hess_central]
    for entry in entries:
        with pytest.raises(DomainError, match="jet must have shape"):
            entry(np.zeros((2, 3)), 0.2)
        with pytest.raises(DomainError, match="jet entries must be finite"):
            entry(np.full((3, 2), np.nan), 0.2)
        with pytest.raises(DomainError, match=r"jet must have shape \(3, 2, \*S\), got \(3,\)"):
            entry(np.zeros(3), 0.2)
        with pytest.raises(DomainError, match="jet entries must be finite"):
            entry(np.stack([FLAT, np.full((3, 2), np.inf)], axis=-1), 0.2)


def test_closed_forms_accept_stacked_jets():
    z = np.stack([FLAT, SLOPE, 2.0 * SLOPE, FLAT], axis=-1)
    assert area_integrand_grad(z, 0.2).shape == (3, 2, 4)
    assert area_integrand_hess(z, 0.2).shape == (6, 6, 4)
    assert area_integrand_grad(z.reshape(3, 2, 2, 2), 0.2).shape == (3, 2, 2, 2)
    assert area_integrand_hess(z.reshape(3, 2, 2, 2), 0.2).shape == (6, 6, 2, 2)


def test_e_scalar_graph_jet():
    for a, c, b in [(0.7, -1.2, 0.3), (0.0, 0.0, 0.45), (2.0, 1.0, 0.1)]:
        j = np.array([[1.0, 0.0], [0.0, 1.0], [a, c]])
        assert _minors(j, b)[2] == pytest.approx(b * b * (a * a + c * c), rel=1e-14, abs=1e-300)


def test_e_scalar_vanishes_without_third_row():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=(3, 2))
        z[2] = 0.0
        assert _minors(np.array(z), 0.4)[2] == 0.0


def test_e_scalar_tilted_jet():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rand_rotation(rng)
        f1, f2 = rng.uniform(-2, 2, 2)
        b = rng.uniform(0.0, 0.5)
        j = np.array(m[:, :2] + np.outer(m[:, 2], [f1, f2]))
        k = m[2, :]
        w = k[2] - k[0] * f1 - k[1] * f2
        w2 = 1 + f1 * f1 + f2 * f2
        assert _minors(j, b)[2] == pytest.approx(b * b * (w2 - w * w), rel=1e-11, abs=1e-13)


def test_e_scalar_matches_inverse_gram_identity():
    # E = b^2 det(A) A^{eps eta} z3_eps z3_eta
    rng = np.random.default_rng(2)
    for _ in range(200):
        j = rand_jet(rng)
        b = rng.uniform(0.0, 0.5)
        a = j.T @ j
        det = np.linalg.det(a)
        t = j[2, :]
        other = b * b * det * (t @ np.linalg.solve(a, t))
        assert _minors(j, b)[2] == pytest.approx(other, rel=1e-12, abs=1e-14)


def test_graph_jet_area_and_anisotropy():
    j = SLOPE
    c = math.sqrt(np.linalg.det(j.T @ j))
    anisotropy = _minors(j, 0.3)[2]
    assert c == pytest.approx(math.sqrt(2.0))
    assert anisotropy == pytest.approx(0.09)
    assert area(j, 0.3) == pytest.approx(2.0 * c**3 / (2.0 * c**2 + anisotropy))
    assert anisotropy / c**2 == pytest.approx(0.045)


# ---------------------------------------------------------------------------
# area integrand


def test_area_integrand_flat():
    assert area(FLAT, 0.45) == 1.0


def test_area_integrand_example():
    # C = sqrt(2), E = 0.09: F = 2 * 2**1.5 / 4.09
    v = area(SLOPE, 0.3)
    assert v == pytest.approx(2.0 * 2.0**1.5 / 4.09, rel=1e-14)
    assert v == pytest.approx(1.3830939485311444, rel=1e-14)


def test_area_integrand_b0_is_area_element():
    rng = np.random.default_rng(3)
    for _ in range(50):
        j = rand_jet(rng)
        c = math.sqrt(np.linalg.det(j.T @ j))
        assert area(j, 0.0) == pytest.approx(c, rel=1e-13)


def test_area_integrand_degenerate_jet():
    # The closed forms divide by C: a rank-one jet fails the guard.
    j = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    for closed_form in (area_integrand_grad, area_integrand_hess):
        with pytest.raises(DegenerateJetError, match=r"^gram determinant 0\.0 fails the immersion guard"):
            closed_form(j, 0.2)


def test_guard_names_the_first_degenerate_sample():
    # One bad jet fails the whole stack; the message names the first one.
    bad = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    z = np.stack([SLOPE, FLAT, bad, SLOPE, bad], axis=-1)
    for closed_form in (area_integrand_grad, area_integrand_hess):
        with pytest.raises(DegenerateJetError, match=r"^sample \[2\]: gram determinant 0\.0 fails"):
            closed_form(z, 0.2)
        with pytest.raises(DegenerateJetError, match=r"^sample \[0, 1\]: "):
            closed_form(z[..., 1:].reshape(3, 2, 2, 2), 0.2)


def test_scaling_degree_two():
    rng = np.random.default_rng(4)
    for _ in range(300):
        j = rand_jet(rng)
        lam = rng.uniform(0.1, 4.0)
        b = rng.uniform(0.0, 0.5)
        f1 = area(lam * j, b)
        f2 = lam * lam * area(j, b)
        assert abs(f1 - f2) <= 1e-12 * abs(f2)


def test_planar_rotation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(300):
        j = rand_jet(rng)
        b = rng.uniform(0.0, 0.5)
        th = rng.uniform(0.0, 2 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        z = j.copy()
        z[:2, :] = rot @ z[:2, :]
        f1 = area(z, b)
        f2 = area(j, b)
        assert abs(f1 - f2) <= 1e-12 * abs(f2)


def test_reparametrization_covariance():
    rng = np.random.default_rng(6)
    for _ in range(300):
        j = rand_jet(rng)
        b = rng.uniform(0.0, 0.5)
        while True:
            s = rng.uniform(-1.5, 1.5, size=(2, 2))
            if np.linalg.det(s) > 0.1:
                break
        f1 = area(j @ s, b)
        f2 = np.linalg.det(s) * area(j, b)
        assert abs(f1 - f2) <= 1e-11 * abs(f2)


# ---------------------------------------------------------------------------
# derivatives


def test_grad_b0_is_area_gradient():
    rng = np.random.default_rng(7)
    for _ in range(50):
        j = rand_jet(rng)
        a = j.T @ j
        dc = j @ np.array([[a[1, 1], -a[0, 1]], [-a[0, 1], a[0, 0]]]) / math.sqrt(
            np.linalg.det(a)
        )
        assert max_rel_err(area_integrand_grad(j, 0.0), dc) <= 1e-13


def test_grad_flat_jet_rows():
    # At the flat graph jet the E-part vanishes and the gradient is the
    # area-element gradient: identity rows for the immersion directions,
    # zero third row.
    g = area_integrand_grad(FLAT, 0.3)
    np.testing.assert_allclose(g, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), atol=1e-15)


def test_grad_vs_oracles():
    z = _random_jets_one_at_a_time(np.random.default_rng(8), 100)
    for b in (0.0, 0.2, 0.4):
        # the closed form and each oracle in one pass over the 100 jets
        g = area_integrand_grad(z, b)
        assert np.all(max_rel_err(g, area_integrand_grad_dual(z, b)) <= 1e-12)
        assert np.all(max_rel_err(g, area_integrand_grad_central(z, b)) <= 1e-7)


def test_hess_symmetric_exactly():
    rng = np.random.default_rng(9)
    for _ in range(50):
        j = rand_jet(rng)
        h = area_integrand_hess(j, 0.3)
        np.testing.assert_array_equal(h, h.T)
    z = _random_jets_one_at_a_time(rng, 60).reshape(3, 2, 4, 15)
    for b in (0.0, 0.3, 0.45):
        h = area_integrand_hess(z, b)
        assert np.array_equal(h, h.swapaxes(0, 1))


def test_hess_vs_oracles():
    z = _random_jets_one_at_a_time(np.random.default_rng(10), 60)
    for b in (0.0, 0.2, 0.4):
        # the closed form and each oracle in one pass over the 60 jets
        h = area_integrand_hess(z, b)
        assert np.all(max_rel_err(h, area_integrand_hess_dual(z, b)) <= 1e-11)
        assert np.all(max_rel_err(h, area_integrand_hess_central(z, b)) <= 1e-5)


def mp_reference(z, b):
    """Gradient (3, 2) and Hessian (6, 6) of F at one jet by mpmath.diff at
    40 digits, on the Gram form of F that the dual oracle also uses."""
    mpmath = pytest.importorskip("mpmath")
    b = mpmath.mpf(b)

    def fun(*v):
        a00 = v[0] * v[0] + v[2] * v[2] + v[4] * v[4]
        a11 = v[1] * v[1] + v[3] * v[3] + v[5] * v[5]
        a01 = v[0] * v[1] + v[2] * v[3] + v[4] * v[5]
        det = a00 * a11 - a01 * a01
        e = b * b * ((v[0] * v[5] - v[1] * v[4]) ** 2 + (v[2] * v[5] - v[3] * v[4]) ** 2)
        return 2 * det * mpmath.sqrt(det) / (2 * det + e)

    with mpmath.workdps(40):
        x = [mpmath.mpf(float(t)) for t in z.ravel()]

        def partial(*axes):
            return float(mpmath.diff(fun, x, [axes.count(k) for k in range(6)]))

        grad = np.array([partial(i) for i in range(6)]).reshape(3, 2)
        return grad, np.array([[partial(i, j) for j in range(6)] for i in range(6)])


def test_closed_forms_match_a_40_digit_reference():
    z = _random_jets_one_at_a_time(np.random.default_rng(0), 4)
    for b in (0.0, 0.2, 0.4):
        for k in range(z.shape[-1]):
            grad, hess = mp_reference(z[..., k], b)
            assert max_rel_err(area_integrand_grad(z[..., k], b), grad) <= 2e-15
            assert max_rel_err(area_integrand_hess(z[..., k], b), hess) <= 2e-15


@pytest.mark.parametrize("closed_form", [area_integrand_grad, area_integrand_hess], ids=["grad", "hess"])
@pytest.mark.parametrize("sample_shape", [(1,), (7,), (3, 4)], ids=["S=(1,)", "S=(k,)", "S=(k,m)"])
def test_stacked_closed_form_equals_per_jet_call(closed_form, sample_shape):
    # Elementwise arithmetic in a fixed order: a stack gives each jet's bits.
    count = int(np.prod(sample_shape))
    z = _random_jets_one_at_a_time(np.random.default_rng(21), count).reshape((3, 2) + sample_shape)
    for b in (0.0, 0.2, 0.45):
        out = closed_form(z, b)
        for idx in np.ndindex(*sample_shape):
            assert np.array_equal(out[(Ellipsis,) + idx], closed_form(z[(Ellipsis,) + idx], b))


def test_hess_golden_flat_jet():
    # Frozen from the dual-number oracle at the flat graph jet, b = 0.4.
    h = area_integrand_hess(FLAT, 0.4)
    expected = np.zeros((6, 6))
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = -1.0
    expected[4, 4] = expected[5, 5] = 0.84  # 1 - b**2
    np.testing.assert_allclose(h, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Euler-Lagrange operator of graphs from the closed-form Hessian
#
# graph_euler_lagrange contracts area_integrand_hess with the graph
# direction; tests/test_symbolic_chain.py derives the same operator exactly
# from the metric and proves it proportional to the graph residual kernel.


def test_residual_affine_immersion_is_zero():
    # Graphs of affine functions over any plane are minimal for every b.
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rand_rotation(rng)
        f = rng.uniform(-2.0, 2.0, 2)
        b = rng.uniform(0.0, 0.5)
        assert graph_euler_lagrange(f, np.zeros((2, 2)), m, b) == 0.0
        assert _residual_terms(*f, 0.0, 0.0, 0.0, *m[2], b)[0] == 0.0


def test_residual_scherk_b0():
    f = scherk_gradient(0.3, 0.4)
    h11, h12, h22 = scherk_hessian(0.3, 0.4)
    hess = [[h11, h12], [h12, h22]]
    assert abs(graph_euler_lagrange(f, hess, np.eye(3), 0.0)) <= 1e-9
    assert abs(graph_euler_lagrange(f, hess, np.eye(3), 0.3)) > 1e-4


def test_residual_paraboloid_positive_golden():
    # f = x^2 + y^2 at the origin: the Hessian block of F is (1 - b^2) I,
    # so the operator is 4 - 4 b^2.
    r = graph_euler_lagrange([0.0, 0.0], np.diag([2.0, 2.0]), np.eye(3), 0.2)
    assert r > 0.0
    assert r == pytest.approx(3.84, rel=1e-13)


def test_residual_linear_in_curvature_and_transversal():
    # The residual kernel is linear in the Hessian H of the graph. (The
    # transversal of the former jet contraction has no counterpart: the
    # graph direction of the frame takes its place.)
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = rand_rotation(rng)
        f = rng.uniform(-1.5, 1.5, 2)
        ha, hb = rng.uniform(-1.5, 1.5, (2, 3))
        b = rng.uniform(0.0, 0.5)
        ra = _residual_terms(*f, *ha, *m[2], b)[0]
        rb = _residual_terms(*f, *hb, *m[2], b)[0]
        rab = _residual_terms(*f, *(2.0 * ha - 3.0 * hb), *m[2], b)[0]
        assert rab == pytest.approx(2.0 * ra - 3.0 * rb, rel=1e-12, abs=1e-12)


def test_bracket_residual_ratio():
    # Over the horizontal plane the graph residual is the Euler-Lagrange
    # operator cleared by the positive factor D^3 / (2 W), D = 2 W^2 + E.
    rng = np.random.default_rng(13)
    for _ in range(200):
        f1, f2, h11, h12, h22 = rng.uniform(-1.5, 1.5, 5)
        b = rng.uniform(0.0, 0.5)
        w2 = 1.0 + f1 * f1 + f2 * f2
        ratio = (2.0 * w2 + b * b * (w2 - 1.0)) ** 3 / (2.0 * math.sqrt(w2))
        op = graph_euler_lagrange([f1, f2], [[h11, h12], [h12, h22]], np.eye(3), b)
        res = graph_residual(f1, f2, h11, h12, h22, b)
        assert res == pytest.approx(ratio * op, rel=1e-9, abs=1e-9)
        assert ratio > 0.0


def test_bracket_b0_normalization():
    # At b = 0 the operator is the classical minimal-surface operator over
    # W^3, the second variation of the Euclidean area element W.
    rng = np.random.default_rng(14)
    for _ in range(50):
        m = rand_rotation(rng)
        f1, f2, h11, h12, h22 = rng.uniform(-1.5, 1.5, 5)
        w2 = 1.0 + f1 * f1 + f2 * f2
        classical = (1 + f2 * f2) * h11 - 2 * f1 * f2 * h12 + (1 + f1 * f1) * h22
        op = graph_euler_lagrange([f1, f2], [[h11, h12], [h12, h22]], m, 0.0)
        assert op * w2**1.5 == pytest.approx(classical, rel=1e-10, abs=1e-10)
