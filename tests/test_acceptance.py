"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
from conftest import cleared_euler_lagrange, max_rel_err, rand_jet, rand_rotation, scherk

from finmin.graph_pde import (
    _residual_terms,
    ellipticity_quotients,
    graph_residual,
    mean_curvature_type_bound,
)
from finmin.jet import (
    _flat_area_fun,
    area_integrand_grad,
    area_integrand_grad_central,
    area_integrand_grad_dual,
    area_integrand_hess,
    area_integrand_hess_central,
    area_integrand_hess_dual,
)
from finmin.metric import PhiFamily
from finmin.solver import GridProblem, planarity_deviation, solve_minimal_graph
from finmin.translation import (
    compatibility_check,
    kl_polys,
    kl_ratio_derivative,
    translation_residual,
)
from finmin.volume import bh_factor_closed, bh_factor_quadrature


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_volume_form():
    t0 = time.perf_counter()
    worst = 0.0
    for b in np.arange(0.0, 0.451, 0.05):
        worst = max(worst, abs(bh_factor_quadrature(float(b))[0] - bh_factor_closed(float(b))))
    worst_randers = 0.0
    for b in (0.2, 0.5, 0.8):
        q = bh_factor_quadrature(b, PhiFamily.RANDERS)[0]
        worst_randers = max(worst_randers, abs(q - bh_factor_closed(b, PhiFamily.RANDERS)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_randers <= 1e-10 and elapsed < 1.0
    _report(
        "1 volume-form reproduction",
        ok,
        f"max |quad - closed| = {worst:.2e}, randers = {worst_randers:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_derivative_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    jets = [rand_jet(rng) for _ in range(200)]
    z = np.stack(jets, axis=-1)
    worst_dual = worst_central = 0.0
    for b in (0.0, 0.2, 0.4):
        # closed forms per jet (the code under test), each oracle in one pass
        g = np.stack([area_integrand_grad(j, b) for j in jets], axis=-1)
        h = np.stack([area_integrand_hess(j, b) for j in jets], axis=-1)
        worst_dual = max(
            worst_dual,
            max_rel_err(g, area_integrand_grad_dual(z, b)).max(),
            max_rel_err(h, area_integrand_hess_dual(z, b)).max(),
        )
        worst_central = max(
            worst_central,
            max_rel_err(g, area_integrand_grad_central(z, b)).max(),
            max_rel_err(h, area_integrand_hess_central(z, b)).max(),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_dual <= 1e-9 and worst_central <= 1e-6 and elapsed < 5.0
    _report(
        "2 derivative fidelity",
        ok,
        f"dual = {worst_dual:.2e} (tol 1e-9), central = {worst_central:.2e} (tol 1e-6), {elapsed:.2f} s",
    )


def test_criterion_3_pde_residual_equivalence():
    # The kernel against the Euler-Lagrange operator of the graph built from
    # the closed-form Hessian of F: residual = S^3 / (2 W) * operator.
    # tests/test_symbolic_chain.py proves the identity exactly.
    rng = np.random.default_rng(321)
    worst = 0.0
    min_ratio = math.inf
    for i in range(500):
        f1, f2, h11, h12, h22 = rng.uniform(-2.0, 2.0, 5)
        m = np.eye(3) if i % 5 == 0 else rand_rotation(rng)
        b = rng.uniform(0.0, 0.5)
        cleared = cleared_euler_lagrange([f1, f2], [[h11, h12], [h12, h22]], m, b)
        res = _residual_terms(f1, f2, h11, h12, h22, *m[2], b)[0]
        if i % 5 == 0:
            assert res == graph_residual(f1, f2, h11, h12, h22, b)
        worst = max(worst, abs(cleared - res) / max(abs(cleared), 1e-12))
        if res != 0.0:
            min_ratio = min(min_ratio, cleared / res)
    ok = worst <= 1e-9 and min_ratio > 0.0
    _report(
        "3 PDE/residual equivalence",
        ok,
        f"max rel dev = {worst:.2e}, min cleared operator/residual = {min_ratio:.3f}; "
        "adopted form: T = 2W^2 + b^2(W^2-1), gradient-part coefficient 2 b^2 (T + 4 b^2)",
    )


def test_criterion_4_ellipticity():
    rng = np.random.default_rng(4321)
    n = 10_000
    f = rng.uniform(-4.0, 4.0, size=(n, 2))
    frames = rng.normal(size=(n, 4))
    frames /= np.linalg.norm(frames, axis=1, keepdims=True)
    a, bq, c, d = frames.T
    k = np.column_stack(
        [2 * (bq * d - a * c), 2 * (c * d + a * bq), a * a - bq * bq - c * c + d * d]
    )
    b = rng.uniform(0.0, 0.5, n)
    xi = rng.normal(size=(n, 2))

    def reference(b):
        # The quotients W^2 a(xi) / |xi|^2, a(xi) = r / D at H = xi xi^T,
        # written out independently of the library kernel in its operation
        # order; b may be one value or one per sample.
        f1, f2, x1, x2 = f[:, 0], f[:, 1], xi[:, 0], xi[:, 1]
        k1, k2, k3 = k.T
        h11, h12, h22 = x1 * x1, x1 * x2, x2 * x2
        w2 = 1.0 + f1 * f1 + f2 * f2
        w = k3 - k1 * f1 - k2 * f2
        b2 = b * b
        s = (2.0 + b2) * w2 - b2 * w * w
        divisor = s * (s - 2.0 * b2 * w * w)
        hform = (h11 + h22) - (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
        u1 = k1 + w * f1 / w2
        u2 = k2 + w * f2 / w2
        uform = u1 * u1 * h11 + 2.0 * u1 * u2 * h12 + u2 * u2 * h22
        r = divisor * hform + 2.0 * b2 * (s + 4.0 * b2 * w * w) * w2 * uform
        return r / divisor * w2 / (x1 * x1 + x2 * x2), divisor

    ratio, divisor = reference(b)
    strict = np.all(ratio > 1.0 - 1e-12) and np.all(divisor > 0.0)
    # the kernel the CLI calls reproduces the written-out form bit for bit
    kernel_equal = all(
        all(np.array_equal(got, want) for got, want in zip(ellipticity_quotients(f, k, xi, bs), reference(bs)))
        for bs in (0.0, 0.15, 0.3, 0.45, 0.4999)
    )

    # the supremum of the excess quotient over the probe direction, on the
    # same samples, reaches the exact mean-curvature-type constant from below
    exact = 2.0 * 0.3**2 / (2.0 + 0.3**2)
    bound = mean_curvature_type_bound(f, k, 0.3)
    tight = exact * (1.0 - 1e-6) <= bound <= exact * (1.0 + 1e-12)
    ok = bool(strict and tight and kernel_equal)
    _report(
        "4 ellipticity",
        ok,
        f"lower bound strict on {n} samples, kernel bitwise equal: {kernel_equal}, type bound {bound:.8f} "
        f"vs C = 2b^2/(2+b^2) = {exact:.8f} at b = 0.3 ({(exact - bound) / exact:.1e} below)",
    )


def test_criterion_5_translation_rigidity():
    t0 = time.perf_counter()
    k, l = map(list, kl_polys(0))
    identity = [2 * l[0], 2 * l[1] + l[0], 2 * l[2] + l[1], l[2]] == k  # K = (p+2) L
    derivative_unit = all(kl_ratio_derivative(k, l, p) == 1 for p in (0, Fraction(1, 2), 1, 2, 5, 10))
    # nonplanar solutions need both identities to vanish: ([], [])
    rigid = identity and derivative_unit and compatibility_check(k, l) == ([], [])
    for b2 in (Fraction(1, 100), Fraction(4, 100), Fraction(9, 100), Fraction(16, 100), Fraction(24, 100)):
        kl = kl_polys(b2)
        rigid &= compatibility_check(*kl) != ([], [])
        for p in (0, Fraction(1, 2), 1, 2, 5, 10):
            rigid &= abs(kl_ratio_derivative(*kl, p)) != 1
    elapsed = time.perf_counter() - t0
    ok = rigid and elapsed < 1.0
    _report(
        "5 translation rigidity",
        ok,
        f"K = (p+2)L at b=0: {identity}; |ratio'| != 1 for all tested b^2 > 0; {elapsed:.2f} s",
    )


def test_criterion_6_bernstein_echo():
    details = []
    ok = True
    for b in (0.0, 0.2, 0.4):
        t0 = time.perf_counter()
        problem = GridProblem(
            (-1.0, 1.0, -1.0, 1.0), 63, 63, b, lambda x, y: 0.1 + 0.3 * x + 0.2 * y
        )
        sol = solve_minimal_graph(problem, tol=1e-10)
        dev = planarity_deviation(sol)
        elapsed = time.perf_counter() - t0
        ok &= dev < 1e-8 and elapsed < 10.0
        details.append(f"b={b}: dev={dev:.1e} in {elapsed:.2f} s")
    _report("6 Bernstein echo (desk scale)", bool(ok), "; ".join(details))


def test_criterion_7_classical_reduction():
    errs, hs = [], []
    for n in (15, 31, 63):  # 17/33/65 nodes per side including the boundary
        problem = GridProblem((-1.0, 1.0, -1.0, 1.0), n, n, 0.0, scherk)
        sol = solve_minimal_graph(problem, tol=1e-11)
        xs, ys = problem.xs(), problem.ys()
        exact = np.array([[scherk(x, y) for y in ys] for x in xs])
        errs.append(float(np.max(np.abs(sol.f - exact))))
        hs.append(problem.hx)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    x, y = 0.3, 0.4
    tp = dict(
        fp=-math.tan(x),
        fpp=-1.0 / math.cos(x) ** 2,
        gp=math.tan(y),
        gpp=1.0 / math.cos(y) ** 2,
    )
    r0 = abs(translation_residual(**tp, b=0.0))
    r3 = abs(translation_residual(**tp, b=0.3))
    ok = 1.8 <= slope <= 2.2 and r0 < 1e-9 and r3 > 1e-4
    _report(
        "7 classical reduction",
        ok,
        f"observed order {slope:.2f} over 17/33/65; scherk residual b=0: {r0:.1e}, b=0.3: {r3:.1e}",
    )


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(888)
    failures = 0
    worst = {"scaling": 0.0, "rotation": 0.0, "reparam": 0.0}
    for _ in range(1000):
        j = rand_jet(rng)
        b = rng.uniform(0.0, 0.5)
        area = _flat_area_fun(b)
        f0 = area(j.ravel())

        lam = rng.uniform(0.1, 4.0)
        dev = abs(area((lam * j).ravel()) - lam * lam * f0) / (lam * lam * f0)
        worst["scaling"] = max(worst["scaling"], dev)
        failures += dev > 1e-12

        th = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        z = j.copy()
        z[:2, :] = rot @ z[:2, :]
        dev = abs(area(z.ravel()) - f0) / f0
        worst["rotation"] = max(worst["rotation"], dev)
        failures += dev > 1e-12

        while True:
            smat = rng.uniform(-1.5, 1.5, size=(2, 2))
            dets = float(np.linalg.det(smat))
            if dets > 0.1:
                break
        dev = abs(area((j @ smat).ravel()) - dets * f0) / (dets * f0)
        worst["reparam"] = max(worst["reparam"], dev)
        failures += dev > 1e-11

    ok = failures == 0
    _report(
        "8 invariance suite",
        ok,
        f"1000 jets; worst scaling {worst['scaling']:.1e}, rotation {worst['rotation']:.1e}, "
        f"reparametrization {worst['reparam']:.1e}; {failures} failures",
    )
