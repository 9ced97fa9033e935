import functools
import importlib.machinery
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import scherk

from finmin import dual
from finmin.errors import DomainError, NonConvergenceError, SolverError, StagnationError
from finmin.graph_pde import _residual_terms
import finmin.solver
from finmin.solver import (
    _SUPERLU,
    GridProblem,
    _dissection_order,
    _gmres,
    _initial_field,
    _JacobianPattern,
    _apply_stencil,
    _lu_solve,
    _newton_step,
    _point_partials,
    _residual_and_norms,
    _stencil_point,
    _stencil_weights,
    _superlu,
    assemble_residual,
    planarity_deviation,
    solve_minimal_graph,
)

UNIT_SQUARE = (-1.0, 1.0, -1.0, 1.0)


def affine_boundary(c0, cx, cy):
    return lambda x, y: c0 + cx * x + cy * y


def full_field(problem, fun):
    xs, ys = problem.xs(), problem.ys()
    return np.array([[fun(x, y) for y in ys] for x in xs])


# ---------------------------------------------------------------------------
# residual assembly


def test_affine_field_residual_is_zero():
    for b in (0.0, 0.2, 0.4):
        problem = GridProblem(UNIT_SQUARE, 15, 15, b, affine_boundary(0.1, 0.3, 0.2))
        f = full_field(problem, lambda x, y: 0.1 + 0.3 * x + 0.2 * y)
        r = assemble_residual(problem, f)
        assert np.max(np.abs(r)) <= 1e-12


def test_shape_mismatch():
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.2, affine_boundary(0, 0, 0))
    with pytest.raises(ValueError, match="shape"):
        assemble_residual(problem, np.zeros((10, 10)))


def test_manufactured_field_second_order_consistency():
    # Smooth non-solution field with known derivatives: the stencil
    # residual converges to the exact pointwise residual at order 2.
    from finmin.graph_pde import graph_residual

    smooth = lambda x, y: math.sin(x) * math.cos(2.0 * y)

    def exact_residual(problem):
        xs, ys = problem.xs()[1:-1], problem.ys()[1:-1]
        out = np.empty((problem.nx, problem.ny))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = graph_residual(
                    f1=math.cos(x) * math.cos(2 * y),
                    f2=-2.0 * math.sin(x) * math.sin(2 * y),
                    h11=-math.sin(x) * math.cos(2 * y),
                    h12=-2.0 * math.cos(x) * math.sin(2 * y),
                    h22=-4.0 * math.sin(x) * math.cos(2 * y),
                    b=problem.b,
                )
        return out

    for b in (0.0, 0.25):
        errs, hs = [], []
        for n in (15, 31, 63):
            problem = GridProblem(UNIT_SQUARE, n, n, b, smooth)
            f = full_field(problem, smooth)
            r = assemble_residual(problem, f)
            errs.append(float(np.max(np.abs(r - exact_residual(problem)))))
            hs.append(problem.hx)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2


def test_paraboloid_center_residual_value():
    # f = x^2 + y^2 on a symmetric odd grid has an interior node at the
    # origin where the stencil gives f1 = f2 = 0, h11 = h22 = 2 exactly; at
    # b = 0 the residual there is 4 * 1 * (2 + 2) = 16.
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.0, lambda x, y: x * x + y * y)
    f = full_field(problem, lambda x, y: x * x + y * y)
    r = assemble_residual(problem, f)
    center = r[7, 7]  # interior index of the origin
    assert center == pytest.approx(16.0, rel=1e-12)


def test_problem_validation():
    with pytest.raises(DomainError):
        GridProblem(UNIT_SQUARE, 7, 15, 0.2, affine_boundary(0, 0, 0))
    with pytest.raises(DomainError):
        GridProblem(UNIT_SQUARE, 15, 15, 0.5, affine_boundary(0, 0, 0))
    with pytest.raises(DomainError):
        GridProblem((1.0, -1.0, -1.0, 1.0), 15, 15, 0.2, affine_boundary(0, 0, 0))


@pytest.mark.parametrize(
    "domain",
    [
        (0.0, math.inf, 0.0, 1.0),
        (-math.inf, 0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0, math.nan),
        (0.0, 1e300, 0.0, 1e300),
        (-1e308, 1e308, 0.0, 1.0),
    ],
    ids=["x1-inf", "x0-minus-inf", "y1-nan", "spacing-squared-overflows", "width-overflows"],
)
def test_problem_rejects_nonfinite_domain_and_overflowing_spacing(domain):
    with pytest.raises(DomainError):
        GridProblem(domain, 15, 15, 0.3, affine_boundary(0, 0, 0))


# ---------------------------------------------------------------------------
# solve


@pytest.mark.parametrize(
    "domain, boundary",
    [
        (UNIT_SQUARE, lambda x, y: math.nan),
        (UNIT_SQUARE, lambda x, y: math.inf),
        (UNIT_SQUARE, affine_boundary(1e200, 1e200, 0.0)),
        ((0.0, 1e-300, 0.0, 1e-300), scherk),
    ],
    ids=["nan-data", "inf-data", "overflowing-data", "spacing-squared-underflows"],
)
def test_nonfinite_residual_is_a_solver_error(domain, boundary):
    # `res > tol` is false for nan, so the loop alone would report it as converged.
    problem = GridProblem(domain, 15, 15, 0.3, boundary)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=r"^initial residual max-norm is (nan|inf)$") as err:
        solve_minimal_graph(problem)
    assert len(err.value.residual_history) == 1
    assert not math.isfinite(err.value.residual_history[0])


@pytest.mark.parametrize("b", [0.0, 0.2, 0.4])
def test_affine_boundary_gives_plane(b):
    problem = GridProblem(UNIT_SQUARE, 63, 63, b, affine_boundary(0.1, 0.3, 0.2))
    sol = solve_minimal_graph(problem, tol=1e-10)
    assert sol.residual_norm <= 1e-10
    assert planarity_deviation(sol) < 1e-8
    # the boundary blend reproduces the affine solution before iterating
    assert sol.iterations == 0


def test_affine_from_flat_start_converges_to_plane():
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.4, affine_boundary(0.1, 0.3, 0.2))
    sol = solve_minimal_graph(problem, tol=1e-11, initial_guess="flat")
    assert sol.iterations > 0
    assert planarity_deviation(sol) < 1e-8
    exact = full_field(problem, lambda x, y: 0.1 + 0.3 * x + 0.2 * y)
    assert np.max(np.abs(sol.f - exact)) < 1e-8


def test_zero_boundary_gives_zero():
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.3, lambda x, y: 0.0)
    sol = solve_minimal_graph(problem)
    assert np.max(np.abs(sol.f)) == 0.0


def test_scherk_convergence_order():
    errs, hs = [], []
    for n in (15, 31, 63):
        problem = GridProblem(UNIT_SQUARE, n, n, 0.0, scherk)
        sol = solve_minimal_graph(problem, tol=1e-11)
        exact = full_field(problem, scherk)
        errs.append(float(np.max(np.abs(sol.f - exact))))
        hs.append(problem.hx)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_b_continuity_cauchy():
    base = GridProblem(UNIT_SQUARE, 31, 31, 0.2, scherk)
    sols = {}
    for b in (0.2, 0.225, 0.25):
        problem = GridProblem(UNIT_SQUARE, 31, 31, b, scherk)
        sols[b] = solve_minimal_graph(problem, tol=1e-11).f
    step_small = np.max(np.abs(sols[0.225] - sols[0.2]))
    step_large = np.max(np.abs(sols[0.25] - sols[0.2]))
    assert step_large <= 10.0 * step_small
    assert base.b == 0.2


def test_newton_tail_monotone():
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, scherk)
    sol = solve_minimal_graph(problem, tol=1e-10, initial_guess="flat")
    hist = sol.residual_history
    tail = [r for r in hist if r < 1e-3]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    # quadratic contraction constants stay bounded; logged, not asserted
    consts = [b / (a * a) for a, b in zip(tail, tail[1:]) if a > 0]
    assert all(math.isfinite(c) for c in consts)


def test_non_convergence_error_carries_history():
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, scherk)
    with pytest.raises(NonConvergenceError) as err:
        solve_minimal_graph(problem, tol=1e-12, max_iter=1, initial_guess="flat")
    assert len(err.value.residual_history) == 2


def test_bad_initial_guess_name():
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.0, lambda x, y: 0.0)
    with pytest.raises(DomainError):
        solve_minimal_graph(problem, initial_guess="random")


def test_bad_tol():
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.0, lambda x, y: 0.0)
    with pytest.raises(DomainError):
        solve_minimal_graph(problem, tol=0.0)


def test_stop_test_is_the_residual_over_the_divisor():
    # At b = 0 the divisor S(S - 2 b^2 w^2) is 4 W^4, with W^2 = 1 + f1^2 + f2^2
    # from the central-difference gradient.
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.0, scherk)
    sol = solve_minimal_graph(problem, tol=1e-10)
    r = assemble_residual(problem, sol.f)
    f1 = (sol.f[2:, 1:-1] - sol.f[:-2, 1:-1]) / (2.0 * problem.hx)
    f2 = (sol.f[1:-1, 2:] - sol.f[1:-1, :-2]) / (2.0 * problem.hy)
    w2 = 1.0 + f1**2 + f2**2
    assert sol.raw_residual_norm == np.max(np.abs(r))
    assert sol.residual_norm == pytest.approx(np.max(np.abs(r / (4.0 * w2**2))), rel=1e-12)
    assert sol.residual_norm == sol.residual_history[-1] <= 1e-10
    assert sol.residual_norm < sol.raw_residual_norm


def test_stagnation_names_the_rounding_floor():
    # tol = 1e-17 lies below the rounding level of the raw residual.
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.3, scherk)
    with pytest.raises(StagnationError) as err:
        solve_minimal_graph(problem, tol=1e-17)
    message = str(err.value)
    match = re.search(r"raw max-norm (\S+), rounding floor eps\*max\(\|J\|\|f\|\) = (\S+)\)$", message)
    assert match, message
    raw, floor = (float(v) for v in match.groups())
    assert 0.0 < raw <= floor
    assert message.startswith(f"line search stalled at residual {err.value.residual_history[-1]:.3e}")


def test_stagnation_stops_at_the_first_failed_full_step_near_the_floor(monkeypatch):
    # Once a full step fails with max|r| within _FLOOR_MULTIPLE of its rounding
    # floor, the line search stops instead of halving down to _MIN_STEP, and
    # no step that only moves rounding noise is recorded after it.
    trials = []

    def counted(problem, f):
        trials.append(None)
        return _residual_and_norms(problem, f)

    monkeypatch.setattr(finmin.solver, "_residual_and_norms", counted)
    problem = GridProblem(UNIT_SQUARE, 63, 63, 0.3, scherk)
    with pytest.raises(StagnationError) as err:
        solve_minimal_graph(problem, tol=1e-17)
    history = err.value.residual_history
    # the initial residual, one trial per accepted step, one failed trial
    assert len(trials) == len(history) + 1
    assert len(set(history)) == len(history)
    raw, floor = (float(v) for v in re.search(r"raw max-norm (\S+), .* = (\S+)\)$", str(err.value)).groups())
    assert 0.0 < raw <= finmin.solver._FLOOR_MULTIPLE * floor


# ---------------------------------------------------------------------------
# large grids, b > 0 convergence order, lagged LU


@functools.lru_cache(maxsize=None)
def scherk_solution(n, b):
    return solve_minimal_graph(GridProblem(UNIT_SQUARE, n, n, b, scherk), tol=1e-10)


@pytest.mark.parametrize("n, b, iterations", [(127, 0.0, 2), (127, 0.3, 3), (127, 0.45, 3), (255, 0.0, 2)])
def test_scherk_data_at_large_grids(n, b, iterations):
    sol = scherk_solution(n, b)
    assert sol.iterations == iterations
    assert sol.factorizations == 1
    assert sol.residual_norm <= 1e-10
    assert 0.0 < sol.residual_norm < sol.raw_residual_norm
    if b == 0.0:
        # the O(h^2) discretization bound perfbench checks on its grid files
        exact = full_field(sol.problem, scherk)
        assert np.max(np.abs(sol.f - exact)) <= 0.025 * sol.problem.hx**2
    if n == 255:
        # the raw max-norm sits at its rounding floor, above tol
        assert sol.raw_residual_norm > 1e-10


@pytest.mark.parametrize("n", [127, 255])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_zero_and_affine_data_at_large_grids(n, b):
    zero = solve_minimal_graph(GridProblem(UNIT_SQUARE, n, n, b, lambda x, y: 0.0))
    assert np.max(np.abs(zero.f)) == 0.0
    assert zero.residual_norm == zero.raw_residual_norm == 0.0
    assert zero.iterations == zero.factorizations == 0
    # At N = 255 and b = 0 the raw residual of the exact discrete plane is
    # rounding above 1e-10; the scaled stop test accepts it as it is.
    problem = GridProblem(UNIT_SQUARE, n, n, b, affine_boundary(0.1, 0.3, 0.2))
    plane = solve_minimal_graph(problem)
    assert plane.iterations == plane.factorizations == 0
    assert plane.residual_norm <= 1e-10
    exact = full_field(problem, lambda x, y: 0.1 + 0.3 * x + 0.2 * y)
    assert np.max(np.abs(plane.f - exact)) <= 1e-15


@pytest.mark.parametrize("b", [0.3, 0.45])
def test_self_convergence_order_for_positive_b(b):
    # No closed-form solution exists for b > 0; nested grids N -> 2N + 1 share
    # every other node, and the differences there shrink at order 2.
    sizes = (15, 31, 63, 127)
    fields = [scherk_solution(n, b).f for n in sizes]
    diffs = [np.max(np.abs(coarse - fine[::2, ::2])) for coarse, fine in zip(fields, fields[1:])]
    orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
    assert min(orders) >= 1.9, orders


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_lagged_lu_matches_factoring_every_step(b, monkeypatch):
    problem = GridProblem(UNIT_SQUARE, 63, 63, b, scherk)
    lagged = solve_minimal_graph(problem)
    # With no GMRES steps allowed every Newton step refactors.
    monkeypatch.setattr(finmin.solver, "_GMRES_STEPS", 0)
    direct = solve_minimal_graph(problem)
    assert lagged.factorizations == 1
    assert direct.factorizations == direct.iterations == lagged.iterations
    assert np.max(np.abs(lagged.f - direct.f)) <= 1e-14


def lstsq_gmres(matvec, precondition, rhs):
    """Right-preconditioned GMRES that solves the Hessenberg least-squares
    problem with lstsq at every step and ends with one more application of
    the preconditioner: the reference for _gmres's Givens rotations."""
    steps = finmin.solver._GMRES_STEPS
    beta = float(np.linalg.norm(rhs))
    basis = [rhs / beta]
    hessenberg = np.zeros((steps + 1, steps))
    for k in range(steps):
        w = matvec(precondition(basis[k]))
        for i, v in enumerate(basis):
            hessenberg[i, k] = v @ w
            w -= hessenberg[i, k] * v
        hessenberg[k + 1, k] = np.linalg.norm(w)
        h = hessenberg[: k + 2, : k + 1]
        e1 = np.zeros(k + 2)
        e1[0] = beta
        y = np.linalg.lstsq(h, e1, rcond=None)[0]
        if np.linalg.norm(h @ y - e1) <= finmin.solver._GMRES_RTOL * beta:
            return precondition(np.array(basis).T @ y)
        basis.append(w / hessenberg[k + 1, k])
    return None


def counting(fun):
    def counted(v):
        counted.calls += 1
        return fun(v)

    counted.calls = 0
    return counted


def random_system(n, scale, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) + scale * rng.normal(size=(n, n)) / math.sqrt(n), rng.normal(size=n)


def test_gmres_meets_its_relative_tolerance():
    # Both systems take more than 10 steps.
    for n, scale, seed, precondition in [(40, 0.3, 5, lambda v: v / 2.0), (100, 0.5, 1, lambda v: v)]:
        a, rhs = random_system(n, scale, seed)
        matvec = counting(lambda v: a @ v)
        x, estimate = _gmres(matvec, precondition, rhs)
        residual = np.linalg.norm(rhs - a @ x)
        assert residual <= 1e-8 * np.linalg.norm(rhs)
        # the Givens estimate is the true residual, to rounding
        assert abs(estimate - residual) <= 1e-14 * np.linalg.norm(rhs)
        assert 10 < matvec.calls < finmin.solver._GMRES_STEPS
        reference = counting(lambda v: a @ v)
        assert lstsq_gmres(reference, precondition, rhs) is not None
        assert matvec.calls == reference.calls
    # an exact preconditioner converges at the first step
    a, rhs = random_system(40, 0.3, 5)
    inverse = np.linalg.inv(a)
    x, estimate = _gmres(lambda v: a @ v, lambda v: inverse @ v, rhs)
    assert np.linalg.norm(rhs - a @ x) <= 1e-12 * np.linalg.norm(rhs)
    assert estimate <= 1e-12 * np.linalg.norm(rhs)


def test_gmres_returns_none_when_the_step_budget_is_short(monkeypatch):
    a, rhs = random_system(100, 0.6, 1)
    assert _gmres(lambda v: a @ v, lambda v: v, rhs) is None
    a, rhs = random_system(100, 0.5, 1)
    monkeypatch.setattr(finmin.solver, "_GMRES_STEPS", 24)
    assert _gmres(lambda v: a @ v, lambda v: v, rhs) is None
    monkeypatch.setattr(finmin.solver, "_GMRES_STEPS", 25)
    assert _gmres(lambda v: a @ v, lambda v: v, rhs) is not None


@pytest.mark.parametrize("n", [63, 127])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_gmres_steps_equal_the_lstsq_version_on_newton_systems(n, b):
    # The second Newton system of a Scherk solve, preconditioned by the LU
    # of the first, as the solver sets it up.
    problem = GridProblem(UNIT_SQUARE, n, n, b, scherk)
    pattern = _JacobianPattern.build(n, n)
    f = _initial_field(problem, "boundary-blend")
    step, lu = _newton_step(_stencil_weights(problem, f), assemble_residual(problem, f), pattern)
    f[1:-1, 1:-1] += step
    weights = _stencil_weights(problem, f)
    rhs = -assemble_residual(problem, f).ravel()

    def run(gmres):
        matvec = counting(lambda v: _apply_stencil(weights, np.pad(v.reshape(n, n), 1)).ravel())
        return gmres(matvec, lambda v: _lu_solve(lu, pattern.order, v), rhs), matvec.calls

    (x, _), steps = run(_gmres)
    lstsq_x, lstsq_steps = run(lstsq_gmres)
    assert 2 <= steps == lstsq_steps < finmin.solver._GMRES_STEPS
    assert np.max(np.abs(x - lstsq_x)) <= 1e-12 * np.max(np.abs(x))


# ---------------------------------------------------------------------------
# Jacobian and sparse solve


def jacobian_matrix(problem, f, pattern):
    """The Jacobian in dissection numbering as a scipy CSC matrix."""
    import scipy.sparse as sp

    n = pattern.order.size
    data = _stencil_weights(problem, f).ravel()[pattern.gather]
    return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def natural_jacobian(problem, f):
    """Assembled Jacobian mapped back to natural numbering i*ny + j."""
    pattern = _JacobianPattern.build(problem.nx, problem.ny)
    position = np.empty_like(pattern.order)
    position[pattern.order] = np.arange(pattern.order.size)
    return jacobian_matrix(problem, f, pattern)[position][:, position]


def reference_dissection_order(nx, ny):
    """Nested-dissection order by recursing on array views of the natural
    numbering: the reference for the solver's recursion on block bounds."""
    parts = []

    def number(block):
        rows, cols = block.shape
        if rows * cols <= 16:
            parts.append(block.ravel())
        elif rows >= cols:
            m = rows // 2
            number(block[:m])
            number(block[m + 1 :])
            parts.append(block[m])
        else:
            m = cols // 2
            number(block[:, :m])
            number(block[:, m + 1 :])
            parts.append(block[:, m])

    number(np.arange(nx * ny).reshape(nx, ny))
    return np.concatenate(parts)


def reference_pattern(nx, ny):
    """(order, gather, indices, indptr) by one argsort over the 9n int64 keys
    column * n + row: the reference for the solver's sorted (n, 9) table."""
    n = nx * ny
    order = reference_dissection_order(nx, ny)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    natural = np.arange(n).reshape(nx, ny)
    rows, cols, gather = [], [], []
    for k, (a, c) in enumerate(finmin.solver._OFFSETS):
        r0, r1 = max(0, -a), nx - max(0, a)
        c0, c1 = max(0, -c), ny - max(0, c)
        node = natural[r0:r1, c0:c1].ravel()
        rows.append(position[node])
        cols.append(position[natural[r0 + a : r1 + a, c0 + c : c1 + c].ravel()])
        gather.append(k * n + node)
    rows, cols, gather = (np.concatenate(v) for v in (rows, cols, gather))
    by_column = np.argsort(cols * n + rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return order, gather[by_column], rows[by_column].astype(np.intc), indptr.astype(np.intc)


@pytest.mark.parametrize("shape", [(8, 8), (9, 12), (12, 9), (17, 8), (63, 63)])
def test_dissection_order_is_a_permutation(shape):
    nx, ny = shape
    order = _dissection_order(nx, ny)
    assert np.array_equal(np.sort(order), np.arange(nx * ny))


@pytest.mark.parametrize(
    "shape", [(8, 8), (9, 12), (12, 9), (16, 17), (17, 8), (33, 64), (100, 37), (127, 130), (255, 255)]
)
def test_pattern_equals_the_argsort_build_bit_for_bit(shape):
    pattern = _JacobianPattern.build(*shape)
    for got, want in zip(pattern, reference_pattern(*shape)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert pattern.order.dtype == pattern.gather.dtype == np.int64
    assert pattern.indices.dtype == pattern.indptr.dtype == np.intc


def test_pattern_refuses_grids_its_int32_keys_cannot_index():
    # keys 16 * row + k stay below 2**31 only for fewer than 2**27 unknowns
    with pytest.raises(DomainError, match=r"2\*\*27"):
        _JacobianPattern.build(2**14, 2**13)


@pytest.mark.parametrize(
    "n,b,field",
    [
        ((9, 12), 0.0, "scherk"),
        ((9, 12), 0.3, "zero"),
        ((12, 9), 0.45, "random"),
        ((31, 17), 0.15, "random"),
        ((63, 64), 0.45, "scherk"),
        ((127, 130), 0.3, "scherk"),
    ],
)
def test_point_partials_equal_dual_gradient_bit_for_bit(n, b, field):
    # The Hessian partials come in closed form, the gradient partials from
    # two dual passes; together they are the five dual passes over all
    # stencil values, to the bit (signed zeros of the zero field included).
    nx, ny = n
    problem = GridProblem((-1.4, 1.4, -1.2, 1.2), nx, ny, b, scherk)
    f = {
        "scherk": lambda: full_field(problem, scherk),
        "zero": lambda: np.zeros((nx + 2, ny + 2)),
        "random": lambda: np.random.default_rng(nx).uniform(-2.0, 2.0, (nx + 2, ny + 2)),
    }[field]()
    got = _point_partials(problem, f)
    want = dual.gradient(lambda v: _residual_terms(*v, 0.0, 0.0, 1.0, b), np.stack(_stencil_point(problem, f)))
    assert got.shape == want.shape == (5, nx, ny)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
@pytest.mark.parametrize("zeros", [1.0, 0.5], ids=["all-zero", "half-zero"])
def test_point_partials_keep_the_dual_signed_zeros(b, zeros):
    # Fields of +0.0 and -0.0 (a share of the nodes, the rest random) give
    # stencil values of both signs of zero, where the dual pass's operations
    # on zeros decide the sign of each partial.
    nx, ny = 12, 9
    problem = GridProblem((-1.4, 1.4, -1.2, 1.2), nx, ny, b, scherk)
    rng = np.random.default_rng(7)
    f = np.copysign(0.0, rng.uniform(-1.0, 1.0, (nx + 2, ny + 2)))
    f = np.where(rng.uniform(size=f.shape) < zeros, f, rng.uniform(-2.0, 2.0, f.shape))
    stencil = np.stack(_stencil_point(problem, f))
    assert np.any((stencil == 0.0) & np.signbit(stencil))
    got = _point_partials(problem, f)
    want = dual.gradient(lambda v: _residual_terms(*v, 0.0, 0.0, 1.0, b), stencil)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_jacobian_matches_central_differences(b):
    problem = GridProblem(UNIT_SQUARE, 9, 12, b, scherk)
    bump = lambda x, y: 0.1 * math.sin(2 * x + y) * math.cos(x - y)
    f = full_field(problem, lambda x, y: scherk(x, y) + bump(x, y))
    jac = natural_jacobian(problem, f).toarray()
    eps = 1e-5
    for k in range(problem.nx * problem.ny):
        i, j = divmod(k, problem.ny)
        f_plus, f_minus = f.copy(), f.copy()
        f_plus[i + 1, j + 1] += eps
        f_minus[i + 1, j + 1] -= eps
        diff = assemble_residual(problem, f_plus) - assemble_residual(problem, f_minus)
        column = diff.ravel() / (2 * eps)
        atol = 1e-9 * np.max(np.abs(column))
        np.testing.assert_allclose(jac[:, k], column, rtol=1e-6, atol=atol)


def test_dissection_beats_colamd_and_keeps_the_newton_step():
    import scipy.sparse.linalg as spla

    problem = GridProblem(UNIT_SQUARE, 63, 63, 0.3, scherk)
    f = _initial_field(problem, "boundary-blend")
    r = assemble_residual(problem, f)
    step, lu = _newton_step(_stencil_weights(problem, f), r, _JacobianPattern.build(63, 63))
    jac = natural_jacobian(problem, f)
    colamd = spla.splu(jac.tocsc())
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    reference = spla.spsolve(jac.tocsr(), -r.ravel()).reshape(r.shape)
    assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_newton_step_equals_splu_bit_for_bit(b):
    # The solver calls SuperLU's gstrf itself; splu with the same ordering
    # and panel width must give the same step to the last bit, so a scipy
    # upgrade that changes either path, or a change of the solver's
    # options, fails here.
    import scipy.sparse.linalg as spla

    problem = GridProblem(UNIT_SQUARE, 63, 63, b, scherk)
    f = _initial_field(problem, "boundary-blend")
    r = assemble_residual(problem, f)
    pattern = _JacobianPattern.build(63, 63)
    assert pattern.indices.dtype == pattern.indptr.dtype == np.intc
    step, lu = _newton_step(_stencil_weights(problem, f), r, pattern)
    reference = spla.splu(jacobian_matrix(problem, f, pattern), permc_spec="NATURAL", panel_size=1)
    expected = np.empty(r.size)
    expected[pattern.order] = reference.solve(-r.ravel()[pattern.order])
    assert step.ravel().tobytes() == expected.tobytes()
    assert lu.L.nnz == reference.L.nnz and lu.U.nnz == reference.U.nnz


_TRANSIENT_PROBE = """
import math, sys

sys.path.insert(0, sys.argv[1])
from finmin.solver import GridProblem, _initial_field, _JacobianPattern, _newton_step, _stencil_weights, assemble_residual

scherk = lambda x, y: math.log(math.cos(x)) - math.log(math.cos(y))
problem = GridProblem((-1.0, 1.0, -1.0, 1.0), 255, 255, 0.0, scherk)
f = _initial_field(problem, "boundary-blend")
args = (_stencil_weights(problem, f), assemble_residual(problem, f), _JacobianPattern.build(255, 255))
step, lu = _newton_step(*args)
with open("/proc/self/status") as status:
    kb = {line.split(":")[0]: int(line.split()[1]) for line in status if line.startswith(("VmHWM", "VmRSS"))}
print((kb["VmHWM"] - kb["VmRSS"]) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_factorization_transient_memory_at_n255():
    # SuperLU's panel workspace is n x panel width doubles and integers,
    # about 1 MB per panel column at N = 255, and the factors never use it.
    # With one-column panels the high-water mark of a fresh process that
    # factors the N = 255 Jacobian (the peak of the dirichlet workload)
    # sits at most 8 MB above what it holds afterwards, the factors
    # included; with scipy's default width of 20 it sat about 21 MB above.
    # VmHWM is the high-water mark of this process image: ru_maxrss would
    # carry over the larger one of the test process across fork and exec.
    src = os.path.dirname(os.path.dirname(finmin.solver.__file__))
    proc = subprocess.run([sys.executable, "-c", _TRANSIENT_PROBE, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 8.0


def test_missing_superlu_extension_names_the_scipy_version(monkeypatch):
    monkeypatch.delitem(sys.modules, _SUPERLU, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"scipy \d+\.\d+.* has no compiled _superlu module"):
        _superlu()


# ---------------------------------------------------------------------------
# planarity


def test_planarity_affine_field():
    problem = GridProblem(UNIT_SQUARE, 15, 15, 0.1, affine_boundary(0.5, -1.0, 2.0))
    sol = solve_minimal_graph(problem)
    assert planarity_deviation(sol) <= 1e-13


def test_planarity_matches_independent_one_dimensional_fit():
    # f = x^2 depends on x only, so the best affine fit is c0 + c1 x with
    # least-squares coefficients computable from grid moments.
    problem = GridProblem((0.0, 1.0, 0.0, 1.0), 14, 14, 0.0, lambda x, y: x * x)
    xs = problem.xs()
    f = full_field(problem, lambda x, y: x * x)
    from finmin.solver import GridSolution

    fake = GridSolution(f=f, residual_norm=0.0, iterations=0, problem=problem, residual_history=[])
    dev = planarity_deviation(fake)
    n = xs.size
    mx, mx2, mx3 = xs.mean(), (xs**2).mean(), (xs**3).mean()
    var = mx2 - mx * mx
    c1 = (mx3 - mx2 * mx) / var
    c0 = mx2 - c1 * mx
    expected = np.max(np.abs(xs**2 - (c0 + c1 * xs)))
    assert dev == pytest.approx(expected, rel=1e-12)
    assert dev > 0.0
