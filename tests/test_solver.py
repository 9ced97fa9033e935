import functools
import gc
import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_channels_near, scherk

from finmin import dual
from finmin.cli import main
from finmin.errors import DomainError, NonConvergenceError, SolverError, StagnationError
from finmin.graph_pde import _residual_partials, _residual_terms, graph_residual
import finmin.solver
from finmin.solver import (
    _OFFSETS,
    _SUPERLU,
    GridProblem,
    _dissection_order,
    _initial_field,
    _JacobianPattern,
    _apply_stencil,
    _csc_data,
    _factor,
    _lu_solve,
    _refine,
    _residual_and_norms,
    _rounding_floor,
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


def one_array_residual(problem, f):
    """(r, max|r / D|, max|r|) over the whole grid in one array pass: the
    reference for the solver's row blocks."""
    r, divisor = _residual_terms(*_stencil_point(problem, f), 0.0, 0.0, 1.0, problem.b)
    return r, float(np.max(np.abs(r / divisor))), float(np.max(np.abs(r)))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_residual_blocks_equal_the_one_array_evaluation(b, monkeypatch):
    # Blocks of one row, of 7 rows (which do not divide nx = 31) and the
    # default size give the residual and both norms bit for bit.
    problem = GridProblem((-1.4, 1.4, -1.2, 1.2), 31, 17, b, scherk)
    f = np.random.default_rng(31).uniform(-2.0, 2.0, (33, 19))
    r, res, raw = one_array_residual(problem, f)
    for nodes in (1, 7 * 17, finmin.solver._BLOCK_NODES):
        monkeypatch.setattr(finmin.solver, "_BLOCK_NODES", nodes)
        got, got_res, got_raw = _residual_and_norms(problem, f)
        assert got.tobytes() == r.tobytes()
        assert (got_res, got_raw) == (res, raw)


def test_residual_keeps_a_nan_from_a_middle_block(monkeypatch):
    # Python's max would drop a nan that is not first; np.max keeps it. The
    # kernel hands the third of five blocks of 7 rows a nan divisor: the
    # stop-test norm is nan, and the raw max|r| is that of the whole grid.
    problem = GridProblem(UNIT_SQUARE, 31, 17, 0.3, scherk)
    f = full_field(problem, lambda x, y: scherk(x, y) + 0.1 * x * y)
    raw = _residual_and_norms(problem, f)[2]
    real, calls = finmin.solver._residual_terms, []

    def nan_in_the_third_block(*args):
        r, divisor = real(*args)
        calls.append(None)
        if len(calls) == 3:
            divisor[3, 5] = np.nan
        return r, divisor

    monkeypatch.setattr(finmin.solver, "_BLOCK_NODES", 7 * 17)
    monkeypatch.setattr(finmin.solver, "_residual_terms", nan_in_the_third_block)
    _, res, got_raw = _residual_and_norms(problem, f)
    assert len(calls) == 5
    assert math.isnan(res)
    assert got_raw == raw


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


def wavy(x, y):
    # Boundary data far from a minimal surface: from the blend of these, the
    # solve at b = 0.3, N = 31 takes 8 Newton steps and backtracks twice.
    return 5.0 * math.sin(3.0 * x) * math.sin(3.0 * y)


def test_newton_tail_monotone(monkeypatch):
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, wavy)
    residuals = counting(finmin.solver._residual_and_norms)
    monkeypatch.setattr(finmin.solver, "_residual_and_norms", residuals)
    sol = solve_minimal_graph(problem, tol=1e-10)
    # one residual for the start and one per trial step: more than one per
    # Newton step means the line search backtracked
    assert residuals.calls > 1 + sol.iterations
    hist = sol.residual_history
    tail = [r for r in hist if r < 1e-3]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    # quadratic contraction constants stay bounded; logged, not asserted
    consts = [b / (a * a) for a, b in zip(tail, tail[1:]) if a > 0]
    assert all(math.isfinite(c) for c in consts)


def test_non_convergence_error_carries_history():
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, wavy)
    with pytest.raises(NonConvergenceError) as err:
        solve_minimal_graph(problem, tol=1e-12, max_iter=1)
    assert len(err.value.residual_history) == 2


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
    # Each tol lies below the rounding level of the residual: at N = 15 that
    # of the raw residual, at N = 127 and 255 (CLI-reachable, exit 3) only
    # that of r / D. The floor in the units of tol, eps*max(|J||f| / D),
    # exceeds tol, which is what the message shows.
    for n, tol in ((15, 1e-17), (127, 1e-12), (255, 2e-12)):
        problem = GridProblem(UNIT_SQUARE, n, n, 0.3, scherk)
        with pytest.raises(StagnationError) as err:
            solve_minimal_graph(problem, tol=tol)
        message = str(err.value)
        match = re.search(
            r"raw max-norm (\S+), rounding floor eps\*max\(\|J\|\|f\|\) = (\S+), "
            r"eps\*max\(\|J\|\|f\| / D\) = (\S+)\)$",
            message,
        )
        assert match, message
        raw, floor, floor_tol = (float(v) for v in match.groups())
        res = err.value.residual_history[-1]
        assert 0.0 < raw <= floor
        assert tol < res < floor_tol
        assert message.startswith(f"line search stalled at residual {res:.3e}")


@pytest.mark.parametrize("nx,ny,b", [(15, 15, 0.3), (20, 11, 0.45)])
def test_rounding_floor_takes_the_weights_one_plane_at_a_time(nx, ny, b):
    # The floor adds |w_k| |f shifted| plane by plane, in the order of k,
    # without a (9, nx, ny) array of |w|: bit for bit the stencil of the
    # whole |weights| array applied to |f|.
    problem = GridProblem((-1.2, 1.2, -0.6, 0.6), nx, ny, b, scherk)
    f = np.random.default_rng(nx).uniform(-1.0, 1.0, (nx + 2, ny + 2))
    weights = _stencil_weights(problem, f)
    want = np.finfo(float).eps * np.max(_apply_stencil(np.abs(weights), np.abs(f)))
    assert _rounding_floor(weights, f) == want > 0.0


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
    match = re.search(r"raw max-norm (\S+), rounding floor eps\*max\(\|J\|\|f\|\) = (\S+),", str(err.value))
    raw, floor = (float(v) for v in match.groups())
    assert 0.0 < raw <= finmin.solver._FLOOR_MULTIPLE * floor


# ---------------------------------------------------------------------------
# large grids, b > 0 convergence order, lagged LU


@functools.lru_cache(maxsize=None)
def scherk_solution(nx, ny, b):
    return solve_minimal_graph(GridProblem(UNIT_SQUARE, nx, ny, b, scherk), tol=1e-10)


# N = 255 at b = 0.45 is the dirichlet workload's largest b and grid; the
# 200 x 61 pattern and CSC data span 14 assembly blocks (910 columns or 8192
# entries each), the last in part, and its residual two row blocks. A square
# grid's id names N once.
_LARGE_GRIDS = [(127, 127, 0.0, 2), (127, 127, 0.3, 3), (127, 127, 0.45, 3), (255, 255, 0.0, 2),
                (191, 191, 0.3, 3), (255, 255, 0.45, 3), (200, 61, 0.3, 3)]


@pytest.mark.parametrize(
    "nx, ny, b, iterations", _LARGE_GRIDS,
    ids=[f"{nx if nx == ny else f'{nx}x{ny}'}-{b}-{iterations}" for nx, ny, b, iterations in _LARGE_GRIDS],
)
def test_scherk_data_at_large_grids(nx, ny, b, iterations):
    sol = scherk_solution(nx, ny, b)
    assert sol.iterations == iterations
    assert sol.factorizations == 1
    assert sol.residual_norm <= 1e-10
    assert 0.0 < sol.residual_norm < sol.raw_residual_norm
    if b == 0.0:
        # the O(h^2) discretization bound perfbench checks on its grid files
        exact = full_field(sol.problem, scherk)
        assert np.max(np.abs(sol.f - exact)) <= 0.025 * sol.problem.hx**2
    if nx == 255:
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
    fields = [scherk_solution(n, n, b).f for n in sizes]
    diffs = [np.max(np.abs(coarse - fine[::2, ::2])) for coarse, fine in zip(fields, fields[1:])]
    orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
    assert min(orders) >= 1.9, orders


def skew(x, y):
    return 0.3 * math.sin(2.0 * x + 0.4) * math.cosh(y) + 0.2 * x * y + 0.1 * y


@functools.lru_cache(maxsize=None)
def skew_solution(b, data=skew, domain=UNIT_SQUARE):
    return solve_minimal_graph(GridProblem(domain, 47, 47, b, data), tol=1e-10).f


# The graph equation depends on b through b^2 and on f through its
# derivatives, and the 9-point stencil is symmetric on the square grid:
# each map of the data (first entry) maps the solution (second entry).
_SYMMETRIES = {
    "transpose": (lambda d: lambda x, y: d(y, x), lambda f: f.T),
    "mirror-x": (lambda d: lambda x, y: d(-x, y), lambda f: f[::-1]),
    "rotate-90": (lambda d: lambda x, y: d(y, -x), np.rot90),
    "negate": (lambda d: lambda x, y: -d(x, y), lambda f: -f),
    "shift": (lambda d: lambda x, y: d(x, y) + 7.0, lambda f: f + 7.0),
}


@pytest.mark.parametrize("b", [0.3, 0.45])
@pytest.mark.parametrize("symmetry", _SYMMETRIES)
def test_solutions_follow_the_symmetries_of_the_equation(symmetry, b):
    # Bits may differ where the dissection order is not symmetric.
    map_data, map_field = _SYMMETRIES[symmetry]
    want = map_field(skew_solution(b))
    got = skew_solution(b, map_data(skew))
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))


@pytest.mark.parametrize("b", [0.3, 0.45])
def test_solutions_follow_the_homothety_of_the_equation(b):
    # f(x) -> 2 f(x/2) on the doubled square: node coordinates, spacings and
    # boundary values double and difference quotients scale by powers of
    # two, all exactly, so every Newton iterate is twice the base one.
    got = skew_solution(b, lambda x, y: 2.0 * skew(x / 2.0, y / 2.0), (-2.0, 2.0, -2.0, 2.0))
    assert np.array_equal(got, 2.0 * skew_solution(b))


# Hypothesis suite of the same maps: random b, odd N and data for the
# solver, random points for the pointwise residual and its partials.

@st.composite
def _data(draw):
    """Affine plus trigonometric and polynomial products, of a size every
    solve converges on."""
    c0, cx, cy, q = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
    amp, p, r = draw(st.floats(-0.3, 0.3)), draw(st.floats(0.5, 2.5)), draw(st.floats(0.0, 1.5))
    cxy, cxxy = draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.2, 0.2))
    return lambda x, y: c0 + cx * x + cy * y + amp * math.sin(p * x + q) * math.cosh(r * y) + (cxy + cxxy * x) * x * y


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(b=st.floats(0.0, 0.45), n=st.integers(4, 20).map(lambda k: 2 * k + 1), data=_data())
def test_random_solves_follow_the_symmetries_and_the_homothety(b, n, data):
    def solve(data, domain=UNIT_SQUARE, tol=1e-10):
        return solve_minimal_graph(GridProblem(domain, n, n, b, data), tol=tol).f

    # Rounding differs where the dissection order is not symmetric: up to 7
    # ulps of max|f| over 450 random draws.
    base = solve(data)
    for map_data, map_field in _SYMMETRIES.values():
        want = map_field(base)
        assert np.max(np.abs(solve(map_data(data)) - want)) <= 16 * np.spacing(np.max(np.abs(want)))
    # the doubled problem's residuals are exactly half the base ones, so at
    # half the tolerance it stops at the same Newton step
    doubled = solve(lambda x, y: 2.0 * data(x / 2.0, y / 2.0), (-2.0, 2.0, -2.0, 2.0), tol=0.5e-10)
    assert np.array_equal(doubled, 2.0 * base)


# The same maps at one point, as linear maps M of (f1, f2, h11, h12, h22)
# with R(M p) = s R(p) for the residual R; the chain rule then gives the
# partials at M p as s M^-T times those at p. "exact" maps move only
# signs and powers of two, so both sides agree bit for bit.
_POINT_MAPS = {
    # (f2, f1, h22, h12, h11) and (-f2, f1, h22, -h12, h11)
    "transpose": (np.eye(5)[[1, 0, 4, 3, 2]], 1.0, False),
    "mirror-x": (np.diag([-1.0, 1.0, 1.0, -1.0, 1.0]), 1.0, True),
    "rotate-90": (np.diag([-1.0, 1.0, 1.0, -1.0, 1.0]) @ np.eye(5)[[1, 0, 4, 3, 2]], 1.0, False),
    "negate": (-np.eye(5), -1.0, True),
    "homothety": (np.diag([1.0, 1.0, 0.5, 0.5, 0.5]), 0.5, True),
}


# point entries: no subnormals, and no products of them that underflow
_finite = st.floats(-20.0, 20.0, allow_subnormal=False).map(lambda v: v if abs(v) >= 1e-50 else 0.0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(point=st.tuples(*[_finite] * 5), b=st.floats(0.0, 0.4999))
def test_pointwise_residual_and_partials_follow_the_maps(point, b):
    p = np.array(point)
    f1, f2, h11, h12, h22 = point
    residual = graph_residual(*point, b)
    partials = np.array(_residual_partials(*point, b))
    # 64 eps times a bound on the terms that may cancel, for the inexact
    # maps (at most 1.1 eps of it over 3000 random draws)
    w2 = 1.0 + f1 * f1 + f2 * f2
    bound = (2.0 + b * b) ** 2 * w2 * w2 * (1.0 + abs(f1) + abs(f2)) * (1.0 + abs(h11) + 2 * abs(h12) + abs(h22))
    atol = 64 * np.spacing(1.0) * bound
    for m, s, exact in _POINT_MAPS.values():
        q = m @ p
        got = np.array([graph_residual(*q, b), *_residual_partials(*q, b)])
        want = np.array([s * residual, *(s * np.linalg.inv(m).T @ partials)])
        if exact:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


def factor(weights, pattern, dtype):
    """The solver's factors, in precision dtype, of the Jacobian with these
    stencil weights."""
    return _factor(_csc_data(weights, pattern, dtype), pattern)


def recording_factor(monkeypatch):
    """Replace the solver's _factor by one that lists the dtype of every
    factorization and marks its factors fresh until refinement first runs
    against them: (dtypes, fresh), fresh a one-item list."""
    real, dtypes, fresh = finmin.solver._factor, [], [False]

    def factoring(data, pattern):
        dtypes.append(data.dtype.type)
        fresh[0] = True
        return real(data, pattern)

    monkeypatch.setattr(finmin.solver, "_factor", factoring)
    return dtypes, fresh


@pytest.mark.parametrize(
    "b, data",
    [(0.0, scherk), (0.3, scherk), (0.45, scherk), (0.3, skew)],
    ids=["0.0", "0.3", "0.45", "skew-0.3"],
)
def test_lagged_lu_matches_factoring_every_step(b, data, monkeypatch):
    problem = GridProblem(UNIT_SQUARE, 63, 63, b, data)
    dtypes, fresh = recording_factor(monkeypatch)
    lagged = solve_minimal_graph(problem)
    assert dtypes == [np.float32] * lagged.factorizations
    # Refinement refused against all but fresh factors: every Newton step
    # refactors, in float32, and refines against its own LU.
    refine = finmin.solver._refine
    dtypes.clear()

    def refusing(*args):
        if not fresh[0]:
            return None
        fresh[0] = False
        return refine(*args)

    monkeypatch.setattr(finmin.solver, "_refine", refusing)
    direct = solve_minimal_graph(problem)
    assert dtypes == [np.float32] * direct.factorizations
    # Scherk data start from the exact surface and keep the first LU; on the
    # skewed data refinement stops contracting and the solver refactors.
    assert (lagged.factorizations == 1) == (data is scherk)
    assert direct.factorizations == direct.iterations == lagged.iterations
    assert np.max(np.abs(lagged.f - direct.f)) <= 1e-14


def test_refinement_failing_on_fresh_float32_factors_refactors_in_float64(monkeypatch):
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, scherk)
    base = solve_minimal_graph(problem)
    dtypes, fresh = recording_factor(monkeypatch)
    refine, lu_solve, solve_dtypes = finmin.solver._refine, finmin.solver._lu_solve, []

    def failing_on_fresh_float32(*args):
        if fresh[0] and dtypes[-1] is np.float32:
            return None
        fresh[0] = False
        return refine(*args)

    def recording_solve(lu, order, v, dtype):
        solve_dtypes.append(dtype)
        return lu_solve(lu, order, v, dtype)

    monkeypatch.setattr(finmin.solver, "_refine", failing_on_fresh_float32)
    monkeypatch.setattr(finmin.solver, "_lu_solve", recording_solve)
    sol = solve_minimal_graph(problem)
    # one float32 factorization, then float64 for the rest of the solve
    assert dtypes == [np.float32, np.float64]
    assert set(solve_dtypes) == {np.float64}
    assert sol.factorizations == base.factorizations + 1 == 2
    assert sol.iterations == base.iterations
    assert sol.residual_norm <= 1e-10
    assert np.max(np.abs(sol.f - base.f)) <= 1e-14


def tiny_skew(x, y):
    return 1e-18 * skew(x / 1e-18, y / 1e-18)


def test_weights_beyond_float32_range_fall_back_to_float64(monkeypatch):
    # On a square of side 2e-18 the stencil weights reach 1 / h^2 ~ 6e38,
    # beyond float32's range: gstrf finds the float32 matrix exactly
    # singular, and the solve goes on in float64, silently, to the
    # stagnation a float64 solver reaches on these data.
    problem = GridProblem((-1e-18, 1e-18, -1e-18, 1e-18), 47, 47, 0.3, tiny_skew)
    f = _initial_field(problem)
    weights = _stencil_weights(problem, f)
    assert np.max(np.abs(weights)) > np.finfo(np.float32).max
    pattern = _JacobianPattern.build(47, 47)
    with pytest.raises(RuntimeError, match="singular"):
        factor(weights, pattern, np.float32)
    dtypes, _ = recording_factor(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StagnationError):
            solve_minimal_graph(problem)
    assert dtypes[0] is np.float32 and len(dtypes) > 1 and set(dtypes[1:]) == {np.float64}


@pytest.mark.parametrize("failure", ["refinement", "singular"])
def test_fresh_float64_factors_failing_end_the_solve(failure, monkeypatch, capsys):
    # After the first Newton system, refinement fails against every float32
    # LU, so the second system reaches fresh float64 factors; there either
    # refinement fails too, or gstrf finds the matrix exactly singular. No
    # direct step is taken: the solve ends with a SolverError.
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, scherk)
    base = solve_minimal_graph(problem)
    dtypes, _ = recording_factor(monkeypatch)
    real, refine, solved = finmin.solver._factor, finmin.solver._refine, []

    def failing_after_the_first_system(*args):
        if solved and (failure == "refinement" or dtypes[-1] is np.float32):
            return None
        solved.append(None)
        return refine(*args)

    def singular_in_float64(data, pattern):
        if data.dtype == np.float64:
            dtypes.append(data.dtype.type)
            raise RuntimeError("Factor is exactly singular")
        return real(data, pattern)

    monkeypatch.setattr(finmin.solver, "_refine", failing_after_the_first_system)
    if failure == "singular":
        monkeypatch.setattr(finmin.solver, "_factor", singular_in_float64)
    with pytest.raises(SolverError, match=r"^fresh float64 factors fail on the Newton system at residual ") as err:
        solve_minimal_graph(problem)
    assert type(err.value) is SolverError
    assert err.value.residual_history == base.residual_history[:2]
    assert str(err.value).endswith(f"{base.residual_history[1]:.3e}")
    assert dtypes == [np.float32, np.float32, np.float64]
    solved.clear()
    dtypes.clear()
    argv = ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "31", "--ny", "31", "--no-timestamp"]
    assert main(argv) == 3
    out, errout = capsys.readouterr()
    assert out == ""
    assert errout.startswith("error: fresh float64 factors fail") and errout.count("\n") == 1


def test_factors_that_do_not_fit_in_memory_exit_5(monkeypatch, capsys):
    # SuperLU's gstrf raises a bare MemoryError when it cannot allocate the
    # factors; the solve names the precision and the size, and the CLI
    # prints that as its one error line.
    def out_of_memory(data, pattern):
        raise MemoryError

    monkeypatch.setattr(finmin.solver, "_factor", out_of_memory)
    problem = GridProblem(UNIT_SQUARE, 31, 31, 0.3, scherk)
    with pytest.raises(MemoryError, match=r"^the float32 LU factors of the 961-unknown Jacobian do not fit in memory$"):
        solve_minimal_graph(problem)
    argv = ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "31", "--ny", "31", "--no-timestamp"]
    assert main(argv) == 5
    out, errout = capsys.readouterr()
    assert out == ""
    assert errout == "error: the float32 LU factors of the 961-unknown Jacobian do not fit in memory\n"


def counting(fun):
    def counted(*args):
        counted.calls += 1
        return fun(*args)

    counted.calls = 0
    return counted


def random_system(n, scale, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) + scale * rng.normal(size=(n, n)) / math.sqrt(n), rng.normal(size=n)


def perturbed_inverse(a, scale, seed):
    """The inverse of a plus a random perturbation, a lagged LU's stand-in."""
    return np.linalg.inv(a + random_system(a.shape[0], scale, seed)[0] - np.eye(a.shape[0]))


def test_refine_meets_the_true_residual_tolerance():
    a, rhs = random_system(60, 0.3, 1)
    for scale, most in [(0.01, 4), (0.2, 13)]:
        matvec = counting(lambda v: a @ v)
        precondition = perturbed_inverse(a, scale, 2)
        x = _refine(matvec, lambda v: precondition @ v, rhs)
        assert np.linalg.norm(rhs - a @ x) <= finmin.solver._REFINE_RTOL * np.linalg.norm(rhs)
        assert 1 < matvec.calls <= most
    # the exact inverse converges at the first step
    matvec = counting(lambda v: a @ v)
    x = _refine(matvec, lambda v: np.linalg.solve(a, v), rhs)
    assert np.linalg.norm(rhs - a @ x) <= 1e-12 * np.linalg.norm(rhs)
    assert matvec.calls == 1


def test_refine_returns_none_when_it_stops_contracting_or_runs_out_of_steps(monkeypatch):
    a, rhs = random_system(60, 0.3, 1)
    # I - M A has spectral radius 4.9: the first step grows the residual
    matvec = counting(lambda v: a @ v)
    precondition = perturbed_inverse(a, 1.0, 2)
    assert _refine(matvec, lambda v: precondition @ v, rhs) is None
    assert matvec.calls == 1
    assert _refine(lambda v: a @ v, lambda v: np.full(v.size, np.nan), rhs) is None
    # the contracting system above takes 13 steps
    precondition = perturbed_inverse(a, 0.2, 2)
    monkeypatch.setattr(finmin.solver, "_REFINE_STEPS", 12)
    assert _refine(lambda v: a @ v, lambda v: precondition @ v, rhs) is None
    monkeypatch.setattr(finmin.solver, "_REFINE_STEPS", 13)
    assert _refine(lambda v: a @ v, lambda v: precondition @ v, rhs) is not None


def stencil_matvec(weights):
    """The Jacobian with these stencil weights, applied to a flat vector."""
    shape = weights.shape[1:]
    return counting(lambda v: _apply_stencil(weights, np.pad(v.reshape(shape), 1)).ravel())


def lu_refine(weights, r, pattern, lu):
    """The Newton step for residual r, refined against float32 factors lu as
    the solver does, and the stencil matvec that counts the refinement steps."""
    matvec = stencil_matvec(weights)
    x = _refine(matvec, lambda v: _lu_solve(lu, pattern.order, v, np.float32), -r.ravel())
    return x.reshape(r.shape), matvec


def direct_step(weights, r, pattern):
    """The Newton step for residual r by float64 factors, solved directly."""
    lu = factor(weights, pattern, np.float64)
    return _lu_solve(lu, pattern.order, -r.ravel(), np.float64).reshape(r.shape)


@pytest.mark.parametrize("n", [63, 127])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_refine_matches_a_fresh_lu_on_newton_systems(n, b):
    # The first two Newton systems of a Scherk solve, refined against the
    # float32 LU of the first as the solver sets it up, and solved with
    # float64 factors of their own.
    problem = GridProblem(UNIT_SQUARE, n, n, b, scherk)
    pattern = _JacobianPattern.build(n, n)
    f = _initial_field(problem)
    weights, r = _stencil_weights(problem, f), assemble_residual(problem, f)
    lu = factor(weights, pattern, np.float32)
    step, matvec = lu_refine(weights, r, pattern, lu)
    # fresh float32 factors shrink |r| by 1e-5 to 2e-4 per step
    assert matvec.calls == 2
    assert np.max(np.abs(step - direct_step(weights, r, pattern))) <= 1e-8 * np.max(np.abs(step))
    f[1:-1, 1:-1] += step
    weights, r = _stencil_weights(problem, f), assemble_residual(problem, f)
    x, matvec = lu_refine(weights, r, pattern, lu)
    assert 2 <= matvec.calls < finmin.solver._REFINE_STEPS
    direct = direct_step(weights, r, pattern)
    assert np.max(np.abs(x - direct)) <= 1e-8 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# Jacobian and sparse solve


def jacobian_matrix(problem, f, pattern):
    """The Jacobian in dissection numbering as a scipy CSC matrix."""
    import scipy.sparse as sp

    n = pattern.order.size
    gather = pattern.order[pattern.indices] + pattern.stencil.astype(np.int64) * n
    data = _stencil_weights(problem, f).ravel()[gather]
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
    """((order, indices, indptr, stencil), gather) by one argsort over the 9n
    int64 keys column * n + row: the reference for the solver's blocked
    build; gather holds each entry's position in the stacked (9, nx*ny)
    stencil weights."""
    n = nx * ny
    order = reference_dissection_order(nx, ny)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    natural = np.arange(n).reshape(nx, ny)
    rows, cols, stencil, gather = [], [], [], []
    for k, (a, c) in enumerate(finmin.solver._OFFSETS):
        r0, r1 = max(0, -a), nx - max(0, a)
        c0, c1 = max(0, -c), ny - max(0, c)
        node = natural[r0:r1, c0:c1].ravel()
        rows.append(position[node])
        cols.append(position[natural[r0 + a : r1 + a, c0 + c : c1 + c].ravel()])
        stencil.append(np.full(node.size, k))
        gather.append(k * n + node)
    rows, cols, stencil, gather = (np.concatenate(v) for v in (rows, cols, stencil, gather))
    by_column = np.argsort(cols * n + rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    fields = (
        order.astype(np.intc),
        rows[by_column].astype(np.intc),
        indptr.astype(np.intc),
        stencil[by_column].astype(np.uint8),
    )
    return fields, gather[by_column]


@pytest.mark.parametrize("shape", [(8, 8), (9, 12), (12, 9), (17, 8), (63, 63)])
def test_dissection_order_is_a_permutation(shape):
    nx, ny = shape
    order = _dissection_order(nx, ny)
    assert np.array_equal(np.sort(order), np.arange(nx * ny))


def test_dissection_order_leaves_no_cyclic_garbage():
    # console_main runs every command with the cyclic collector off, so a
    # reference cycle in the numbering would hold its boxes to the end of
    # the process.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _dissection_order(63, 63)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "shape",
    [
        (8, 8), (9, 12), (12, 9), (16, 17), (17, 8), (33, 64), (100, 37), (127, 130), (255, 255),
        (91, 20), (22, 86), (200, 61),
    ],
)
def test_pattern_equals_the_argsort_build_bit_for_bit(shape, monkeypatch):
    fields, gather = reference_pattern(*shape)
    weights = np.random.default_rng(shape[0]).normal(size=(9, *shape))
    # Blocks of 119 and of the default 8192 entries, 13 and 910 columns in
    # the build: (8, 8) fits in one; (91, 20) fills 140 and 2 build blocks
    # exactly, (22, 86) 2 blocks of 8192 CSC entries; the other shapes end
    # in a part block.
    for block in (7 * 17, finmin.solver._BLOCK_NODES):
        monkeypatch.setattr(finmin.solver, "_BLOCK_NODES", block)
        pattern = _JacobianPattern.build(*shape)
        for got, want in zip(pattern, fields, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert pattern.order.dtype == pattern.indices.dtype == pattern.indptr.dtype == np.intc
        assert pattern.stencil.dtype == np.uint8
        # the CSC data are the weights at the reference's gather positions
        for dtype in (np.float32, np.float64):
            data = _csc_data(weights, pattern, dtype)
            assert data.dtype == dtype
            assert data.tobytes() == weights.astype(dtype).ravel()[gather].tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (9, 12), (12, 9), (17, 8), (64, 63)])
def test_pattern_indptr_counts_the_in_grid_neighbours(shape):
    # Per node, in dissection order, the offsets whose neighbour lies in the
    # grid, counted on a mask of the grid rather than on the pattern's keys.
    nx, ny = shape
    pattern = _JacobianPattern.build(nx, ny)
    padded = np.zeros((nx + 2, ny + 2), dtype=bool)
    padded[1:-1, 1:-1] = True
    inside = np.stack([padded[1 - a : 1 - a + nx, 1 - c : 1 - c + ny] for a, c in _OFFSETS], axis=-1)
    counts = np.count_nonzero(inside.reshape(nx * ny, 9)[pattern.order], axis=1)
    assert np.array_equal(pattern.indptr, np.concatenate([[0], np.cumsum(counts)]))
    assert pattern.indptr[-1] == len(pattern.indices)


def test_pattern_refuses_grids_its_int32_keys_cannot_index(monkeypatch, capsys):
    # keys 16 * row + k stay below 2**31 only for fewer than 2**27 unknowns;
    # GridProblem refuses larger grids, before a solve allocates any field
    with pytest.raises(DomainError, match=r"2\*\*27"):
        GridProblem(UNIT_SQUARE, 2**14, 2**13, 0.0, scherk)
    assert GridProblem(UNIT_SQUARE, 2**14, 2**13 - 1, 0.0, scherk).nx == 2**14

    def no_field(problem):
        raise AssertionError("the solve allocated its field")

    monkeypatch.setattr(finmin.solver, "_initial_field", no_field)
    assert main(["solve", "--nx", "16384", "--ny", "8192", "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "2**27" in captured.err


@pytest.mark.parametrize(
    "n,b,field",
    [
        ((9, 12), 0.0, "scherk"),
        ((9, 12), 0.3, "zero"),
        ((12, 9), 0.45, "random"),
        ((31, 17), 0.15, "random"),
        ((63, 64), 0.45, "scherk"),
        ((127, 130), 0.3, "scherk"),
        # +0.0 and -0.0 on all or half of the nodes, the rest random
        *(((12, 9), b, zeros) for zeros in ("all-zero", "half-zero") for b in (0.0, 0.3, 0.45)),
    ],
)
def test_residual_partials_match_dual_gradient(n, b, field):
    # The closed-form partials against five dual passes through the
    # residual kernel, over all stencil values of the field.
    nx, ny = n
    problem = GridProblem((-1.4, 1.4, -1.2, 1.2), nx, ny, b, scherk)
    rng = np.random.default_rng(7 if field.endswith("-zero") else nx)
    if field == "scherk":
        f = full_field(problem, scherk)
    elif field == "zero":
        f = np.zeros((nx + 2, ny + 2))
    elif field == "random":
        f = rng.uniform(-2.0, 2.0, (nx + 2, ny + 2))
    else:
        f = np.copysign(0.0, rng.uniform(-1.0, 1.0, (nx + 2, ny + 2)))
        share = 1.0 if field == "all-zero" else 0.5
        f = np.where(rng.uniform(size=f.shape) < share, f, rng.uniform(-2.0, 2.0, f.shape))
    stencil = np.stack(_stencil_point(problem, f))
    got = np.stack(_residual_partials(*stencil, b))
    want = dual.gradient(lambda v: _residual_terms(*v, 0.0, 0.0, 1.0, b)[0], stencil)
    assert got.shape == want.shape == (5, nx, ny)
    assert_channels_near(got, want)


@pytest.mark.parametrize("q", range(5), ids=["f1", "f2", "h11", "h12", "h22"])
def test_stencil_weights_read_the_textbook_stencils_off_the_residual(q, monkeypatch):
    # With the partial of stencil value q set to 1 and the others to 0, the
    # weights are q's coefficients as _stencil_weights reads them off
    # _stencil_point; on hx != hy (neither a power of two) they must be the
    # textbook central differences, at every node.
    problem = GridProblem((-1.2, 1.2, -0.6, 0.6), 11, 9, 0.3, scherk)
    hx, hy = problem.hx, problem.hy
    assert hx != hy

    def unit_partials(f1, f2, h11, h12, h22, b):
        return tuple(np.full_like(f1, p == q) for p in range(5))

    monkeypatch.setattr(finmin.solver, "_residual_partials", unit_partials)
    weights = _stencil_weights(problem, full_field(problem, scherk))
    # 3 x 3 stencils over the offsets (a, c), a along x and c along y
    stencil = np.zeros((3, 3))
    if q == 0:
        stencil[[0, 2], 1] = -1 / (2 * hx), 1 / (2 * hx)
    elif q == 1:
        stencil[1, [0, 2]] = -1 / (2 * hy), 1 / (2 * hy)
    elif q == 2:
        stencil[:, 1] = 1 / hx**2, -2 / hx**2, 1 / hx**2
    elif q == 3:
        stencil[[0, 0, 2, 2], [0, 2, 0, 2]] = np.array([1, -1, -1, 1]) / (4 * hx * hy)
    else:
        stencil[1, :] = 1 / hy**2, -2 / hy**2, 1 / hy**2
    assert [(a - 1, c - 1) for a in range(3) for c in range(3)] == _OFFSETS
    want = np.broadcast_to(stencil.reshape(9, 1, 1), weights.shape)
    np.testing.assert_allclose(weights, want, rtol=1e-15, atol=0)


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
    f = _initial_field(problem)
    weights, r = _stencil_weights(problem, f), assemble_residual(problem, f)
    pattern = _JacobianPattern.build(63, 63)
    jac = natural_jacobian(problem, f)
    colamd = spla.splu(jac.tocsc())
    reference = spla.spsolve(jac.tocsr(), -r.ravel()).reshape(r.shape)
    for dtype in (np.float32, np.float64):
        lu = factor(weights, pattern, dtype)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    # the solver's step, refined against float32 factors, and the direct
    # step of its float64 fallback
    step, _ = lu_refine(weights, r, pattern, factor(weights, pattern, np.float32))
    assert np.max(np.abs(step - reference)) <= 1e-10 * np.max(np.abs(reference))
    step = direct_step(weights, r, pattern)
    assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("b", [0.0, 0.3, 0.45])
def test_newton_step_equals_splu_bit_for_bit(b):
    # The solver calls SuperLU's gstrf itself; splu with the same ordering,
    # panel width and precision must give the same triangular solves to the
    # last bit, so a scipy upgrade that changes either path, or a change of
    # the solver's options, fails here. The solver factors in float32 and
    # falls back to float64.
    import scipy.sparse.linalg as spla

    problem = GridProblem(UNIT_SQUARE, 63, 63, b, scherk)
    f = _initial_field(problem)
    r = assemble_residual(problem, f)
    pattern = _JacobianPattern.build(63, 63)
    assert pattern.indices.dtype == pattern.indptr.dtype == np.intc
    weights = _stencil_weights(problem, f)
    for dtype in (np.float32, np.float64):
        lu = factor(weights, pattern, dtype)
        step = _lu_solve(lu, pattern.order, -r.ravel(), dtype)
        matrix = jacobian_matrix(problem, f, pattern).astype(dtype)
        reference = spla.splu(matrix, permc_spec="NATURAL", panel_size=1)
        expected = np.empty(r.size)
        expected[pattern.order] = reference.solve(-r.ravel()[pattern.order].astype(dtype))
        assert step.dtype == np.float64
        assert step.tobytes() == expected.tobytes()
        assert lu.L.nnz == reference.L.nnz and lu.U.nnz == reference.U.nnz


_TRANSIENT_PROBE = """
import math, sys

import numpy as np

sys.path.insert(0, sys.argv[1])
from finmin.solver import GridProblem, _csc_data, _factor, _initial_field, _JacobianPattern, _stencil_weights


def kb(*keys):
    with open("/proc/self/status") as status:
        found = {line.split(":")[0]: int(line.split()[1]) for line in status if line.startswith(keys)}
    return [found[key] for key in keys]


scherk = lambda x, y: math.log(math.cos(x)) - math.log(math.cos(y))
problem = GridProblem((-1.0, 1.0, -1.0, 1.0), 255, 255, 0.0, scherk)
pattern = _JacobianPattern.build(255, 255)
args = (_csc_data(_stencil_weights(problem, _initial_field(problem)), pattern, np.float32), pattern)
(before,) = kb("VmRSS")
lu = _factor(*args)
hwm, rss = kb("VmHWM", "VmRSS")
print((hwm - rss) / 1024, (rss - before) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_factorization_transient_memory_at_n255():
    # SuperLU's panel workspace is n x panel width doubles and integers,
    # about 1 MB per panel column at N = 255, and the factors never use it.
    # With one-column panels the high-water mark of a fresh process that
    # factors the N = 255 Jacobian (the peak of the dirichlet workload)
    # sits at most 8 MB above what it holds afterwards, the factors
    # included; with scipy's default width of 20 it sat about 21 MB above.
    # The factorization adds at most 45 MB to the resident set: about 40 MB
    # with float32 factors, about 54 MB with float64 ones. The pattern and
    # the CSC data are built over blocks, so little freed heap is left for
    # SuperLU to reuse; with a grid-sized key table it added about 38 MB.
    # VmHWM is the high-water mark of this process image: ru_maxrss would
    # carry over the larger one of the test process across fork and exec.
    src = os.path.dirname(os.path.dirname(finmin.solver.__file__))
    proc = subprocess.run([sys.executable, "-c", _TRANSIENT_PROBE, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    transient, added = (float(v) for v in proc.stdout.split())
    assert transient <= 8.0
    assert added <= 45.0


_SOLVE_PROBE = """
import math, sys

sys.path.insert(0, sys.argv[1])
import finmin.solver as solver


def kb(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))


solver._superlu()
before = kb("VmRSS")
scherk = lambda x, y: math.log(math.cos(x)) - math.log(math.cos(y))
sol = solver.solve_minimal_graph(solver.GridProblem((-1.0, 1.0, -1.0, 1.0), 255, 255, 0.0, scherk))
print((kb("VmHWM") - before) / 1024, sol.iterations, sol.factorizations)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_solve_peak_memory_at_n255():
    # While SuperLU factors, the solve holds the float32 CSC data, the
    # pattern (C int rows and one byte of stencil index per entry), the
    # field and its residual, and no float64 stencil weights; the pattern,
    # the CSC data and the residual are built over blocks, and refinement
    # runs without the previous Newton step. The N = 255 Scherk solve at
    # b = 0 (the peak of the dirichlet workload) then peaks about 48.2 MB
    # above the interpreter with numpy and SuperLU loaded. With a C int
    # gather index and the pattern built from one grid-sized table it
    # peaked about 51.3 MB above, and holding the float64 weights and an
    # int64 gather index through the factorization about 59 MB.
    src = os.path.dirname(os.path.dirname(finmin.solver.__file__))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_PROBE, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak, iterations, factorizations = proc.stdout.split()
    assert (iterations, factorizations) == ("2", "1")
    assert float(peak) <= 50.5


def test_missing_scipy_says_solve_needs_it(monkeypatch):
    monkeypatch.delitem(sys.modules, _SUPERLU, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="^solve needs scipy, which cannot be imported$"):
        _superlu()


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

    fake = GridSolution(
        f=f, residual_norm=0.0, iterations=0, problem=problem, residual_history=[], raw_residual_norm=0.0, factorizations=0
    )
    dev = planarity_deviation(fake)
    n = xs.size
    mx, mx2, mx3 = xs.mean(), (xs**2).mean(), (xs**3).mean()
    var = mx2 - mx * mx
    c1 = (mx3 - mx2 * mx) / var
    c0 = mx2 - c1 * mx
    expected = np.max(np.abs(xs**2 - (c0 + c1 * xs)))
    assert dev == pytest.approx(expected, rel=1e-12)
    assert dev > 0.0
