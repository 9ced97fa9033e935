"""Finite-difference Newton solver for the minimal-graph equation on a
rectangle with Dirichlet data.

Second-order central differences on a uniform tensor grid (5-point
Laplacian stencil plus the symmetric 4-point cross difference), damped
Newton with an Armijo line search on the residual max-norm, and sparse
direct linear solves. Because the discrete residual at an interior node
is the pointwise graph equation on stencil-derived gradient and Hessian
values, affine fields are exact discrete solutions for every admissible
b; the solver therefore reproduces the planarity rigidity at desk scale.

The linear systems number the interior nodes by geometric nested
dissection (George, SIAM J. Numer. Anal. 10, 1973): each block is split
at the middle line of its longer side and the line is numbered last.
SuperLU factors the Jacobian in that order without reordering columns,
which at N = 255 holds the L + U fill to 5.2 M entries where COLAMD on
the naturally numbered matrix reaches 9.1 M. The CSC index arrays are
built once per solve; each Newton step only gathers the new stencil
weights into them.

The factorization is SuperLU (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM
J. Matrix Anal. Appl. 20, 1999) through scipy's compiled extension
`scipy.sparse.linalg._dsolve._superlu`, loaded by itself: the solver calls
its `gstrf` with the arguments `splu(A, permc_spec="NATURAL")` would pass,
so the factors are the same, and a solve imports no other scipy module
(importing `scipy.sparse.linalg` costs about 350 ms, most of it a numpy
compatibility layer the solver does not use).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import dual
from .errors import DomainError, NonConvergenceError, SolverError, StagnationError
from .graph_pde import _residual_terms
from .metric import check_b

__all__ = [
    "GridProblem",
    "GridSolution",
    "assemble_residual",
    "solve_minimal_graph",
    "planarity_deviation",
]

_MIN_STEP = 2.0**-20
_ARMIJO_SLOPE = 1e-4


class GridProblem:
    """Dirichlet problem for the minimal-graph equation on a rectangle.

    domain is (x0, x1, y0, y1); nx, ny count interior nodes per axis; the
    stored fields include the boundary ring, so arrays have shape
    (nx + 2, ny + 2). The boundary callable is sampled exactly on boundary
    nodes.
    """

    def __init__(self, domain, nx: int, ny: int, b: float, boundary):
        x0, x1, y0, y1 = (float(v) for v in domain)
        if not all(map(math.isfinite, (x0, x1, y0, y1))):
            raise DomainError(f"domain bounds {(x0, x1, y0, y1)} must be finite")
        if not (x0 < x1 and y0 < y1):
            raise DomainError("domain must satisfy x0 < x1 and y0 < y1")
        if nx < 8 or ny < 8:
            raise DomainError("nx and ny must be at least 8 interior nodes")
        self.domain = (x0, x1, y0, y1)
        self.nx, self.ny = nx, ny
        self.hx = (x1 - x0) / (nx + 1)
        self.hy = (y1 - y0) / (ny + 1)
        # The stencils divide by hx**2, hy**2 and 4*hx*hy.
        h = max(self.hx, self.hy)
        if not math.isfinite(4.0 * h * h):
            raise DomainError(f"grid spacing {h} is too large: its square overflows")
        self.b = check_b(b)
        self.boundary = boundary

    def xs(self) -> np.ndarray:
        x0, x1, _, _ = self.domain
        return np.linspace(x0, x1, self.nx + 2)

    def ys(self) -> np.ndarray:
        _, _, y0, y1 = self.domain
        return np.linspace(y0, y1, self.ny + 2)

    def boundary_field(self) -> np.ndarray:
        """(nx+2, ny+2) array with the Dirichlet ring filled, interior zero."""
        xs, ys = self.xs(), self.ys()
        f = np.zeros((self.nx + 2, self.ny + 2))
        f[0, :] = [self.boundary(xs[0], y) for y in ys]
        f[-1, :] = [self.boundary(xs[-1], y) for y in ys]
        f[:, 0] = [self.boundary(x, ys[0]) for x in xs]
        f[:, -1] = [self.boundary(x, ys[-1]) for x in xs]
        return f


class GridSolution(NamedTuple):
    """Converged nodal field with the final residual norm and history."""

    f: np.ndarray
    residual_norm: float
    iterations: int
    problem: GridProblem
    residual_history: list


def _stencil_point(problem: GridProblem, f: np.ndarray):
    """Gradient and Hessian arrays at the interior nodes (each (nx, ny))."""
    hx, hy = problem.hx, problem.hy
    fc = f[1:-1, 1:-1]
    f1 = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2.0 * hx)
    f2 = (f[1:-1, 2:] - f[1:-1, :-2]) / (2.0 * hy)
    h11 = (f[2:, 1:-1] - 2.0 * fc + f[:-2, 1:-1]) / hx**2
    h22 = (f[1:-1, 2:] - 2.0 * fc + f[1:-1, :-2]) / hy**2
    h12 = (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4.0 * hx * hy)
    return f1, f2, h11, h12, h22


def assemble_residual(problem: GridProblem, f: np.ndarray) -> np.ndarray:
    """Discrete residual at the interior nodes, shape (nx, ny).

    f must be the full field including the boundary ring; affine fields
    give an exactly zero residual because the central stencils are exact
    on them and the Hessian vanishes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (problem.nx + 2, problem.ny + 2):
        raise ValueError(
            f"field shape {f.shape} does not match grid "
            f"({problem.nx + 2}, {problem.ny + 2})"
        )
    f1, f2, h11, h12, h22 = _stencil_point(problem, f)
    return _residual_terms(f1, f2, h11, h12, h22, 0.0, 0.0, 1.0, problem.b)


def _residual_and_norm(problem: GridProblem, f: np.ndarray):
    """The residual and its max-norm.

    Overflowing data or a spacing whose square underflows make the norm nan
    or infinite, which the Newton loop checks for itself, so numpy's
    warnings about it are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = assemble_residual(problem, f)
        return r, float(np.max(np.abs(r)))


def _point_partials(problem: GridProblem, f: np.ndarray):
    """d(residual)/d(f1, f2, h11, h12, h22) at every interior node, shape (5, nx, ny).

    dual.gradient over the stacked stencil values: five dual passes, each
    a vectorized evaluation of the residual formula at all nodes.
    """

    def residual(v):
        return _residual_terms(*v, 0.0, 0.0, 1.0, problem.b)

    return dual.gradient(residual, np.stack(_stencil_point(problem, f)))


_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
_LEAF_NODES = 16


def _dissection_order(nx: int, ny: int) -> np.ndarray:
    """Natural index i*ny + j of each interior node, in nested-dissection order.

    A block is split at the middle grid line of its longer side; both
    halves are numbered first, then that line. The 9-point stencil only
    couples nodes at most one line apart, so the line separates the
    halves and the LU factors of each half never fill into the other.
    Blocks of at most _LEAF_NODES nodes keep natural order.
    """
    natural = np.arange(nx * ny).reshape(nx, ny)
    parts = []

    def number(block):
        rows, cols = block.shape
        if rows * cols <= _LEAF_NODES:
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

    number(natural)
    return np.concatenate(parts)


class _JacobianPattern(NamedTuple):
    """CSC structure of the Jacobian in dissection numbering, built once per solve.

    Unknown k of the linear system is interior node order[k] (natural
    index); the CSC data are the stacked (9, nx*ny) stencil weights
    gathered at `gather`. Row indices are sorted within each column and
    unique, and `indices`/`indptr` are C ints, as SuperLU takes them.
    """

    order: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def build(cls, nx: int, ny: int) -> _JacobianPattern:
        n = nx * ny
        order = _dissection_order(nx, ny)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        natural = np.arange(n).reshape(nx, ny)
        rows, cols, gather = [], [], []
        for k, (a, c) in enumerate(_OFFSETS):
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
        return cls(order, gather[by_column], rows[by_column].astype(np.intc), indptr.astype(np.intc))


def _jacobian(problem: GridProblem, f: np.ndarray, pattern: _JacobianPattern) -> np.ndarray:
    """CSC data of the Jacobian: its entries in the order of pattern.indices."""
    hx, hy = problem.hx, problem.hy
    d_f1, d_f2, d_h11, d_h12, d_h22 = _point_partials(problem, f)

    def stencil_weight(a, c):
        # chain rule: d(stencil value)/d f[neighbor] for each derived quantity
        w = np.zeros_like(d_f1)
        if c == 0:
            if a != 0:
                w += d_f1 * (a / (2.0 * hx))
                w += d_h11 / hx**2
            else:
                w += d_h11 * (-2.0 / hx**2) + d_h22 * (-2.0 / hy**2)
        if a == 0 and c != 0:
            w += d_f2 * (c / (2.0 * hy))
            w += d_h22 / hy**2
        if a != 0 and c != 0:
            w += d_h12 * (a * c / (4.0 * hx * hy))
        return w

    weights = np.stack([stencil_weight(a, c) for a, c in _OFFSETS])
    return weights.ravel()[pattern.gather]


_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _superlu():
    """scipy's compiled SuperLU module, loaded without running scipy's package code.

    find_spec("scipy") locates scipy without executing its __init__. The
    extension is loaded from its file under its real dotted name and
    registered in sys.modules, which then serves as the cache: a later
    `import scipy.sparse.linalg` binds this same module, and a module that
    `scipy.sparse.linalg` has already loaded is used as it is.
    """
    module = sys.modules.get(_SUPERLU)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("solve needs scipy, which cannot be imported")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse", "linalg", "_dsolve")
    paths = [os.path.join(folder, "_superlu" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled _superlu module in {folder}")
    spec = importlib.util.spec_from_file_location(_SUPERLU, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_SUPERLU] = module
    return module


def _csc_array(*args, **kwargs):
    # SuperLU builds its L and U properties with this; the solver never
    # reads them, so scipy.sparse is imported only when something else does.
    import scipy.sparse

    return scipy.sparse.csc_array(*args, **kwargs)


def _newton_step(problem: GridProblem, f: np.ndarray, r: np.ndarray, pattern: _JacobianPattern):
    """Newton direction at the interior nodes, shape (nx, ny), and the SuperLU factors.

    The ordering is the pattern's dissection numbering, so SuperLU is told
    not to reorder columns: these are the options splu(permc_spec="NATURAL")
    passes to the same routine.
    """
    data = _jacobian(problem, f, pattern)
    options = dict(ColPerm="NATURAL", SymmetricMode=True, DiagPivotThresh=None, PanelSize=None, Relax=None)
    lu = _superlu().gstrf(
        r.size,
        data.size,
        data,
        pattern.indices,
        pattern.indptr,
        csc_construct_func=_csc_array,
        ilu=False,
        options=options,
    )
    step = np.empty(r.size)
    step[pattern.order] = lu.solve(-r.ravel()[pattern.order])
    return step.reshape(r.shape), lu


def _initial_field(problem: GridProblem, kind: str) -> np.ndarray:
    f = problem.boundary_field()
    if kind == "flat":
        return f
    if kind != "boundary-blend":
        raise DomainError(f"unknown initial guess {kind!r}")
    # Transfinite bilinear blend of the boundary ring; exact on affine data,
    # which removes iteration noise from the planarity test.
    nx, ny = problem.nx, problem.ny
    u = np.linspace(0.0, 1.0, nx + 2)[:, None]
    v = np.linspace(0.0, 1.0, ny + 2)[None, :]
    left, right = f[0, :][None, :], f[-1, :][None, :]
    bottom, top = f[:, 0][:, None], f[:, -1][:, None]
    blend = (1 - u) * left + u * right + (1 - v) * bottom + v * top
    blend -= (
        (1 - u) * (1 - v) * f[0, 0]
        + u * (1 - v) * f[-1, 0]
        + (1 - u) * v * f[0, -1]
        + u * v * f[-1, -1]
    )
    blend[0, :], blend[-1, :], blend[:, 0], blend[:, -1] = (
        f[0, :],
        f[-1, :],
        f[:, 0],
        f[:, -1],
    )
    return blend


def solve_minimal_graph(
    problem: GridProblem,
    tol: float = 1e-10,
    max_iter: int = 30,
    initial_guess: str = "boundary-blend",
) -> GridSolution:
    """Damped Newton iteration until the residual max-norm drops below tol.

    The Jacobian couples each node to its compact 9-point neighborhood and
    is built from exact dual-number partials chained through the stencil
    weights and factored in nested-dissection order. Line search: Armijo
    backtracking with factor 1/2 down to step 2**-20, after which
    StagnationError is raised; exceeding max_iter raises
    NonConvergenceError, and an initial residual that is not finite (nan
    or infinite, from non-finite or overflowing data) raises SolverError.
    All three carry the residual history.
    DomainError unless 0 < tol < inf and max_iter >= 0.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol} must be positive and finite")
    if max_iter < 0:
        raise DomainError(f"max_iter={max_iter} must be >= 0")
    f = _initial_field(problem, initial_guess)
    r, res = _residual_and_norm(problem, f)
    history = [res]
    # `res > tol` is false for nan. Later residuals are finite: the line
    # search accepts a step only below a finite bound.
    if not math.isfinite(res):
        raise SolverError(f"initial residual max-norm is {res}", history)
    if res > tol:
        pattern = _JacobianPattern.build(problem.nx, problem.ny)
    iterations = 0
    while res > tol:
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"residual {res:.3e} above tol={tol} after {max_iter} Newton steps",
                history,
            )
        # Drop the factors at once: kept until the next step is factored,
        # two LUs would be in memory together.
        delta = _newton_step(problem, f, r, pattern)[0]
        lam = 1.0
        while True:
            f_try = f.copy()
            f_try[1:-1, 1:-1] += lam * delta
            r_try, res_try = _residual_and_norm(problem, f_try)
            if res_try <= tol or res_try <= (1.0 - _ARMIJO_SLOPE * lam) * res:
                break
            lam *= 0.5
            if lam < _MIN_STEP:
                raise StagnationError(
                    f"line search stalled at residual {res:.3e}", history
                )
        f, r, res = f_try, r_try, res_try
        history.append(res)
        iterations += 1
    return GridSolution(
        f=f,
        residual_norm=res,
        iterations=iterations,
        problem=problem,
        residual_history=history,
    )


def planarity_deviation(sol: GridSolution) -> float:
    """Max-norm distance of the field from its least-squares affine fit.

    Fit over all nodes, boundary included; a numeric echo of the statement
    that entire minimal graphs are planes.
    """
    xs, ys = sol.problem.xs(), sol.problem.ys()
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    design = np.column_stack([np.ones(xg.size), xg.ravel(), yg.ravel()])
    coef, *_ = np.linalg.lstsq(design, sol.f.ravel(), rcond=None)
    return float(np.max(np.abs(sol.f.ravel() - design @ coef)))
