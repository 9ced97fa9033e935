"""Finite-difference Newton solver for the minimal-graph equation on a
rectangle with Dirichlet data.

Second-order central differences on a uniform tensor grid (5-point
Laplacian stencil plus the symmetric 4-point cross difference) and damped
Newton with an Armijo line search, started from the transfinite bilinear
blend of the boundary data. Because the discrete residual at an
interior node is the pointwise graph equation on stencil-derived gradient
and Hessian values, affine fields are exact discrete solutions for every
admissible b; the solver therefore reproduces the planarity rigidity at
desk scale.

The iteration stops when max|r / D| <= tol, where r is the residual and
D = S(S - 2 b^2 w^2) the positive divisor graph_pde factors out of the
equation, both from graph_pde._residual_terms. r / D is the normalized
elliptic form a : H, so tol means the same at every gradient size, while
the raw max|r| carries D's W^4 and a rounding floor eps*max(|J||f|) that
exceeds 1e-10 on fine grids (5.2e-10 at N = 255). The line search keeps
the raw max|r| as its merit function: the Newton direction is a descent
direction for it, and not always for the quotient, whose weights move
with f. When a full step fails, the line search reads that floor: with
max|r| within _FLOOR_MULTIPLE of it no step can be shown to help, and the
solve stops as stagnated instead of halving the step twenty times. The
error names the floor twice: raw, and as eps*max(|J||f| / D), in the
units of tol.

Linear systems. SuperLU factors the Jacobian in single precision, and
every Newton system is solved in double by iterative refinement against
the current LU (_refine): from x = 0, x += M r, then r = rhs - J x, until
|r| <= 1e-8 |rhs|, where M applies the LU's triangular solves and the
Jacobian J is applied in float64 as nine stencil weight arrays, without
assembling it. This is mixed-precision refinement (Moler, J. ACM 14, 1967;
Carson & Higham, SIAM J. Sci. Comput. 40, 2018) inside inexact Newton
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), whose stop
test reads the true residual. One rule serves every system: while
refinement fails (a step does not shrink |r|, or 30 steps pass), the LU is
dropped, so at most one is in memory, and the Jacobian is factored afresh
in the current precision (GridSolution.factorizations counts them). When
fresh float32 factors fail, or gstrf finds the float32 matrix exactly
singular (weights beyond its range become inf), the precision is float64
for the rest of the solve; when fresh float64 factors fail, the solve
raises SolverError. Fresh float32 factors shrink |r| by 1e-5 to 2e-4 per
step (N = 63 to 255), so a system that factors takes two triangular
solves, and the first step against fresh float64 ones is the direct step;
near the solution the lagged LU of an earlier step is close to exact, and
a refinement step costs about a fifteenth of a factorization.

The linear systems number the interior nodes by geometric nested
dissection (George, SIAM J. Numer. Anal. 10, 1973): each block is split
at the middle line of its longer side and the line is numbered last.
SuperLU factors the Jacobian in that order without reordering columns,
which at N = 255 holds the L + U fill to 5.2 M entries where COLAMD on
the naturally numbered matrix reaches 9.1 M. The CSC pattern is built
once per solve over blocks of columns, from a table of 32-bit keys
16 row + k per block, one table row per column, each sorted along its 9
entries (so n stays below 2**27 unknowns); it keeps each entry's row and,
in one byte, its stencil k. Each Newton step computes the stencil weights
over row blocks, from the closed-form partials of the pointwise residual
(graph_pde._residual_partials) chained through the residual's own
stencils, whose coefficients it reads off _stencil_point on unit fields;
refinement applies the weights, and a failed full step reads its
rounding floor from them.
A factorization gathers them into the CSC data in its precision, over
blocks of entries whose positions it forms from each row's node and
stencil, and drops them: while SuperLU factors, the solve holds the
data, the pattern, the field and its residual, and builds the weights
again afterwards (one more pass over the partials, about 7 ms at
N = 255, next to a 136 ms float32 factorization).

The factorization is SuperLU (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM
J. Matrix Anal. Appl. 20, 1999) through scipy's compiled extension
`scipy.sparse.linalg._dsolve._superlu`, loaded by itself: the solver calls
its `gstrf` with the arguments
`splu(A, permc_spec="NATURAL", panel_size=1)` would pass, so the factors
are the same, and a solve imports no other scipy module (importing
`scipy.sparse.linalg` costs about 350 ms, most of it a numpy compatibility
layer the solver does not use). SuperLU factors a panel of adjacent
columns at a time with scratch arrays of n x panel width entries, about 1
MB per panel column at N = 255, which the factors never use. The peak
memory of the N = 255 solve is 78 MB (its process's VmHWM, 48 MB above
the interpreter with numpy and SuperLU loaded), held there by one-column
panels (scipy's default is 20; the fill is the same and the
factorization no slower), float32 factors, no float64 weights while
SuperLU factors, one byte of stencil index per entry in place of a
gather index, the pattern and the CSC data built over blocks, the
residual taken over row blocks, its buffer reused for the Newton
right-hand side, and refinement run without the previous Newton step.

_cmd_solve, at the end, is the CLI's `solve` command.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError, SolverError, StagnationError
from .graph_pde import _residual_partials, _residual_terms
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
# The line search stops as stagnated once a full step fails with the raw
# max|r| at most this multiple of its rounding floor (_rounding_floor).
_FLOOR_MULTIPLE = 2.0
# Every Newton system is refined against the current LU to this relative
# residual within this many steps (_refine), or factored anew.
_REFINE_RTOL = 1e-8
_REFINE_STEPS = 30


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
        if nx * ny >= 2**27:
            raise DomainError(f"{nx} x {ny} unknowns: the Jacobian pattern indexes fewer than 2**27")
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


class GridSolution(NamedTuple):
    """Converged nodal field with the final residual norms and history.

    residual_norm and residual_history hold max|r / D|, the residual over
    the positive divisor D = S(S - 2 b^2 w^2); raw_residual_norm is max|r|.
    """

    f: np.ndarray
    residual_norm: float
    iterations: int
    problem: GridProblem
    residual_history: list
    raw_residual_norm: float
    factorizations: int


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


# The residual and its partials each make about two dozen temporaries per
# node; in blocks of this many nodes each is 64 KB, which the allocator
# recycles from its heap and the cache holds, where grid-sized ones are
# mapped and page-faulted afresh on every call (N = 255 on a 2-vCPU VM:
# 12-18 ms a call to _stencil_weights in one pass, 5.5 ms in blocks).
# The Jacobian's pattern and CSC data are built over blocks of this many
# entries, for the same reason.
_BLOCK_NODES = 8192


def _stencil_blocks(problem: GridProblem, f: np.ndarray):
    """(interior row slice, _stencil_point of its rows) over blocks of rows
    of about _BLOCK_NODES nodes. Every stencil value is pointwise, so
    blocks give the same bits as one pass over the grid."""
    rows = max(1, _BLOCK_NODES // problem.ny)
    for i in range(0, problem.nx, rows):
        yield slice(i, i + rows), _stencil_point(problem, f[i : i + rows + 2])


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
    return _residual_and_norms(problem, f)[0]


def _residual_and_norms(problem: GridProblem, f: np.ndarray):
    """The residual r, the stop-test norm max|r / D| and the raw max|r|.

    D = S(S - 2 b^2 w^2) >= 4 - 4 b^2 is the positive divisor graph_pde
    factors out of the equation, here at w = 1, which _residual_terms
    returns beside r; r / D is the normalized elliptic form a : H (at b = 0 the minimal-surface operator over W^2),
    free of D's W^4 growth; assemble_residual returns r. It is taken over
    row blocks (_stencil_blocks). Overflowing data or a spacing whose
    square underflows make the norms nan or infinite, which the Newton
    loop checks for itself, so numpy's warnings about it are silenced.
    """
    r = np.empty((problem.nx, problem.ny))
    quotients, raws = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows, (f1, f2, h11, h12, h22) in _stencil_blocks(problem, f):
            part = r[rows]
            part[...], divisor = _residual_terms(f1, f2, h11, h12, h22, 0.0, 0.0, 1.0, problem.b)
            quotients.append(np.max(np.abs(part / divisor)))
            raws.append(np.max(np.abs(part)))
    # np.max, unlike Python's max, keeps a nan from any block
    return r, float(np.max(quotients)), float(np.max(raws))


_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
_LEAF_NODES = 16


def _number_boxes(boxes: list, ny: int, r0: int, r1: int, c0: int, c1: int):
    """Append to boxes the leaves and lines of block rows r0:r1, columns
    c0:c1, in dissection order (_dissection_order). A module function, not
    a closure: a closure that calls itself is a reference cycle, which
    under console_main's disabled collector would hold the boxes to the
    end of the process."""
    rows, cols = r1 - r0, c1 - c0
    if rows * cols <= _LEAF_NODES:
        boxes.extend((r0 * ny + c0, rows, cols))
    elif rows >= cols:
        m = r0 + rows // 2
        _number_boxes(boxes, ny, r0, m, c0, c1)
        _number_boxes(boxes, ny, m + 1, r1, c0, c1)
        boxes.extend((m * ny + c0, 1, cols))
    else:
        m = c0 + cols // 2
        _number_boxes(boxes, ny, r0, r1, c0, m)
        _number_boxes(boxes, ny, r0, r1, m + 1, c1)
        boxes.extend((r0 * ny + m, rows, 1))


def _dissection_order(nx: int, ny: int) -> np.ndarray:
    """Natural index i*ny + j of each interior node, in nested-dissection order.

    A block is split at the middle grid line of its longer side; both
    halves are numbered first, then that line. The 9-point stencil only
    couples nodes at most one line apart, so the line separates the
    halves and the LU factors of each half never fill into the other.
    Blocks of at most _LEAF_NODES nodes keep natural order. The recursion
    passes block bounds and records each leaf and line as a box (first
    natural index, rows, columns); one array pass expands the boxes.
    """
    boxes = []
    _number_boxes(boxes, ny, 0, nx, 0, ny)
    first, rows, cols = np.array(boxes, dtype=np.int64).reshape(-1, 3).T
    sizes = rows * cols
    box = np.repeat(np.arange(sizes.size), sizes)
    i, j = np.divmod(np.arange(nx * ny) - np.repeat(np.cumsum(sizes) - sizes, sizes), cols[box])
    return first[box] + i * ny + j


class _JacobianPattern(NamedTuple):
    """CSC structure of the Jacobian in dissection numbering, built once per solve.

    Unknown p of the linear system is interior node order[p] (natural
    index). Entry e of the CSC data is weights[stencil[e]] at node
    order[indices[e]], the row's node: its position in the stacked
    (9, nx*ny) stencil weights is order[indices[e]] + stencil[e] * nx*ny,
    which _csc_data forms block by block. Row indices are sorted within
    each column and unique. `order`, `indices` and `indptr` are C ints, as
    SuperLU takes the last two, and `stencil` holds one byte per entry.
    """

    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    stencil: np.ndarray

    @classmethod
    def build(cls, nx: int, ny: int) -> _JacobianPattern:
        """Column p holds, as rows, the dissection positions of the nodes
        m - offset_k whose stencil k reaches node m = order[p]. Over blocks
        of _BLOCK_NODES // 9 columns, a (block, 9) table keys column p's
        entries as 16 * row + k, and as 16 n + k where node m - offset_k
        lies outside the grid; sorting each table row along its 9 keys puts
        the rows in order and the outside keys last. The keys are C ints,
        which hold them while 16 n < 2**31, that is for fewer than 2**27
        unknowns, as GridProblem requires. Each axis has 3 n_axis - 2 pairs
        of a node and an offset that stays in the grid, so the pattern has
        (3 nx - 2)(3 ny - 2) entries."""
        n = nx * ny
        order = _dissection_order(nx, ny).astype(np.intc)
        # 16 * dissection position of each node, 16 n on the boundary ring
        key = np.full((nx + 2, ny + 2), 16 * n, dtype=np.intc)
        key[1:-1, 1:-1].flat[order] = np.arange(0, 16 * n, 16, dtype=np.intc)
        key = key.ravel()
        # from a node's place in `key` to that of node - offset_k
        shifts = np.array([-a * (ny + 2) - c for a, c in _OFFSETS])
        indices = np.empty((3 * nx - 2) * (3 * ny - 2), dtype=np.intc)
        stencil = np.empty(indices.size, dtype=np.uint8)
        indptr = np.zeros(n + 1, dtype=np.intc)
        end, block = 0, max(1, _BLOCK_NODES // 9)
        for p in range(0, n, block):
            i, j = np.divmod(order[p : p + block], ny)
            table = key[((i + 1) * (ny + 2) + j + 1)[:, None] + shifts]
            table += np.arange(9, dtype=np.intc)
            table.sort(axis=1)
            inside = table < 16 * n
            indptr[p + 1 : p + 1 + len(table)] = np.count_nonzero(inside, axis=1)
            keys = table[inside]
            indices[end : end + keys.size] = keys >> 4
            stencil[end : end + keys.size] = keys & 15
            end += keys.size
        np.cumsum(indptr, out=indptr)
        return cls(order, indices, indptr, stencil)


def _stencil_weights(problem: GridProblem, f: np.ndarray) -> np.ndarray:
    """Jacobian entries as (9, nx, ny) arrays: weights[k][i, j] is
    d r[i, j] / d f[i + a, j + c] for (a, c) = _OFFSETS[k], interior indices.

    The chain rule runs through _stencil_point's own stencils: on the nine
    unit 3 x 3 fields (unit field k is 1 at _OFFSETS[k]) it returns
    coeffs[q, k], the weight of stencil value q at offset k, and weights[k]
    sums each partial times its non-zero coeffs[q, k], in the order f1, f2,
    h11, h12, h22. The partials are taken over row blocks (_stencil_blocks).
    """
    coeffs = np.reshape(_stencil_point(problem, np.eye(9).reshape(3, 3, 9)), (5, 9))
    weights = np.zeros((9, problem.nx, problem.ny))
    for rows, point in _stencil_blocks(problem, f):
        partials = _residual_partials(*point, problem.b)
        for w, column in zip(weights[:, rows], coeffs.T):
            for d, c in zip(partials, column):
                if c:
                    w += d * c
    return weights


def _apply_stencil(weights, field: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * field shifted by _OFFSETS[k], at the interior nodes,
    added in the order of k.

    field has the boundary ring, shape (nx + 2, ny + 2); weights is the
    (9, nx, ny) array of _stencil_weights or any iterable of its nine
    (nx, ny) planes. With a field zero on the ring this is the Jacobian
    times the field's interior values.
    """
    nx, ny = field.shape[0] - 2, field.shape[1] - 2
    out = np.zeros((nx, ny))
    for w, (a, c) in zip(weights, _OFFSETS):
        out += w * field[1 + a : 1 + a + nx, 1 + c : 1 + c + ny]
    return out


def _rounding_floor(weights: np.ndarray, f: np.ndarray, divisor=1.0) -> float:
    """eps * max(|J| |f| / divisor): with divisor 1, the rounding error of
    the raw residual at f, the level below which no step can be shown to
    reduce max|r|; with the stop test's divisors D (one per interior
    node), that floor in the units of tol. |J| is taken one stencil plane
    at a time, so no second (9, nx, ny) array is held."""
    planes = (np.abs(w) for w in weights)
    return float(np.finfo(float).eps * np.max(_apply_stencil(planes, np.abs(f)) / divisor))


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


def _csc_data(weights: np.ndarray, pattern: _JacobianPattern, dtype) -> np.ndarray:
    """The Jacobian's CSC data in precision dtype: the stacked stencil
    weights at positions order[indices] + stencil * nx*ny (_JacobianPattern),
    formed and cast over blocks of _BLOCK_NODES entries, with the cast's
    overflow warning silenced (the module docstring says what an inf leads
    to)."""
    n = pattern.order.size
    flat = weights.reshape(-1)
    data = np.empty(pattern.indices.size, dtype=dtype)
    with np.errstate(over="ignore"):
        for s in range(0, data.size, _BLOCK_NODES):
            block = slice(s, s + _BLOCK_NODES)
            at = pattern.order[pattern.indices[block]]
            at += np.multiply(pattern.stencil[block], n, dtype=np.intc)
            data[block] = np.take(flat, at)
    return data


def _factor(data: np.ndarray, pattern: _JacobianPattern):
    """SuperLU factors, in the precision of data, of the Jacobian with these
    CSC data (_csc_data).

    The ordering is the pattern's dissection numbering, so SuperLU is told
    not to reorder columns, and it factors one column per panel to keep its
    workspace small (the module docstring): these are the options
    splu(permc_spec="NATURAL", panel_size=1) passes to the same routine.
    """
    options = dict(ColPerm="NATURAL", SymmetricMode=True, DiagPivotThresh=None, PanelSize=1, Relax=None)
    return _superlu().gstrf(
        pattern.order.size,
        data.size,
        data,
        pattern.indices,
        pattern.indptr,
        csc_construct_func=_csc_array,
        ilu=False,
        options=options,
    )


def _lu_solve(lu, order: np.ndarray, v: np.ndarray, dtype) -> np.ndarray:
    """A^-1 v in float64 for v in natural numbering, with lu the factors of A
    in precision dtype and the dissection numbering `order`; v is rounded to
    dtype first."""
    x = np.empty(v.size)
    x[order] = lu.solve(v[order].astype(dtype, copy=False))
    return x


def _refine(matvec, precondition, rhs: np.ndarray):
    """x with |rhs - A x| <= _REFINE_RTOL |rhs| by iterative refinement
    (Golub & Van Loan, Matrix Computations, 3.5.3): from x = 0, x += M r,
    then r = rhs - A x, where matvec applies A and precondition M ~ A^-1.
    None as soon as a step fails to shrink |r| (a nan does), or after
    _REFINE_STEPS steps."""
    x = np.zeros(rhs.size)
    r, norm = rhs, float(np.linalg.norm(rhs))
    goal = _REFINE_RTOL * norm
    for _ in range(_REFINE_STEPS):
        x += precondition(r)
        r = rhs - matvec(x)
        last, norm = norm, float(np.linalg.norm(r))
        if norm <= goal:
            return x
        if not norm < last:
            return None
    return None


def _initial_field(problem: GridProblem) -> np.ndarray:
    # Transfinite bilinear blend of the boundary data, which is sampled
    # exactly on the ring; exact on affine data, which removes iteration
    # noise from the planarity test. Data near the float limit overflow it;
    # the solver reports the non-finite residual.
    xs, ys, edge = problem.xs(), problem.ys(), problem.boundary
    left = np.array([edge(xs[0], y) for y in ys])
    right = np.array([edge(xs[-1], y) for y in ys])
    bottom = np.array([edge(x, ys[0]) for x in xs])
    top = np.array([edge(x, ys[-1]) for x in xs])
    u = np.linspace(0.0, 1.0, xs.size)[:, None]
    v = np.linspace(0.0, 1.0, ys.size)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        blend = (1 - u) * left + u * right + (1 - v) * bottom[:, None] + v * top[:, None]
        blend -= (
            (1 - u) * (1 - v) * left[0]
            + u * (1 - v) * right[0]
            + (1 - u) * v * left[-1]
            + u * v * right[-1]
        )
    blend[0], blend[-1], blend[:, 0], blend[:, -1] = left, right, bottom, top
    return blend


def solve_minimal_graph(problem: GridProblem, tol: float = 1e-10, max_iter: int = 30) -> GridSolution:
    """Damped Newton iteration, from the bilinear blend of the boundary
    data, until max|r / D| (the module docstring) drops to tol.

    Newton systems: the module docstring's rule. Line search: Armijo
    backtracking on max|r| down to step 2**-20. StagnationError below that
    step, or when a full step fails within _FLOOR_MULTIPLE of the rounding
    floor; NonConvergenceError past max_iter; SolverError on a non-finite
    initial residual or a Newton system fresh float64 factors cannot solve;
    each carries the residual history. MemoryError, naming the precision
    and the number of unknowns, when SuperLU cannot allocate the factors.
    DomainError unless 0 < tol < inf and max_iter >= 0."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol} must be positive and finite")
    if max_iter < 0:
        raise DomainError(f"max_iter={max_iter} must be >= 0")
    f = _initial_field(problem)
    r, res, raw = _residual_and_norms(problem, f)
    history = [res]
    # `res > tol` is false for nan. Later residuals are finite: the line
    # search accepts a step only below a finite bound.
    if not (math.isfinite(res) and math.isfinite(raw)):
        raise SolverError(f"initial residual max-norm is {raw}", history)
    if res > tol:
        pattern = _JacobianPattern.build(problem.nx, problem.ny)
        # matvec's argument inside a zero boundary ring
        ring = np.zeros((problem.nx + 2, problem.ny + 2))
    factorizations = 0
    lu, dtype = None, np.float32
    while res > tol:
        if len(history) > max_iter:
            raise NonConvergenceError(
                f"residual {res:.3e} above tol={tol} after {max_iter} Newton steps",
                history,
            )
        # the last step's weights and step go before this step's are built
        weights = delta = None
        weights = _stencil_weights(problem, f)
        rhs = np.negative(r, out=r).ravel()

        def matvec(v):
            ring[1:-1, 1:-1] = v.reshape(r.shape)
            return _apply_stencil(weights, ring).ravel()

        def precondition(v):
            return _lu_solve(lu, pattern.order, v, dtype)

        delta = None if lu is None else _refine(matvec, precondition, rhs)
        while delta is None:
            # Drop the old factors first: at most one LU is in memory. While
            # SuperLU factors, only the CSC data stand for the Jacobian; the
            # float64 weights are built again for refinement.
            lu = None
            data = _csc_data(weights, pattern, dtype)
            weights = None
            try:
                lu = _factor(data, pattern)
            except RuntimeError:  # gstrf: exactly singular
                pass
            except MemoryError as exc:
                raise MemoryError(
                    f"the {np.dtype(dtype)} LU factors of the {pattern.order.size}-unknown Jacobian "
                    "do not fit in memory"
                ) from exc
            data = None
            weights = _stencil_weights(problem, f)
            if lu is not None:
                factorizations += 1
                delta = _refine(matvec, precondition, rhs)
            if delta is None:
                if dtype is np.float64:
                    raise SolverError(
                        f"fresh float64 factors fail on the Newton system at residual {res:.3e}", history
                    )
                dtype = np.float64  # not even fresh float32 factors serve
        delta = delta.reshape(r.shape)
        lam = 1.0
        while True:
            f_try = f.copy()
            f_try[1:-1, 1:-1] += lam * delta
            r_try, res_try, raw_try = _residual_and_norms(problem, f_try)
            # Armijo on the raw max|r|: delta is a Newton direction for r,
            # not for r / D, whose divisor moves with f.
            if res_try <= tol or raw_try <= (1.0 - _ARMIJO_SLOPE * lam) * raw:
                break
            if lam == 1.0:
                # A full step failed: below the floor no step can be shown
                # to reduce max|r|, so backtracking would only sample noise.
                floor = _rounding_floor(weights, f)
            lam *= 0.5
            if raw <= _FLOOR_MULTIPLE * floor or lam < _MIN_STEP:
                divisor = _residual_terms(*_stencil_point(problem, f), 0.0, 0.0, 1.0, problem.b)[1]
                floor_tol = _rounding_floor(weights, f, divisor)
                raise StagnationError(
                    f"line search stalled at residual {res:.3e} (raw max-norm {raw:.3e}, "
                    f"rounding floor eps*max(|J||f|) = {floor:.3e}, "
                    f"eps*max(|J||f| / D) = {floor_tol:.3e})",
                    history,
                )
        f, r, res, raw = f_try, r_try, res_try, raw_try
        history.append(res)
    return GridSolution(
        f=f,
        residual_norm=res,
        iterations=len(history) - 1,
        problem=problem,
        residual_history=history,
        raw_residual_norm=raw,
        factorizations=factorizations,
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


# ---------------------------------------------------------------------------
# CLI command: solve


def _boundary_callable(spec: str, domain):
    if spec == "zero":
        return lambda x, y: 0.0
    if spec.startswith("affine:"):
        try:
            c0, cx, cy = (float(v) for v in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise DomainError(f"bad affine boundary spec {spec!r}") from exc
        if not all(map(math.isfinite, (c0, cx, cy))):
            raise DomainError(f"affine boundary coefficients in {spec!r} must be finite")
        return lambda x, y: c0 + cx * x + cy * y
    if spec == "scherk":
        x0, x1, y0, y1 = domain
        lim = math.pi / 2
        if not (-lim < x0 and x1 < lim and -lim < y0 and y1 < lim):
            raise DomainError(
                "scherk boundary data requires the domain inside (-pi/2, pi/2)^2"
            )
        return lambda x, y: math.log(math.cos(x)) - math.log(math.cos(y))
    raise DomainError(f"unknown boundary spec {spec!r}")


def _check_writable(path):
    """DomainError unless a file can be created or replaced at path."""
    folder = os.path.dirname(path) or os.curdir
    if not path:
        problem = "the path is empty"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"there is no directory {folder!r}"
    elif not os.access(folder, os.W_OK):
        problem = f"directory {folder!r} is not writable"
    else:
        return
    raise DomainError(f"--out {path!r} cannot be written: {problem}")


def _cmd_solve(args):
    """(record, exit code) of one Dirichlet solve; with --out, the grid is
    written by the CLI's grid-file writer."""
    if len(args.b) != 1:
        raise DomainError("solve takes exactly one b value")
    if args.out is not None:
        # checked before the solve, which may take seconds
        _check_writable(args.out)
    b = args.b[0]
    problem = GridProblem(
        domain=args.domain,
        nx=args.nx,
        ny=args.ny,
        b=b,
        boundary=_boundary_callable(args.boundary, args.domain),
    )
    sol = solve_minimal_graph(problem, tol=args.tol, max_iter=args.max_iter)
    record = {
        "b": b,
        "euclidean_degeneration": b == 0.0,
        "domain": args.domain,
        "nx": args.nx,
        "ny": args.ny,
        "boundary": args.boundary,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "raw_residual_norm": sol.raw_residual_norm,
        "factorizations": sol.factorizations,
        "planarity_deviation": planarity_deviation(sol),
        "out": args.out,
    }
    if args.out is not None:
        from .cli import write_grid_csv

        try:
            write_grid_csv(args.out, problem.xs(), problem.ys(), sol.f)
        except OSError as exc:
            raise DomainError(f"--out {args.out!r} cannot be written: {exc.strerror}") from exc
    return record, 0
