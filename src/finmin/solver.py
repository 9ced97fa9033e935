"""Finite-difference Newton solver for the minimal-graph equation on a
rectangle with Dirichlet data.

Second-order central differences on a uniform tensor grid (5-point
Laplacian stencil plus the symmetric 4-point cross difference) and damped
Newton with an Armijo line search. Because the discrete residual at an
interior node is the pointwise graph equation on stencil-derived gradient
and Hessian values, affine fields are exact discrete solutions for every
admissible b; the solver therefore reproduces the planarity rigidity at
desk scale.

The iteration stops when max|r / D| <= tol, where r is the residual and
D = S(S - 2 b^2 w^2) the positive divisor graph_pde factors out of the
equation (graph_pde._divisor_excess). r / D is the normalized elliptic
form a : H, so tol means the same at every gradient size, while the raw
max|r| carries D's W^4 and a rounding floor eps*max(|J||f|) that exceeds
1e-10 on fine grids (5.2e-10 at N = 255). The line search keeps the raw
max|r| as its merit function: the Newton direction is a descent direction
for it, and not always for the quotient, whose weights move with f. When
a full step fails, the line search reads that floor: with max|r| within
_FLOOR_MULTIPLE of it no step can be shown to help, and the solve stops
as stagnated instead of halving the step twenty times.

Linear systems. The first Newton step factors the Jacobian with SuperLU
and solves directly. Each later step solves its system by GMRES (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) to relative residual 1e-8,
right-preconditioned by that LU; the Jacobian is applied as nine stencil
weight arrays, without assembling it. This is inexact Newton (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): near the solution
GMRES needs 2 to 6 steps, each a triangular solve, where a factorization
costs as much as about twenty. Givens rotations update the Hessenberg
least-squares problem as each step arrives (Saad, Iterative Methods for
Sparse Linear Systems, 2003, 6.5), and GMRES keeps each preconditioned
vector M^-1 v_k it computes, at most one more vector of n doubles per
step, so its solution needs no closing triangular solve. If GMRES misses
within 30 steps the Jacobian is factored anew; the old LU is dropped
first, so at most one is in memory. GridSolution.factorizations counts
the factorizations.

The linear systems number the interior nodes by geometric nested
dissection (George, SIAM J. Numer. Anal. 10, 1973): each block is split
at the middle line of its longer side and the line is numbered last.
SuperLU factors the Jacobian in that order without reordering columns,
which at N = 255 holds the L + U fill to 5.2 M entries where COLAMD on
the naturally numbered matrix reaches 9.1 M. The CSC index arrays are
built once per solve, from an (n, 9) table of 32-bit keys 16 row + k,
one table row per column, each sorted along its 9 entries (so n stays
below 2**27 unknowns). Each Newton step computes the stencil weights
once, from partials taken by a hand-written forward-mode pass over row
blocks; GMRES applies them, a factorization gathers them into the index
arrays, and a failed full step reads its rounding floor from them.

The factorization is SuperLU (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM
J. Matrix Anal. Appl. 20, 1999) through scipy's compiled extension
`scipy.sparse.linalg._dsolve._superlu`, loaded by itself: the solver calls
its `gstrf` with the arguments
`splu(A, permc_spec="NATURAL", panel_size=1)` would pass, so the factors
are the same, and a solve imports no other scipy module (importing
`scipy.sparse.linalg` costs about 350 ms, most of it a numpy compatibility
layer the solver does not use). SuperLU factors a panel of adjacent
columns at a time with scratch arrays of n x panel width entries, about 1
MB per panel column at N = 255, which the factors never use. One-column
panels, where scipy's default is 20, take the peak memory of the N = 255
solve from 128 to 112 MB with the same fill and no slower factorization;
the factors differ from the default's in rounding only.

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
from .graph_pde import _divisor_excess, _residual_terms
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
# Newton systems after the first are solved by GMRES to this relative
# residual, preconditioned by the last LU; the Jacobian is factored anew
# only when GMRES misses it within the step budget.
_GMRES_RTOL = 1e-8
_GMRES_STEPS = 30


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
    """Converged nodal field with the final residual norms and history.

    residual_norm and residual_history hold max|r / D|, the residual over
    the positive divisor D = S(S - 2 b^2 w^2); raw_residual_norm is max|r|.
    """

    f: np.ndarray
    residual_norm: float
    iterations: int
    problem: GridProblem
    residual_history: list
    raw_residual_norm: float = math.nan
    factorizations: int = 0


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


def _residual_and_norms(problem: GridProblem, f: np.ndarray):
    """The residual r, the stop-test norm max|r / D| and the raw max|r|.

    D = S(S - 2 b^2 w^2) >= 4 - 4 b^2 is the positive divisor graph_pde
    factors out of the equation, here at w = 1; r / D is the normalized
    elliptic form a : H (at b = 0 the minimal-surface operator over W^2),
    free of D's W^4 growth. r is assemble_residual's, from one pass over
    the stencils. Overflowing data or a spacing whose square underflows
    make the norms nan or infinite, which the Newton loop checks for
    itself, so numpy's warnings about it are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f1, f2, h11, h12, h22 = _stencil_point(problem, f)
        r = _residual_terms(f1, f2, h11, h12, h22, 0.0, 0.0, 1.0, problem.b)
        divisor = _divisor_excess(1.0 + f1 * f1 + f2 * f2, 1.0, problem.b**2)[0]
        return r, float(np.max(np.abs(r / divisor))), float(np.max(np.abs(r)))


def _point_partials(problem: GridProblem, f: np.ndarray):
    """d(residual)/d(f1, f2, h11, h12, h22) at every interior node, shape (5, nx, ny).

    One hand-written forward-mode pass through graph_pde._residual_terms
    at the frame row k = (0, 0, 1). The residual is linear in the Hessian,
    so its three Hessian partials are the coefficients

        D (delta - f f^T / W^2) + X W^2 u u^T,   (D, X) = _divisor_excess,

    with the off-diagonal doubled. The gradient partials carry one
    derivative channel per seed f1, f2 through the same operations, in the
    order a dual.Dual pass makes them, so that all five are bit for bit
    what dual.gradient over the five stencil values gives, signed zeros
    included. Where the stencil values are finite, w = 1 - 0 f1 - 0 f2 is
    exactly 1 and its derivative -0.0, and the operations on those
    constants are folded.
    """
    f1, f2, h11, h12, h22 = _stencil_point(problem, f)
    b2 = problem.b * problem.b
    f11, f22 = f1 * f1, f2 * f2
    w2 = 1.0 + f11 + f22
    # _divisor_excess at w = 1
    s = (2.0 + b2) * w2 - b2
    t = s - 2.0 * b2
    divisor = s * t
    excess = 2.0 * b2 * (s + 4.0 * b2)
    p12 = 2.0 * f1 * f2
    quotient = (f11 * h11 + p12 * h12 + f22 * h22) / w2
    hform = (h11 + h22) - quotient
    g1, g2 = f1 / w2, f2 / w2
    u1, u2 = 0.0 + g1, 0.0 + g2
    u11, u12, u22 = u1 * u1, 2.0 * u1 * u2, u2 * u2
    uform = u11 * h11 + u12 * h12 + u22 * h22
    scale = excess * w2
    out = np.empty((5,) + f1.shape)
    df1, df2 = f1 + f1, f2 + f2
    # Per seed f1, f2: d(W^2); h_1, h_2 with d(f^T H f)/d(seed) =
    # 2 f1 h_1 + 2 f2 h_2; and d(w f_j)/d(seed), which is 1 for the seeded
    # f_j and -0.0 f_j for the other.
    for c, (d_w2, h_1, h_2, a1, a2) in enumerate(
        ((df1, h11, h12, 1.0, -0.0 * f2), (df2, h12, h22, -0.0 * f1, 1.0))
    ):
        # + 0.0 is the dual pass's - (-0.0), which turns -0.0 into +0.0
        d_s = d_w2 * (2.0 + b2) + 0.0
        d_divisor = s * d_s + d_s * t
        d_excess = d_s * (2.0 * b2)
        d_hform = -1.0 * ((df1 * h_1 + df2 * h_2 - quotient * d_w2) / w2)
        d_u1 = (a1 - g1 * d_w2) / w2
        d_u2 = (a2 - g2 * d_w2) / w2
        d_u11 = u1 * d_u1
        d_uform = (
            (d_u11 + d_u11) * h11
            + ((u1 * 2.0) * d_u2 + (d_u1 * 2.0) * u2) * h12
            + (u2 * d_u2 + d_u2 * u2) * h22
        )
        d_scale = excess * d_w2 + d_excess * w2
        out[c] = (divisor * d_hform + d_divisor * hform) + (scale * d_uform + d_scale * uform)
    out[2] = (1.0 - f11 / w2) * divisor + u11 * scale
    out[3] = -(p12 / w2) * divisor + u12 * scale
    out[4] = (1.0 - f22 / w2) * divisor + u22 * scale
    return out


_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
_LEAF_NODES = 16
# The partials make dozens of temporaries per node; in blocks of this many
# nodes each is 64 KB, which the allocator recycles from its heap and the
# cache holds, where grid-sized ones are mapped and page-faulted afresh on
# every call (N = 255 on a 2-vCPU VM: 30 ms a call in one pass, 12 ms in
# blocks).
_BLOCK_NODES = 8192


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

    def number(r0, r1, c0, c1):
        rows, cols = r1 - r0, c1 - c0
        if rows * cols <= _LEAF_NODES:
            boxes.extend((r0 * ny + c0, rows, cols))
        elif rows >= cols:
            m = r0 + rows // 2
            number(r0, m, c0, c1)
            number(m + 1, r1, c0, c1)
            boxes.extend((m * ny + c0, 1, cols))
        else:
            m = c0 + cols // 2
            number(r0, r1, c0, m)
            number(r0, r1, m + 1, c1)
            boxes.extend((r0 * ny + m, rows, 1))

    number(0, nx, 0, ny)
    first, rows, cols = np.array(boxes, dtype=np.int64).reshape(-1, 3).T
    sizes = rows * cols
    box = np.repeat(np.arange(sizes.size), sizes)
    i, j = np.divmod(np.arange(nx * ny) - np.repeat(np.cumsum(sizes) - sizes, sizes), cols[box])
    return first[box] + i * ny + j


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
        """Column p holds, as rows, the dissection positions of the nodes
        m - offset_k whose stencil k reaches node m = order[p]. An (n, 9)
        table keys column p's entries as 16 * row + k, and as 16 n + k where
        node m - offset_k lies outside the grid; sorting each table row
        along its 9 keys puts the rows in order and the outside keys last.
        The keys are C ints, which hold them while 16 n < 2**31, that is
        for fewer than 2**27 unknowns; `gather` is int64."""
        n = nx * ny
        if n >= 2**27:
            raise DomainError(f"{nx} x {ny} unknowns: the Jacobian pattern indexes fewer than 2**27")
        order = _dissection_order(nx, ny)
        # 16 * dissection position of each node, 16 n on the boundary ring
        key = np.full((nx + 2, ny + 2), 16 * n, dtype=np.intc)
        key[1:-1, 1:-1].flat[order] = np.arange(0, 16 * n, 16, dtype=np.intc)
        table = np.empty((nx, ny, 9), dtype=np.intc)
        for k, (a, c) in enumerate(_OFFSETS):
            np.add(key[1 - a : 1 - a + nx, 1 - c : 1 - c + ny], k, out=table[:, :, k])
        table = table.reshape(n, 9)[order]
        table.sort(axis=1)
        inside = table < 16 * n
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.count_nonzero(inside, axis=1), out=indptr[1:])
        keys = table[inside]
        indices = keys >> 4
        gather = order[indices]
        gather += (keys & 15) * n
        return cls(order, gather, indices, indptr)


def _stencil_weights(problem: GridProblem, f: np.ndarray) -> np.ndarray:
    """Jacobian entries as (9, nx, ny) arrays: weights[k][i, j] is
    d r[i, j] / d f[i + a, j + c] for (a, c) = _OFFSETS[k], interior indices.

    The partials are taken over blocks of rows of about _BLOCK_NODES nodes;
    every value is pointwise, so the blocks give the same bits as one pass.
    """
    hx, hy = problem.hx, problem.hy
    nx, ny = problem.nx, problem.ny
    weights = np.zeros((9, nx, ny))
    rows = max(1, _BLOCK_NODES // ny)
    for i in range(0, nx, rows):
        d_f1, d_f2, d_h11, d_h12, d_h22 = _point_partials(problem, f[i : i + rows + 2])
        # chain rule: d(stencil value)/d f[neighbor] for each derived quantity
        for w, (a, c) in zip(weights[:, i : i + rows], _OFFSETS):
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
    return weights


def _apply_stencil(weights: np.ndarray, field: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * field shifted by _OFFSETS[k], at the interior nodes.

    field has the boundary ring, shape (nx + 2, ny + 2); with the weights
    of _stencil_weights and a field zero on the ring this is the Jacobian
    times the field's interior values.
    """
    nx, ny = weights.shape[1:]
    out = np.zeros((nx, ny))
    for w, (a, c) in zip(weights, _OFFSETS):
        out += w * field[1 + a : 1 + a + nx, 1 + c : 1 + c + ny]
    return out


def _rounding_floor(weights: np.ndarray, f: np.ndarray) -> float:
    """eps * max(|J| |f|): the rounding error of the raw residual at f, the
    level below which no step can be shown to reduce max|r|."""
    return float(np.finfo(float).eps * np.max(_apply_stencil(np.abs(weights), np.abs(f))))


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


def _newton_step(weights: np.ndarray, r: np.ndarray, pattern: _JacobianPattern):
    """Newton direction at the interior nodes, shape (nx, ny), and the SuperLU factors.

    The direct step, taken at the first Newton step and whenever GMRES
    misses: the stencil weights of the current field are gathered into the
    Jacobian's CSC data, in the order of pattern.indices, which is factored
    and solved. The ordering is the pattern's dissection numbering, so
    SuperLU is told not to reorder columns, and it factors one column per
    panel to keep its workspace small (the module docstring): these are
    the options splu(permc_spec="NATURAL", panel_size=1) passes to the
    same routine.
    """
    data = weights.ravel()[pattern.gather]
    options = dict(ColPerm="NATURAL", SymmetricMode=True, DiagPivotThresh=None, PanelSize=1, Relax=None)
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
    return _lu_solve(lu, pattern.order, -r.ravel()).reshape(r.shape), lu


def _lu_solve(lu, order: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A^-1 v for v in natural numbering, with lu the factors of A in the
    dissection numbering `order`."""
    x = np.empty(v.size)
    x[order] = lu.solve(v[order])
    return x


def _gmres(matvec, precondition, rhs: np.ndarray):
    """(x, estimate) with |rhs - A x| <= _GMRES_RTOL |rhs| by
    right-preconditioned GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput.
    7, 1986); None if _GMRES_STEPS steps do not reach it.

    matvec applies A and precondition M^-1. Modified Gram-Schmidt Arnoldi
    builds an orthonormal basis V of the Krylov space of A M^-1 and the
    Hessenberg matrix H with A M^-1 V_k = V_k+1 H. Givens rotations reduce
    H to upper triangular R as its columns arrive, so |beta e1 - H y| is
    known at every step without solving for y (Saad, Iterative Methods for
    Sparse Linear Systems, 2003, 6.5.3); that is `estimate`, the residual
    of x in exact arithmetic. The preconditioned vectors z_k = M^-1 v_k
    are kept, at most one more vector of rhs.size doubles per step, so x
    = Z y needs no closing solve with M.
    """
    beta = float(np.linalg.norm(rhs))
    basis = np.empty((_GMRES_STEPS + 1, rhs.size))
    search = np.empty((_GMRES_STEPS, rhs.size))
    triangle = np.zeros((_GMRES_STEPS, _GMRES_STEPS))
    rotations = []
    g = [beta]
    basis[0] = rhs / beta
    for k in range(_GMRES_STEPS):
        search[k] = precondition(basis[k])
        w = matvec(search[k])
        h = np.empty(k + 2)
        for i in range(k + 1):
            h[i] = basis[i] @ w
            w -= h[i] * basis[i]
        h[k + 1] = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = math.hypot(h[k], h[k + 1])
        c, s = h[k] / rho, h[k + 1] / rho
        rotations.append((c, s))
        h[k] = rho
        triangle[: k + 1, k] = h[: k + 1]
        g[k], g_next = c * g[k], -s * g[k]
        if abs(g_next) <= _GMRES_RTOL * beta:
            y = np.linalg.solve(triangle[: k + 1, : k + 1], g)
            return search[: k + 1].T @ y, abs(g_next)
        g.append(g_next)
        basis[k + 1] = w / h[k + 1]
    return None


def _initial_field(problem: GridProblem, kind: str) -> np.ndarray:
    f = problem.boundary_field()
    if kind == "flat":
        return f
    if kind != "boundary-blend":
        raise DomainError(f"unknown initial guess {kind!r}")
    # Transfinite bilinear blend of the boundary ring; exact on affine data,
    # which removes iteration noise from the planarity test. Data near the
    # float limit overflow it; the solver reports the non-finite residual.
    nx, ny = problem.nx, problem.ny
    u = np.linspace(0.0, 1.0, nx + 2)[:, None]
    v = np.linspace(0.0, 1.0, ny + 2)[None, :]
    left, right = f[0, :][None, :], f[-1, :][None, :]
    bottom, top = f[:, 0][:, None], f[:, -1][:, None]
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Damped Newton iteration until max|r / D| (the module docstring) drops
    to tol.

    The Jacobian couples each node to its compact 9-point neighborhood and
    is built from exact forward-mode partials (bit for bit those of dual
    numbers) chained through the stencil weights. It is factored in nested-dissection order at the first step;
    later steps run GMRES preconditioned by that LU and factor anew only
    when GMRES misses its tolerance. Line search: Armijo backtracking on
    max|r| with factor 1/2 down to step 2**-20; StagnationError, naming
    the rounding floor of max|r|, is raised below that step, or at once
    when a full step fails with max|r| within _FLOOR_MULTIPLE of the
    floor; exceeding max_iter raises
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
    r, res, raw = _residual_and_norms(problem, f)
    history = [res]
    # `res > tol` is false for nan. Later residuals are finite: the line
    # search accepts a step only below a finite bound.
    if not (math.isfinite(res) and math.isfinite(raw)):
        raise SolverError(f"initial residual max-norm is {raw}", history)
    if res > tol:
        pattern = _JacobianPattern.build(problem.nx, problem.ny)
    iterations = factorizations = 0
    lu = None
    while res > tol:
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"residual {res:.3e} above tol={tol} after {max_iter} Newton steps",
                history,
            )
        weights = _stencil_weights(problem, f)
        solved = None
        if lu is not None:
            solved = _gmres(
                lambda v: _apply_stencil(weights, np.pad(v.reshape(r.shape), 1)).ravel(),
                lambda v: _lu_solve(lu, pattern.order, v),
                -r.ravel(),
            )
        if solved is None:
            # Drop the old factors first: at most one LU is in memory.
            lu = None
            delta, lu = _newton_step(weights, r, pattern)
            factorizations += 1
        else:
            delta = solved[0].reshape(r.shape)
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
                raise StagnationError(
                    f"line search stalled at residual {res:.3e} (raw max-norm {raw:.3e}, "
                    f"rounding floor eps*max(|J||f|) = {floor:.3e})",
                    history,
                )
        f, r, res, raw = f_try, r_try, res_try, raw_try
        history.append(res)
        iterations += 1
    return GridSolution(
        f=f,
        residual_norm=res,
        iterations=iterations,
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
    if os.path.isdir(path):
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
    if args.out:
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
    if args.out:
        from .cli import write_grid_csv

        try:
            write_grid_csv(args.out, problem.xs(), problem.ys(), sol.f)
        except OSError as exc:
            raise DomainError(f"--out {args.out!r} cannot be written: {exc.strerror}") from exc
    return record, 0
