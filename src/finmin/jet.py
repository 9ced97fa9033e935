"""Jet-level geometry of immersed surfaces in the slope-metric 3-space.

Everything is built from a first-order jet z, the 3x2 matrix of ambient
partials of an immersion. The induced area density is

    F(z) = 2*C**3 / (2*C**2 + E),   C = sqrt(det A),   A = z^T z,

where the anisotropy scalar

    E = b**2 * sum_k (z[k,0]*z[2,1] - z[k,1]*z[2,0])**2
      = b**2 * det(A) * (A^-1 quadratic form on the third ambient row)

measures how the tangent plane leans against the distinguished third
axis. F is C times the Busemann-Hausdorff density 2/(2 + b**2 |a|**2) of
the norm's indicatrix in the tangent plane, a the tangential part of the
third axis; tests/test_symbolic_chain.py derives it from the metric
alpha**2/(alpha - beta). The module provides closed-form first and second
z-derivatives of F and dual-number and finite-difference oracles for
both, which check-derivatives compares.

Every function takes the jet as an array. The closed forms take one 3x2
jet; the oracles take one jet or a stack of jets of shape (3, 2, *S), and
differentiate every sample in one array pass (the (n, *S) convention of
the dual module). Each of them checks the shape and finiteness of its jet
through _jet_array; the private helpers take a checked jet.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual
from .errors import DegenerateJetError, DomainError

__all__ = [
    "area_integrand_grad",
    "area_integrand_hess",
    "area_integrand_grad_dual",
    "area_integrand_hess_dual",
    "area_integrand_grad_central",
    "area_integrand_hess_central",
]

# 2x2 Levi-Civita array and the third ambient basis vector.
_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_E3 = np.array([0.0, 0.0, 1.0])

# Scale-aware degeneracy guard: det(A) <= DEGENERACY_FACTOR * trace(A)**2
# is treated as a failed immersion.
DEGENERACY_FACTOR = 1e-14


def _jet_array(z, stacked=False):
    """z as a float array of shape (3, 2), or (3, 2, *S) when stacked.

    z[i, e] = d(phi^i)/d(x^e), i ambient, e surface. DomainError unless the
    shape fits and every entry is finite; operations that divide by the
    area scalar also require rank(z) == 2, enforced there through the
    determinant guard.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[:2] != (3, 2) or (z.ndim != 2 and not stacked):
        raise DomainError(f"jet must have shape {'(3, 2, *S)' if stacked else '(3, 2)'}, got {z.shape}")
    if not np.isfinite(z).all():
        raise DomainError("jet entries must be finite")
    return z


def _gram(z) -> np.ndarray:
    """Gram matrix A = z^T z of the jet columns (2x2, exactly symmetric)."""
    # one off-diagonal dot product reused for both entries: bitwise symmetry
    a01 = float(z[:, 0] @ z[:, 1])
    return np.array(
        [[float(z[:, 0] @ z[:, 0]), a01], [a01, float(z[:, 1] @ z[:, 1])]]
    )


def _det2(a):
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def _adj2(a):
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def _require_nondegenerate(a) -> float:
    det = _det2(a)
    tr = a[0, 0] + a[1, 1]
    if det <= DEGENERACY_FACTOR * tr * tr:
        raise DegenerateJetError(
            f"gram determinant {det} fails the immersion guard "
            f"(threshold {DEGENERACY_FACTOR} * trace**2)"
        )
    return float(det)


def _d_vector(z):
    # d[k] = z[k,0]*z[2,1] - z[k,1]*z[2,0]; d[2] == 0 identically.
    return z[:, 0] * z[2, 1] - z[:, 1] * z[2, 0]


def _e_scalar(z, b: float) -> float:
    """Anisotropy scalar E >= 0.

    Computed as b**2 times the squared length of the cross pattern between
    the jet columns and the third ambient row; identical to
    b**2 * det(A) * A^{eps eta} z3_eps z3_eta.
    """
    d = _d_vector(z)
    return float(b * b * (d @ d))


def _area_parts(z, b: float):
    """(z, det A, adj A, C, E, 2*C**2 + E) at a jet that passes the guard."""
    z = _jet_array(z)
    a = _gram(z)
    det = _require_nondegenerate(a)
    c = math.sqrt(det)
    e = _e_scalar(z, b)
    return z, det, _adj2(a), c, e, 2.0 * det + e


def _grad_det(z, adj):
    return 2.0 * z @ adj


def _grad_e(z, b):
    d = _d_vector(z)
    m1 = np.array([z[2, 1], -z[2, 0]])
    ztd = z.T @ d
    m2 = np.array([-ztd[1], ztd[0]])
    return 2.0 * b * b * (np.outer(d, m1) + np.outer(_E3, m2))


def _hess_det(z, adj):
    # Exact Hessian of det(z^T z) as a polynomial in the jet entries,
    # assembled so the (3,2,3,2) array is bitwise symmetric (no matmul:
    # fused multiply-adds would break one-ulp antisymmetry).
    u = np.column_stack([-z[:, 1], z[:, 0]])
    cross = np.outer(z[:, 0], z[:, 1])
    cross = cross - cross.T  # u @ z.T, exactly antisymmetric
    t1 = 2.0 * np.einsum("ij,he->iejh", np.eye(3), adj)
    t2 = -2.0 * np.einsum("ih,je->iejh", u, u)
    t3 = 2.0 * np.einsum("eh,ij->iejh", _EPS2, cross)
    return t1 + t2 + t3


def _hess_e(z, b):
    d = _d_vector(z)
    m1 = np.array([z[2, 1], -z[2, 0]])
    u = z @ _EPS2
    # dz[k, i, e] = d(d_k)/d(z[i, e])
    dz = np.einsum("ki,e->kie", np.eye(3), m1) + np.einsum("ke,i->kie", u, _E3)
    t1 = np.einsum("kie,kjh->iejh", dz, dz)
    t2 = np.einsum("i,eh,j->iejh", d, _EPS2, _E3) + np.einsum(
        "i,eh,j->iejh", _E3, -_EPS2, d
    )
    return 2.0 * b * b * (t1 + t2)


def area_integrand_grad(z, b: float) -> np.ndarray:
    """Closed-form gradient dF/dz as a 3x2 array.

    Assembled from the adjugate expansion of det A and the quadratic
    expansion of E; cross-checked against the dual-number and
    finite-difference oracles in the test suite.
    """
    z, det, adj, c, e, den = _area_parts(z, b)
    dc = (z @ adj) / c
    de = _grad_e(z, b)
    return ((4.0 * det * det + 6.0 * det * e) * dc - 2.0 * det * c * de) / den**2


def area_integrand_hess(z, b: float) -> np.ndarray:
    """Closed-form Hessian d2F/dz2 as a 6x6 array, flat index 2*i + e.

    Exactly symmetric by construction. The coefficient of the dC x dC
    dyad is (12*C*E**2 - 8*C**3*E)/(2*C**2+E)**3, which is what exact
    differentiation of the gradient produces.
    """
    z, det, adj, c, e, den = _area_parts(z, b)

    dc = (z @ adj) / c
    de = _grad_e(z, b)
    ddet = _grad_det(z, adj)
    hc = _hess_det(z, adj) / (2.0 * c) - np.einsum("ie,jh->iejh", ddet, ddet) / (
        4.0 * c * det
    )
    he = _hess_e(z, b)

    cc = np.einsum("ie,jh->iejh", dc, dc)
    ce = np.einsum("ie,jh->iejh", dc, de) + np.einsum("ie,jh->iejh", de, dc)
    ee = np.einsum("ie,jh->iejh", de, de)

    h = (
        (4.0 * det * det + 6.0 * det * e) / den**2 * hc
        - 2.0 * det * c / den**2 * he
        + (12.0 * c * e * e - 8.0 * det * c * e) / den**3 * cc
        + (4.0 * det * det - 6.0 * det * e) / den**3 * ce
        + 4.0 * det * c / den**3 * ee
    )
    return h.reshape(6, 6)


def _flat_area_fun(b):
    """Area density on the flat jet vector [z00, z01, z10, z11, z20, z21].

    Pure arithmetic plus dual.sqrt, so floats, numpy arrays and Duals all
    pass through; this is the oracle the closed forms are checked against.
    """

    def fun(v):
        a00 = v[0] * v[0] + v[2] * v[2] + v[4] * v[4]
        a11 = v[1] * v[1] + v[3] * v[3] + v[5] * v[5]
        a01 = v[0] * v[1] + v[2] * v[3] + v[4] * v[5]
        det = a00 * a11 - a01 * a01
        d0 = v[0] * v[5] - v[1] * v[4]
        d1 = v[2] * v[5] - v[3] * v[4]
        e = b * b * (d0 * d0 + d1 * d1)
        c = dual.sqrt(det)
        return 2.0 * det * c / (2.0 * det + e)

    return fun


def _flat_jets(z):
    """Flat jet vectors, shape (6, *S), of one jet or of stacked jets (3, 2, *S)."""
    z = _jet_array(z, stacked=True)
    return z.reshape((6,) + z.shape[2:])


def area_integrand_grad_dual(z, b: float) -> np.ndarray:
    """Gradient of F by forward dual-number differentiation (oracle), (3, 2, *S)."""
    x = _flat_jets(z)
    return dual.gradient(_flat_area_fun(b), x).reshape((3, 2) + x.shape[1:])


def area_integrand_hess_dual(z, b: float) -> np.ndarray:
    """Hessian of F by nested dual-number differentiation (oracle), (6, 6, *S)."""
    return dual.hessian(_flat_area_fun(b), _flat_jets(z))


def area_integrand_grad_central(z, b: float, step: float = 1e-6) -> np.ndarray:
    """Gradient of F by central differences (secondary oracle), (3, 2, *S)."""
    x = _flat_jets(z)
    return dual.central_gradient(_flat_area_fun(b), x, step).reshape((3, 2) + x.shape[1:])


def area_integrand_hess_central(z, b: float, step: float = 2.5e-4) -> np.ndarray:
    """Hessian of F by nested central differences (secondary oracle), (6, 6, *S)."""
    return dual.central_hessian(_flat_area_fun(b), _flat_jets(z), step)
