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

Every function takes one jet of shape (3, 2) or a stack of jets of shape
(3, 2, *S), sample axes last, and returns gradients as (3, 2, *S) and
Hessians as (6, 6, *S) (the (n, *S) convention of the dual module). The
closed forms are elementwise arithmetic over the sample axes, with every
sum in a fixed order and no matrix products, so each sample's values are
bit for bit those of a call on that sample alone and the Hessian is
exactly symmetric. Each entry point checks the shape and finiteness of
its jet through _jet_array; the private helpers take a checked jet.
"""

from __future__ import annotations

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

# Scale-aware degeneracy guard: det(A) <= DEGENERACY_FACTOR * trace(A)**2
# is treated as a failed immersion.
DEGENERACY_FACTOR = 1e-14


def _jet_array(z):
    """z as a float array of shape (3, 2, *S): one jet (S = ()) or a stack.

    z[i, e, ...] = d(phi^i)/d(x^e), i ambient, e surface. DomainError unless
    the shape fits and every entry is finite; operations that divide by the
    area scalar also require rank(z) == 2, enforced there through the
    determinant guard.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[:2] != (3, 2):
        raise DomainError(f"jet must have shape (3, 2, *S), got {z.shape}")
    if not np.isfinite(z).all():
        raise DomainError("jet entries must be finite")
    return z


def _gram(z) -> np.ndarray:
    """Gram matrix A = z^T z of the jet columns, (2, 2, *S), exactly symmetric."""
    (z00, z01), (z10, z11), (z20, z21) = z
    # one off-diagonal sum reused for both entries: bitwise symmetry
    a01 = z00 * z01 + z10 * z11 + z20 * z21
    return np.array([[z00 * z00 + z10 * z10 + z20 * z20, a01], [a01, z01 * z01 + z11 * z11 + z21 * z21]])


def _d_vector(z):
    """d[k] = z[k,0]*z[2,1] - z[k,1]*z[2,0] for k = 0, 1, shape (2, *S);
    the k = 2 entry vanishes identically and is left out."""
    return z[:2, 0] * z[2, 1] - z[:2, 1] * z[2, 0]


def _gram_det(z):
    """det(z^T z), shape S, as the sum of the squared 2x2 minors of z
    (Lagrange's identity). A sum of squares does not cancel, where
    a00*a11 - a01**2 loses digits as the columns of z turn parallel."""
    d0, d1 = _d_vector(z)
    w = z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0]
    return w * w + (d0 * d0 + d1 * d1)


def _require_nondegenerate(z, a):
    """det A, shape S; DegenerateJetError naming the first sample that fails."""
    det = _gram_det(z)
    tr = a[0, 0] + a[1, 1]
    bad = det <= DEGENERACY_FACTOR * tr * tr
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), np.shape(bad))
        sample = f"sample {list(map(int, k))}: " if k else ""
        raise DegenerateJetError(
            f"{sample}gram determinant {float(det[k])} fails the immersion guard "
            f"(threshold {DEGENERACY_FACTOR} * trace**2)"
        )
    return det


def _e_scalar(z, b: float):
    """Anisotropy scalar E >= 0, shape S.

    Computed as b**2 times the squared length of the cross pattern between
    the jet columns and the third ambient row; identical to
    b**2 * det(A) * A^{eps eta} z3_eps z3_eta.
    """
    d0, d1 = _d_vector(z)
    return b * b * (d0 * d0 + d1 * d1)


def _area_parts(z, b: float):
    """(z, A, det A, C, E, 2*C**2 + E) at jets that pass the guard."""
    z = _jet_array(z)
    a = _gram(z)
    det = _require_nondegenerate(z, a)
    e = _e_scalar(z, b)
    return z, a, det, np.sqrt(det), e, 2.0 * det + e


def _z_adj(z, a):
    """z @ adj(A), (3, 2, *S): half the z-gradient of det A."""
    (a00, a01), (_, a11) = a
    return np.stack([z[:, 0] * a11 - z[:, 1] * a01, z[:, 1] * a00 - z[:, 0] * a01], axis=1)


def _grad_e(z, b):
    # rows 0, 1: d[k] * (z[2,1], -z[2,0]); row 2: z^T d rotated by eps
    d = _d_vector(z)
    m1 = np.stack([z[2, 1], -z[2, 0]])
    ztd = z[0] * d[0] + z[1] * d[1]
    rows = np.concatenate([d[:, None] * m1[None], np.stack([-ztd[1], ztd[0]])[None]])
    return 2.0 * b * b * rows


def _hess_det(z, a):
    """Exact Hessian of det(z^T z), (3, 2, 3, 2, *S):

        2 delta_ij adj[e,h] - 2 u[i,h] u[j,e] + 2 eps[e,h] w[i,j],

    u = z @ eps, w[i,j] = z[i,0]*z[j,1] - z[j,0]*z[i,1]. Every term is
    bitwise symmetric under (i,e) <-> (j,h), and so is the sum.
    """
    (a00, a01), (_, a11) = a
    u = np.stack([-z[:, 1], z[:, 0]], axis=1)
    w = z[:, 0, None] * z[None, :, 1]
    w = w - w.swapaxes(0, 1)  # exactly antisymmetric
    h = -2.0 * (u[:, None, None, :] * u.swapaxes(0, 1)[None, :, :, None])
    adj2 = 2.0 * np.array([[a11, -a01], [-a01, a00]])
    for i in range(3):
        h[i, :, i] += adj2
    w2 = 2.0 * w
    h[:, 0, :, 1] += w2
    h[:, 1, :, 0] -= w2
    return h


def _hess_e(z, b):
    """Exact Hessian of E, (3, 2, 3, 2, *S), bitwise symmetric."""
    d = _d_vector(z)
    # dd[k, i, e] = d(d_k)/d(z[i, e]), k = 0, 1
    dd = np.zeros((2,) + z.shape)
    dd[0, 0] = dd[1, 1] = np.stack([z[2, 1], -z[2, 0]])
    dd[:, 2, 0] = -z[:2, 1]
    dd[:, 2, 1] = z[:2, 0]
    h = dd[0][:, :, None, None] * dd[0][None, None] + dd[1][:, :, None, None] * dd[1][None, None]
    # d_i eps[e,h] delta_j2 - delta_i2 eps[e,h] d_j
    h[:2, 0, 2, 1] += d
    h[:2, 1, 2, 0] -= d
    h[2, 0, :2, 1] -= d
    h[2, 1, :2, 0] += d
    return 2.0 * b * b * h


def area_integrand_grad(z, b: float) -> np.ndarray:
    """Closed-form gradient dF/dz, (3, 2, *S).

    Assembled from the adjugate expansion of det A and the quadratic
    expansion of E; cross-checked against the dual-number and
    finite-difference oracles in the test suite.
    """
    z, a, det, c, e, den = _area_parts(z, b)
    dc = _z_adj(z, a) / c
    de = _grad_e(z, b)
    return ((4.0 * det * det + 6.0 * det * e) * dc - 2.0 * det * c * de) / (den * den)


def area_integrand_hess(z, b: float) -> np.ndarray:
    """Closed-form Hessian d2F/dz2, (6, 6, *S), flat index 2*i + e.

    Exactly symmetric by construction. The coefficient of the dC x dC
    dyad is (12*C*E**2 - 8*C**3*E)/(2*C**2+E)**3, which is what exact
    differentiation of the gradient produces.
    """
    z, a, det, c, e, den = _area_parts(z, b)
    flat = (6,) + z.shape[2:]
    za = _z_adj(z, a)
    dc = (za / c).reshape(flat)
    ddet = (2.0 * za).reshape(flat)
    de = _grad_e(z, b).reshape(flat)
    hc = _hess_det(z, a).reshape((6,) + flat) / (2.0 * c) - ddet[:, None] * ddet[None] / (4.0 * c * det)
    he = _hess_e(z, b).reshape((6,) + flat)

    cc = dc[:, None] * dc[None]
    ce = dc[:, None] * de[None] + de[:, None] * dc[None]
    ee = de[:, None] * de[None]

    den2 = den * den
    den3 = den2 * den
    return (
        (4.0 * det * det + 6.0 * det * e) / den2 * hc
        - 2.0 * det * c / den2 * he
        + (12.0 * c * e * e - 8.0 * det * c * e) / den3 * cc
        + (4.0 * det * det - 6.0 * det * e) / den3 * ce
        + 4.0 * det * c / den3 * ee
    )


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
    z = _jet_array(z)
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
