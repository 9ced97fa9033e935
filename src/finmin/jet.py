"""Jet-level geometry of immersed surfaces in the slope-metric 3-space.

Everything is built from a first-order jet z, the 3x2 matrix of ambient
partials of an immersion, through its three 2x2 minors

    mu_j = z[p,0]*z[q,1] - z[p,1]*z[q,0],   (p, q) = (0, 1), (0, 2), (1, 2).

The induced area density is

    F(z) = 2*C**3 / (2*C**2 + E) = 2PC / D,   C = sqrt(P),   D = 2P + E,

with P = det(z^T z) = mu_0**2 + mu_1**2 + mu_2**2 (Lagrange's identity)
and the anisotropy scalar

    E = b**2 * (mu_1**2 + mu_2**2)
      = b**2 * det(A) * (A^-1 quadratic form on the third ambient row),

A = z^T z, which measures how the tangent plane leans against the
distinguished third axis. F is C times the Busemann-Hausdorff density
2/(2 + b**2 |a|**2) of the norm's indicatrix in the tangent plane, a the
tangential part of the third axis; tests/test_symbolic_chain.py derives
it from the metric alpha**2/(alpha - beta). The closed-form first and
second z-derivatives of F are one chain rule through (P, E), whose
derivatives are those of the minors (each mu_j has a constant Hessian).
The dual-number and finite-difference oracles, which check-derivatives
compares with the closed forms, keep the Gram form a00*a11 - a01**2 on
purpose, so they share no formula with the code they check.

Every function takes one jet of shape (3, 2) or a stack of jets of shape
(3, 2, *S), sample axes last, and returns gradients as (3, 2, *S) and
Hessians as (6, 6, *S) (the (n, *S) convention of the dual module). The
closed forms are elementwise arithmetic over the sample axes, with every
sum in a fixed order and no matrix products, so each sample's values are
bit for bit those of a call on that sample alone and the Hessian is
exactly symmetric. Each entry point checks the shape and finiteness of
its jet through _jet_array (the closed forms in _chain_parts); _minors
and its wrappers take a checked jet. _cmd_check_derivatives, at the end,
is the CLI's check-derivatives command.
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


# Row pairs (p, q) of the minors mu_j; only mu_1 and mu_2 involve the
# third ambient row and enter E.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _minors(z, b: float):
    """(mu, P, E): the minors [mu_0, mu_1, mu_2], each of shape S,
    P = det(z^T z) = sum_j mu_j**2 (Lagrange's identity) and
    E = b**2 (mu_1**2 + mu_2**2). A sum of squares does not cancel, where
    a00*a11 - a01**2 loses digits as the columns of z turn parallel.
    """
    mu = [z[p, 0] * z[q, 1] - z[p, 1] * z[q, 0] for p, q in _PAIRS]
    tilt = mu[1] * mu[1] + mu[2] * mu[2]
    return mu, mu[0] * mu[0] + tilt, b * b * tilt


def _chain_parts(z, b: float):
    """((P, E, C, D), mu, grad mu, (grad P, grad E), (F_P, F_E)) of a jet,
    gradients flat, (6, *S), index 2*i + e.

    grad P = 2 sum_j mu_j grad mu_j and grad E = 2 b**2 (the same sum over
    j = 1, 2); F = 2PC/D has F_P = C(2P + 3E)/D**2 and F_E = -2PC/D**2.
    DegenerateJetError, naming the first sample that fails, where
    P <= DEGENERACY_FACTOR * trace(A)**2.
    """
    z = _jet_array(z)
    mu, p, e = _minors(z, b)
    (z00, z01), (z10, z11), (z20, z21) = z
    tr = (z00 * z00 + z10 * z10 + z20 * z20) + (z01 * z01 + z11 * z11 + z21 * z21)
    bad = p <= DEGENERACY_FACTOR * tr * tr
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), np.shape(bad))
        sample = f"sample {list(map(int, k))}: " if k else ""
        raise DegenerateJetError(
            f"{sample}gram determinant {float(p[k])} fails the immersion guard "
            f"(threshold {DEGENERACY_FACTOR} * trace**2)"
        )
    g = []
    for i, j in _PAIRS:
        gm = np.zeros((6,) + z.shape[2:])
        gm[2 * i], gm[2 * i + 1] = z[j, 1], -z[j, 0]
        gm[2 * j], gm[2 * j + 1] = -z[i, 1], z[i, 0]
        g.append(gm)
    tilt = mu[1] * g[1] + mu[2] * g[2]
    c, d = np.sqrt(p), 2.0 * p + e
    d2 = d * d
    grads = (2.0 * (mu[0] * g[0] + tilt), 2.0 * b * b * tilt)
    return (p, e, c, d), mu, g, grads, (c * (2.0 * p + 3.0 * e) / d2, -2.0 * p * c / d2)


def area_integrand_grad(z, b: float) -> np.ndarray:
    """Closed-form gradient dF/dz = F_P grad P + F_E grad E, (3, 2, *S);
    cross-checked against the dual-number and finite-difference oracles in
    the test suite."""
    *_, (dp, de), (f_p, f_e) = _chain_parts(z, b)
    return (f_p * dp + f_e * de).reshape((3, 2) + dp.shape[1:])


def area_integrand_hess(z, b: float) -> np.ndarray:
    """Closed-form Hessian d2F/dz2, (6, 6, *S), flat index 2*i + e.

    The chain rule through (P, E):

        F_P hess P + F_E hess E + F_PP dP dP + F_PE (dP dE + dE dP) + F_EE dE dE,

    F_PP = (3E**2 - 4P**2 - 12PE)/(2C D**3), F_PE = C(2P - 3E)/D**3 and
    F_EE = 4PC/D**3; E <= P/4 for admissible b, so F_PP does not cancel.
    hess P = 2 sum_j (grad mu_j grad mu_j + mu_j hess mu_j), hess E the same
    over j = 1, 2 times b**2, where hess mu_j is a constant +-1 pattern.
    Every term is exactly symmetric, and so is the sum.
    """
    (p, e, c, d), mu, g, (dp, de), (f_p, f_e) = _chain_parts(z, b)
    halves = []  # grad mu_j grad mu_j + mu_j hess mu_j, half the Hessian of mu_j**2
    for (i, j), m, gm in zip(_PAIRS, mu, g):
        h = gm[:, None] * gm[None]
        h[2 * i, 2 * j + 1] += m
        h[2 * j + 1, 2 * i] += m
        h[2 * i + 1, 2 * j] -= m
        h[2 * j, 2 * i + 1] -= m
        halves.append(h)
    tilt = halves[1] + halves[2]
    d3 = d * d * d
    return (
        f_p * (2.0 * (halves[0] + tilt))
        + f_e * (2.0 * b * b * tilt)
        + (3.0 * e * e - 4.0 * p * p - 12.0 * p * e) / (2.0 * c * d3) * (dp[:, None] * dp[None])
        + c * (2.0 * p - 3.0 * e) / d3 * (dp[:, None] * de[None] + de[:, None] * dp[None])
        + 4.0 * p * c / d3 * (de[:, None] * de[None])
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


# Central-difference steps of the secondary oracles; the Hessian's keeps its
# error below 6e-7 on 10**5 seeded jets, under the default --rtol-central.
_GRAD_STEP = 1e-6
_HESS_STEP = 1.5e-4


def area_integrand_grad_central(z, b: float) -> np.ndarray:
    """Gradient of F by central differences (secondary oracle), (3, 2, *S)."""
    x = _flat_jets(z)
    return dual.central_gradient(_flat_area_fun(b), x, _GRAD_STEP).reshape((3, 2) + x.shape[1:])


def area_integrand_hess_central(z, b: float) -> np.ndarray:
    """Hessian of F by nested central differences (secondary oracle), (6, 6, *S)."""
    return dual.central_hessian(_flat_area_fun(b), _flat_jets(z), _HESS_STEP)


# ---------------------------------------------------------------------------
# CLI command: check-derivatives


def _matrix_rel_err(x, y):
    """max|x - y| / max|y| over each matrix, axes (0, 1); trailing axes are samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.max(np.abs(x - y), axis=(0, 1)) / np.maximum(np.max(np.abs(y), axis=(0, 1)), 1e-300)


# Largest block of jets drawn at once; bounds the draw's memory at any --samples.
_JET_BLOCK = 1024
# Smallest Gram determinant of a drawn jet.
_JET_MIN_DET = 0.25


def _random_jets(rng, count):
    """count jets, (3, 2, count): entries uniform in [-1.5, 1.5), keeping
    the jets whose Gram determinant is at least _JET_MIN_DET.

    Draws blocks of at most _JET_BLOCK jets. rng.uniform(size=(k, 3, 2))
    yields the stream of k draws of shape (3, 2), and a block never holds
    more jets than are still missing, so the jets are those of drawing and
    testing one at a time.
    """
    kept = []
    while count > 0:
        z = np.moveaxis(rng.uniform(-1.5, 1.5, size=(min(count, _JET_BLOCK), 3, 2)), 0, -1)
        z = z[..., _minors(z, 0.0)[1] >= _JET_MIN_DET]
        kept.append(z)
        count -= z.shape[-1]
    return np.concatenate(kept, axis=-1)


def _cmd_check_derivatives(args):
    """(record, exit code): the closed forms against both oracles on
    --samples seeded random jets, at each b."""
    z = _random_jets(np.random.default_rng(args.seed), args.samples)
    results = []
    failures = []
    for b in args.b:
        # the closed forms (the code under test) and each oracle in one pass over all samples
        g = area_integrand_grad(z, b)
        h = area_integrand_hess(z, b)
        worst = {
            "grad_dual": float(_matrix_rel_err(g, area_integrand_grad_dual(z, b)).max()),
            "grad_central": float(_matrix_rel_err(g, area_integrand_grad_central(z, b)).max()),
            "hess_dual": float(_matrix_rel_err(h, area_integrand_hess_dual(z, b)).max()),
            "hess_central": float(_matrix_rel_err(h, area_integrand_hess_central(z, b)).max()),
        }
        nonfinite = [k for k, v in worst.items() if not math.isfinite(v)]
        ok = not nonfinite and (
            worst["grad_dual"] <= args.rtol_dual
            and worst["hess_dual"] <= args.rtol_dual
            and worst["grad_central"] <= args.rtol_central
            and worst["hess_central"] <= args.rtol_central
        )
        for k in nonfinite:
            # strict JSON has no nan/inf: the value is null, the failure names it
            failures.append(f"{k} relative error is {worst[k]} at b={b}")
            worst[k] = None
        results.append({"b": b, "max_rel_errors": worst, "pass": ok})
    record = {
        "samples": args.samples,
        "seed": args.seed,
        "rtol_dual": args.rtol_dual,
        "rtol_central": args.rtol_central,
        "results": results,
    }
    if failures:
        record["failure"] = "; ".join(failures)
    return record, 0 if all(r["pass"] for r in results) else 4
