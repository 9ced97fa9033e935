"""Quasilinear minimal-graph equations over horizontal and tilted planes.

For a graph with gradient (f1, f2) and Hessian H over the plane spanned
by the first two columns of an orthogonal frame m, with k the last row
of m, w = k3 - k1*f1 - k2*f2, W^2 = 1 + f1^2 + f2^2 and

    S = (2 + b^2) * W^2 - b^2 * w^2,

minimality is equivalent to the vanishing of

    S*(S - 2 b^2 w^2) * (delta - f f^T / W^2) : H
      + 2 b^2 (S + 4 b^2 w^2) * W^2 * u^T H u,    u = k_12 + w * f / W^2.

This is S^3 / (2W) times the Euler-Lagrange operator of the graph's area
integrand L = 2W^3 / S (S = 2W^2 + E, E = b^2 (W^2 - w^2));
tests/test_symbolic_chain.py proves the identity exactly, from the
metric alpha^2/(alpha - beta) on. The horizontal case is the frame
k = (0, 0, 1), where S reduces to T = 2*W^2 + b^2*(W^2 - 1) and u to
f / W^2.

Dividing by the always-positive S*(S - 2 b^2 w^2) yields coefficients
a = (delta - f f^T/W^2) + R * W^2 * u u^T with

    R = 2 b^2 (S + 4 b^2 w^2) / (S * (S - 2 b^2 w^2)) >= 0,

an elliptic form bounded below by |xi|^2 / W^2 and above by (1 + C) times
the classical minimal-surface form. The mean-curvature-type constant is
exactly C = 2 b^2 / (2 + b^2) for every frame: the excess
a(xi) / h(xi) - 1 over the classical form h = (delta - f f^T/W^2) : xi xi
has supremum R (W^2 - w^2) over the probe direction xi, and C minus that
is a positive multiple of x = w^2 / W^2 for b^2 < 1/3, so C is approached
where w = 0 (tests/test_symbolic_chain.py proves each step).
mean_curvature_type_bound evaluates that supremum on samples, a numeric
echo of C. The divisor and the numerator of R are written once
(metric._divisor_excess) for the residual kernel _residual_terms, which
returns D beside r, mean_curvature_type_bound, _residual_partials (the
solver's Jacobian) and the translation module's (lambda, mu). The solver's
stop test max|r / D| and ellipticity_quotients (the CLI's vectorized check
of the lower bound, on a(xi) = r / D at H = xi xi^T) read D there.

The functions take plain numbers and arrays: graph_residual the gradient
and Hessian entries of one point, the two ellipticity functions arrays of
sampled gradients and frame rows. graph_residual computes on Python
floats, so the module loads numpy only inside the functions that work on
arrays. The two _cmd_*
functions at the end are the CLI's residual-graph and ellipticity
commands.
"""

from .metric import _divisor_excess, _uniform_rows, check_b

__all__ = [
    "graph_residual",
    "ellipticity_quotients",
    "mean_curvature_type_bound",
    "random_rotations",
]


def _residual_terms(f1, f2, h11, h12, h22, k1, k2, k3, b):
    # (r, D): the graph equation over the plane with frame row k (the module
    # docstring) and its divisor; the solver and graph_residual take
    # k = (0, 0, 1). Arithmetic only: arrays, Duals and sympy pass through.
    w2 = 1.0 + f1 * f1 + f2 * f2
    w = k3 - k1 * f1 - k2 * f2
    divisor, excess = _divisor_excess(w2, w, b * b)
    hform = (h11 + h22) - (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
    u1 = k1 + w * f1 / w2
    u2 = k2 + w * f2 / w2
    uform = u1 * u1 * h11 + 2.0 * u1 * u2 * h12 + u2 * u2 * h22
    return divisor * hform + excess * w2 * uform, divisor


def _residual_partials(f1, f2, h11, h12, h22, b):
    """d(residual)/d(f1, f2, h11, h12, h22) over the horizontal plane.

    There w = 1 and u = f / W^2, so the residual is D tr H + g f^T H f with
    (D, X) = _divisor_excess, g = (X - D) / W^2, both functions of W^2:
    dD/dW^2 = 2 (2 + b^2)(S - b^2), dX/dW^2 = 2 b^2 (2 + b^2) and
    dg/dW^2 = (dX/dW^2 - dD/dW^2 - g) / W^2. Arithmetic only: arrays and
    sympy symbols pass (tests/test_symbolic_chain.py checks each term).
    """
    b2 = b * b
    w2 = 1.0 + f1 * f1 + f2 * f2
    divisor, excess = _divisor_excess(w2, 1.0, b2)
    g = (excess - divisor) / w2
    d_divisor = 2.0 * (2.0 + b2) * ((2.0 + b2) * w2 - 2.0 * b2)
    d_g = (2.0 * b2 * (2.0 + b2) - d_divisor - g) / w2
    hf1 = h11 * f1 + h12 * f2
    hf2 = h12 * f1 + h22 * f2
    # d/df_i = 2 f_i (dD/dW^2 tr H + dg/dW^2 f^T H f) + 2 g (H f)_i
    common = 2.0 * (d_divisor * (h11 + h22) + d_g * (f1 * hf1 + f2 * hf2))
    return (
        common * f1 + 2.0 * g * hf1,
        common * f2 + 2.0 * g * hf2,
        divisor + g * f1 * f1,
        2.0 * g * f1 * f2,
        divisor + g * f2 * f2,
    )


def graph_residual(f1, f2, h11, h12, h22, b) -> float:
    """Minimal-graph residual over the horizontal plane at gradient (f1, f2)
    and Hessian entries h11, h12, h22; zero iff minimal.

    At b = 0 this is exactly 4*W^2 times the classical minimal-surface
    operator (1+f2^2)h11 - 2 f1 f2 h12 + (1+f1^2)h22.
    """
    return float(_residual_terms(f1, f2, h11, h12, h22, 0.0, 0.0, 1.0, b)[0])


def ellipticity_quotients(f, k, xi, b: float):
    """(W^2 a(xi) / |xi|^2, D) for n samples: a(xi) = r / D with (r, D)
    the kernel _residual_terms at H = xi xi^T.

    f: gradients (n, 2); k: last frame rows (n, 3); xi: probe directions
    (n, 2). The first quotient is >= 1 (the lower bound |xi|^2 / W^2 of
    the normalized form a) and the divisor is > 0; both hold for every
    b in [0, 1) because w^2 <= W^2.
    """
    b = check_b(b)
    f1, f2, x1, x2 = f[:, 0], f[:, 1], xi[:, 0], xi[:, 1]
    r, divisor = _residual_terms(f1, f2, x1 * x1, x1 * x2, x2 * x2, k[:, 0], k[:, 1], k[:, 2], b)
    return r / divisor * (1.0 + f1 * f1 + f2 * f2) / (x1 * x1 + x2 * x2), divisor


def mean_curvature_type_bound(f, k, b: float) -> float:
    """Largest R (W^2 - w^2) over n samples: the supremum over the probe
    direction of the excess quotient a(xi) / h(xi) - 1 (the module
    docstring), at most C = 2 b^2 / (2 + b^2) and equal to it where w = 0.

    f: gradients (n, 2); k: last frame rows (n, 3), as for
    ellipticity_quotients.
    """
    import numpy as np

    b = check_b(b)
    w2 = 1.0 + f[:, 0] ** 2 + f[:, 1] ** 2
    w = k[:, 2] - k[:, 0] * f[:, 0] - k[:, 1] * f[:, 1]
    divisor, excess = _divisor_excess(w2, w, b * b)
    return float(np.max(excess / divisor * (w2 - w * w)))


# Samples per block of the ellipticity command's draws and sweep; bounds
# their temporaries at any --samples.
_SAMPLE_BLOCK = 2048


def _in_punctured_disk(uv):
    # keep-mask of the rows (u, v) with 0 < u^2 + v^2 < 1
    s = uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1]
    return (0.0 < s) & (s < 1.0)


def random_rotations(rng: "random.Random", n: int) -> "np.ndarray":
    """The last rows k of n uniformly random rotation matrices (det +1),
    shape (n, 3): the frame rows the two ellipticity functions take, unit
    normals of uniformly random tilted planes.

    The last row of a uniform rotation is uniform on the sphere. Marsaglia's
    method (Ann. Math. Statist. 43, 1972) maps each point (u, v) of the
    punctured unit disk, s = u^2 + v^2, to (2u sqrt(1 - s), 2v sqrt(1 - s),
    1 - 2s), with no other function than sqrt, so the rows are the same
    bits on every machine for the same rng state.
    """
    import numpy as np

    k = np.empty((n, 3))
    for start, uv in _uniform_rows(rng, n, 2, 1.0, _SAMPLE_BLOCK, _in_punctured_disk):
        u, v = uv.T
        s = u * u + v * v
        rows = k[start : start + len(s)].T
        t = 2.0 * np.sqrt(1.0 - s)
        rows[0] = u * t
        rows[1] = v * t
        rows[2] = 1.0 - 2.0 * s
    return k


# ---------------------------------------------------------------------------
# CLI commands: (record, exit code) for the parsed arguments


def _cmd_residual_graph(args):
    results = [
        {
            "b": b,
            "euclidean_degeneration": b == 0.0,
            "residual": graph_residual(**args.point, b=b),
        }
        for b in args.b
    ]
    return {"point": args.point, "results": results}, 0


def _sweep(rng, n, b):
    """(smallest quotient, smallest divisor, mean_curvature_type_bound) on
    n samples drawn from rng for one b: gradients -3 + 6 rng.random() (two
    per sample), frame rows (random_rotations) and probe directions
    uniform in the punctured unit disk (the quotients are of degree 0 in
    xi), each drawn whole by metric._uniform_rows, in that order; then the
    two functions per block of _SAMPLE_BLOCK samples, reduced by np.min /
    np.max, which keep a nan. The draws are dropped on return."""
    import numpy as np

    f = np.empty((n, 2))
    for start, rows in _uniform_rows(rng, n, 2, 3.0, _SAMPLE_BLOCK):
        f[start : start + len(rows)] = rows
    k = random_rotations(rng, n)
    xi = np.empty((n, 2))
    for start, rows in _uniform_rows(rng, n, 2, 1.0, _SAMPLE_BLOCK, _in_punctured_disk):
        xi[start : start + len(rows)] = rows
    ratios, divisors, bounds = [], [], []
    for start in range(0, n, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        ratio, divisor = ellipticity_quotients(f[block], k[block], xi[block], b)
        ratios.append(np.min(ratio))
        divisors.append(np.min(divisor))
        bounds.append(mean_curvature_type_bound(f[block], k[block], b))
    return float(np.min(ratios)), float(np.min(divisors)), float(np.max(bounds))


def _cmd_ellipticity(args):
    """Per b, on the same samples: the lower bound of the normalized form,
    the divisor, and mean_curvature_type_bound beside the exact
    mean-curvature-type constant C = 2 b^2 / (2 + b^2) (the module
    docstring), which the bound must not exceed."""
    import random

    rng = random.Random(args.seed)
    results = []
    ok_all = True
    for b in args.b:
        min_ratio, min_divisor, c_est = _sweep(rng, args.samples, b)
        c_exact = 2.0 * b * b / (2.0 + b * b)
        ok = min_ratio >= 1.0 - 1e-12 and min_divisor > 0.0 and c_est <= c_exact * (1.0 + 1e-12)
        ok_all &= ok
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "samples": args.samples,
                "min_quadform_ratio": min_ratio,
                "min_divisor": min_divisor,
                "mean_curvature_type_bound": c_est,
                "mean_curvature_type_constant": c_exact,
                "pass": ok,
            }
        )
    return {"seed": args.seed, "results": results}, 0 if ok_all else 4
