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
exactly C = 2 b^2 / (2 + b^2) for every frame: the excess below has
supremum R (W^2 - w^2), and C minus that is a positive multiple of
x = w^2 / W^2 for b^2 < 1/3, so C is approached where w = 0
(tests/test_symbolic_chain.py proves each step). The bound sampler in
this module estimates C from below on a grid, an independent check of
that value. The divisor and the numerator of R are written once
(metric._divisor_excess); the residual, ellipticity_quotients (the CLI's
vectorized check of the lower bound), the sampler, the closed-form
partials of the horizontal residual (_residual_partials, the solver's
Jacobian) and the translation module's (lambda, mu) all use them.

For a unit probe direction xi the excess a(xi) / h(xi) - 1 over the
classical form h = (delta - f f^T/W^2) : xi xi is R * W^2 (u . xi)^2 / h.
The bound sampler maximizes it over the gradient magnitude t = |f|, the
angle gamma between (k1, k2) and xi, and the angle theta between f and
xi. With delta = gamma - theta, w and R depend on (t, delta) only, and
the quotient is the Rayleigh quotient (a . e)^2 / (e^T diag(1, W^2) e) of
e = (cos theta, sin theta) and a = (W^2 |k12| cos delta + w t,
-W^2 |k12| sin delta). Its supremum over theta is a^T diag(1, W^2)^-1 a,

    R * ((W^2 |k12| cos delta + w t)^2 + W^2 |k12|^2 sin^2 delta),

so only t and delta are sampled. The t^2 terms of the first entry cancel:
W^2 |k12| cos delta + w t = |k12| cos delta + k3 t, the form the sampler
evaluates, so large gradients lose no precision to cancellation.

The functions take plain numbers and arrays: graph_residual the gradient
and Hessian entries of one point, the sampler the frame m as a 3x3
matrix. graph_residual computes on Python floats, so the module loads
numpy only inside the functions that work on arrays. The two _cmd_*
functions at the end are the CLI's residual-graph and ellipticity
commands.
"""

import math

from .errors import DomainError
from .metric import _divisor_excess, check_b

__all__ = [
    "graph_residual",
    "ellipticity_quotients",
    "check_t_max",
    "mean_curvature_type_bound",
    "random_rotations",
]


def _residual_terms(f1, f2, h11, h12, h22, k1, k2, k3, b):
    # The graph equation over the plane with frame row k (the module
    # docstring); the solver and graph_residual take k = (0, 0, 1).
    # Arithmetic only: numpy arrays, Duals and sympy symbols pass through.
    w2 = 1.0 + f1 * f1 + f2 * f2
    w = k3 - k1 * f1 - k2 * f2
    divisor, excess = _divisor_excess(w2, w, b * b)
    hform = (h11 + h22) - (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
    u1 = k1 + w * f1 / w2
    u2 = k2 + w * f2 / w2
    uform = u1 * u1 * h11 + 2.0 * u1 * u2 * h12 + u2 * u2 * h22
    return divisor * hform + excess * w2 * uform


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
    return float(_residual_terms(f1, f2, h11, h12, h22, 0.0, 0.0, 1.0, b))


def ellipticity_quotients(f, k, xi, b: float):
    """(W^2 a(xi) / |xi|^2, S*(S - 2 b^2 w^2)) for n samples.

    f: gradients (n, 2); k: last frame rows (n, 3); xi: probe directions
    (n, 2). The first quotient is >= 1 (the lower bound |xi|^2 / W^2 of
    the normalized form a) and the divisor is > 0; both hold for every
    b in [0, 1) because w^2 <= W^2.
    """
    import numpy as np

    b = check_b(b)
    w2 = 1.0 + f[:, 0] ** 2 + f[:, 1] ** 2
    w = k[:, 2] - k[:, 0] * f[:, 0] - k[:, 1] * f[:, 1]
    divisor, excess = _divisor_excess(w2, w, b * b)
    rb = excess / divisor
    u = k[:, :2] + (w / w2)[:, None] * f
    xi2 = np.einsum("ij,ij->i", xi, xi)
    hform = xi2 - np.einsum("ij,ij->i", f, xi) ** 2 / w2
    aform = hform + rb * w2 * np.einsum("ij,ij->i", u, xi) ** 2
    return aform * w2 / xi2, divisor


def check_t_max(t_max):
    """The sampler's gradient horizon; DomainError unless 0 or in [1e-3, 1e75].

    The log grid starts at 1e-3; beyond t ~ 7e76 the divisor
    S*(S - 2 b^2 w^2) < 5 t^4 may overflow a double. The comparisons also
    reject nan.
    """
    if not (t_max == 0.0 or 1e-3 <= t_max <= 1e75):
        raise DomainError(f"t_max={t_max} must be 0 or in [1e-3, 1e75]")


def _t_grid(t_max, t_nodes):
    """Sampled gradient magnitudes: zero alone at t_max = 0, otherwise zero
    plus t_nodes log-spaced values from 1e-3 to t_max."""
    import numpy as np

    if t_max == 0.0:
        return np.array([0.0])
    return np.concatenate(([0.0], np.logspace(-3.0, math.log10(t_max), t_nodes)))


_T_BLOCK = 32


def mean_curvature_type_bound(m, b: float, t_max=1e3, t_nodes=512, angle_nodes=256) -> float:
    """Sample maximum of the ellipticity excess quotient; a lower estimate
    of the mean-curvature-type constant 2 b^2 / (2 + b^2) (the module
    docstring) for the orthogonal 3x3 frame m and b.

    The quotient depends on the frame only through its last row k. It is
    maximized over the gradient angle theta in closed form (the
    Rayleigh-quotient identity in the module docstring); what is sampled is
    the gradient magnitude t (_t_grid) and the angle delta = gamma - theta
    on angle_nodes equispaced angles, a grid that contains the parallel and
    antiparallel directions exactly. An estimate, not a proof: the
    supremum is approached where w = 0, which the grid meets only
    approximately, and for the horizontal frame only as t grows without
    bound. DomainError unless m is orthogonal to 1e-12, b is admissible,
    t_max passes check_t_max and both node counts are >= 1.
    """
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise DomainError(f"frame must be 3x3, got shape {m.shape}")
    if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-12:
        raise DomainError("frame matrix is not orthogonal to 1e-12")
    b = check_b(b)
    check_t_max(t_max)
    if t_nodes < 1 or angle_nodes < 1:
        raise DomainError("t_nodes and angle_nodes must be >= 1")
    k1, k2, k3 = m[2]
    k12 = math.hypot(k1, k2)
    t = _t_grid(t_max, t_nodes)[:, None]
    # The quotient is even in delta, so the grid's half circle [0, pi]
    # holds every value it takes.
    delta = np.linspace(0.0, 2.0 * math.pi, angle_nodes, endpoint=False)[: angle_nodes // 2 + 1]
    k12_cos = k12 * np.cos(delta)
    k12_sin2 = (k12 * np.sin(delta)) ** 2

    def block_max(t):
        w2 = 1.0 + t * t
        w = k3 - k12_cos * t
        divisor, excess = _divisor_excess(w2, w, b * b)
        rb = excess / divisor
        lead = k12_cos + k3 * t
        return np.max(rb * (lead * lead + w2 * k12_sin2))

    # _T_BLOCK rows of t at a time keep the temporaries small (the default
    # grid is 513 x 129); np.max over the block maxima keeps a nan.
    return float(np.max([block_max(t[i : i + _T_BLOCK]) for i in range(0, len(t), _T_BLOCK)]))


def random_rotations(rng: "np.random.Generator", n: int) -> "np.ndarray":
    """n uniformly random rotation matrices (det +1), shape (n, 3, 3).

    Quaternion construction: deterministic given the generator state,
    which keeps seeded CLI output byte-stable.
    """
    import numpy as np

    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((n, 3, 3))
    m[:, 0, 0] = a * a + b * b - c * c - d * d
    m[:, 0, 1] = 2 * (b * c - a * d)
    m[:, 0, 2] = 2 * (b * d + a * c)
    m[:, 1, 0] = 2 * (b * c + a * d)
    m[:, 1, 1] = a * a - b * b + c * c - d * d
    m[:, 1, 2] = 2 * (c * d - a * b)
    m[:, 2, 0] = 2 * (b * d - a * c)
    m[:, 2, 1] = 2 * (c * d + a * b)
    m[:, 2, 2] = a * a - b * b - c * c + d * d
    return m


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


def _cmd_ellipticity(args):
    """Per b: the sampled lower bound of the normalized form and the
    divisor, and the sampler's estimate of the mean-curvature-type constant
    beside its exact value C = 2 b^2 / (2 + b^2) (the module docstring),
    which the estimate must not exceed."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    results = []
    ok_all = True
    for b in args.b:
        n = args.samples
        f = rng.uniform(-3.0, 3.0, size=(n, 2))
        frames = random_rotations(rng, n)
        xi = rng.normal(size=(n, 2))
        ratio, divisor = ellipticity_quotients(f, frames[:, 2, :], xi, b)
        min_ratio = float(np.min(ratio))
        min_divisor = float(np.min(divisor))
        c_est = mean_curvature_type_bound(random_rotations(rng, 1)[0], b, t_max=args.tmax)
        c_exact = 2.0 * b * b / (2.0 + b * b)
        ok = min_ratio >= 1.0 - 1e-12 and min_divisor > 0.0 and c_est <= c_exact * (1.0 + 1e-12)
        ok_all &= ok
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "samples": n,
                "min_quadform_ratio": min_ratio,
                "min_divisor": min_divisor,
                "mean_curvature_type_bound": c_est,
                "mean_curvature_type_constant": c_exact,
                "pass": ok,
            }
        )
    return {"seed": args.seed, "results": results}, 0 if ok_all else 4
