"""Volume normalization factors for the supported norm families.

The induced volume form of an (alpha, beta)-norm with constant
coefficients is a constant multiple f(b) of the Euclidean volume. This
module computes f(b) two ways: by Gauss-Legendre quadrature of the ratio

    f(b) = integral(sin(t)**(n-2), 0, pi)
           / integral(sin(t)**(n-2) / phi(b*cos(t))**n, 0, pi)

with node doubling from 64 up to 16384 nodes until two estimates agree to
1e-12 relative (module constants), and by the closed form of that ratio
for every family and dimension (bh_factor_closed). Both take b as a plain
float and check it with metric.check_b. The volume form is
Busemann-Hausdorff; no other branch is implemented.

Everything runs on Python floats; the module imports no numpy. The
Gauss-Legendre rule comes from Newton's method on P_n, evaluated by its
three-term recurrence, for each positive root in turn, from Tricomi's
guess; weights 2/((1 - x**2) * P_n'(x)**2); the negative half by symmetry.
This is the recurrence-based Newton rule that Hale & Townsend, SIAM J. Sci.
Comput. 35(2) (2013), compare with Golub-Welsch. It takes O(n) memory and
O(n**2) time: about one recurrence pass per root. Both integrals are summed
with math.fsum. _cmd_volume is the CLI's `volume` command.
"""

import math
import sys
from functools import lru_cache

from .errors import DomainError, QuadratureConvergenceError
from .metric import PhiFamily, _phi, check_b

__all__ = ["bh_factor_quadrature", "bh_factor_closed"]

# Node doubling runs from _INITIAL_NODES up to _MAX_NODES (powers of two) and
# stops once two estimates agree to _RTOL relative to the last.
_INITIAL_NODES = 64
_MAX_NODES = 16384
_RTOL = 1e-12

# A root's Newton iteration ends with the step dx that satisfies
# n**2 * dx**2 <= _NEWTON_STEP_TOL * (1 - x**2), that is, n times the step in
# theta = arccos(x) below ~3e-8. The root is then x - dx, and P_n' there comes
# from a first-order Taylor step off the last pass: the terms both drop are
# below ~1e-15 relative in the weight. From Tricomi's guess, that takes one
# recurrence pass per root at every size but the ~40 outermost roots, which
# take two (three for the outermost one).
_NEWTON_STEP_TOL = 1e-15
_NEWTON_MAX_STEPS = 8


def _legendre(e, x: float):
    """(p_n(x), p_{n-1}(x)) for p_k = P_k * 4**k / binom(2k, k), n = len(e).

    These scaled Legendre polynomials satisfy p_{k+1} = 2x p_k - (1 + e_k) p_{k-1}
    with e_k = 1/(4k**2 - 1) and p_0 = 1, p_{-1} = 0, and they grow like
    sqrt(pi*k). A step takes two products, where one of P_k takes three and a
    division. Rounding 1 + e_k to a float would perturb every step alike and
    bias the weights by a few ulp, so e_k is kept apart.
    """
    y = 2.0 * x
    p0, p1 = 0.0, 1.0
    for ek in e:
        p0, p1 = p1, y * p1 - p0 - ek * p0
    return p1, p0


def _gauss_legendre(n_nodes: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n_nodes even,
    as two tuples of floats.

    The roots of P_n come in pairs +-x: Newton runs on each of the n/2
    positive roots and the rule is mirrored. Raises
    QuadratureConvergenceError, with no estimates, when a root's Newton
    iteration does not settle.
    """
    n = n_nodes
    e = [1.0 / (4 * k * k - 1) for k in range(n)]
    rho = 2 * n / (2 * n - 1)  # p_n / p_{n-1} = rho * P_n / P_{n-1}
    # 2 * (p_{n-1} / P_{n-1})**2, rounded once
    two_scale_sq = 2 * (1 << 4 * (n - 1)) / math.comb(2 * n - 2, n - 1) ** 2
    xs, ws = [], []
    for k in range(1, n // 2 + 1):
        # Tricomi's guess, off by O(n**-4)
        x = (1.0 - (n - 1) / (8.0 * n**3)) * math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(_NEWTON_MAX_STEPS):
            p, q = _legendre(e, x)
            p /= rho  # now p, q and dp are P_n, P_{n-1} and P_n' times p_{n-1}/P_{n-1}
            s = (1.0 - x) * (1.0 + x)
            dp = n * (q - x * p) / s
            dx = p / dp
            if n * n * dx * dx <= _NEWTON_STEP_TOL * s:
                break
            x -= dx
        else:
            raise QuadratureConvergenceError(f"Legendre root Newton iteration stalled at {n_nodes} nodes", ())
        # Carry P_n' and 1 - x**2 to x - dx: (1 - x**2) P'' = 2x P' - n(n + 1) P.
        dp -= dx * (2.0 * x * dp - n * (n + 1) * p) / s
        s += dx * (2.0 * x - dx)
        xs.append(x - dx)
        ws.append(two_scale_sq / (s * dp * dp))
    # xs descend from the root nearest 1
    return (
        tuple(-x for x in xs) + tuple(reversed(xs)),
        tuple(ws) + tuple(reversed(ws)),
    )


@lru_cache(maxsize=64)
def _nodes_weights(n_nodes: int):
    # Gauss-Legendre on [-1, 1] mapped onto [0, pi].
    x, w = _gauss_legendre(n_nodes)
    half_pi = math.pi / 2.0
    return tuple((xi + 1.0) * half_pi for xi in x), tuple(wi * half_pi for wi in w)


def _quotient(num: float, den: float) -> float:
    # num / den for num, den >= 0 with IEEE results where Python raises.
    if den == 0.0:
        return math.nan if num == 0.0 else math.inf
    return num / den


def _check_n(n):
    """DomainError unless the dimension n is an integer >= 2 that converts
    to a float: the integrands take powers with exponents n - 2 and n."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension n={n} must be an integer >= 2")
    try:
        float(n)
    except OverflowError:
        raise DomainError(f"dimension n of {len(str(n))} digits is beyond the float range") from None


def _ratio_estimate(b: float, family: PhiFamily, n: int, n_nodes: int) -> float:
    t, w = _nodes_weights(n_nodes)
    num, den = [], []
    for ti, wi in zip(t, w):
        sin_t = math.sin(ti)
        sin_pow = sin_t ** (n - 2)
        phi = _phi(family, b * math.cos(ti))
        # At large n, phi**n overflows (the term adds 0). Where phi**n or
        # sin_pow is 0 or subnormal, the term is formed whole, which may
        # overflow (an infinite term) or give 0/0 where every term is 0;
        # the caller rejects a non-finite ratio.
        try:
            phi_n = phi**n
        except OverflowError:
            phi_n = math.inf
        if min(phi_n, sin_pow) < sys.float_info.min:
            try:
                term = (sin_t ** ((n - 2) / n) / phi) ** n
            except OverflowError:
                term = math.inf
        else:
            term = sin_pow / phi_n
        num.append(wi * sin_pow)
        den.append(wi * term)
    return _quotient(math.fsum(num), math.fsum(den))


def bh_factor_quadrature(b: float, family: PhiFamily = PhiFamily.MATSUMOTO, n: int = 2):
    """(value, nodes_used): the volume factor in dimension n by node-doubling
    quadrature of the defining ratio, and the node count at which it converged.

    Convergence is judged on the ratio itself (shared nodes cancel smooth
    error in both integrals) and relative to its size, so factors far below
    1 get as many digits as factors near 1. Raises
    QuadratureConvergenceError, carrying the last two estimates, at the
    first non-finite estimate or when doubling is exhausted, and carrying
    none when a rule's Newton iteration stalls; the message names the node
    counts. DomainError unless b is admissible for the family and n is an
    integer >= 2 that converts to a float.
    """
    b = check_b(b, family)
    _check_n(n)
    n_nodes = _INITIAL_NODES
    prev = est = _ratio_estimate(b, family, n, n_nodes)
    while math.isfinite(est) and n_nodes < _MAX_NODES:
        n_nodes *= 2
        prev, est = est, _ratio_estimate(b, family, n, n_nodes)
        if abs(est - prev) <= _RTOL * abs(est):
            return est, n_nodes
    if not math.isfinite(est):
        raise QuadratureConvergenceError(
            f"quadrature ratio is {est} at b={b}, n={n} with "
            f"{n_nodes} nodes (the integrands over- or underflow)",
            (prev, est),
        )
    raise QuadratureConvergenceError(
        f"quadrature ratio did not converge below rtol={_RTOL} within "
        f"{_MAX_NODES} nodes: {prev!r} at {max(n_nodes // 2, _INITIAL_NODES)} "
        f"nodes, {est!r} at {n_nodes} nodes",
        (prev, est),
    )


def bh_factor_closed(b: float, family: PhiFamily = PhiFamily.MATSUMOTO, n: int = 2) -> float:
    """The volume factor in dimension n in closed form: the defining ratio
    of the module docstring, integrated exactly.

    Euclidean: 1. Randers, phi = 1 + s: (1 - b**2)**((n + 1)/2), with
    1 - b**2 formed as (1 - b)(1 + b) so that it does not cancel near b = 1.
    Slope, phi = 1/(1 - s): 1/phi**n = (1 - b cos t)**n is a polynomial in
    cos t whose odd powers integrate to 0, and Wallis's ratios
    integral(sin**(n-2) cos**(2j)) / integral(sin**(n-2)) = prod_{i<j} (2i+1)/(n+2i)
    make the factor 1 / sum_j t_j, with t_0 = 1 and
    t_j = t_{j-1} (n-2j+2)(n-2j+1) b**2 / (2j (n+2j-2)) for j <= n/2: sums
    of positive terms, added with math.fsum, and 2/(2 + b**2) at n = 2
    (1/(1 + b**2) at n = 3) bit for bit. The sum stops at a term that
    underflows to 0 or overflows; beyond the float range the factor is 0.0.
    DomainError as for bh_factor_quadrature.
    """
    b = check_b(b, family)
    _check_n(n)
    if family is PhiFamily.EUCLIDEAN:
        return 1.0
    if family is PhiFamily.RANDERS:
        return ((1.0 - b) * (1.0 + b)) ** ((n + 1) / 2)
    b2 = b * b
    terms = [1.0]
    for j in range(1, n // 2 + 1):
        # one rounding: Python divides integers to the nearest float
        terms.append(terms[-1] * b2 * ((n - 2 * j + 2) * (n - 2 * j + 1) / (2 * j * (n + 2 * j - 2))))
        if terms[-1] in (0.0, math.inf):
            break
    try:
        return 1.0 / math.fsum(terms)
    except OverflowError:  # finite terms whose sum exceeds the float range
        return 0.0


def _cmd_volume(args):
    """The `volume` command: (record, exit code) for the parsed CLI arguments."""
    family = PhiFamily(args.family)
    results = []
    for b in args.b:
        value, nodes = bh_factor_quadrature(b, family, args.n)
        closed = bh_factor_closed(b, family, args.n)
        results.append({
            "b": b,
            "euclidean_degeneration": b == 0.0,
            "quadrature": value,
            "nodes": nodes,
            "closed": closed,
            "abs_diff": abs(value - closed),
        })
    record = {"family": family.value, "n": args.n, "results": results}
    worst = max(entry["abs_diff"] for entry in results)
    if worst > args.tol:
        record["failure"] = f"quadrature/closed disagreement {worst} above tol {args.tol}"
        return record, 4
    return record, 0
