"""Minimal translation surfaces f(x1) + g(x2) over exact rationals.

With r = f'(x1)^2, s = g'(x2)^2, minimality reduces to the quasilinear
ODE pair lambda * f'' + mu * g'' = 0 with polynomial coefficients

    lambda = P1 * P2 * (1 + s) + X * r,    mu = P1 * P2 * (1 + r) + X * s,
    P1 = 2 + (2 + b^2) p,  P2 = 2(1 - b^2) + (2 + b^2) p,
    X  = 2 b^2 (2 + 4 b^2 + (2 + b^2) p),  p = r + s.

At h12 = 0 the graph equation of the graph_pde module has h11 and h22
coefficients lambda/W^2 and mu/W^2 (W^2 = 1 + p), which
tests/test_symbolic_chain.py checks exactly. In the variables p = r + s,
q = r - s the pair splits as lambda = K(p) - L(p) q, mu = K(p) + L(p) q
with deg K = 3, deg L = 2.
Whether K/L has derivative of absolute value one decides the existence of
nonplanar minimal translation surfaces: exactly at b = 0 one finds
K = (p + 2) L, so (K/L)' == 1, and for every b in (0, 1/2) the
separability identities fail, leaving only planes. As polynomials in
g = b^2 the coefficients of the separability polynomial have gcd
g^2 (g + 2) and those of the companion polynomial g^2, so both vanish
identically on [0, 1/4) only at g = 0 (tests/test_symbolic_chain.py).

kl_polys builds K and L for one b^2 as tuples of coefficients;
kl_ratio_derivative and compatibility_check take that pair, so a caller
builds it once per b^2. All polynomial work is over fractions.Fraction, so
every reported value is exact; the functions that build Fractions import
the module themselves, so translation_residual, which computes on floats
for the CLI's residual-translation, loads no fractions. The two
_cmd_* functions at the end are the CLI's residual-translation and
check-translation commands.
"""

from .errors import DomainError

__all__ = [
    "lambda_mu",
    "translation_residual",
    "kl_polys",
    "kl_ratio_derivative",
    "compatibility_check",
]


def _lambda_mu_b2(r, s, b2):
    p = r + s
    lead = 2 + (2 + b2) * p
    tail = 2 * (1 - b2) + (2 + b2) * p
    extra = 2 * b2 * (2 + 4 * b2 + (2 + b2) * p)
    return lead * tail * (1 + s) + extra * r, lead * tail * (1 + r) + extra * s


def lambda_mu(r, s, b):
    """Coefficient pair (lambda, mu); swapping r and s swaps the pair.

    Exact when called with Fraction arguments; b enters through b*b only.
    Both coefficients are strictly positive on r, s >= 0, b in [0, 1/2).
    """
    return _lambda_mu_b2(r, s, b * b)


def translation_residual(fp, fpp, gp, gpp, b):
    """lambda * f'' + mu * g'' at profile derivatives f' = fp, f'' = fpp,
    g' = gp, g'' = gpp; zero exactly at minimal points."""
    lam, mu = lambda_mu(fp * fp, gp * gp, b)
    return lam * fpp + mu * gpp


# ---------------------------------------------------------------------------
# Dense polynomials over Fraction, coefficients in ascending order.


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _mul(a, b):
    from fractions import Fraction

    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _scale(a, c):
    return _trim([c * x for x in a])


def _deriv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


def _eval(a, x):
    from fractions import Fraction

    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _lagrange(xs, ys):
    """Exact interpolating polynomial through (xs, ys), ascending coeffs."""
    from fractions import Fraction

    out = []
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = _mul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        out = _add(out, _scale(basis, ys[i] / denom))
    return out


def kl_polys(b2):
    """Exact (K, L) for one squared parameter b2 = b^2, by interpolation from
    lambda_mu: the split lambda = K(p) - L(p) q, mu = K(p) + L(p) q, each
    polynomial a tuple of Fraction coefficients in ascending order.

    K is read off on the diagonal q = 0 (where lambda = mu = K) at four
    nodes, L on the line q = 1 at three; the split is then re-verified at
    off-grid rational points.
    """
    from fractions import Fraction

    b2 = Fraction(b2)
    if not (0 <= b2 < Fraction(1, 4)):
        raise DomainError(f"b^2={b2} outside [0, 1/4)")

    k_nodes = [Fraction(0), Fraction(2), Fraction(4), Fraction(6)]
    k_vals = []
    for p in k_nodes:
        lam, mu = _lambda_mu_b2(p / 2, p / 2, b2)
        if lam != mu:
            raise ArithmeticError(f"lambda != mu on the diagonal q = 0 at p={p}, b^2={b2}")
        k_vals.append(lam)
    k = _lagrange(k_nodes, k_vals)

    l_nodes = [Fraction(1), Fraction(3), Fraction(5)]
    l_vals = []
    for p in l_nodes:
        lam, mu = _lambda_mu_b2((p + 1) / 2, (p - 1) / 2, b2)
        l_vals.append((mu - lam) / 2)
    l = _lagrange(l_nodes, l_vals)

    for r, s in ((Fraction(3), Fraction(1, 2)), (Fraction(1, 3), Fraction(5))):
        lam, mu = _lambda_mu_b2(r, s, b2)
        p, q = r + s, r - s
        if lam != _eval(k, p) - _eval(l, p) * q:
            raise ArithmeticError(f"lambda != K - L q at r={r}, s={s}, b^2={b2}")
        if mu != _eval(k, p) + _eval(l, p) * q:
            raise ArithmeticError(f"mu != K + L q at r={r}, s={s}, b^2={b2}")
    return tuple(k), tuple(l)


def kl_ratio_derivative(k, l, p) -> "Fraction":
    """Exact (K/L)'(p) = (K'L - KL')/L^2 at a rational p >= 0, for the
    pair (k, l) = kl_polys(b2).

    p = f'^2 + g'^2 is never negative. For p >= 0 and b^2 < 1/4 every
    coefficient of L is positive, so L(p) > 0 and the quotient is defined.
    """
    from fractions import Fraction

    p = Fraction(p)
    if p < 0:
        raise DomainError(f"p={p} must be >= 0 (p = f'^2 + g'^2)")
    lp = _eval(l, p)
    return (_eval(_deriv(k), p) * lp - _eval(k, p) * _eval(_deriv(l), p)) / (lp * lp)


def compatibility_check(k, l):
    """(separability, companion): K''L^3 - K L^2 L'' - 2 K'L'L^2 + 2 K L L'^2
    and -K''K^2 L + K^3 L'' - 2 K'K^2 L' + 2 K'^2 K L - 2 K L^3, formed
    exactly for the pair (k, l) = kl_polys(b2). Each is a list of ascending
    coefficients, empty when the polynomial vanishes identically. Their
    joint vanishing is necessary for a nonplanar solution; both vanish iff
    b = 0 (the module docstring).
    """
    kd, kdd = _deriv(k), _deriv(_deriv(k))
    ld, ldd = _deriv(l), _deriv(_deriv(l))

    l2 = _mul(l, l)
    l3 = _mul(l2, l)
    k2 = _mul(k, k)
    k3 = _mul(k2, k)

    separability = _sub(
        _sub(_mul(kdd, l3), _mul(k, _mul(l2, ldd))),
        _sub(_scale(_mul(kd, _mul(ld, l2)), 2), _scale(_mul(k, _mul(l, _mul(ld, ld))), 2)),
    )
    companion = _add(
        _sub(_mul(k3, ldd), _mul(kdd, _mul(k2, l))),
        _sub(
            _sub(_scale(_mul(_mul(kd, kd), _mul(k, l)), 2), _scale(_mul(kd, _mul(k2, ld)), 2)),
            _scale(_mul(k, l3), 2),
        ),
    )

    return separability, companion


# ---------------------------------------------------------------------------
# CLI commands: (record, exit code) for the parsed arguments


def _cmd_residual_translation(args):
    point = args.point
    results = []
    for b in args.b:
        lam, mu = lambda_mu(point["fp"] * point["fp"], point["gp"] * point["gp"], b)
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "lambda": lam,
                "mu": mu,
                "residual": translation_residual(**point, b=b),
            }
        )
    return {"point": point, "results": results}, 0


def _cmd_check_translation(args):
    results = []
    pattern_ok = True
    zero_message = ""
    for b2 in args.b2:
        k, l = kl_polys(b2)
        separability, companion = compatibility_check(k, l)
        admits_nonplanar = not separability and not companion
        nodes = []
        for p in args.p:
            v = kl_ratio_derivative(k, l, p)
            nodes.append({"p": p, "value": v, "abs_is_one": abs(v) == 1})
        all_one = all(n["value"] == 1 for n in nodes)
        any_unit = any(n["abs_is_one"] for n in nodes)
        if b2 == 0:
            pattern_ok &= all_one and admits_nonplanar
            zero_message = "(K/L)_p = 1 at all nodes; " if all_one else ""
        else:
            pattern_ok &= (not any_unit) and not admits_nonplanar
        results.append(
            {
                "b2": b2,
                "k_coeffs": list(k),
                "l_coeffs": list(l),
                "ratio_derivative": nodes,
                "separability_zero": not separability,
                "companion_zero": not companion,
                "admits_nonplanar": admits_nonplanar,
            }
        )
    if pattern_ok:
        message = zero_message + "rigidity criterion satisfied only at b=0"
    else:
        message = "rigidity pattern violated"
    return {"results": results, "message": message}, 0 if pattern_ok else 4
