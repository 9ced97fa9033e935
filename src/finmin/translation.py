"""Minimal translation surfaces f(x1) + g(x2) over exact rationals.

With r = f'(x1)^2, s = g'(x2)^2, minimality reduces to the quasilinear
ODE pair lambda * f'' + mu * g'' = 0 with polynomial coefficients

    lambda = D * (1 + s) + X * r,    mu = D * (1 + r) + X * s,
    D = S * (S - 2 b^2),  X = 2 b^2 (S + 4 b^2),  S = 2 + (2 + b^2) p,

p = r + s: D and X are the graph equation's divisor and excess at
W^2 = 1 + p, w = 1 (metric._divisor_excess). At h12 = 0 the graph
equation of the graph_pde module has h11 and h22 coefficients lambda/W^2
and mu/W^2, which tests/test_symbolic_chain.py checks exactly. In the
variables p and q = r - s the pair splits as lambda = K(p) - L(p) q,
mu = K(p) + L(p) q with deg K = 3, deg L = 2.
Whether K/L has derivative of absolute value one decides the existence of
nonplanar minimal translation surfaces: exactly at b = 0 one finds
K = (p + 2) L, so (K/L)' == 1, and for every b in (0, 1/2) the
separability identities fail, leaving only planes. As polynomials in
g = b^2 the coefficients of the separability polynomial have gcd
g^2 (g + 2) and those of the companion polynomial g^2, so both vanish
identically on [0, 1/4) only at g = 0 (tests/test_symbolic_chain.py).

kl_polys builds K and L for one b^2 by running the same (lambda, mu)
arithmetic on exact polynomials in p (_Poly): K is lambda at r = s = p/2,
L is (mu - lambda)/2 at r = (p + 1)/2, s = (p - 1)/2. kl_ratio_derivative
and compatibility_check take that pair, so a caller builds it once per
b^2. All polynomial work is over fractions.Fraction, so every reported
value is exact; the functions that build Fractions import the module
themselves, so lambda_mu, which computes on floats for the CLI's
residual-translation, loads no fractions. The two _cmd_* functions at
the end are the CLI's residual-translation and check-translation
commands.
"""

from itertools import zip_longest

from .errors import DomainError
from .metric import _divisor_excess

__all__ = [
    "lambda_mu",
    "translation_residual",
    "kl_polys",
    "kl_ratio_derivative",
    "compatibility_check",
]


def _lambda_mu_b2(r, s, b2):
    divisor, excess = _divisor_excess(1 + r + s, 1, b2)
    return divisor * (1 + s) + excess * r, divisor * (1 + r) + excess * s


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


class _Poly(tuple):
    """Dense polynomial in p, ascending coefficients with no trailing zero
    (the zero polynomial is empty). Numbers act as constants in + - *, so
    arithmetic-only code such as _lambda_mu_b2 runs on it unchanged."""

    def __new__(cls, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return super().__new__(cls, c)

    def __add__(self, other):
        other = other if isinstance(other, _Poly) else _Poly((other,))
        return _Poly(a + b for a, b in zip_longest(self, other, fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return _Poly(-c for c in self)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        other = other if isinstance(other, _Poly) else _Poly((other,))
        out = [0] * max(len(self) + len(other) - 1, 0)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] += a * b
        return _Poly(out)

    __rmul__ = __mul__

    def deriv(self):
        return _Poly(i * c for i, c in enumerate(self) if i)

    def __call__(self, x):
        acc = 0
        for c in reversed(self):
            acc = acc * x + c
        return acc


def kl_polys(b2):
    """Exact (K, L) for one squared parameter b2 = b^2: the split
    lambda = K(p) - L(p) q, mu = K(p) + L(p) q, each polynomial a tuple of
    Fraction coefficients in ascending order.

    K is lambda on the diagonal q = 0 (where lambda = mu), L is
    (mu - lambda)/2 on the line q = 1, both as polynomials in p; the split
    is then re-verified at off-line rational points.
    """
    from fractions import Fraction

    b2 = Fraction(b2)
    if not (0 <= b2 < Fraction(1, 4)):
        raise DomainError(f"b^2={b2} outside [0, 1/4)")

    half = Fraction(1, 2)
    k, mu = _lambda_mu_b2(_Poly((0, half)), _Poly((0, half)), b2)
    if k != mu:
        raise ArithmeticError(f"lambda != mu on the diagonal q = 0 at b^2={b2}")
    lam, mu = _lambda_mu_b2(_Poly((half, half)), _Poly((-half, half)), b2)
    l = (mu - lam) * half

    for r, s in ((Fraction(3), Fraction(1, 2)), (Fraction(1, 3), Fraction(5))):
        lam, mu = _lambda_mu_b2(r, s, b2)
        p, q = r + s, r - s
        if lam != k(p) - l(p) * q:
            raise ArithmeticError(f"lambda != K - L q at r={r}, s={s}, b^2={b2}")
        if mu != k(p) + l(p) * q:
            raise ArithmeticError(f"mu != K + L q at r={r}, s={s}, b^2={b2}")
    return tuple(k), tuple(l)


def kl_ratio_derivative(k, l, p) -> "Fraction":
    """Exact (K/L)'(p) = (K'L - KL')/L^2 at a rational p >= 0, for the
    pair (k, l) = kl_polys(b2) or any ascending coefficient sequences.

    p = f'^2 + g'^2 is never negative. For p >= 0 and b^2 < 1/4 every
    coefficient of L is positive, so L(p) > 0 and the quotient is defined.
    """
    from fractions import Fraction

    p = Fraction(p)
    if p < 0:
        raise DomainError(f"p={p} must be >= 0 (p = f'^2 + g'^2)")
    k, l = _Poly(k), _Poly(l)
    lp = l(p)
    return (k.deriv()(p) * lp - k(p) * l.deriv()(p)) / (lp * lp)


def compatibility_check(k, l):
    """(separability, companion): K''L^3 - K L^2 L'' - 2 K'L'L^2 + 2 K L L'^2
    and -K''K^2 L + K^3 L'' - 2 K'K^2 L' + 2 K'^2 K L - 2 K L^3, formed
    exactly for the pair (k, l) = kl_polys(b2) or any ascending coefficient
    sequences. Each is a list of ascending coefficients, empty when the
    polynomial vanishes identically. Their joint vanishing is necessary for
    a nonplanar solution; both vanish iff b = 0 (the module docstring).
    """
    k, l = _Poly(k), _Poly(l)
    kd, ld = k.deriv(), l.deriv()
    kdd, ldd = kd.deriv(), ld.deriv()
    separability = kdd * l * l * l - k * l * l * ldd - 2 * kd * ld * l * l + 2 * k * l * ld * ld
    companion = -kdd * k * k * l + k * k * k * ldd - 2 * kd * k * k * ld
    companion += 2 * kd * kd * k * l - 2 * k * l * l * l
    return list(separability), list(companion)


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
                "residual": lam * point["fpp"] + mu * point["gpp"],
            }
        )
    return {"point": point, "results": results}, 0


def _cmd_check_translation(args):
    results = []
    pattern_ok = True
    for b2 in args.b2:
        k, l = kl_polys(b2)
        separability, companion = compatibility_check(k, l)
        admits_nonplanar = not separability and not companion
        nodes = []
        for p in args.p:
            v = kl_ratio_derivative(k, l, p)
            nodes.append({"p": p, "value": v, "abs_is_one": abs(v) == 1})
        if b2 == 0:
            pattern_ok &= all(n["value"] == 1 for n in nodes) and admits_nonplanar
        else:
            pattern_ok &= not any(n["abs_is_one"] for n in nodes) and not admits_nonplanar
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
        # a passing b^2 = 0 entry has (K/L)_p = 1 at every node
        message = ("(K/L)_p = 1 at all nodes; " if 0 in args.b2 else "") + "rigidity criterion satisfied only at b=0"
    else:
        message = "rigidity pattern violated"
    return {"results": results, "message": message}, 0 if pattern_ok else 4
