"""Exact chain from the paper's metric F = alpha^2/(alpha - beta) to the kernels.

Each link is derived in sympy and compared with the code that ships:

1. Metric -> area integrand. In a tangent plane the indicatrix of F is
   r(theta) = 1 - b a.u(theta), a the tangential part of e3, of area
   pi (2 + b^2 |a|^2) / 2; the Busemann-Hausdorff density is pi over that
   area, 2 / (2 + b^2 |a|^2). Times the Euclidean area element C this is
   the jet module's F = 2C^3/(2C^2 + E), and at |a| = 1 it is the closed
   volume factor 2/(2 + b^2). The closed volume factors of every family
   and dimension are the volume module's defining ratio of integrals,
   integrated exactly at rational b. The admissible b of check_b are those
   where alpha phi(beta/alpha) is a Minkowski norm.
2. Area integrand -> graph equation. The Euler-Lagrange operator
   M = sum_ij d^2L/df_i df_j h_ij of L = 2W^3/D, D = 2W^2 + E, satisfies
   M D^3 = 2W _residual_terms(...) over horizontal and tilted planes;
   the solver's closed-form Jacobian partials (_residual_partials) are
   the horizontal kernel's derivatives.
3. Area integrand -> translation equation. At h12 = 0 the kernel's h11 and
   h22 coefficients are lambda/W^2 and mu/W^2, the README's written-out
   products, whose split gives the README's K and L; K = (p + 2) L at b = 0.
4. Graph equation -> ellipticity constant. The excess of the graph
   equation's form over the classical one has supremum
   C(b) = 2b^2/(2 + b^2) over all gradients and probe directions, the
   same for every frame.
5. Translation equation -> rigidity for every b. As polynomials in
   g = b^2, the separability and companion polynomials and the numerator
   of (K/L)' - 1 vanish identically only at g = 0 on [0, 1/4), and that
   of (K/L)' + 1 never does.

W = sqrt(1 + |f|^2) stays a symbol with dW/df_i = f_i/W, and polynomial
identities are reduced modulo W^2 - 1 - |f|^2. The kernels take symbols;
their float literals (1.0, 2.0, 4.0) are turned into rationals before
anything is compared, and rational values are substituted afterwards, so
nothing is rounded.
"""

import functools
import itertools
import math
import random
from functools import reduce

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from finmin.graph_pde import _residual_partials, _residual_terms  # noqa: E402
from finmin.jet import _flat_area_fun, _minors  # noqa: E402
from finmin.metric import PhiFamily, _divisor_excess, _phi  # noqa: E402
from finmin.translation import _lambda_mu_b2, compatibility_check, kl_polys  # noqa: E402
from finmin.volume import bh_factor_closed  # noqa: E402

b, s, theta, a1, a2, a_sq = sp.symbols("b s theta a1 a2 a_sq", real=True)
f1, f2, h11, h12, h22, W = sp.symbols("f1 f2 h11 h12 h22 W", real=True)
k1, k2, k3 = sp.symbols("k1 k2 k3", real=True)
p, q, g = sp.symbols("p q g", real=True)  # g = b^2 in the translation link
xi1, xi2, u1, u2 = sp.symbols("xi1 xi2 u1 u2", real=True)
x, w_squared = sp.symbols("x w_squared", nonnegative=True)


def exact(expr):
    """expr with its Floats (exact binary values such as 2.0) made Rationals."""
    expr = sp.sympify(expr)
    return expr.xreplace({x: sp.Rational(x) for x in expr.atoms(sp.Float)})


def kernel(*args):
    return exact(_residual_terms(*args)[0])


def w_sq():
    return 1 + f1**2 + f2**2


def reduce_mod_w(expr):
    """Numerator of expr reduced modulo W^2 - 1 - |f|^2, expanded."""
    num = sp.expand(sp.numer(sp.together(expr)))
    return sp.expand(sp.rem(sp.Poly(num, W), sp.Poly(W**2 - w_sq(), W)).as_expr())


def pythagorean_points(limit=12):
    """(f1, f2, W) rational with 1 + f1^2 + f2^2 = W^2, from the quadruples
    c0^2 + c1^2 + c2^2 = d^2 with 1 <= c0, c1, c2 <= limit."""
    out = []
    for c0, c1, c2 in itertools.product(range(1, limit + 1), repeat=3):
        d = math.isqrt(c0 * c0 + c1 * c1 + c2 * c2)
        if d * d == c0 * c0 + c1 * c1 + c2 * c2:
            out.append((sp.Rational(c1, c0), sp.Rational(c2, c0), sp.Rational(d, c0)))
    return out


def cayley(x, y, z):
    """Exact rational rotation (I + S)(I - S)^-1 of the skew matrix S of (x, y, z)."""
    skew = sp.Matrix([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    return (sp.eye(3) + skew) * (sp.eye(3) - skew).inv()


FRAMES = [
    cayley(sp.Rational(1, 2), sp.Rational(-1, 3), sp.Rational(2, 5)),
    cayley(3, 1, -2),
    cayley(0, sp.Rational(7, 4), 0),  # k3 = -33/65: a steep plane
]


# ---------------------------------------------------------------------------
# 1. metric -> area integrand


@pytest.fixture(scope="module")
def density():
    """BH density of the tangent plane as a function of a_sq = |a|^2."""
    # alpha = 1 on the unit circle u(theta) of the plane, beta = b a.u.
    beta = b * (a1 * sp.cos(theta) + a2 * sp.sin(theta))
    norm = _phi(PhiFamily.MATSUMOTO, beta)  # alpha * phi(beta/alpha) at alpha = 1
    radius = 1 / norm  # F(r u) = r F(u) = 1
    area = sp.integrate(radius**2 / 2, (theta, 0, 2 * sp.pi))
    assert sp.simplify(area - sp.pi * (2 + b**2 * (a1**2 + a2**2)) / 2) == 0
    sigma = sp.pi / area
    assert sp.simplify(sigma.subs(a2, 0).subs(a1, sp.sqrt(a_sq)) - 2 / (2 + b**2 * a_sq)) == 0
    return 2 / (2 + b**2 * a_sq)


def test_matsumoto_norm_is_the_slope_profile():
    alpha, beta = sp.symbols("alpha beta", positive=True)
    assert sp.simplify(alpha * _phi(PhiFamily.MATSUMOTO, beta / alpha) - alpha**2 / (alpha - beta)) == 0


def test_density_is_the_jet_area_integrand(density):
    # A graph jet: C^2 = det(z^T z) = W^2 and |a|^2 = z3^T (z^T z)^-1 z3 = |f|^2 / W^2.
    z = sp.Matrix([[1, 0], [0, 1], [f1, f2]])
    gram = z.T * z
    assert sp.expand(gram.det() - w_sq()) == 0
    tangential = sp.simplify((z[2, :] * gram.inv() * z[2, :].T)[0])
    assert sp.simplify(tangential - (w_sq() - 1) / w_sq()) == 0
    big_e = b**2 * gram.det() * tangential  # E = b^2 C^2 |a|^2, the jet module's E
    assert sp.simplify(big_e - b**2 * (f1**2 + f2**2)) == 0
    integrand = sp.sqrt(w_sq()) * density.subs(a_sq, tangential)
    c = sp.sqrt(w_sq())
    assert sp.simplify(integrand - 2 * c**3 / (2 * c**2 + big_e)) == 0

    # The float kernels agree to rounding at rational points with rational W.
    for (x1, x2, ww), bb in itertools.product(pythagorean_points(8)[:6], ("0", "1/4", "3/10", "7/16")):
        bb = sp.Rational(bb)
        point = {f1: x1, f2: x2, b: bb}
        jet = [1.0, 0.0, 0.0, 1.0, float(x1), float(x2)]
        assert _flat_area_fun(float(bb))(jet) == pytest.approx(float(integrand.subs(point)), rel=1e-15)
        z_float = np.array([[1.0, 0.0], [0.0, 1.0], [float(x1), float(x2)]])
        assert _minors(z_float, float(bb))[2] == pytest.approx(float(big_e.subs(point)), rel=1e-15)


def test_density_on_vertical_planes_is_the_closed_volume_factor(density):
    closed = density.subs(a_sq, 1)
    assert sp.simplify(closed - 2 / (2 + b**2)) == 0
    for bb in ("0", "1/8", "1/5", "3/10", "9/20", "49/100"):
        exact_value = float(closed.subs(b, sp.Rational(bb)))
        assert bh_factor_closed(float(sp.Rational(bb))) == pytest.approx(exact_value, rel=1e-15)


@functools.lru_cache(maxsize=None)
def sin_cos_integral(m, k):
    """integral(sin(theta)**m * cos(theta)**k, 0, pi), exactly."""
    return sp.integrate(sp.sin(theta) ** m * sp.cos(theta) ** k, (theta, 0, sp.pi))


# Randers n = 4 and 6 take sympy 10-80 s; the float tests cover them.
@pytest.mark.parametrize(
    "family,n",
    [(PhiFamily.MATSUMOTO, n) for n in range(2, 8)]
    + [(PhiFamily.RANDERS, n) for n in (2, 3, 5)]
    + [(PhiFamily.EUCLIDEAN, n) for n in (2, 3)],
    ids=lambda v: getattr(v, "value", v),
)
def test_closed_volume_factor_is_the_defining_ratio(family, n):
    # f(b) = integral(sin**(n-2)) / integral(sin**(n-2) / phi(b cos)**n) over
    # (0, pi). For the slope profile 1/phi**n is a polynomial in cos(theta),
    # integrated term by term; the other profiles are integrated as they are.
    cos_t = sp.Symbol("cos_t")
    bs = ("1/2",) if family is PhiFamily.RANDERS else ("1/8", "3/8", "49/100")
    for bb in map(sp.Rational, bs):
        if family is PhiFamily.MATSUMOTO:
            poly = sp.Poly(sp.cancel(1 / _phi(family, bb * cos_t) ** n), cos_t)
            den = sum(coeff * sin_cos_integral(n - 2, k) for (k,), coeff in poly.terms())
        else:
            integrand = sp.sin(theta) ** (n - 2) / _phi(family, bb * sp.cos(theta)) ** n
            den = sp.integrate(integrand, (theta, 0, sp.pi))
        ratio = sp.simplify(sin_cos_integral(n - 2, 0) / den)
        if family is PhiFamily.RANDERS:
            assert sp.simplify(ratio - (1 - bb**2) ** sp.Rational(n + 1, 2)) == 0
        assert bh_factor_closed(float(bb), family, n) == pytest.approx(float(ratio), rel=1e-15)


@pytest.mark.parametrize("family", list(PhiFamily), ids=lambda f: f.value)
def test_convexity_condition_is_the_b_interval(family):
    # alpha phi(beta/alpha) is a Minkowski norm for every alpha and every
    # beta of norm b iff phi(s) > 0 and phi - s phi' + (b^2 - s^2) phi'' > 0
    # for |s| <= b (Chern & Shen, Riemann-Finsler Geometry, Lemma 1.1.2).
    phi = sp.sympify(_phi(family, s))
    cond = sp.factor(phi - s * sp.diff(phi, s) + (b**2 - s**2) * sp.diff(phi, s, 2))
    num, den = sp.fraction(cond)
    # The numerator is linear in s and the denominator vanishes only at the
    # pole of phi, so on [-b, b] (pole outside) both extremes sit at s = +-b.
    assert sp.degree(num, s) <= 1 and sp.solveset(den, s, sp.S.Reals).is_subset(sp.FiniteSet(1))
    if family is PhiFamily.MATSUMOTO:
        assert sp.simplify(cond.subs(s, b) - (1 - b) * (1 - 2 * b) / (1 - b) ** 3) == 0
    conditions = [expr.subs(s, end) > 0 for expr in (phi, cond) for end in (b, -b)]
    nonnegative = sp.Interval(0, sp.oo)
    admissible = reduce(sp.Intersection, [sp.solveset(c, b, nonnegative) for c in conditions], nonnegative)
    lo, hi = family.b_interval
    assert admissible == sp.Interval.Ropen(sp.Rational(lo), sp.oo if math.isinf(hi) else sp.Rational(hi))


# ---------------------------------------------------------------------------
# 2. area integrand -> graph equation


def _d(expr, x):
    """Total f-derivative, with W = sqrt(1 + |f|^2) kept as a symbol."""
    return sp.diff(expr, x) + sp.diff(expr, W) * x / W


@pytest.fixture(scope="module")
def euler_lagrange(density):
    """(M, D) over the plane with frame row k: w = k3 - k.f and, for unit k,
    |a|^2 = (W^2 - w^2)/W^2 (checked at the FRAMES below)."""
    w = k3 - k1 * f1 - k2 * f2
    lagrangian = W * density.subs(a_sq, (W**2 - w**2) / W**2)
    big_d = 2 * W**2 + b**2 * (W**2 - w**2)
    assert sp.simplify(lagrangian - 2 * W**3 / big_d) == 0
    hess = ((h11, h12), (h12, h22))
    fs = (f1, f2)
    op = sum(_d(_d(lagrangian, fs[i]), fs[j]) * hess[i][j] for i in range(2) for j in range(2))
    return op, big_d


def test_tilted_frames_give_the_anisotropy_of_the_kernel():
    # Graph jet z = m[:, :2] + m[:, 2] f^T over the frame's plane: C^2 = W^2
    # and C^2 |a|^2 = W^2 - w^2 with w = k3 - k1 f1 - k2 f2, k = m[2, :].
    for m in FRAMES:
        assert m * m.T == sp.eye(3)
        z = m[:, :2] + m[:, 2] * sp.Matrix([[f1, f2]])
        gram = z.T * z
        assert sp.expand(gram.det() - w_sq()) == 0
        w = m[2, 2] - m[2, 0] * f1 - m[2, 1] * f2
        tangential = (z[2, :] * gram.adjugate() * z[2, :].T)[0]  # C^2 |a|^2
        assert sp.expand(tangential - (w_sq() - w**2)) == 0


def test_horizontal_graph_equation_is_euler_lagrange(euler_lagrange):
    op, big_d = euler_lagrange
    flat = {k1: 0, k2: 0, k3: 1}
    residual = kernel(f1, f2, h11, h12, h22, 0, 0, 1, b)
    assert reduce_mod_w(op.subs(flat) * big_d.subs(flat) ** 3 - 2 * W * residual) == 0


def test_residual_partials_are_the_kernel_derivatives():
    # The solver's Jacobian partials, in closed form, are the exact
    # derivatives of the horizontal kernel in the five stencil values.
    residual = kernel(f1, f2, h11, h12, h22, 0, 0, 1, b)
    partials = _residual_partials(f1, f2, h11, h12, h22, b)
    for var, partial in zip((f1, f2, h11, h12, h22), partials, strict=True):
        assert sp.cancel(exact(partial) - sp.diff(residual, var)) == 0, var


def test_tilted_graph_equation_is_euler_lagrange(euler_lagrange):
    # Exact at points (f, W, H, b) with W rational; k enters the kernel as
    # symbols and its rational values are substituted afterwards.
    op, big_d = euler_lagrange
    identity = op * big_d**3 - 2 * W * kernel(f1, f2, h11, h12, h22, k1, k2, k3, b)
    rng = random.Random(5)
    points = pythagorean_points()
    for m in FRAMES:
        at_frame = identity.subs({k1: m[2, 0], k2: m[2, 1], k3: m[2, 2]})
        for x1, x2, ww in rng.sample(points, 16):
            hs = [sp.Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            bb = sp.Rational(rng.randint(0, 49), 100)
            assert at_frame.xreplace({f1: x1, f2: x2, W: ww, h11: hs[0], h12: hs[1], h22: hs[2], b: bb}) == 0


# ---------------------------------------------------------------------------
# 3. area integrand -> translation equation


def test_translation_coefficients_are_the_kernel_at_h12_zero():
    residual = kernel(f1, f2, h11, 0, h22, 0, 0, 1, b)
    lam, mu = _lambda_mu_b2(f1**2, f2**2, b**2)
    assert sp.simplify(residual - (lam * h11 + mu * h22) / w_sq()) == 0


def test_lambda_mu_are_the_readme_products():
    # _lambda_mu_b2 takes (lambda, mu) from the graph equation's divisor and
    # excess; the README writes both out as products
    r, t = sp.symbols("r t", nonnegative=True)  # t plays s, a module symbol
    lam, mu = _lambda_mu_b2(r, t, g)
    lead, tail = 2 + (2 + g) * (r + t), 2 * (1 - g) + (2 + g) * (r + t)
    extra = 2 * g * (2 + 4 * g + (2 + g) * (r + t))
    assert sp.expand(lam - (lead * tail * (1 + t) + extra * r)) == 0
    assert sp.expand(mu - (lead * tail * (1 + r) + extra * t)) == 0


def _k_and_l():
    lam, mu = _lambda_mu_b2((p + q) / 2, (p - q) / 2, g)
    k_poly = sp.expand((lam + mu) / 2)
    l_poly = sp.expand(sp.cancel((mu - lam) / (2 * q)))
    return k_poly, l_poly


def test_kl_polys_are_the_readme_split():
    k_poly, l_poly = _k_and_l()
    readme_k = 4 * (1 - g) + (10 + 2 * g**2) * p + (8 + 6 * g + g**2) * p**2 + (2 + g) ** 2 / 2 * p**3
    readme_l = 2 * (1 - 2 * g - 2 * g**2) + (4 - 2 * g - 2 * g**2) * p + (2 + g) ** 2 / 2 * p**2
    assert sp.expand(k_poly - readme_k) == 0
    assert sp.expand(l_poly - readme_l) == 0
    for g0 in ("0", "1/100", "1/25", "9/100", "1/7", "6/25"):
        k, l = kl_polys(g0)
        g0 = sp.Rational(g0)
        assert [sp.Rational(c.numerator, c.denominator) for c in k] == sp.Poly(
            k_poly.subs(g, g0), p
        ).all_coeffs()[::-1]
        assert [sp.Rational(c.numerator, c.denominator) for c in l] == sp.Poly(
            l_poly.subs(g, g0), p
        ).all_coeffs()[::-1]


def test_k_is_p_plus_2_times_l_at_b0():
    k_poly, l_poly = _k_and_l()
    assert sp.expand(k_poly.subs(g, 0) - (p + 2) * l_poly.subs(g, 0)) == 0
    assert sp.expand(k_poly - (p + 2) * l_poly) != 0


# ---------------------------------------------------------------------------
# 4. graph equation -> ellipticity constant


def test_excess_supremum_over_probe_directions():
    # The excess quotient R W^2 (u.xi)^2 / h(xi), h = I - f f^T / W^2, has
    # supremum R W^2 u^T (I + f f^T) u over xi (Sherman-Morrison).
    f = sp.Matrix([f1, f2])
    h = sp.eye(2) - f * f.T / w_sq()
    h_inv = sp.eye(2) + f * f.T
    assert sp.simplify(h * h_inv - sp.eye(2)) == sp.zeros(2, 2)
    xi, u = sp.Matrix([xi1, xi2]), sp.Matrix([u1, u2])

    def form(m, v):
        return (v.T * m * v)[0]

    # h >= I / W^2 > 0: W^2 h(xi) - |xi|^2 is a square (Lagrange's identity).
    assert sp.simplify(w_sq() * form(h, xi) - (xi1**2 + xi2**2) - (f1 * xi2 - f2 * xi1) ** 2) == 0
    # Cauchy-Schwarz in the h inner product, with its defect written as the
    # h-form of v >= 0: (u.xi)^2 / h(xi) <= u^T h^-1 u ...
    top = form(h_inv, u)
    u_xi = (u.T * xi)[0]
    v = xi - u_xi / top * h_inv * u
    assert sp.simplify(top * form(h, xi) - u_xi**2 - top * form(h, v)) == 0
    # ... with equality at xi = h^-1 u.
    best = h_inv * u
    assert sp.simplify((u.T * best)[0] ** 2 / form(h, best) - top) == 0


def test_excess_supremum_is_the_tangential_defect():
    # For a unit frame row k and u = (k1, k2) + w f / W^2, w = k3 - k.f:
    # W^2 u^T (I + f f^T) u = W^2 - w^2.
    f = sp.Matrix([f1, f2])
    w = k3 - k1 * f1 - k2 * f2
    u = sp.Matrix([k1, k2]) + w * f / w_sq()
    defect = w_sq() * (u.T * (sp.eye(2) + f * f.T) * u)[0] - (w_sq() - w**2)
    numerator = sp.Poly(sp.expand(sp.numer(sp.together(defect))), k3)
    assert sp.rem(numerator, sp.Poly(k1**2 + k2**2 + k3**2 - 1, k3)).is_zero


def test_mean_curvature_type_constant_is_exact():
    # With x = w^2 / W^2 in [0, 1], the supremum R (W^2 - w^2) of the
    # shipped kernel's R = excess / divisor stays below C = 2b^2/(2 + b^2),
    # and reaches it only at x = 0 (k tangent to the graph).
    divisor, excess = (exact(t) for t in _divisor_excess(W**2, sp.sqrt(w_squared), b**2))
    sup = (excess / divisor * (W**2 - w_squared)).subs(w_squared, x * W**2)
    constant = 2 * b**2 / (2 + b**2)
    bracket = 2 - 5 * b**2 - 3 * b**4 + 3 * b**2 * (1 + b**2) * x
    gap = 4 * b**2 * x * bracket / ((2 + b**2) * (2 + b**2 - b**2 * x) * (2 + b**2 - 3 * b**2 * x))
    assert sp.simplify(constant - sup - gap) == 0
    # For b^2 < 1/3 every factor of the gap is positive on 0 < x <= 1: the
    # bracket grows with x from (1 - 3b^2)(2 + b^2), and the last
    # denominator factor falls to 2 - 2b^2 at x = 1.
    assert sp.expand(bracket.subs(x, 0) - (1 - 3 * b**2) * (2 + b**2)) == 0
    assert sp.expand(sp.diff(bracket, x) - 3 * b**2 * (1 + b**2)) == 0
    assert sp.expand((2 + b**2 - 3 * b**2 * x).subs(x, 1) - (2 - 2 * b**2)) == 0
    assert sp.simplify(sup.subs(x, 0) - constant) == 0


# ---------------------------------------------------------------------------
# 5. translation equation -> rigidity for every b


@pytest.fixture(scope="module")
def rigidity_polys():
    """K, L and the polynomials in (p, g) whose identical vanishing decides
    nonplanar translation surfaces."""
    k_poly, l_poly = _k_and_l()
    separability = sp.cancel(l_poly**4 * sp.diff(k_poly / l_poly, p, 2))
    companion = sp.cancel(k_poly**4 * sp.diff(l_poly / k_poly, p, 2) - 2 * k_poly * l_poly**3)
    return k_poly, l_poly, separability, companion


def coefficient_gcd(poly):
    """gcd in g of the coefficients of poly in p."""
    return sp.factor(reduce(sp.gcd, sp.Poly(poly, p).all_coeffs()))


def test_rigidity_polynomials_have_the_stated_coefficient_gcds(rigidity_polys):
    # A coefficient gcd is the whole common zero set in g of the
    # coefficients: g^2 (g + 2) and g^2 vanish on [0, 1/4) only at g = 0.
    k_poly, l_poly, separability, companion = rigidity_polys
    assert sp.expand(coefficient_gcd(separability) - g**2 * (g + 2)) == 0
    assert sp.expand(coefficient_gcd(companion) - g**2) == 0
    # (K/L)' -+ 1 over the integer pair (2K, 2L): the numerator of
    # (K/L)' - 1 vanishes identically only at g = 0, that of (K/L)' + 1 never.
    k2, l2 = 2 * k_poly, 2 * l_poly
    for sign, content in ((-1, 12 * g**2), (1, 2)):
        numerator = sp.expand(sp.diff(k2, p) * l2 - k2 * sp.diff(l2, p) + sign * l2**2)
        assert sp.cancel(sp.diff(k_poly / l_poly, p) + sign - numerator / l2**2) == 0
        assert sp.expand(coefficient_gcd(numerator) - content) == 0
    assert sp.expand(k_poly - (p + 2) * l_poly - 2 * g * (p + 1) * (g * p + 4 * g + 2 * p + 2)) == 0


def test_compatibility_check_is_the_sympy_pair(rigidity_polys):
    _, _, separability, companion = rigidity_polys
    for g0 in ("0", "1/100", "1/7", "9/100", "6/25"):
        got = compatibility_check(*kl_polys(g0))
        g0 = sp.Rational(g0)
        for shipped, poly in zip(got, (separability, companion)):
            as_poly = sum(sp.Rational(c.numerator, c.denominator) * p**i for i, c in enumerate(shipped))
            assert sp.expand(as_poly - poly.subs(g, g0)) == 0
            assert (shipped == []) == (g0 == 0)
