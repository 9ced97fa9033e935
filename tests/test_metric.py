"""Profile families and parameters, and the norm F = alpha phi(beta/alpha)
they define, evaluated exactly in sympy from the shipped profile _phi.

The fundamental tensor g = Hess(F^2 / 2) is checked exactly as well; its
positive definiteness is the convexity condition that
tests/test_symbolic_chain.py ties to PhiFamily.b_interval.
"""

from random import Random

import pytest

from finmin.errors import DomainError
from finmin.metric import PhiFamily, _phi, _random01, check_b


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def rational(sp, v):
    return sp.Rational(str(v)) if isinstance(v, float) else sp.sympify(v)


def exact_norm(sp, b, y, family=PhiFamily.MATSUMOTO):
    """F(y) = alpha * phi(b y3 / alpha) in sympy, phi the shipped profile."""
    y = sp.Matrix(y)
    alpha = sp.sqrt(y.dot(y))
    return alpha * _phi(family, rational(sp, b) * y[2] / alpha)


@pytest.fixture(scope="module")
def tensor(sp):
    """g_ij = d^2 (F^2 / 2) / dy_i dy_j of the slope norm as a function of
    (b, y): g(b, y) is the exact tensor at rational b and y."""
    b = sp.Symbol("b", nonnegative=True)
    ys = sp.symbols("y0:3", real=True)
    g = sp.hessian(exact_norm(sp, b, ys) ** 2 / 2, ys)

    def at(b_value, y):
        return g.xreplace({v: rational(sp, x) for v, x in zip((b, *ys), (b_value, *y))})

    return at


def is_positive_definite(g):
    # Sylvester's criterion on exact entries.
    return all(g[:n, :n].det() > 0 for n in (1, 2, 3))


@pytest.mark.parametrize(
    "family,s,expected",
    [
        (PhiFamily.MATSUMOTO, 0.0, 1.0),
        (PhiFamily.RANDERS, 0.0, 1.0),
        (PhiFamily.EUCLIDEAN, 0.0, 1.0),
        (PhiFamily.MATSUMOTO, 0.2, 1.25),
        (PhiFamily.RANDERS, 0.3, 1.3),
        (PhiFamily.EUCLIDEAN, 0.4, 1.0),
    ],
)
def test_phi_eval(sp, family, s, expected):
    assert _phi(family, s) == pytest.approx(expected, rel=1e-15)
    assert _phi(family, rational(sp, s)) == rational(sp, expected)


@pytest.mark.parametrize(
    "family,s",
    [
        (PhiFamily.MATSUMOTO, 0.5),
        (PhiFamily.MATSUMOTO, -0.5),
        (PhiFamily.MATSUMOTO, 0.7),
        (PhiFamily.RANDERS, -1.0),
        (PhiFamily.RANDERS, 1.5),
    ],
)
def test_phi_eval_rejects_out_of_range(sp, family, s):
    # The profile argument s = beta/alpha obeys |s| <= b. At b = |s| the
    # profile breaks a norm condition (phi > 0, phi - s phi' + (b^2 - s^2)
    # phi'' > 0 on [-b, b]) at an end of the interval, and check_b
    # rejects that b.
    x = sp.Symbol("x")
    b = abs(rational(sp, s))
    phi = _phi(family, x)
    cond = phi - x * sp.diff(phi, x) + (b**2 - x**2) * sp.diff(phi, x, 2)
    assert min(expr.subs(x, end) for expr in (phi, cond) for end in (b, -b)) <= 0
    with pytest.raises(DomainError, match="outside"):
        check_b(float(b), family)


@pytest.mark.parametrize(
    "b,family",
    [
        (0.5, PhiFamily.MATSUMOTO),
        (-0.1, PhiFamily.MATSUMOTO),
        (1.0, PhiFamily.RANDERS),
        (float("nan"), PhiFamily.MATSUMOTO),
    ],
)
def test_params_validation(b, family):
    with pytest.raises(DomainError, match=f"one-form norm b={b} outside .* for family '{family.value}'"):
        check_b(b, family)


def test_params_accepts_euclidean_degeneration():
    assert check_b(0) == 0.0 and type(check_b(0)) is float
    assert check_b(0.3) == 0.3


@pytest.mark.parametrize(
    "b,y,expected",
    [
        (0.3, (1.0, 0.0, 0.0), 1.0),
        (0.25, (0.0, 0.0, 1.0), 4.0 / 3.0),
        (0.0, (3.0, 4.0, 0.0), 5.0),
    ],
)
def test_norm_examples(sp, b, y, expected):
    value = exact_norm(sp, b, [rational(sp, v) for v in y])
    assert value.is_Rational
    assert float(value) == pytest.approx(expected, rel=1e-15)


def test_norm_randers(sp):
    # F = alpha + beta
    assert exact_norm(sp, 0.4, (0, 0, 2), PhiFamily.RANDERS) == sp.Rational(14, 5)


def test_norm_homogeneity(sp):
    ys = sp.symbols("y0:3", real=True)
    lam = sp.Symbol("lam", positive=True)
    for family in PhiFamily:
        f = exact_norm(sp, 0.45, ys, family)
        scaled = exact_norm(sp, 0.45, [lam * v for v in ys], family)
        assert sp.simplify(sp.factor_terms(scaled) - lam * f) == 0


def test_norm_rotation_invariance(sp):
    # Rotations of the x1-x2 plane fix beta, hence the norm; exact rational
    # rotations from Pythagorean triples.
    ys = sp.symbols("y0:3", real=True)
    f = exact_norm(sp, 0.4, ys)
    for c, s, r in [(3, 4, 5), (5, 12, 13), (-8, 15, 17), (20, -21, 29)]:
        c, s = sp.Rational(c, r), sp.Rational(s, r)
        rotated = [c * ys[0] - s * ys[1], s * ys[0] + c * ys[1], ys[2]]
        assert sp.expand(exact_norm(sp, 0.4, rotated) - f) == 0


def test_fundamental_tensor_euclidean_identity(sp, tensor):
    assert tensor(0.0, (1.0, 0.0, 0.0)) == sp.eye(3)
    assert tensor(0.0, (0.3, -0.2, 0.9)) == sp.eye(3)


def test_fundamental_tensor_golden_b02(sp, tensor):
    g = tensor(0.2, (0.0, 0.0, 1.0))
    assert g == sp.diag(sp.Rational(75, 64), sp.Rational(75, 64), sp.Rational(25, 16))
    assert is_positive_definite(g)


def test_fundamental_tensor_near_convexity_boundary(tensor):
    assert is_positive_definite(tensor(0.49, (0.0, 0.0, -1.0)))


@pytest.mark.parametrize("b", [0.0, 0.1, 0.2, 0.3, 0.4, 0.45])
def test_fundamental_tensor_positive_definite_on_sphere(sp, tensor, b):
    # F is invariant under rotations about e3, so the unit vectors
    # (sin t, 0, cos t) reach every direction up to such a rotation; t runs
    # over rational points of the circle in every quadrant and on the axes.
    for sin_t, cos_t, r in [(0, 1, 1), (1, 0, 1), (3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (24, 7, 25)]:
        for y in [(sin_t, 0, cos_t), (sin_t, 0, -cos_t), (-sin_t, 0, -cos_t)]:
            assert is_positive_definite(tensor(b, [sp.Rational(v, r) for v in y]))


@pytest.mark.parametrize("n", [0, 1, 4097])
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_random01_equals_successive_random_calls(seed, n):
    # The sampled checks' one uniform draw: Python's random() stream, which
    # its documentation keeps the same in every version, as one array.
    rng, ref = Random(seed), Random(seed)
    u = _random01(rng, n)
    assert u.dtype == "float64" and u.shape == (n,)
    assert u.tolist() == [ref.random() for _ in range(n)]
    assert rng.getstate() == ref.getstate()
