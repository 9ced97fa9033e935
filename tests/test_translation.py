import math
import re
from fractions import Fraction

import numpy as np
import pytest

from finmin.errors import DomainError
from finmin.graph_pde import graph_residual
from finmin.cli import _parse_point
from finmin.translation import (
    compatibility_check,
    kl_polys,
    kl_ratio_derivative,
    lambda_mu,
    translation_residual,
)

RIGIDITY_B2 = [Fraction(1, 100), Fraction(4, 100), Fraction(9, 100), Fraction(16, 100), Fraction(24, 100)]
RIGIDITY_P = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(10)]


# ---------------------------------------------------------------------------
# lambda / mu


def test_swap_symmetry_exact():
    rng = np.random.default_rng(40)
    for _ in range(50):
        r = Fraction(int(rng.integers(0, 40)), int(rng.integers(1, 9)))
        s = Fraction(int(rng.integers(0, 40)), int(rng.integers(1, 9)))
        b = Fraction(int(rng.integers(0, 5)), 10)
        lam, mu = lambda_mu(r, s, b)
        lam2, mu2 = lambda_mu(s, r, b)
        assert lam == mu2 and mu == lam2


def test_origin_value_golden():
    lam, mu = lambda_mu(Fraction(0), Fraction(0), Fraction(0))
    assert lam == mu == 4


def test_b0_closed_pattern():
    # lambda = 4 (1+p)^2 (1+s) at b = 0.
    rng = np.random.default_rng(41)
    for _ in range(50):
        r = Fraction(int(rng.integers(0, 30)), 7)
        s = Fraction(int(rng.integers(0, 30)), 7)
        lam, mu = lambda_mu(r, s, Fraction(0))
        p = r + s
        assert lam == 4 * (1 + p) ** 2 * (1 + s)
        assert mu == 4 * (1 + p) ** 2 * (1 + r)


def test_golden_values_r1_s2():
    lam, mu = lambda_mu(Fraction(1), Fraction(2), Fraction(3, 10))
    assert lam == Fraction(2022663, 10000)
    assert mu == Fraction(1369154, 10000)
    assert lam > 0 and mu > 0 and lam != mu


def test_positivity():
    rng = np.random.default_rng(42)
    for _ in range(200):
        r, s = rng.uniform(0, 20, 2)
        b = rng.uniform(0.0, 0.5)
        lam, mu = lambda_mu(r, s, b)
        assert lam > 0 and mu > 0


# ---------------------------------------------------------------------------
# residual


def test_plane_residual_zero():
    tp = dict(fp=1.5, fpp=0.0, gp=-0.7, gpp=0.0)
    for b in (0.0, 0.2, 0.45):
        assert translation_residual(**tp, b=b) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_translation_point_rejects_non_finite(bad):
    # Points enter from outside through the CLI's --point parser, which
    # checks each field.
    keys = ("fp", "fpp", "gp", "gpp")
    for name in keys:
        fields = {"fp": 1.0, "fpp": 0.5, "gp": 2.0, "gpp": -0.25, name: bad}
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            _parse_point(",".join(f"{k}={v}" for k, v in fields.items()), keys)


def test_scherk_translation_residual():
    x, y = 0.3, 0.4
    tp = dict(
        fp=-math.tan(x),
        fpp=-1.0 / math.cos(x) ** 2,
        gp=math.tan(y),
        gpp=1.0 / math.cos(y) ** 2,
    )
    assert abs(translation_residual(**tp, b=0.0)) <= 1e-9
    assert abs(translation_residual(**tp, b=0.3)) > 1e-4


def test_b0_reduction_classical_translation_equation():
    rng = np.random.default_rng(43)
    for _ in range(100):
        fp, gp, fpp, gpp = rng.uniform(-2, 2, 4)
        tp = dict(fp=fp, fpp=fpp, gp=gp, gpp=gpp)
        r, s = fp * fp, gp * gp
        factor = 4.0 * (1.0 + r + s) ** 2  # positive multiple
        classical = (1 + s) * fpp + (1 + r) * gpp
        assert translation_residual(**tp, b=0.0) == pytest.approx(
            factor * classical, rel=1e-12, abs=1e-12
        )


def test_residual_matches_jet_bracket():
    # A translation surface is a graph with h12 = 0, and its residual is W^2
    # times the graph residual (tests/test_symbolic_chain.py proves the
    # coefficients exactly): simultaneous zero sets, positive ratio.
    rng = np.random.default_rng(44)
    for _ in range(200):
        fp, gp, fpp, gpp = rng.uniform(-2, 2, 4)
        tp = dict(fp=fp, fpp=fpp, gp=gp, gpp=gpp)
        w2 = 1.0 + fp * fp + gp * gp
        for b in (0.0, 0.15, 0.3, 0.45):
            graph = graph_residual(fp, gp, fpp, 0.0, gpp, b)
            assert translation_residual(**tp, b=b) == pytest.approx(w2 * graph, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# K / L polynomials


def test_kl_b0_coefficients():
    k, l = kl_polys(0)
    assert k == (4, 10, 8, 2)
    assert l == (2, 4, 2)


def test_kl_b0_exact_division():
    # K = (p + 2) L with zero remainder at b = 0.
    k, l = map(list, kl_polys(0))
    # multiply L by (p + 2) and compare coefficientwise
    prod = [2 * l[0], 2 * l[1] + l[0], 2 * l[2] + l[1], l[2]]
    assert prod == k


def test_kl_degrees():
    for b2 in [Fraction(0)] + RIGIDITY_B2:
        k, l = kl_polys(b2)
        assert len(k) == 4
        assert len(l) == 3


def test_kl_constant_terms():
    # K(0) = 4 (1 - b^2); L(0) = 2 (1 - 2 b^2 - 2 b^4), as derived in
    # tests/test_symbolic_chain.py (a circulating printed variant has
    # 2 (1 - 4 b^2) instead; the decomposition identity below rules it out).
    for b2 in [Fraction(0)] + RIGIDITY_B2:
        k, l = kl_polys(b2)
        assert k[0] == 4 * (1 - b2)
        assert l[0] == 2 * (1 - 2 * b2 - 2 * b2 * b2)


def test_decomposition_identity_exact():
    from finmin.translation import _eval, _lambda_mu_b2

    rng = np.random.default_rng(45)
    for b2 in [Fraction(0), Fraction(1, 100), Fraction(9, 100), Fraction(6, 25)]:
        k, l = kl_polys(b2)
        for _ in range(20):
            r = Fraction(int(rng.integers(0, 60)), int(rng.integers(1, 11)))
            s = Fraction(int(rng.integers(0, 60)), int(rng.integers(1, 11)))
            p, q = r + s, r - s
            lam, mu = _lambda_mu_b2(r, s, b2)
            assert lam == _eval(k, p) - _eval(l, p) * q
            assert mu == _eval(k, p) + _eval(l, p) * q


def test_kl_domain():
    with pytest.raises(DomainError):
        kl_polys(Fraction(1, 4))
    with pytest.raises(DomainError):
        kl_polys(Fraction(-1, 100))


@pytest.mark.parametrize(
    "at, perturb, message",
    [
        ((Fraction(1), Fraction(1)), (0, 1), "on the diagonal"),
        ((Fraction(3), Fraction(1, 2)), (1, 0), "lambda != K - L q"),
        ((Fraction(3), Fraction(1, 2)), (0, 1), "mu != K + L q"),
    ],
    ids=["diagonal", "lambda-split", "mu-split"],
)
def test_kl_identity_checks_raise(monkeypatch, at, perturb, message):
    # The identities kl_polys relies on are checked explicitly, so they
    # still fire under python -O; break one at a time to see each raise.
    import finmin.translation as translation

    exact = translation._lambda_mu_b2

    def broken(r, s, b2):
        lam, mu = exact(r, s, b2)
        if (r, s) == at:
            return lam + perturb[0], mu + perturb[1]
        return lam, mu

    monkeypatch.setattr(translation, "_lambda_mu_b2", broken)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        kl_polys(Fraction(1, 100))


# ---------------------------------------------------------------------------
# rigidity criterion


def test_ratio_derivative_unit_at_b0():
    for p in (0, 1, 2, 5):
        assert kl_ratio_derivative(*kl_polys(0), p) == 1


def test_ratio_derivative_never_unit_for_positive_b():
    for b2 in RIGIDITY_B2:
        kl = kl_polys(b2)
        for p in RIGIDITY_P:
            v = kl_ratio_derivative(*kl, p)
            assert abs(v) != 1


def test_ratio_derivative_example_values():
    v = kl_ratio_derivative(*kl_polys(Fraction(9, 100)), 1)
    assert abs(v) != 1
    v = kl_ratio_derivative(*kl_polys(Fraction(1, 100)), 0)
    assert v != 1
    assert abs(float(v) - 1.0) < 0.2


def test_ratio_derivative_rejects_negative_p():
    # p = f'^2 + g'^2 >= 0; at b = 0, L = 2(p + 1)^2 vanishes at p = -1.
    for b2 in (0, Fraction(1, 100)):
        with pytest.raises(DomainError, match="must be >= 0"):
            kl_ratio_derivative(*kl_polys(b2), -1)


@pytest.mark.parametrize("b2", [Fraction(0), Fraction(1, 100), Fraction(9, 100), Fraction(249, 1000)])
def test_l_coefficients_positive(b2):
    # so L(p) > 0 for every admissible p >= 0 and (K/L)' has no pole there
    assert all(c > 0 for c in kl_polys(b2)[1])


def test_ratio_derivative_is_exact_fraction():
    v = kl_ratio_derivative(*kl_polys(Fraction(1, 100)), 0)
    assert isinstance(v, Fraction)
    assert v == Fraction(5328311, 5333378)  # frozen from the exact pipeline


# ---------------------------------------------------------------------------
# compatibility report


def test_compatibility_b0():
    # Both identities vanish identically: empty coefficient lists.
    assert compatibility_check(*kl_polys(0)) == ([], [])


@pytest.mark.parametrize("b2", [Fraction(1, 25), Fraction(1, 100), Fraction(24, 100)])
def test_compatibility_positive_b(b2):
    separability, companion = compatibility_check(*kl_polys(b2))
    assert separability or companion
    # each nonzero polynomial comes trimmed: its leading coefficient is nonzero
    for poly in (separability, companion):
        assert not poly or poly[-1] != 0
