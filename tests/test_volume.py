import math
from fractions import Fraction

import numpy as np
import pytest

from finmin.errors import DomainError, QuadratureConvergenceError
from finmin import volume
from finmin.metric import PhiFamily
from finmin.volume import (
    _gauss_legendre,
    _nodes_weights,
    _ratio_estimate,
    bh_factor_closed_matsumoto,
    bh_factor_quadrature,
)


@pytest.mark.parametrize(
    "b,expected",
    [
        (0.0, 1.0),
        (0.3, 0.9569377990430622),  # 2/2.09
        (0.4, 0.9259259259259259),  # 2/2.16
    ],
)
def test_closed_form(b, expected):
    v = bh_factor_closed_matsumoto(b)
    assert v == pytest.approx(expected, rel=1e-15)
    assert v == pytest.approx(2.0 / (2.0 + b * b), rel=1e-15)


@pytest.mark.parametrize("b", [-0.01, 0.5, 0.7])
def test_closed_form_domain(b):
    with pytest.raises(DomainError):
        bh_factor_closed_matsumoto(b)


def test_quadrature_euclidean_limit():
    assert bh_factor_quadrature(0.0)[0] == pytest.approx(1.0, abs=1e-13)


def test_quadrature_matches_closed_form_on_grid():
    for b in np.arange(0.0, 0.46, 0.05):
        q = bh_factor_quadrature(float(b))[0]
        assert abs(q - bh_factor_closed_matsumoto(float(b))) <= 1e-10


def test_quadrature_randers():
    # Independent oracle: the n=2 denominator integral has the closed
    # value pi/(1-b^2)^(3/2), so the factor is (1-b^2)^(3/2).
    for b in (0.2, 0.5, 0.8):
        q = bh_factor_quadrature(b, family=PhiFamily.RANDERS)[0]
        assert abs(q - (1.0 - b * b) ** 1.5) <= 1e-10


def test_randers_example_value():
    q = bh_factor_quadrature(0.5, family=PhiFamily.RANDERS)[0]
    assert q == pytest.approx(0.6495190528383290, abs=1e-10)


def test_closed_form_strictly_decreasing():
    bs = np.linspace(0.0, 0.499, 200)
    vals = [bh_factor_closed_matsumoto(float(b)) for b in bs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_n3_converges_in_unit_interval():
    # No closed form asserted; golden recorded from the quadrature oracle.
    v = bh_factor_quadrature(0.3, n=3)[0]
    assert 0.0 < v <= 1.0
    assert v == pytest.approx(0.9174311926605506, abs=1e-12)
    for b in (0.0, 0.2, 0.45):
        v = bh_factor_quadrature(b, n=3)[0]
        assert 0.0 < v <= 1.0


def test_request_validation():
    for n in (1, 0, 2.0):
        with pytest.raises(DomainError, match=f"dimension n={n} must be an integer >= 2"):
            bh_factor_quadrature(0.2, n=n)
    for b, family in ((0.5, PhiFamily.MATSUMOTO), (-0.1, PhiFamily.RANDERS), (math.nan, PhiFamily.EUCLIDEAN)):
        with pytest.raises(DomainError, match="outside"):
            bh_factor_quadrature(b, family)


def test_non_convergence_carries_estimates(monkeypatch):
    # Randers b = 0.999 needs 256 nodes; capped at 128 the doubling runs out.
    monkeypatch.setattr(volume, "_MAX_NODES", 128)
    with pytest.raises(QuadratureConvergenceError) as err:
        bh_factor_quadrature(0.999, family=PhiFamily.RANDERS)
    monkeypatch.undo()
    prev, last = err.value.estimates
    estimate = lambda n_nodes: _ratio_estimate(0.999, PhiFamily.RANDERS, 2, n_nodes)
    assert (prev, last) == (estimate(64), estimate(128))
    assert abs(last - prev) > volume._RTOL
    assert prev == pytest.approx(last, rel=1e-7)  # both already close
    assert last == pytest.approx(_randers_exact(0.999), abs=1e-10)
    assert "at 64 nodes" in str(err.value) and "at 128 nodes" in str(err.value)
    assert bh_factor_quadrature(0.999, family=PhiFamily.RANDERS)[1] == 256


def test_nonfinite_estimate_fails_at_first_node_count():
    # sin(t)**(n-2) and, where phi < 1, phi**n underflow to 0: 0/0 at 64 nodes.
    with pytest.raises(QuadratureConvergenceError) as err:
        bh_factor_quadrature(0.3, n=100_000)
    assert "b=0.3, n=100000 with 64 nodes" in str(err.value)
    assert math.isnan(err.value.estimates[1])


def test_all_terms_underflowing_gives_nan_at_first_node_count():
    # phi = 1 and sin(t)**(n-2) underflows to 0 at every node: both sums are
    # 0, and the ratio is nan as in IEEE arithmetic, not a ZeroDivisionError.
    for family in (PhiFamily.MATSUMOTO, PhiFamily.EUCLIDEAN):
        with pytest.raises(QuadratureConvergenceError) as err:
            bh_factor_quadrature(0.0, family, n=10**7)
        assert "b=0.0, n=10000000 with 64 nodes" in str(err.value)
        assert math.isnan(err.value.estimates[1])


def test_large_n_overflow_still_returns_finite_value():
    # phi**n overflows to inf on part of the nodes; those terms add 0.
    value, _ = bh_factor_quadrature(0.45, n=2000)
    assert math.isfinite(value) and 0.0 < value < 1e-70


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule against independent oracles


def _randers_exact(b):
    # (1 - b^2)^(3/2) with 1 - b^2 formed exactly: a few ulp, no cancellation.
    s = float(1 - Fraction(b) ** 2)
    return s * math.sqrt(s)


@pytest.mark.parametrize("n_nodes", [64, 128, 256, 512, 1024])
def test_nodes_match_scipy(n_nodes):
    special = pytest.importorskip("scipy.special")
    x = np.asarray(_gauss_legendre(n_nodes)[0])
    ref, _ = special.roots_legendre(n_nodes)
    assert np.max(np.abs(x - ref)) <= np.finfo(float).eps


@pytest.mark.parametrize(
    "n_nodes,ks,w_rtol",
    [
        pytest.param(64, None, 1e-12, id="64"),
        pytest.param(128, None, 1e-12, id="128"),
        # The numpy rule this one replaced was 1.1e-12 off at k = 1 here.
        pytest.param(1024, (1, 2, 5, 50, 300, 512), 2e-12, id="1024"),
    ],
)
def test_rule_matches_mpmath(n_nodes, ks, w_rtol):
    mp = pytest.importorskip("mpmath")
    x, w = _gauss_legendre(n_nodes)
    with mp.workdps(30):

        def dp(r):
            return n_nodes * (mp.legendre(n_nodes - 1, r) - r * mp.legendre(n_nodes, r)) / (1 - r * r)

        for k in ks or range(1, n_nodes // 2 + 1):
            r = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n_nodes + mp.mpf(1) / 2))
            for _ in range(6):
                r -= mp.legendre(n_nodes, r) / dp(r)
            ref_w = 2 / ((1 - r * r) * dp(r) ** 2)
            # k-th largest root sits at index n - k of the ascending rule
            assert abs(x[n_nodes - k] - r) <= np.finfo(float).eps
            assert abs((w[n_nodes - k] - ref_w) / ref_w) <= w_rtol


@pytest.mark.parametrize("n_nodes", [64, 128, 256, 512, 1024, 2048, 4096])
def test_rule_symmetry_and_weight_sum(n_nodes):
    x, w = map(np.asarray, _gauss_legendre(n_nodes))
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    w_pi = np.asarray(_nodes_weights(n_nodes)[1])
    assert abs(w_pi.sum() - math.pi) <= 4 * np.spacing(math.pi)


@pytest.mark.parametrize("b", [0.0, 0.15, 0.3, 0.45, 0.49])
def test_matsumoto_quadrature_to_rounding(b):
    exact2 = float(Fraction(2) / (2 + Fraction(b) ** 2))
    exact3 = float(1 / (1 + Fraction(b) ** 2))
    assert bh_factor_quadrature(b)[0] == pytest.approx(exact2, rel=1e-14, abs=0)
    assert bh_factor_quadrature(b, n=3)[0] == pytest.approx(exact3, rel=1e-14, abs=0)


@pytest.mark.parametrize("b", [0.2, 0.5, 0.8, 0.95, 0.999])
def test_randers_quadrature_to_rounding(b):
    q = bh_factor_quadrature(b, family=PhiFamily.RANDERS)[0]
    assert q == pytest.approx(_randers_exact(b), rel=1e-14, abs=0)


def test_tiny_factor_converges_relative_to_its_size():
    # The stop test is relative: a factor of order 1e-71 doubles on to 1024
    # nodes, where an absolute test would stop at 128 nodes 1.5e-4 off.
    mp = pytest.importorskip("mpmath")
    n, b = 2000, 0.45
    with mp.workdps(40):
        # The integrals of sin(t)**(n-2) * cos(t)**k over [0, pi] are Beta
        # values for even k and vanish for odd k; expand (1 - b cos t)**n.
        half = (mp.mpf(n) - 1) / 2
        den = mp.fsum(
            mp.binomial(n, k) * mp.mpf(b) ** k * mp.beta(mp.mpf(k + 1) / 2, half) for k in range(0, n + 1, 2)
        )
        exact = mp.beta(mp.mpf(1) / 2, half) / den
    value, nodes = bh_factor_quadrature(b, n=n)
    assert nodes == 1024
    assert abs(value - exact) <= 1e-12 * exact
