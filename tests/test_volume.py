import numpy as np
import pytest

from finmin.errors import DomainError, QuadratureConvergenceError
from finmin.metric import MetricParams, PhiFamily
from finmin.volume import (
    QuadraturePolicy,
    VolumeFactorRequest,
    bh_factor_closed_matsumoto,
    bh_factor_quadrature,
)


def _req(b, family=PhiFamily.MATSUMOTO, n=2, **kw):
    return VolumeFactorRequest(MetricParams(b, family), n=n, **kw)


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
    assert bh_factor_quadrature(_req(0.0))[0] == pytest.approx(1.0, abs=1e-13)


def test_quadrature_matches_closed_form_on_grid():
    for b in np.arange(0.0, 0.46, 0.05):
        q = bh_factor_quadrature(_req(float(b)))[0]
        assert abs(q - bh_factor_closed_matsumoto(float(b))) <= 1e-10


def test_quadrature_randers():
    # Independent oracle: the n=2 denominator integral has the closed
    # value pi/(1-b^2)^(3/2), so the factor is (1-b^2)^(3/2).
    for b in (0.2, 0.5, 0.8):
        q = bh_factor_quadrature(_req(b, family=PhiFamily.RANDERS))[0]
        assert abs(q - (1.0 - b * b) ** 1.5) <= 1e-10


def test_randers_example_value():
    q = bh_factor_quadrature(_req(0.5, family=PhiFamily.RANDERS))[0]
    assert q == pytest.approx(0.6495190528383290, abs=1e-10)


def test_closed_form_strictly_decreasing():
    bs = np.linspace(0.0, 0.499, 200)
    vals = [bh_factor_closed_matsumoto(float(b)) for b in bs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_n3_converges_in_unit_interval():
    # No closed form asserted; golden recorded from the quadrature oracle.
    v = bh_factor_quadrature(_req(0.3, n=3))[0]
    assert 0.0 < v <= 1.0
    assert v == pytest.approx(0.9174311926605506, abs=1e-12)
    for b in (0.0, 0.2, 0.45):
        v = bh_factor_quadrature(_req(b, n=3))[0]
        assert 0.0 < v <= 1.0


def test_request_validation():
    with pytest.raises(DomainError):
        VolumeFactorRequest(MetricParams(0.2), n=1)
    with pytest.raises(DomainError):
        QuadraturePolicy(initial_nodes=100)
    with pytest.raises(DomainError):
        QuadraturePolicy(initial_nodes=32)
    with pytest.raises(DomainError):
        QuadraturePolicy(max_nodes=32768)
    with pytest.raises(DomainError):
        QuadraturePolicy(initial_nodes=256, max_nodes=128)


def test_non_convergence_carries_estimates():
    policy = QuadraturePolicy(initial_nodes=64, max_nodes=128, rtol=1e-17)
    with pytest.raises(QuadratureConvergenceError) as err:
        bh_factor_quadrature(_req(0.3, quadrature=policy))
    prev, last = err.value.estimates
    assert prev == pytest.approx(last, rel=1e-10)  # both already accurate
    assert last == pytest.approx(bh_factor_closed_matsumoto(0.3), abs=1e-10)
