"""The derivative oracles evaluate every sample of an (n, *S) input in one pass.

A batched call must give, sample by sample, exactly the bits of a call on
that sample alone; check-derivatives relies on it for byte-identical output.
"""

import numpy as np
import pytest
from conftest import rand_jet

from finmin import dual
from finmin.jet import (
    _flat_area_fun,
    area_integrand_grad_central,
    area_integrand_grad_dual,
    area_integrand_hess_central,
    area_integrand_hess_dual,
)

ORACLES = [
    ("gradient", lambda fun, x: dual.gradient(fun, x)),
    ("hessian", lambda fun, x: dual.hessian(fun, x)),
    ("central_gradient", lambda fun, x: dual.central_gradient(fun, x, 1e-6)),
    ("central_hessian", lambda fun, x: dual.central_hessian(fun, x, 2.5e-4)),
]


def _jet_vectors(seed, sample_shape):
    rng = np.random.default_rng(seed)
    count = int(np.prod(sample_shape, dtype=int))
    z = np.stack([rand_jet(rng).ravel() for _ in range(count)], axis=-1)
    return z.reshape((6,) + tuple(sample_shape))


@pytest.mark.parametrize("name,oracle", ORACLES, ids=[o[0] for o in ORACLES])
@pytest.mark.parametrize("b", [0.0, 0.2, 0.4])
@pytest.mark.parametrize("sample_shape", [(), (5,), (3, 4)], ids=["S=()", "S=(k,)", "S=(k,m)"])
def test_batched_oracle_equals_per_sample_loop(name, oracle, b, sample_shape):
    fun = _flat_area_fun(b)
    x = _jet_vectors(17, sample_shape)
    out = oracle(fun, x)
    order = 1 if "gradient" in name else 2
    assert out.shape == (6,) * order + x.shape[1:]
    for idx in np.ndindex(*sample_shape):
        one = oracle(fun, x[(slice(None),) + idx])
        assert one.shape == (6,) * order
        assert np.array_equal(out[(Ellipsis,) + idx], one)


def test_jet_oracle_wrappers_accept_one_jet_or_a_stack():
    rng = np.random.default_rng(3)
    jets = [rand_jet(rng) for _ in range(4)]
    z = np.stack(jets, axis=-1)
    for wrapper, shape in [
        (area_integrand_grad_dual, (3, 2)),
        (area_integrand_grad_central, (3, 2)),
        (area_integrand_hess_dual, (6, 6)),
        (area_integrand_hess_central, (6, 6)),
    ]:
        stacked = wrapper(z, 0.2)
        assert stacked.shape == shape + (4,)
        for k, j in enumerate(jets):
            assert np.array_equal(stacked[..., k], wrapper(j, 0.2))


def _hessian_per_pair(fun, x):
    """Reference: one hyper-dual pass per ordered pair (i, j), each seeded
    with Python floats."""
    n = x.shape[0]
    h = np.empty((n,) + x.shape)
    for i in range(n):
        for j in range(n):
            args = [
                dual.Dual(dual.Dual(x[k], 1.0 if k == i else 0.0), dual.Dual(1.0 if k == j else 0.0, 0.0))
                for k in range(n)
            ]
            h[i, j] = fun(args).du.du
    return h


@pytest.mark.parametrize("b", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("sample_shape", [(), (5,), (3, 4)], ids=["S=()", "S=(k,)", "S=(k,m)"])
def test_row_batched_hessian_equals_per_pair_passes(b, sample_shape):
    fun = _flat_area_fun(b)
    x = _jet_vectors(29, sample_shape)
    assert np.array_equal(dual.hessian(fun, x), _hessian_per_pair(fun, x))


def test_row_batched_hessian_of_a_rational_function():
    # Every Dual operation, reflected and divided ones included, in one function.
    def fun(v):
        return (2.0 - v[0] * v[1]) / (1.0 + v[2] * v[2]) + dual.sqrt(v[0] * v[0] + 3.0) / v[1] - v[2]

    x = np.random.default_rng(4).uniform(0.5, 2.0, size=(3, 6))
    assert np.array_equal(dual.hessian(fun, x), _hessian_per_pair(fun, x))
