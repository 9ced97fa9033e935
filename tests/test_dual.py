"""The derivative oracles evaluate every sample of an (n, *S) input in one pass.

A batched call must give, sample by sample, exactly the bits of a call on
that sample alone; check-derivatives relies on it for byte-identical output.
Each oracle also takes one pass of fun over all its seeds or offsets (the
central Hessian one per row), and must give the bits of one pass per
seed or per offset.
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


def _gradient_per_coordinate(fun, x):
    """Reference: one dual pass per coordinate i, seeded with Python floats."""
    n = x.shape[0]
    g = np.empty(x.shape)
    for i in range(n):
        g[i] = fun([dual.Dual(x[k], 1.0 if k == i else 0.0) for k in range(n)]).du
    return g


def _central_gradient_per_offset(fun, x, step):
    """Reference: fun called once per offset point x + e_i and x - e_i."""
    e = np.eye(x.shape[0]) * step
    e = e.reshape(e.shape + (1,) * (x.ndim - 1))
    g = np.empty(x.shape)
    for i in range(x.shape[0]):
        g[i] = (fun(x + e[i]) - fun(x - e[i])) / (2.0 * step)
    return g


def _central_hessian_per_offset(fun, x, step):
    """Reference: fun called once per stencil point, each offset added one
    step at a time."""
    n = x.shape[0]
    e = np.eye(n) * step
    e = e.reshape(e.shape + (1,) * (x.ndim - 1))
    h = np.empty((n,) + x.shape)
    f0 = fun(x)
    for i in range(n):
        for j in range(n):
            if i == j:
                h[i, i] = (fun(x + e[i]) - 2.0 * f0 + fun(x - e[i])) / step**2
                continue
            h[i, j] = (
                fun(x + e[i] + e[j]) - fun(x + e[i] - e[j]) - fun(x - e[i] + e[j]) + fun(x - e[i] - e[j])
            ) / (4.0 * step**2)
    return h


def _rational(v):
    return (2.0 - v[0] * v[1]) / (1.0 + v[2] * v[2]) + dual.sqrt(v[0] * v[0] + 3.0) / v[1] - v[2]


def _rational_points():
    # signed zeros in the third coordinate: each must keep its sign where an
    # offset adds zero to it
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 8))
    x[1] = np.abs(x[1]) + 0.5
    x[2, :4] = [0.0, -0.0, 0.0, -0.0]
    return x


REFERENCES = [
    ("gradient", dual.gradient, _gradient_per_coordinate),
    (
        "central_gradient",
        lambda fun, x: dual.central_gradient(fun, x, 1e-6),
        lambda fun, x: _central_gradient_per_offset(fun, x, 1e-6),
    ),
    (
        "central_hessian",
        lambda fun, x: dual.central_hessian(fun, x, 2.5e-4),
        lambda fun, x: _central_hessian_per_offset(fun, x, 2.5e-4),
    ),
]


@pytest.mark.parametrize("name,oracle,reference", REFERENCES, ids=[r[0] for r in REFERENCES])
@pytest.mark.parametrize("b", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("sample_shape", [(), (5,), (3, 4)], ids=["S=()", "S=(k,)", "S=(k,m)"])
def test_one_pass_oracle_equals_one_pass_per_seed_or_offset(name, oracle, reference, b, sample_shape):
    fun = _flat_area_fun(b)
    x = _jet_vectors(31, sample_shape)
    got, want = oracle(fun, x), reference(fun, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name,oracle,reference", REFERENCES, ids=[r[0] for r in REFERENCES])
def test_one_pass_oracle_of_a_rational_function(name, oracle, reference):
    x = _rational_points()
    got, want = oracle(_rational, x), reference(_rational, x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
