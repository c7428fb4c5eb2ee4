"""Property tests of core.contract against dense Kronecker-product oracles."""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mesq import core as qc

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(
    n=st.integers(1, 6),
    axes=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_ops_match_product_operator_matrix(n, axes, seed):
    # any order of axes, with repeats: the factor on an axis is the product of
    # the ops applied to it, the later ones on the left
    axes = [a % n for a in axes]
    rng = np.random.default_rng(seed)
    ops = [_complex(rng, (2, 2)) for _ in axes]
    vec = _complex(rng, 2**n)
    factors = [np.eye(2, dtype=complex) for _ in range(n)]
    for op, axis in zip(ops, axes):
        factors[axis] = op @ factors[axis]
    dense = qc.ProductOperator(tuple(factors)).full_matrix() @ vec
    got = qc.contract(vec.reshape([2] * n), ops, axes)
    assert got.shape == (2,) * n
    np.testing.assert_allclose(got.reshape(-1), dense, rtol=0, atol=1e-12 * np.abs(dense).max())


@PROPERTY
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    hits=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=[3, 4], hits=[(1, 4), (0, 3), (1, 4)], seed=0)
def test_qudit_ops_match_kron_matrix(dims, hits, seed):
    # an op of shape (m, d) turns an axis of size d into one of size m in place
    rng = np.random.default_rng(seed)
    out_dims = list(dims)
    ops, axes = [], []
    for axis, m in hits:
        axis %= len(dims)
        ops.append(_complex(rng, (m, out_dims[axis])))
        axes.append(axis)
        out_dims[axis] = m
    vec = _complex(rng, int(np.prod(dims)))
    factors = [np.eye(d, dtype=complex) for d in dims]
    for op, axis in zip(ops, axes):
        factors[axis] = op @ factors[axis]
    dense = functools.reduce(np.kron, factors) @ vec
    got = qc.contract(vec.reshape(dims), ops, axes)
    assert got.shape == tuple(out_dims)
    np.testing.assert_allclose(got.reshape(-1), dense, rtol=0, atol=1e-12 * np.abs(dense).max())
