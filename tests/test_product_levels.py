"""The oracle's depth-level builder against the einsum level it replaced.

reference_level is a verbatim copy of that level, on (K, 2, 2) batches.  The
builder keeps each level component-major, as (2, 2, K); it sums the same
products in the same order and then adds +0.0, as einsum's sum from zero
does, so every depth's level, read as (K, 2, 2), must agree bit for bit with
the reference batch, signed zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrelax import DEFAULT_PRODUCT_CAP, MatrixSet
from jsrelax.oracle import _LEVEL_BLOCK, _products, _trace

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

EX1 = ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]])
EX2 = (
    [[15 / 17, -16 / 17], [4 / 17, 15 / 17]],
    [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]],
)


def reference_level(mats: np.ndarray, prods: np.ndarray) -> np.ndarray:
    # prepend each family member: new chains are A_i times the old chains
    return np.einsum("aij,kjl->akil", mats, prods).reshape(-1, 2, 2)


def reference_batches(s: MatrixSet, depth: int):
    """Every depth's prescaled batch, each level built by reference_level."""
    mats = np.stack(s.arrays())
    e = math.frexp(float(np.abs(mats).max()))[1]
    mats = np.ldexp(mats, -e)
    prods = mats
    batches = [prods]
    for _ in range(depth - 1):
        prods = reference_level(mats, prods)
        batches.append(prods)
    return batches, e


def assert_levels_match(s: MatrixSet, depth: int) -> list[np.ndarray]:
    want, want_e = reference_batches(s, depth)
    got = list(_products(s, depth, DEFAULT_PRODUCT_CAP))
    assert len(got) == depth
    for n, ((level, e), ref) in enumerate(zip(got, want), 1):
        assert e == want_e
        assert level.shape == (2, 2, s.count ** n), n
        batch = level.transpose(2, 0, 1)
        assert np.array_equal(batch.view(np.int64), ref.view(np.int64)), f"depth {n}"
    return want


def has_negative_zero_sums(s: MatrixSet, batch: np.ndarray) -> bool:
    """Whether summing the next level's terms without a zero start gives -0.0."""
    mats = np.stack(s.arrays())
    terms = mats[:, None, :, :, None] * batch[None, :, None, :, :]
    sums = terms[:, :, :, 0] + terms[:, :, :, 1]
    return bool(np.signbit(sums[sums == 0.0]).any())


@pytest.mark.parametrize("mats", [EX1, EX2], ids=["ex1", "ex2"])
def test_examples_to_depth_16(mats):
    s = MatrixSet(mats)
    batches = assert_levels_match(s, 16)
    # the deepest levels take more than one block of the builder
    assert batches[-1].shape[0] > 2 * _LEVEL_BLOCK


def test_trace_root_reads_the_diagonal_rows():
    # the trace of a component-major level is the row sum p + s
    rng = np.random.default_rng(33)
    s = MatrixSet(tuple(rng.integers(-3, 4, size=(3, 2, 2)).astype(float)))
    batches, e = reference_batches(s, 10)
    for depth, (ref, (level, got_e)) in enumerate(
            zip(batches, _products(s, 10, DEFAULT_PRODUCT_CAP)), 1):
        traces = np.abs(np.trace(ref, axis1=1, axis2=2))
        want = float(np.ldexp(float(traces.max()) ** (1.0 / depth), e))
        assert _trace(level, depth, got_e) == want, depth


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim, count, depth", [(2, 3, 9), (2, 5, 6)])
def test_integer_families_keep_positive_zeros(seed, dim, count, depth):
    # entries in {-1, 0, 1}: products of zero and negative entries give
    # -0.0 terms, and some entries sum -0.0 + -0.0
    rng = np.random.default_rng(seed)
    s = MatrixSet(tuple(rng.integers(-1, 2, size=(count, dim, dim)).astype(float)))
    batches = assert_levels_match(s, depth)
    assert any(has_negative_zero_sums(s, b) for b in batches[:-1])
    deepest = batches[-1]
    assert not np.signbit(deepest[deepest == 0.0]).any()


@pytest.mark.parametrize("count, depth", [(3, 11), (8, 6)])
def test_seeded_families(count, depth):
    rng = np.random.default_rng(2008 + count)
    assert_levels_match(MatrixSet(tuple(rng.normal(size=(count, 2, 2)))), depth)


entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def families(draw):
    count = draw(st.integers(1, 5))
    mats = draw(st.lists(
        st.lists(entry, min_size=4, max_size=4),
        min_size=count, max_size=count,
    ).filter(lambda ms: any(v != 0.0 for m in ms for v in m)))
    return MatrixSet(tuple(np.reshape(m, (2, 2)) for m in mats))


@PROPERTY
@given(families(), st.integers(1, 12))
def test_every_level_matches_the_reference(s, depth):
    while s.count ** depth > 4096:
        depth -= 1
    assert_levels_match(s, depth)
