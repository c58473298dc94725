"""Invariants of the relaxation that hold bit for bit, over drawn families.

Permuting the family and scaling it by a power of two change no rounding in
the iteration, so both must leave the trace and the profiles exact.  So must
scaling the reference vector e by a power of two, or negating it: a step
reads |e| and lr's gamma off e's grid node, scaled exactly, so the records
stay the same and every profile scales by exactly the inverse power.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrelax import MatrixSet, RelaxConfig, iterate, run

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

# entries of magnitude at least 2^-10 (or exactly 0), so that scaling by 2^-60
# stays clear of the subnormal range where a power of two no longer scales exactly
entry = st.one_of(
    st.just(0.0),
    st.builds(math.copysign, st.floats(2.0 ** -10, 2.0), st.sampled_from([1.0, -1.0])),
)
matrix = st.lists(entry, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))


def family(max_size: int):
    # MatrixSet refuses a family of zero matrices
    return st.lists(matrix, min_size=1, max_size=max_size).filter(lambda ms: any(a.any() for a in ms))


relax_config = st.builds(
    lambda algorithm, n: RelaxConfig(algorithm=algorithm, node_count=n, tol=1e-3, max_iters=25),
    st.sampled_from(["lr", "mr"]),
    st.sampled_from([16, 64, 240]),
)


def steps(mats, cfg):
    return [(rec, nm.values.tobytes()) for nm, rec in iterate(MatrixSet(tuple(mats)), cfg)]


@PROPERTY
@given(family(5), relax_config, st.randoms(use_true_random=False))
def test_permuting_the_family_changes_nothing(mats, cfg, rnd):
    shuffled = list(mats)
    rnd.shuffle(shuffled)
    assert steps(shuffled, cfg) == steps(mats, cfg)


@PROPERTY
@given(family(4), relax_config, st.integers(-60, 60))
def test_power_of_two_scaling_scales_records_exactly(mats, cfg, k):
    base = steps(mats, cfg)
    scaled = steps([np.ldexp(a, k) for a in mats], cfg)
    for (rec, profile), (rec_k, profile_k) in zip(base, scaled):
        assert profile_k == profile
        assert (rec_k.n, rec_k.lam) == (rec.n, rec.lam)
        assert rec_k.rho_minus == math.ldexp(rec.rho_minus, k)
        assert rec_k.rho_plus == math.ldexp(rec.rho_plus, k)
        assert rec_k.gamma == math.ldexp(rec.gamma, k)


@PROPERTY
@given(family(4), relax_config, st.integers(-40, 40),
       st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]))
def test_power_of_two_reference_vector_scales_the_profiles_exactly(mats, cfg, k, direction):
    unit = (abs(direction[0]), abs(direction[1]))
    base = steps(mats, replace(cfg, e=unit))
    e = (math.ldexp(direction[0], k), math.ldexp(direction[1], k))
    scaled = steps(mats, replace(cfg, e=e))
    assert len(scaled) == len(base)
    for (rec, profile), (rec_e, profile_e) in zip(base, scaled):
        assert rec_e == rec
        assert profile_e == np.ldexp(np.frombuffer(profile), -k).tobytes()


# a family of up to five matrices, entries 0 or of magnitude 2^-10 .. 2, scaled
# as a whole by 10^-3 .. 10^3: clear of the subnormals, where rounding is not
# relative
scaled_family = st.tuples(family(5), st.floats(-3.0, 3.0)).map(
    lambda t: [a * 10.0 ** t[1] for a in t[0]]
)


def nesting_config(lam: float, n: int, algorithm: str) -> RelaxConfig:
    common = dict(node_count=n, tol=1e-300, max_iters=30)
    if algorithm == "mr":
        return RelaxConfig(algorithm="mr", **common)
    return RelaxConfig(lambda_schedule=lam, **common)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    scaled_family,
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(4, 1500).map(lambda k: 2 * k),
    st.sampled_from(["lr", "mr"]),
)
def test_grid_brackets_are_nested(mats, lam, n, algorithm):
    # the relax module docstring proves it for lr at any lambda in [0, 1) and
    # for mr; a step may move an end by a few ulp of rounding
    res = run(MatrixSet(tuple(mats)), nesting_config(lam, n, algorithm), force=True)
    for before, after in zip(res.trace, res.trace[1:]):
        assert after.rho_plus <= before.rho_plus * (1.0 + 1e-12), (before, after)
        assert after.rho_minus >= before.rho_minus * (1.0 - 1e-12), (before, after)
