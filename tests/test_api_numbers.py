"""The Python API's number rule, as one fixed table.

Counts (steps, depths, key widths, dimensions, token counts, m_max) are
Python or numpy integers; amounts (scale factors, masses, eps) and the other
real parameters are real numbers.  A value of the wrong type raises the same
named DomainError, with the same message, as an out-of-range value: never a
TypeError, ValueError, AttributeError or OverflowError from inside a call.  An
integer beyond the float range is refused as infinity is, and a count whose
arrays or layer tuples would exceed the address space raises ProblemTooLarge.
Query points and parameter matrices are arrays of real numbers: a complex,
object or string array is refused by name, never cast or half used.
"""

import re

import numpy as np
import pytest

import incontext as ic
from incontext.errors import (
    AnchorsTooClose,
    DimensionMismatch,
    NonpositiveWeight,
    NotRationalGrid,
    OutOfDomain,
    ProblemTooLarge,
    TooFewTimePoints,
)

from helpers import random_attention, random_mlp, random_stack

BAD_VALUES = {"str": "3", "none": None, "nan": float("nan"), "inf": float("inf"), "neg-inf": -np.inf}
# amounts and reals refuse an integer beyond the float range as they refuse infinity
BAD_REALS = {**BAD_VALUES, "int-beyond-float": 10**400}
NOT_WHOLE = {"float": 2.5, "numpy-float": np.float64(2.0)}

ATT, MLP = random_attention(np.random.default_rng(30), 1), random_mlp(np.random.default_rng(31), 1)
MU = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
FIELD = ic.VelocityField(lambda t, pts, w, X: np.zeros_like(X))
IDENTITY = ic.MeasureMap.identity()
PSI = ic.coordinate_test(0, ic.default_box(1))
HEAD = ic.HeadParams(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))

# name, call on the bad value, error, message template (formatted with the value)
LAYERS = "need a whole number of layers, got {}"
COORDINATE, SEED = "coordinate index must be an integer in [0, 1), got {!r}", "seed must be a nonnegative integer, got {!r}"
COUNTS = [
    ("euler-T", lambda x: ic.euler_flow(FIELD, MU, x), TooFewTimePoints, "need a whole number of Euler steps, got {}"),
    ("rk4-steps", lambda x: ic.rk4_flow(FIELD, MU, x), TooFewTimePoints, "need a whole number of RK4 steps, got {}"),
    ("scaled-stack-T", lambda x: ic.scaled_stack(ATT, MLP, x), TooFewTimePoints, LAYERS),
    ("depth-limit-T", lambda x: ic.depth_limit_error(ATT, MLP, MU, x), TooFewTimePoints, LAYERS),
    ("scan-m-max", ic.discontinuity_scan, OutOfDomain, "scan needs an integer m_max, got {}"),
    ("key-dim", lambda x: ic.AttentionParams((HEAD,), x), DimensionMismatch, "key_dim must be an integer, got {!r}"),
    ("stack-dim", lambda x: ic.LayerStack((), x), DimensionMismatch,
     "stack dimension must be an integer of at least 1, got {!r}"),
    ("iota-inv-n", lambda x: ic.iota_inv(MU, x), NotRationalGrid, "need a whole number of tokens, got {!r}"),
    ("coordinate-test-ell", lambda x: ic.coordinate_test(x, ic.default_box(1)), OutOfDomain, COORDINATE),
    ("make-dif-seed", lambda x: ic.make_dif(MU, 0.1, x), OutOfDomain, SEED),
]
EPS = "eps must be positive and finite, got {!r}"
AMOUNTS = [
    ("scaled", MU.scaled, NonpositiveWeight, "scale factor must be positive and finite, got {!r}"),
    ("add-atom-mass", lambda x: ic.add_atom(MU, [0.5], x), NonpositiveWeight,
     "added mass must be positive and finite, got {!r}"),
    ("make-dif-eps", lambda x: ic.make_dif(MU, x, 0), NonpositiveWeight, EPS),
    ("extract-eps", lambda x: ic.extract_g(IDENTITY, MU, [0.5], x), NonpositiveWeight, EPS),
    ("regular-derivative-eps", lambda x: ic.regular_derivative(IDENTITY, MU, [0.5], PSI, x), NonpositiveWeight, EPS),
]
# real parameters with other ranges, each with the values it refuses
RADIUS = "patch radius must be positive"
REALS = [
    ("characteristic-map-steps", lambda x: ic.characteristic_map(FIELD, MU, [0.5], 0.5, steps=x), TooFewTimePoints,
     "need at least one RK4 step, got {}", ("str", "none", "nan", "inf", "neg-inf", "int-beyond-float")),
    ("characteristic-map-t", lambda x: ic.characteristic_map(FIELD, MU, [0.5], x), TooFewTimePoints,
     "time {} outside [0, 1]", ("str", "none", "nan", "inf", "int-beyond-float")),
    ("mlp-skip", lambda x: ic.MlpParams(x, ()), OutOfDomain, "MLP skip must be finite, got {}",
     ("str", "none", "nan", "inf", "int-beyond-float")),
    ("layer-scale", lambda x: ic.Layer(ATT, MLP, x), OutOfDomain, "layer scale must be finite, got {}",
     ("str", "none", "nan", "inf", "int-beyond-float")),
    ("r-map-a", lambda x: ic.r_map(x, 0.5), OutOfDomain, "frequency parameter must be nonnegative, got {}",
     ("str", "none", "nan", "inf", "int-beyond-float")),
    ("two-atom-eps", ic.two_atom_measure, OutOfDomain, "eps must lie in (0, 1), got {}",
     ("str", "none", "nan", "inf", "int-beyond-float")),
    ("regular-derivative-radius", lambda x: ic.regular_derivative(IDENTITY, MU, [0.5], PSI, patch_radius=x),
     AnchorsTooClose, RADIUS, ("str", "nan", "neg-inf")),
    ("patched-test-radius", lambda x: ic.build_patched_test(PSI, [[0.0], [1.0]], x), AnchorsTooClose, RADIUS,
     ("str", "none", "nan", "neg-inf")),
]
# counts too large for the address space, given as 2**100, which steps * t keeps exact at t = 1
FLOW_PATH, DEPTH = "a flow path of {} steps exceeds the address space", "a stack of depth {} exceeds the address space"
TOO_LARGE = [
    ("euler-T", lambda x: ic.euler_flow(FIELD, MU, x), FLOW_PATH),
    ("rk4-steps", lambda x: ic.rk4_flow(FIELD, MU, x), FLOW_PATH),
    ("characteristic-map-steps", lambda x: ic.characteristic_map(FIELD, MU, [0.5], 1.0, steps=x), FLOW_PATH),
    ("scaled-stack-T", lambda x: ic.scaled_stack(ATT, MLP, x), DEPTH),
    ("depth-limit-T", lambda x: ic.depth_limit_error(ATT, MLP, MU, x), DEPTH),
]
NESTED = [[1.0]]
# matrices and biases given as lists, not numpy arrays
ARRAYS = [
    (
        "attention-nested-lists",
        lambda _: ic.AttentionParams((ic.HeadParams(NESTED, NESTED, NESTED, NESTED),), 1),
        DimensionMismatch,
        "attention matrices must be numpy arrays, got list",
    ),
    (
        "attention-one-list",
        lambda _: ic.AttentionParams((ic.HeadParams(HEAD.q, HEAD.k, NESTED, HEAD.w),), 1),
        DimensionMismatch,
        "attention matrices must be numpy arrays, got list",
    ),
    (
        "mlp-nested-lists",
        lambda _: ic.MlpParams(1.0, ((NESTED, [0.0]),)),
        DimensionMismatch,
        "MLP matrices and biases must be numpy arrays, got list",
    ),
    (
        "mlp-list-bias",
        lambda _: ic.MlpParams(1.0, ((np.ones((1, 1)), [0.0]),)),
        DimensionMismatch,
        "MLP matrices and biases must be numpy arrays, got list",
    ),
]
# query points and rows that are not real numbers, and the calls that read them
BAD_QUERIES = {
    "complex-array": np.array([0.5 + 1j]),
    "complex-list": [0.5j],
    "object-array": np.array([None], dtype=object),
    "str-array": np.array(["0.5"]),
}
STACK = random_stack(np.random.default_rng(32), 1)
QUERY = "query rows must be numbers in rows of one length"
QUERIES = [
    ("attention", lambda x: ic.attention(ATT, MU, x)),
    ("forward-map", lambda x: ic.forward_map(STACK, MU, x)),
    ("characteristic-map", lambda x: ic.characteristic_map(FIELD, MU, x, 0.5)),
    ("add-atom", lambda x: ic.add_atom(MU, x, 0.5)),
    ("extract-g", lambda x: ic.extract_g(IDENTITY, MU, x, 1e-3)),
    ("layer-step", lambda x: ic.layer_step(STACK.layers[0], MU.points, MU.weights, x)),
]
# parameter matrices and biases of a dtype that is not real, built from a 1 x 1 array
BAD_DTYPES = {"complex": complex, "object": object, "str": str}
MLP_REAL = "MLP matrices and biases must be real, got dtype {.dtype}"
PARAMS = [
    ("attention-matrix", lambda a: ic.AttentionParams((ic.HeadParams(HEAD.q, HEAD.k, a, HEAD.w),), 1),
     "attention matrices must be real, got dtype {.dtype}"),
    ("mlp-matrix", lambda a: ic.MlpParams(1.0, ((a, np.zeros(1)),)), MLP_REAL),
    ("mlp-bias", lambda a: ic.MlpParams(1.0, ((np.ones((1, 1)), a[0]),)), MLP_REAL),
]
# other arguments of the wrong kind or out of range, each with the one call that shows it
ARGUMENTS = [
    ("coordinate-test-ell-beyond-dim", lambda _: ic.coordinate_test(1, ic.default_box(1)), OutOfDomain,
     COORDINATE.format(1)),
    ("coordinate-test-ell-negative", lambda _: ic.coordinate_test(-1, ic.default_box(1)), OutOfDomain,
     COORDINATE.format(-1)),
    ("make-dif-seed-negative", lambda _: ic.make_dif(MU, 0.1, -1), OutOfDomain, SEED.format(-1)),
    ("mlp-layer-not-a-pair", lambda _: ic.MlpParams(1.0, ((np.ones((1, 1)),),)), DimensionMismatch,
     "each MLP layer must be a pair (A, b)"),
    ("attention-head-a-tuple", lambda _: ic.AttentionParams(((HEAD.q, HEAD.k, HEAD.v, HEAD.w),), 1),
     DimensionMismatch, "attention heads must be HeadParams, got tuple"),
]


def _rows():
    for name, call, error, message in COUNTS:
        for kind, value in {**BAD_VALUES, **NOT_WHOLE}.items():
            yield pytest.param(call, value, error, message, id=f"{name}-{kind}")
    for name, call, error, message in AMOUNTS:
        for kind, value in BAD_REALS.items():
            yield pytest.param(call, value, error, message, id=f"{name}-{kind}")
    for name, call, error, message, kinds in REALS:
        for kind in kinds:
            yield pytest.param(call, BAD_REALS[kind], error, message, id=f"{name}-{kind}")
    for name, call, message in TOO_LARGE:
        yield pytest.param(call, 2**100, ProblemTooLarge, message, id=f"{name}-too-large")
    for name, call in QUERIES:
        for kind, value in BAD_QUERIES.items():
            yield pytest.param(call, value, DimensionMismatch, QUERY, id=f"{name}-{kind}")
    for name, call, message in PARAMS:
        for kind, dtype in BAD_DTYPES.items():
            yield pytest.param(call, np.ones((1, 1), dtype=dtype), DimensionMismatch, message, id=f"{name}-{kind}")
    for name, call, error, message in ARRAYS + ARGUMENTS:
        yield pytest.param(call, None, error, message, id=name)


@pytest.mark.parametrize(("call", "value", "error", "message"), list(_rows()))
def test_bad_number_raises_its_named_error(call, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integers_are_counts(kind):
    assert ic.AttentionParams((HEAD,), kind(1)).key_dim == 1
    assert ic.LayerStack((), kind(1)).dim == 1
    assert ic.iota_inv(ic.dirac([0.5]), kind(1)) == ic.new_tokens([[0.5]])


FLOW = ic.VelocityField.from_layer(ATT, MLP)
# counts in a dtype where steps + 1 or 4 * T wraps around
NARROW = [
    ("euler-T", lambda x: ic.euler_flow(FLOW, MU, x).points, np.uint8(255)),
    ("rk4-steps", lambda x: ic.rk4_flow(FLOW, MU, x).points, np.uint8(255)),
    ("depth-limit-T", lambda x: ic.depth_limit_error(ATT, MLP, MU, x), np.uint8(64)),
]


@pytest.mark.parametrize(("call", "value"), [pytest.param(call, value, id=name) for name, call, value in NARROW])
def test_narrow_numpy_counts_act_as_python_ints(call, value):
    assert np.array_equal(call(value), call(int(value)))


def test_narrow_numpy_reals_act_as_python_floats():
    # in float16, 255 * t rounds to 178.5 and then to 178 steps, not 179
    t = np.float16(0.7)
    got = ic.characteristic_map(FLOW, MU, [0.5], t, steps=np.uint8(255))
    assert np.array_equal(got, ic.characteristic_map(FLOW, MU, [0.5], float(t), steps=255))
