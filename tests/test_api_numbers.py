"""The Python API's number rule, as one fixed table.

Counts (steps, depths, key widths, dimensions, token counts, m_max) are
Python or numpy integers; amounts (scale factors, masses, eps) and the other
real parameters are real numbers.  A value of the wrong type raises the same
named DomainError, with the same message, as an out-of-range value: never a
TypeError, ValueError, AttributeError or OverflowError from inside a call.  An
integer beyond the float range is refused as infinity is, and a count whose
arrays or layer tuples would exceed the address space raises ProblemTooLarge.
Query points, parameter matrices and the arrays a measure, token sequence or
box is built from are arrays of real numbers: a complex, object or string
array, or a list numpy reads as one, is refused by name, never cast or half
used.  What a caller's map returns (a rows map, a stage, a velocity field, a
test function, a measure map) is read by the same rule, and a list or an
integer array that holds real numbers is read as floats.  Caller code itself
is called by one rule for every map kind: a DomainError or MemoryError it
raises passes through unchanged, and any other exception, a non-callable's
included, ends as MapUndefinedAtAtom("map failed: ...") with it as the cause.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

import incontext as ic
from incontext.errors import (
    AnchorsTooClose,
    DimensionMismatch,
    LengthMismatch,
    MapUndefinedAtAtom,
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
IN_CONTEXT_DIM = "in-context map dimension must be an integer of at least 1, got {!r}"
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
    ("in-context-map-dim", lambda x: ic.InContextMap((), x), DimensionMismatch, IN_CONTEXT_DIM),
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
    ("dirac-mass", lambda x: ic.dirac([0.5], x), NonpositiveWeight,
     "weights must be strictly positive with a finite total"),
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
TOKENS = "a token sequence of {} tokens exceeds the address space"
TOO_LARGE = [
    ("euler-T", lambda x: ic.euler_flow(FIELD, MU, x), FLOW_PATH),
    ("rk4-steps", lambda x: ic.rk4_flow(FIELD, MU, x), FLOW_PATH),
    ("characteristic-map-steps", lambda x: ic.characteristic_map(FIELD, MU, [0.5], 1.0, steps=x), FLOW_PATH),
    ("scaled-stack-T", lambda x: ic.scaled_stack(ATT, MLP, x), DEPTH),
    ("depth-limit-T", lambda x: ic.depth_limit_error(ATT, MLP, MU, x), DEPTH),
    ("iota-inv-n", lambda x: ic.iota_inv(MU, x), TOKENS),
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
    "numpy-complex-list": [np.complex128(0.5j)],
    "object-array": np.array([None], dtype=object),
    "str-array": np.array(["0.5"]),
    "str-list": ["0.5"],
    "ragged-list": [[0.5], [0.5, 1.0]],
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
    ("r-map", lambda x: ic.r_map(0.0, x)),
    ("patched-test-anchors", lambda x: ic.build_patched_test(PSI, x, 0.1)),
    ("box-hull", ic.default_box(1).hull),
]
# constructors given one of BAD_QUERIES as a row of points or tokens, as weights or as a corner
ROWS = "{} must be real numbers in rows of one length"
CONSTRUCTORS = [
    ("new-discrete-points", lambda x: ic.new_discrete([x], [1.0]), ROWS.format("points")),
    ("new-discrete-weights", lambda x: ic.new_discrete([[0.5]], x), "weights must be real numbers in one row"),
    ("new-tokens", lambda x: ic.new_tokens([x]), ROWS.format("tokens")),
    ("dirac", ic.dirac, "a point must be real numbers"),
    ("box-lo", lambda x: ic.Box(x, [1.0]), "box corners must be real numbers"),
    ("box-hi", lambda x: ic.Box([0.0], x), "box corners must be real numbers"),
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
    ("stack-layer-an-int", lambda _: ic.forward_measure(ic.LayerStack((5,), 1), MU), DimensionMismatch,
     "stack layers must be Layer, got int"),
    ("stack-layers-an-int", lambda _: ic.LayerStack(5, 1), DimensionMismatch,
     "stack layers must be a tuple or list, got int"),
    ("in-context-map-stages-an-int", lambda _: ic.InContextMap(5, 1), DimensionMismatch,
     "in-context map stages must be a tuple or list, got int"),
    ("in-context-map-dim-zero", lambda _: ic.InContextMap((), 0), DimensionMismatch, IN_CONTEXT_DIM.format(0)),
    # 2**62 fits in int64, so only the address-space test refuses it
    ("iota-inv-n-2-to-the-62", lambda _: ic.iota_inv(MU, 2**62), ProblemTooLarge, TOKENS.format(2**62)),
    ("layer-mlp-none", lambda _: ic.Layer(ATT, None), DimensionMismatch,
     "layer parameters must be MlpParams, got NoneType"),
    ("scaled-stack-attention-an-int", lambda _: ic.scaled_stack(5, MLP, 2), DimensionMismatch,
     "layer parameters must be AttentionParams, got int"),
    ("box-hull-other-width", lambda _: ic.default_box(1).hull([[5.0, 5.0]]), DimensionMismatch,
     "points of shape (1, 2) meet a box of dimension 1"),
    ("box-enlarged-by-a-string", lambda _: ic.default_box(1).enlarged("a"), LengthMismatch,
     "box margin must be a real number, got 'a'"),
    ("box-enlarged-by-none", lambda _: ic.default_box(1).enlarged(None), LengthMismatch,
     "box margin must be a real number, got None"),
    ("box-enlarged-by-a-list", lambda _: ic.default_box(1).enlarged([1, 2, 3]), LengthMismatch,
     "box margin must be a real number, got [1, 2, 3]"),
    ("measure-map-returns-its-points", lambda _: ic.extract_g(ic.MeasureMap(lambda m: m.points), MU, [0.5]),
     MapUndefinedAtAtom, "measure map must return a DiscreteMeasure, got ndarray"),
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
    for name, call, message in CONSTRUCTORS:
        for kind, value in BAD_QUERIES.items():
            yield pytest.param(call, value, LengthMismatch, message, id=f"{name}-{kind}")
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


# what a caller's map returns, made from the array ``good`` a valid map returns
BAD_RETURNS = {
    "complex-array": lambda good: good + 0.5j,
    "complex-list": lambda good: (good + 0.5j).tolist(),
    "object-array": lambda good: good.astype(object),
    "str-array": lambda good: good.astype(str),
    "ragged-list": lambda good: [[0.5], [0.5, 1.0]],
}


def _stage(bad):
    return ic.InContextMap((lambda pts, w, X: bad(X + 0.25),), 1)


def _field(bad):
    return ic.VelocityField(lambda t, pts, w, X: bad(np.zeros_like(X)))


def _values(bad, psi=PSI):
    return replace(psi, base_value=lambda Y: bad(PSI.base_value(Y)))


def _gradients(bad):
    return replace(PSI, base_gradient=lambda Y: bad(PSI.base_gradient(Y)))


TRAJ = ic.euler_flow(FIELD, MU, 2)
PATCHED = ic.build_patched_test(PSI, [[0.0]], 0.1)  # its gradient lifts the base values
ROWS_RETURNED = "map must return real numbers in rows of one length"
VALUES = "test function values must be real numbers"
# map kinds: name, call on a map that returns bad(good), error, message (formatted with the type of what it returns)
BASE_VALUES = [
    ("base-value-value", lambda bad: _values(bad).value(MU.points)),
    ("base-value-gradient", lambda bad: _values(bad, PATCHED).gradient(MU.points)),
    ("base-value-regular-derivative", lambda bad: ic.regular_derivative(IDENTITY, MU, [0.5], _values(bad))),
    ("base-value-weak-residual", lambda bad: ic.weak_residual(TRAJ, FIELD, _values(bad))),
]
RETURNED = [
    ("push-forward", lambda bad: ic.push_forward(MU, lambda X: bad(X + 0.25)), MapUndefinedAtAtom, ROWS_RETURNED),
    ("stage-push", lambda bad: _stage(bad).push(MU), MapUndefinedAtAtom, ROWS_RETURNED),
    ("stage-rows", lambda bad: _stage(bad).rows(MU, MU.points), MapUndefinedAtAtom, ROWS_RETURNED),
    ("field-call", lambda bad: _field(bad)(0.0, MU.points, MU.weights, MU.points), DimensionMismatch, ROWS_RETURNED),
    ("field-euler-flow", lambda bad: ic.euler_flow(_field(bad), MU, 2), DimensionMismatch, ROWS_RETURNED),
    *[(name, call, DimensionMismatch, VALUES) for name, call in BASE_VALUES],
    ("base-gradient-gradient", lambda bad: _gradients(bad).gradient(MU.points), DimensionMismatch, ROWS_RETURNED),
    ("base-gradient-weak-residual", lambda bad: ic.weak_residual(TRAJ, FIELD, _gradients(bad)), DimensionMismatch,
     ROWS_RETURNED),
    ("measure-map-extract-g", lambda bad: ic.extract_g(ic.MeasureMap(lambda m: bad(m.points)), MU, [0.5]),
     MapUndefinedAtAtom, "measure map must return a DiscreteMeasure, got {}"),
]


@pytest.mark.parametrize(
    ("call", "bad", "error", "message"),
    [
        pytest.param(call, bad, error, message, id=f"{name}-{kind}")
        for name, call, error, message in RETURNED
        for kind, bad in BAD_RETURNS.items()
    ],
)
def test_a_map_that_returns_other_than_real_numbers_raises(call, bad, error, message):
    with pytest.raises(error, match=f"^{re.escape(message.format(type(bad(MU.points)).__name__))}$"):
        call(bad)


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in BASE_VALUES])
def test_base_values_as_a_column_raise(call):
    with pytest.raises(DimensionMismatch, match=r"^test function returned shape \((\d+), 1\) for \1 rows$"):
        call(lambda good: good[:, None])


# valid maps whose images are whole numbers, so a list or an integer array holds the same values
READ_AS_FLOATS = [
    ("push-forward", lambda conv: ic.push_forward(MU, lambda X: conv(2 * X)).points),
    ("stage-push", lambda conv: _stage(lambda X: conv(2 * X - 0.5)).push(MU).points),
    ("stage-rows", lambda conv: _stage(lambda X: conv(2 * X - 0.5)).rows(MU, MU.points)),
    ("field-call", lambda conv: _field(lambda Z: conv(Z + 1))(0.0, MU.points, MU.weights, MU.points)),
    ("field-euler-flow", lambda conv: ic.euler_flow(_field(lambda Z: conv(Z + 1)), MU, 2).points),
]


@pytest.mark.parametrize(
    ("call", "conv"),
    [
        pytest.param(call, conv, id=f"{name}-{kind}")
        for name, call in READ_AS_FLOATS
        for kind, conv in {"list": np.ndarray.tolist, "int-array": lambda good: good.astype(np.int64)}.items()
    ],
)
def test_a_list_or_integer_array_returned_is_read_as_floats(call, conv):
    got, want = call(conv), call(lambda good: good)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _raising(exc):
    def fn(*_):
        raise exc

    return fn


# every map kind of RETURNED, and the point call of a stage and the tracer of a field,
# each called on caller code ``fn`` in place of its map
CALLER = [
    ("push-forward", lambda fn: ic.push_forward(MU, fn)),
    ("stage-push", lambda fn: ic.InContextMap((fn,), 1).push(MU)),
    ("stage-rows", lambda fn: ic.InContextMap((fn,), 1).rows(MU, MU.points)),
    ("stage-call", lambda fn: ic.InContextMap((fn,), 1)(MU, [0.5])),
    ("field-call", lambda fn: ic.VelocityField(fn)(0.0, MU.points, MU.weights, MU.points)),
    ("field-euler-flow", lambda fn: ic.euler_flow(ic.VelocityField(fn), MU, 2)),
    ("field-characteristic-map", lambda fn: ic.characteristic_map(ic.VelocityField(fn), MU, [0.5], 0.5)),
    ("base-value-value", lambda fn: replace(PSI, base_value=fn).value(MU.points)),
    ("base-value-gradient", lambda fn: replace(PATCHED, base_value=fn).gradient(MU.points)),
    ("base-value-regular-derivative",
     lambda fn: ic.regular_derivative(IDENTITY, MU, [0.5], replace(PSI, base_value=fn))),
    ("base-value-weak-residual", lambda fn: ic.weak_residual(TRAJ, FIELD, replace(PSI, base_value=fn))),
    ("base-gradient-gradient", lambda fn: replace(PSI, base_gradient=fn).gradient(MU.points)),
    ("base-gradient-weak-residual", lambda fn: ic.weak_residual(TRAJ, FIELD, replace(PSI, base_gradient=fn))),
    ("measure-map-extract-g", lambda fn: ic.extract_g(ic.MeasureMap(fn), MU, [0.5])),
]
OWN, OWN_MEMORY = OutOfDomain("the map's own error"), MemoryError("the map's own memory error")
# caller code that fails, and what the call raises: MapUndefinedAtAtom with this message
# and a cause of this type, or the very error the code raised
FAILURES = {
    "zero-division": (lambda *_: 1 / 0, ("map failed: division by zero", ZeroDivisionError)),
    "own-domain-error": (_raising(OWN), OWN),
    "not-callable": (5, ("map failed: 'int' object is not callable", TypeError)),
    "memory-error": (_raising(OWN_MEMORY), OWN_MEMORY),
}


@pytest.mark.parametrize(
    ("call", "fn", "expected"),
    [
        pytest.param(call, fn, expected, id=f"{name}-{kind}")
        for name, call in CALLER
        for kind, (fn, expected) in FAILURES.items()
    ],
)
def test_caller_code_that_fails_raises_by_one_rule(call, fn, expected):
    if isinstance(expected, BaseException):
        with pytest.raises(type(expected)) as info:
            call(fn)
        assert info.value is expected
    else:
        message, cause = expected
        with pytest.raises(MapUndefinedAtAtom, match=f"^{re.escape(message)}$") as info:
            call(fn)
        assert type(info.value.__cause__) is cause
