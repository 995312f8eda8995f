"""Property tests of the canonical form and of the invariants built on it,
of the carrier functions against the reference formula of the canonical form,
of flows, which keep the atom order of their canonical initial measure, of
the row-map contract: a map evaluated on rows gives, bitwise, the rows of
its one-point calls, and of the command line's input boundary: a document
with one field of the wrong JSON type ends as a named error, never a
traceback.

Atoms are drawn from a small pool of rows, so exact duplicates, signed zeros
and near-duplicates occur often, and merged groups sum weights of varied
magnitude.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incontext as ic
from incontext import serialize as ser
from incontext.cli import main
from incontext.measures import _distances, relocate

from helpers import (
    random_attention,
    random_measure,
    random_mlp,
    reference_add_atom,
    reference_canonicalize,
    reference_distances,
    reference_relocate,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# shared values, and pairs of them less than 1e-9 apart that must stay apart
coordinate = st.one_of(st.sampled_from([-1.0, 0.0, 1e-10, 0.5, 0.5 + 5e-10]), st.floats(-2.5, 2.5))


def flip_zero_signs(out, flip):
    """``out`` with the signs of the zero coordinates of the flagged rows flipped."""
    out[flip] = np.where(out[flip] == 0.0, -out[flip], out[flip])
    return out


@st.composite
def rows(draw, max_rows=30, n=None, max_pool=8):
    """An (n, d) array of rows drawn from a pool of at most ``max_pool``, each
    copy with the signs of its zero coordinates flipped or not; n is drawn
    when not given."""
    d = draw(st.integers(1, 3))
    pool = np.array(draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=max_pool)))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
            min_size=n or 1,
            max_size=n or max_rows,
        )
    )
    return flip_zero_signs(pool[[i for i, _ in picks]], np.array([f for _, f in picks]))


@st.composite
def measures(draw):
    pts = draw(rows())
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pts), max_size=len(pts)))
    return ic.new_discrete(pts, weights)


def same_bytes(a, b):
    return a.points.tobytes() == b.points.tobytes() and a.weights.tobytes() == b.weights.tobytes()


@st.composite
def grouped_measures(draw):
    """Merge groups of 1-6 copies of each of 1-5 distinct rows in d = 1-3,
    shuffled, each copy with the signs of its zero coordinates flipped or not,
    and weights from 1e-3 to 1e3."""
    d = draw(st.integers(1, 3))
    pool = np.unique(np.array(draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=5))) + 0.0, axis=0)
    sizes = draw(st.lists(st.integers(1, 6), min_size=len(pool), max_size=len(pool)))
    pts = np.repeat(pool, sizes, axis=0)
    n = pts.shape[0]
    pts = flip_zero_signs(pts, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    perm = np.array(draw(st.permutations(range(n))))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return ic.new_discrete(pts[perm], weights)


def same_carrier(got, want):
    """Bitwise the same points, weights and box, both canonical."""
    return (
        same_bytes(got, want)
        and got.box.lo.tobytes() == want.box.lo.tobytes()
        and got.box.hi.tobytes() == want.box.hi.tobytes()
        and got.is_canonical
        and want.is_canonical
    )


SIGNED_ZEROS = ic.new_discrete([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [1.0, -0.0]], [0.25, 0.5, 0.125, 1.0])


class TestCarrierMatchesReference:
    """``canonicalize``, ``relocate`` and ``add_atom`` give bitwise the
    carriers of the formula they had before the early return for measures
    with no merges (``helpers.reference_canonicalize``)."""

    @PROPERTY
    @given(grouped_measures())
    @example(ic.new_discrete([[0.5]], [1.0]))
    @example(SIGNED_ZEROS)
    def test_canonicalize(self, mu):
        assert same_carrier(ic.canonicalize(mu), reference_canonicalize(mu))

    @PROPERTY
    @given(grouped_measures(), st.data())
    @example(SIGNED_ZEROS, None)
    def test_relocate(self, mu, data):
        if data is None:
            images = -mu.points
        else:
            images = data.draw(rows(n=mu.n, max_pool=3)) * data.draw(st.sampled_from([1.0, 2.0]))
        assert same_carrier(relocate(mu, images), reference_relocate(mu, images))

    @PROPERTY
    @given(grouped_measures(), st.data(), st.floats(1e-3, 1e3))
    @example(SIGNED_ZEROS, None, 0.5)
    def test_add_atom(self, mu, data, mass):
        if data is None:
            x = np.array([-0.0, 0.0])
        elif data.draw(st.booleans()):  # at an atom, its zeros' signs flipped or not
            x = flip_zero_signs(mu.points[[data.draw(st.integers(0, mu.n - 1))]], np.array([data.draw(st.booleans())]))
        else:
            x = np.array([data.draw(coordinate) for _ in range(mu.dim)]) * data.draw(st.sampled_from([1.0, 2.0]))
        assert same_carrier(ic.add_atom(mu, x, mass), reference_add_atom(mu, x, mass))


@st.composite
def distance_inputs(draw):
    """Two arrays of rows of one width d (1 to 20, or 64 and 128-130, where
    numpy's summation changes form), 1 to 40 rows each: magnitudes from 1e-6
    to 1e6 of either sign, rows repeated across and within the arrays,
    signed zeros, and at most one NaN."""
    d = draw(st.one_of(st.integers(1, 20), st.sampled_from([64, 128, 129, 130])))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B = (rng.choice([-1.0, 1.0], size=(k, d)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(k, d)) for k in (n, m))
    for _ in range(draw(st.integers(0, 3))):
        B[draw(st.integers(0, m - 1))] = A[draw(st.integers(0, n - 1))]
        A[draw(st.integers(0, n - 1))] = A[draw(st.integers(0, n - 1))]
    for X in (A, B):
        zeros = rng.random(X.shape) < draw(st.sampled_from([0.0, 0.3]))
        X[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    if draw(st.booleans()):
        X = draw(st.sampled_from([A, B]))
        X[draw(st.integers(0, len(X) - 1)), draw(st.integers(0, d - 1))] = np.nan
    return A, B


class TestDistancesMatchReference:
    """``measures._distances`` sums squares plane by plane in numpy's order,
    so it equals the cube formula (``helpers.reference_distances``) bitwise."""

    @PROPERTY
    @given(distance_inputs())
    def test_bitwise(self, inputs):
        A, B = inputs
        got = _distances(A, B)
        assert got.tobytes() == reference_distances(A, B).tobytes()
        # a NaN coordinate makes its row's or column's distances NaN
        assert np.array_equal(np.isnan(got), np.isnan(A).any(axis=1)[:, None] | np.isnan(B).any(axis=1))


class TestCanonicalForm:
    @PROPERTY
    @given(measures(), st.randoms(use_true_random=False))
    def test_one_representative(self, mu, random):
        """Idempotent, and bitwise the same for every input order."""
        once = ic.canonicalize(mu)
        # a fresh, unflagged copy, so the canonical form really is recomputed
        again = ic.canonicalize(ic.new_discrete(once.points, once.weights, once.box))
        assert same_bytes(once, again)
        for perm in (np.arange(mu.n)[::-1], np.array(random.sample(range(mu.n), mu.n))):
            shuffled = ic.new_discrete(mu.points[perm], mu.weights[perm], mu.box)
            assert same_bytes(once, ic.canonicalize(shuffled))

    @PROPERTY
    @given(measures())
    def test_keeps_support_size_and_mass(self, mu):
        """One atom per distinct point, and the total mass to n * 2**-52 relative."""
        out = ic.canonicalize(mu)
        assert out.n == np.unique(mu.points + 0.0, axis=0).shape[0]
        assert abs(out.total_mass - mu.total_mass) <= mu.n * 2.0**-52 * mu.total_mass


class TestTokenRoundTrip:
    @PROPERTY
    @given(rows())
    def test_iota_inv_returns_sorted_tokens(self, tokens):
        seq = ic.new_tokens(tokens)
        back = ic.iota_inv(ic.iota(seq), seq.n)
        assert np.array_equal(back.tokens, tokens[np.lexsort(tokens.T[::-1])])


class TestAttentionInvariance:
    @PROPERTY
    @given(measures(), st.integers(0, 2**32 - 1), st.integers(-20, 20), st.randoms(use_true_random=False))
    def test_relabelling_and_power_of_two_mass(self, mu, seed, exponent, random):
        rng = np.random.default_rng(seed)
        params = random_attention(rng, mu.dim, heads=2)
        x = rng.uniform(-2.5, 2.5, size=mu.dim)
        base = ic.attention(params, mu, x)
        perm = np.array(random.sample(range(mu.n), mu.n))
        shuffled = ic.new_discrete(mu.points[perm], mu.weights[perm], mu.box)
        assert ic.attention(params, shuffled, x).tobytes() == base.tobytes()
        assert ic.attention(params, mu.scaled(2.0**exponent), x).tobytes() == base.tobytes()


class TestFlowRelabelling:
    @PROPERTY
    @given(measures(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_flows_are_bitwise_equivariant(self, mu, seed, random):
        """Euler, RK4 and the characteristic map see the same t = 0 atom order
        for every labelling of mu0, so they give the same bytes."""
        rng = np.random.default_rng(seed)
        v = ic.VelocityField.from_layer(random_attention(rng, mu.dim), random_mlp(rng, mu.dim))
        x = rng.uniform(-2.5, 2.5, size=mu.dim)
        perm = np.array(random.sample(range(mu.n), mu.n))
        shuffled = ic.new_discrete(mu.points[perm], mu.weights[perm], mu.box)
        for flow, steps in ((ic.euler_flow, 2), (ic.rk4_flow, 1)):
            assert flow(v, shuffled, steps).points.tobytes() == flow(v, mu, steps).points.tobytes()
        want = ic.characteristic_map(v, mu, x, 1.0, steps=1)
        assert ic.characteristic_map(v, shuffled, x, 1.0, steps=1).tobytes() == want.tobytes()


@st.composite
def patched_tests_with_queries(draw):
    """A patched coordinate test and query rows at its anchors, on and next
    to the r/2 and r shells around them, between the shells, and anywhere in
    and around the box (where the cutoff ramps down)."""
    d = draw(st.integers(1, 3))
    grid = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=4, unique=True))
    anchors = 0.7 * np.array(grid, dtype=float)
    base = ic.coordinate_test(draw(st.integers(0, d - 1)), ic.default_box(d))
    psi = ic.build_patched_test(base, anchors, draw(st.floats(0.01, 0.5)))
    r = psi.patch.radius
    shell = st.sampled_from([0.0, r / 2.0, r]).flatmap(
        lambda s: st.sampled_from([s, np.nextafter(s, 0.0), np.nextafter(s, np.inf)])
    )
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            queries.append(draw(st.tuples(*[st.floats(-5.0, 5.0)] * d)))
            continue
        unit = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * d)))
        norm = np.sqrt(np.sum(unit * unit))
        unit = unit / norm if norm > 0.1 else np.eye(d)[0]
        dist = draw(st.one_of(shell, st.floats(0.0, 2.0 * r)))
        queries.append(anchors[draw(st.integers(0, len(anchors) - 1))] + dist * unit)
    return psi, np.array(queries, dtype=float)


class TestRowsEqualSinglePoints:
    @PROPERTY
    @given(patched_tests_with_queries())
    def test_patched_coordinate_test(self, case):
        """value and gradient on rows equal the one-point calls, bitwise."""
        psi, Y = case
        values, grads = psi.value(Y), psi.gradient(Y)
        assert values.shape == (len(Y),) and grads.shape == Y.shape
        for i, y in enumerate(Y):
            assert np.float64(psi.value(y)).tobytes() == values[i].tobytes()
            assert psi.gradient(y).tobytes() == grads[i].tobytes()

    @PROPERTY
    @given(
        st.floats(0.0, 1e5),
        st.lists(
            st.one_of(
                st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 3.0]),
                st.sampled_from([1.0, -1.0]).map(lambda s: np.nextafter(s, 0.0)),
                st.sampled_from([1.0, -1.0]).map(lambda s: np.nextafter(s, 2.0 * s)),
                st.floats(-3.0, 3.0),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_r_map(self, a, xs):
        """r_map on an array equals the float calls, which equal the closed
        form evaluated with the math module, bitwise."""
        got = ic.r_map(a, np.array(xs).reshape(-1, 1))
        assert got.shape == (len(xs), 1)
        for i, x in enumerate(xs):
            c = math.cos(0.5 * math.pi * x)
            want = float(x) if abs(x) >= 1.0 else x + 0.1 * c * c * math.cos(a * x)
            one = ic.r_map(a, x)
            assert type(one) is float
            assert np.float64(one).tobytes() == np.float64(want).tobytes() == got[i, 0].tobytes()


def _valid_documents():
    """A stack with a scaled layer, a measure and a token sequence with a box,
    as the plain JSON values a loader sees."""
    rng = np.random.default_rng(21)
    layer = ic.Layer(random_attention(rng, 2), random_mlp(rng, 2), 0.5)
    docs = {
        "stack": ser.stack_to_doc(ic.LayerStack((layer,), 2)),
        "measure": ser.measure_to_doc(random_measure(rng, 2, 2)),
        "tokens": {
            **ser.tokens_to_doc(ic.new_tokens([[0.5, 0.0], [-1.0, 1.0]])),
            "box": {"lo": [-3, -3], "hi": [3, 1]},
        },
    }
    return {kind: json.loads(ser.dumps(doc)) for kind, doc in docs.items()}


def _fields(doc, path=()):
    """The path of every object member and array entry below ``doc``."""
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in entries:
        yield path + (key,)
        yield from _fields(value, path + (key,))


VALID = _valid_documents()
FIELDS = [(kind, path) for kind, doc in VALID.items() for path in _fields(doc)]
# JSON values of every type but number
non_numbers = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestCliBoundary:
    @PROPERTY
    @given(st.sampled_from(FIELDS), non_numbers)
    def test_one_mistyped_field_is_a_named_error(self, field, value):
        kind, path = field
        docs = json.loads(json.dumps(VALID))
        parent = docs[kind]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            files = {name: str(Path(tmp) / f"{name}.json") for name in docs}
            for name, doc in docs.items():
                Path(files[name]).write_text(json.dumps(doc), encoding="utf-8")
            out = str(Path(tmp) / "out.json")
            if kind == "tokens":
                argv = ["forward-tokens", "--stack", files["stack"], "--tokens", files["tokens"], "--out", out]
            else:
                argv = ["forward", "--stack", files["stack"], "--measure", files["measure"], "--out", out]
            code = main(argv)
        assert code == 0 or (code == 1 and err.getvalue().startswith("error: ")), (code, err.getvalue())
