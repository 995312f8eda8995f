"""Property tests of the canonical form and of the invariants built on it,
of flows, which keep the atom order of their canonical initial measure, and
of the row-map contract: a map evaluated on rows gives, bitwise, the rows of
its one-point calls.

Atoms are drawn from a small pool of rows, so exact duplicates, signed zeros
and near-duplicates occur often, and merged groups sum weights of varied
magnitude.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import incontext as ic

from helpers import random_attention, random_mlp

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# shared values, and pairs of them less than 1e-9 apart that must stay apart
coordinate = st.one_of(st.sampled_from([-1.0, 0.0, 1e-10, 0.5, 0.5 + 5e-10]), st.floats(-2.5, 2.5))


@st.composite
def rows(draw, max_rows=30):
    """An (n, d) array of rows drawn from a pool of at most 8, each copy
    with the signs of its zero coordinates flipped or not."""
    d = draw(st.integers(1, 3))
    pool = np.array(draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=8)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=1, max_size=max_rows))
    out = pool[[i for i, _ in picks]]
    flip = np.array([f for _, f in picks])
    out[flip] = np.where(out[flip] == 0.0, -out[flip], out[flip])
    return out


@st.composite
def measures(draw):
    pts = draw(rows())
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pts), max_size=len(pts)))
    return ic.new_discrete(pts, weights)


def same_bytes(a, b):
    return a.points.tobytes() == b.points.tobytes() and a.weights.tobytes() == b.weights.tobytes()


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
