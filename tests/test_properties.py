"""Property tests of the canonical form and of the invariants built on it.

Atoms are drawn from a small pool of rows, so exact duplicates, signed zeros
and near-duplicates occur often, and merged groups sum weights of varied
magnitude.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import incontext as ic

from helpers import random_attention

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
