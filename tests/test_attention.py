import gc
import weakref

import numpy as np
import pytest

import incontext as ic
from incontext.errors import DimensionMismatch, SkipNotUnit

from helpers import random_attention, random_measure, random_mlp


def zero_output_params(d, k=1):
    head = ic.HeadParams(
        q=np.zeros((k, d)), k=np.zeros((k, d)), v=np.eye(d), w=np.zeros((d, d))
    )
    return ic.AttentionParams((head,), k)


def scalar_params(q=0.0, kk=0.0, v=1.0, w=1.0):
    head = ic.HeadParams(
        q=np.array([[q]]), k=np.array([[kk]]), v=np.array([[v]]), w=np.array([[w]])
    )
    return ic.AttentionParams((head,), 1)


class TestAttention:
    def test_zero_output_matrix(self):
        mu = ic.new_discrete([[0.5, -1.0], [1.0, 2.0]], [0.3, 0.7])
        params = zero_output_params(2)
        out = ic.attention(params, mu, np.array([0.1, 0.2]))
        assert np.array_equal(out, np.zeros(2))

    def test_single_atom_softmax_is_trivial(self):
        rng = np.random.default_rng(0)
        params = random_attention(rng, 2)
        y = np.array([0.4, -0.8])
        mu = ic.dirac(y)
        got = ic.attention(params, mu, np.array([1.0, 1.0]))
        head = params.heads[0]
        assert np.allclose(got, head.w @ (head.v @ y), atol=1e-15)

    def test_uniform_softmax_mean(self):
        # zero logits make the weighted softmax uniform: output is the mean
        params = scalar_params()
        mu = ic.new_discrete([[0.0], [2.0]], [0.5, 0.5])
        out = ic.attention(params, mu, np.array([0.3]))
        assert out[0] == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            params = random_attention(rng, 2, heads=int(rng.integers(1, 3)))
            mu = random_measure(rng, int(rng.integers(1, 7)), 2)
            x = rng.uniform(-2, 2, size=2)
            for p in ic.attention_weights(params, mu, x):
                assert abs(float(np.sum(p)) - 1.0) <= 1e-12

    def test_relabeling_invariance_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            params = random_attention(rng, 2)
            mu = random_measure(rng, int(rng.integers(2, 7)), 2)
            x = rng.uniform(-2, 2, size=2)
            base = ic.attention(params, mu, x)
            perm = rng.permutation(mu.n)
            shuffled = ic.new_discrete(mu.points[perm], mu.weights[perm], mu.box)
            assert np.array_equal(ic.attention(params, shuffled, x), base)

    def test_mass_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = random_attention(rng, 2)
            mu = random_measure(rng, 4, 2)
            x = rng.uniform(-2, 2, size=2)
            base = ic.attention(params, mu, x)
            for s in (0.5, 2.0, 10.0):
                out = ic.attention(params, mu.scaled(s), x)
                assert np.max(np.abs(out - base)) <= 1e-12

    def test_large_logits_are_stable(self):
        params = scalar_params(q=50.0, kk=50.0)
        mu = ic.new_discrete([[-2.0], [2.0]], [0.5, 0.5])
        out = ic.attention(params, mu, np.array([2.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(2.0, abs=1e-10)  # sharp softmax picks the aligned atom


class TestGamma:
    def test_identity_when_output_zero(self):
        mu = ic.new_discrete([[0.5, -1.0]], [1.0])
        params = zero_output_params(2)
        x = np.array([0.1, 0.2])
        assert np.array_equal(ic.gamma(params, mu, x), x)

    def test_single_atom(self):
        rng = np.random.default_rng(4)
        params = random_attention(rng, 2)
        y = np.array([0.4, -0.8])
        x = np.array([1.0, -1.0])
        head = params.heads[0]
        assert np.allclose(
            ic.gamma(params, ic.dirac(y), x), x + head.w @ (head.v @ y), atol=1e-15
        )

    def test_mean_shift(self):
        params = scalar_params()
        mu = ic.new_discrete([[0.0], [2.0]], [0.5, 0.5])
        assert ic.gamma(params, mu, np.array([0.3]))[0] == pytest.approx(1.3, abs=1e-15)


class TestMlp:
    def test_zero_layer_matrix_keeps_skip(self):
        p = ic.MlpParams(1.0, ((np.zeros((2, 2)), np.zeros(2)),), "tanh")
        x = np.array([0.3, -0.4])
        assert np.array_equal(ic.mlp(p, x), x)

    def test_pure_activation(self):
        p = ic.MlpParams(0.0, ((np.eye(2), np.zeros(2)),), "tanh")
        x = np.array([0.3, -0.4])
        assert np.allclose(ic.mlp(p, x), np.tanh(x), atol=0)

    def test_scalar_value(self):
        p = ic.MlpParams(1.0, ((np.array([[2.0]]), np.array([1.0])),), "tanh")
        got = ic.mlp(p, np.array([0.0]))[0]
        assert got == pytest.approx(0.761594, abs=1e-6)
        assert got == np.tanh(1.0)

    def test_empty_layer_list_is_skip_map(self):
        p = ic.identity_mlp()
        x = np.array([1.5, -2.0])
        assert np.array_equal(ic.mlp(p, x), x)

    @pytest.mark.parametrize("name", ["tanh", "sigmoid", "relu-smooth"])
    def test_activations_finite_and_smooth(self, name):
        p = ic.MlpParams(1.0, ((np.eye(1) * 3.0, np.zeros(1)),), name)
        for x in (-30.0, -1.0, 0.0, 1.0, 30.0):
            assert np.isfinite(ic.mlp(p, np.array([x]))).all()

    def test_rejects_unchained_shapes(self):
        with pytest.raises(DimensionMismatch):
            ic.MlpParams(1.0, ((np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 4)), np.zeros(2))))


class TestVelocity:
    def test_no_mlp_body_gives_attention(self):
        rng = np.random.default_rng(5)
        params = random_attention(rng, 2)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        v = ic.velocity(params, ic.identity_mlp(), mu, x)
        assert np.array_equal(v, ic.attention(params, mu, x))

    def test_zero_attention_gives_mlp_displacement(self):
        rng = np.random.default_rng(6)
        mlp_p = random_mlp(rng, 2)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        v = ic.velocity(zero_output_params(2), mlp_p, mu, x)
        assert np.allclose(v, ic.mlp(mlp_p, x) - x, atol=1e-16)

    def test_layer_identity_small_case(self):
        rng = np.random.default_rng(7)
        params = random_attention(rng, 1, key_dim=1)
        mlp_p = random_mlp(rng, 1)
        mu = random_measure(rng, 2, 1)
        x = rng.uniform(-1, 1, size=1)
        v = ic.velocity(params, mlp_p, mu, x)
        direct = ic.mlp(mlp_p, ic.gamma(params, mu, x))
        assert np.max(np.abs(x + v - direct)) <= 1e-14

    def test_layer_identity_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            params = random_attention(rng, d)
            mlp_p = random_mlp(rng, d)
            mu = random_measure(rng, int(rng.integers(1, 6)), d)
            x = rng.uniform(-2, 2, size=d)
            v = ic.velocity(params, mlp_p, mu, x)
            direct = ic.mlp(mlp_p, ic.gamma(params, mu, x))
            assert np.max(np.abs(x + v - direct)) <= 1e-13

    def test_rejects_nonunit_skip(self):
        rng = np.random.default_rng(9)
        params = random_attention(rng, 1, key_dim=1)
        bad = ic.MlpParams(0.5, ((np.eye(1), np.zeros(1)),))
        with pytest.raises(SkipNotUnit):
            ic.velocity(params, bad, ic.dirac([0.0]), np.array([0.0]))


class TestComposeDiamond:
    def test_identity_left(self):
        rng = np.random.default_rng(10)
        g2 = ic.InContextMap.from_gamma(random_attention(rng, 2))
        comp = ic.compose_diamond(ic.InContextMap.identity(2), g2)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        assert np.allclose(comp(mu, x), g2(ic.canonicalize(mu), x), atol=1e-15)

    def test_identity_both(self):
        comp = ic.compose_diamond(ic.InContextMap.identity(2), ic.InContextMap.identity(2))
        x = np.array([0.3, 0.4])
        assert np.array_equal(comp(ic.new_discrete([[0.0, 0.0]], [1.0]), x), x)

    def test_zero_attention_first(self):
        # a zero-output attention layer is the identity in-context map
        rng = np.random.default_rng(11)
        g1 = ic.InContextMap.from_gamma(zero_output_params(2))
        g2 = ic.InContextMap.from_gamma(random_attention(rng, 2))
        comp = ic.compose_diamond(g1, g2)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        assert np.allclose(comp(mu, x), g2(mu, x), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ic.compose_diamond(ic.InContextMap.identity(2), ic.InContextMap.identity(3))

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            gs = [ic.InContextMap.from_gamma(random_attention(rng, 2)) for _ in range(3)]
            left = ic.compose_diamond(ic.compose_diamond(gs[0], gs[1]), gs[2])
            right = ic.compose_diamond(gs[0], ic.compose_diamond(gs[1], gs[2]))
            mu = random_measure(rng, 3, 2)
            x = rng.uniform(-1, 1, size=2)
            assert np.max(np.abs(left(mu, x) - right(mu, x))) <= 1e-12

    def test_push_cache_reuses_measure(self):
        rng = np.random.default_rng(13)
        calls = []
        g = ic.InContextMap(lambda mu, x: (calls.append(1), x + 1.0)[1], 1, 1)
        mu = random_measure(rng, 3, 1)
        g.push(mu)
        first = len(calls)
        g.push(mu)
        assert len(calls) == first

    def test_push_cache_keeps_at_most_one_measure(self):
        rng = np.random.default_rng(14)
        g = ic.InContextMap(lambda mu, x: x + 1.0, 1, 1)
        refs = []
        for _ in range(100):
            mu = random_measure(rng, 3, 1)
            g.push(mu)
            refs.append(weakref.ref(mu))
        del mu
        gc.collect()
        assert sum(r() is not None for r in refs) <= 1
