import numpy as np
import pytest

import incontext as ic
from incontext.errors import DimensionMismatch, MapUndefinedAtAtom

from helpers import OVERFLOW_POINTS, each_row, overflowing_stack, random_attention, random_measure, random_mlp, random_stack


def identity_layer(d, rng):
    head = ic.HeadParams(
        q=np.zeros((2, d)), k=np.zeros((2, d)), v=np.eye(d), w=np.zeros((d, d))
    )
    return ic.Layer(ic.AttentionParams((head,), 2), ic.identity_mlp())


class TestForwardMap:
    def test_empty_stack_is_identity(self):
        stack = ic.LayerStack((), 2)
        mu = ic.new_discrete([[0.1, 0.2]], [1.0])
        x = np.array([0.5, -0.5])
        assert np.array_equal(ic.forward_map(stack, mu, x), x)

    def test_a_stack_built_on_a_list_equals_its_tuple_form(self):
        # an empty stack hashes; layers hold arrays, so a stack of layers does not
        assert ic.LayerStack([], 1) == ic.LayerStack((), 1) and hash(ic.LayerStack([], 1)) == hash(ic.LayerStack((), 1))
        layers = [identity_layer(2, None), identity_layer(2, None)]
        listed = ic.LayerStack(layers, 2)
        assert listed.layers == tuple(layers) and listed == ic.LayerStack(tuple(layers), 2)

    def test_empty_stack_rejects_a_query_of_another_dimension(self):
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(DimensionMismatch, match="^points of dimension 3 meet a matrix of width 2$"):
            ic.forward_map(ic.LayerStack((), 2), mu, np.zeros(3))

    def test_identity_layer(self):
        rng = np.random.default_rng(0)
        stack = ic.LayerStack((identity_layer(2, rng),), 2)
        mu = random_measure(rng, 3, 2)
        x = np.array([0.5, -0.5])
        assert np.array_equal(ic.forward_map(stack, mu, x), x)

    def test_matches_diamond_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            layers = tuple(
                ic.Layer(random_attention(rng, 1, key_dim=1), random_mlp(rng, 1))
                for _ in range(2)
            )
            stack = ic.LayerStack(layers, 1)
            g1 = ic.InContextMap.from_layer(layers[0].attention, layers[0].mlp)
            g2 = ic.InContextMap.from_layer(layers[1].attention, layers[1].mlp)
            comp = ic.compose_diamond(g1, g2)
            mu = random_measure(rng, 2, 1)
            x = rng.uniform(-1, 1, size=1)
            assert np.array_equal(ic.forward_map(stack, mu, x), comp(mu, x))


class TestForwardMeasure:
    def test_identity_stack(self):
        mu = ic.canonicalize(ic.new_discrete([[0.3], [0.9]], [0.5, 0.5]))
        assert ic.forward_measure(ic.LayerStack((), 1), mu) == mu

    def test_images_are_forward_map_values(self):
        rng = np.random.default_rng(2)
        stack = random_stack(rng, 2, depth=2)
        n = 4
        mu = random_measure(rng, n, 2, uniform=True)
        out = ic.forward_measure(stack, mu)
        images = np.array([ic.forward_map(stack, mu, p) for p in mu.points])
        expected = ic.push_forward(mu, each_row(lambda p: ic.forward_map(stack, mu, p)))
        assert out == expected
        got_sorted = out.points[np.lexsort(out.points.T[::-1])]
        img_sorted = images[np.lexsort(images.T[::-1])]
        assert np.max(np.abs(got_sorted - img_sorted)) <= 1e-13

    def test_duplicate_atoms_have_equal_images(self):
        rng = np.random.default_rng(3)
        stack = random_stack(rng, 1, depth=1)
        seq = ic.new_tokens([[0.5], [0.5], [1.0]])
        out = ic.forward_tokens(stack, seq)
        assert np.array_equal(out.tokens[0], out.tokens[1])

    def test_mass_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            stack = random_stack(rng, 2, depth=int(rng.integers(0, 3)))
            mu = random_measure(rng, int(rng.integers(1, 8)), 2)
            out = ic.forward_measure(stack, mu)
            assert abs(out.total_mass - mu.total_mass) <= 1e-12 * mu.total_mass

    def test_consistency_random_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            stack = random_stack(rng, 2, depth=2)
            mu = random_measure(rng, int(rng.integers(1, 17)), 2)
            via_push = ic.push_forward(mu, each_row(lambda p: ic.forward_map(stack, mu, p)))
            direct = ic.forward_measure(stack, mu)
            assert direct.n == via_push.n
            assert np.max(np.abs(direct.points - via_push.points)) <= 1e-13
            assert np.max(np.abs(direct.weights - via_push.weights)) <= 1e-13


class TestForwardTokens:
    def test_identity_stack_keeps_order(self):
        # the tokens as given, bit for bit: -0.0 stays -0.0
        seq = ic.new_tokens([[1.0], [0.0], [-0.0]])
        out = ic.forward_tokens(ic.LayerStack((), 1), seq)
        assert out.tokens.tobytes() == seq.tokens.tobytes() and np.signbit(out.tokens[2, 0])

    def test_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            stack = random_stack(rng, d, depth=int(rng.integers(1, 3)))
            n = int(rng.integers(2, 7))
            toks = rng.uniform(-2, 2, size=(n, d))
            seq = ic.new_tokens(toks)
            out = ic.forward_tokens(stack, seq)
            perm = rng.permutation(n)
            out_p = ic.forward_tokens(stack, ic.new_tokens(toks[perm]))
            assert np.array_equal(out_p.tokens, out.tokens[perm])

    def test_support_preservation_count(self):
        rng = np.random.default_rng(7)
        stack = random_stack(rng, 1, depth=1)
        toks = np.array([[0.2], [0.2], [0.2], [1.0]])
        out = ic.forward_tokens(stack, ic.new_tokens(toks))
        distinct_in = len(np.unique(toks))
        distinct_out = len(np.unique(out.tokens))
        assert distinct_out <= distinct_in

    def test_signed_zeros_are_one_atom(self):
        rng = np.random.default_rng(8)
        stack = random_stack(rng, 2, depth=1)
        out = ic.forward_tokens(stack, ic.new_tokens([[-0.0, 1.0], [0.0, 1.0]]))
        assert out.tokens[0].tobytes() == out.tokens[1].tobytes()
        # the atom sits at +0.0, so both tokens read its image
        want = ic.forward_map(stack, ic.new_discrete([[0.0, 1.0]], [1.0]), np.array([0.0, 1.0]))
        assert out.tokens[0].tobytes() == want.tobytes()


class TestUndefinedMap:
    def test_forward_measure_names_first_atom(self):
        mu = ic.new_discrete(OVERFLOW_POINTS, [0.2, 0.3, 0.5])
        with pytest.raises(MapUndefinedAtAtom, match="at atom 0"):
            ic.forward_measure(overflowing_stack(), mu)

    def test_forward_map_raises_on_a_non_finite_image(self):
        mu = ic.new_discrete(OVERFLOW_POINTS, [0.2, 0.3, 0.5])
        with pytest.raises(MapUndefinedAtAtom, match="at atom 0"):
            ic.forward_map(overflowing_stack(), mu, mu.points[0])

    def test_forward_tokens_names_first_atom(self):
        seq = ic.new_tokens(OVERFLOW_POINTS)
        with pytest.raises(MapUndefinedAtAtom, match="at atom 0"):
            ic.forward_tokens(overflowing_stack(), seq)
