from functools import reduce

import numpy as np
import pytest

import incontext as ic
from incontext.errors import DimensionMismatch, MapUndefinedAtAtom, OutOfDomain, SkipNotUnit

from helpers import random_attention, random_measure, random_mlp, random_stack


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

    @pytest.mark.parametrize("field", ["q", "k", "v", "w"])
    @pytest.mark.parametrize("value", [np.array(1.0), np.array([0.1])])
    def test_rejects_matrices_of_wrong_rank(self, field, value):
        mats = {"q": np.zeros((1, 1)), "k": np.zeros((1, 1)), "v": np.eye(1), "w": np.eye(1), field: value}
        with pytest.raises(DimensionMismatch, match="attention matrices must be 2-d"):
            ic.AttentionParams((ic.HeadParams(**mats),), 1)


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

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.array(1.0), np.zeros(1)),
            (np.zeros(2), np.zeros(2)),
            (np.eye(2), np.array(0.0)),
            (np.eye(2), np.zeros((2, 1))),
        ],
    )
    def test_rejects_wrong_rank(self, a, b):
        with pytest.raises(DimensionMismatch, match="2-d matrix A and a 1-d bias b"):
            ic.MlpParams(1.0, ((a, b),))


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


def empty_width_layer(case, d=2):
    """A layer with one empty width: key_dim 0, a head with d_head 0, or an MLP with a hidden layer of width 0."""
    q = np.ones((0 if case == "key-dim" else 1, d))
    dh = 0 if case == "d-head" else d
    head = ic.HeadParams(q, q, np.ones((dh, d)), np.ones((d, dh)))
    hidden = 0 if case == "mlp-hidden" else d
    mlp_p = ic.MlpParams(1.0, ((np.ones((hidden, d)), np.zeros(hidden)), (np.ones((d, hidden)), np.zeros(d))))
    return ic.Layer(ic.AttentionParams((head,), len(q)), mlp_p)


@pytest.mark.parametrize("n", [3, 64])  # whole products and the scratch form
@pytest.mark.parametrize("case", ["key-dim", "d-head", "mlp-hidden"])
def test_empty_widths_raise_dimension_mismatch(case, n):
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    with pytest.raises(DimensionMismatch, match="matrices must be nonempty$"):
        ic.layer_step(empty_width_layer(case), pts, np.full(n, 1.0 / n), pts)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_mlp_and_layer_numbers_raise(value):
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    for layers in (((np.where(np.eye(2) > 0, value, a), b),), ((a, b), (a, np.array([0.0, value])))):
        with pytest.raises(DimensionMismatch, match="^MLP matrices must be finite$"):
            ic.MlpParams(1.0, layers)
    with pytest.raises(OutOfDomain, match=f"^MLP skip must be finite, got {value}$"):
        ic.MlpParams(value, ((a, b),))
    with pytest.raises(OutOfDomain, match=f"^layer scale must be finite, got {value}$"):
        ic.Layer(random_attention(rng, 2), random_mlp(rng, 2), value)


RAGGED = [[0.0], [0.0, 1.0]]
RAGGED_QUERIES = {
    "rows": lambda mu: ic.InContextMap.identity(2).rows(mu, RAGGED),
    "call": lambda mu: ic.InContextMap.identity(2)(mu, RAGGED),
    "forward_map": lambda mu: ic.forward_map(random_stack(np.random.default_rng(14), 2), mu, RAGGED),
    "velocity_field": lambda mu: ic.VelocityField(lambda t, p, w, X: X)(0.0, mu.points, mu.weights, RAGGED),
    "characteristic_map": lambda mu: ic.characteristic_map(ic.VelocityField(lambda t, p, w, X: X), mu, RAGGED, 0.5),
    "add_atom": lambda mu: ic.add_atom(mu, RAGGED, 0.1),
    "split_reg_irreg": lambda mu: ic.split_reg_irreg(
        ic.InContextMap.identity(2), mu, RAGGED, ic.coordinate_test(0, mu.box)
    ),
    "test_function_value": lambda mu: ic.coordinate_test(0, mu.box).value(RAGGED),
    "test_function_gradient": lambda mu: ic.coordinate_test(0, mu.box).gradient(RAGGED),
}


@pytest.mark.parametrize("entry", RAGGED_QUERIES.values(), ids=RAGGED_QUERIES.keys())
def test_ragged_query_rows_raise_dimension_mismatch(entry):
    # numpy's own ValueError for a ragged nested list must not escape
    mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="^query rows must be numbers in rows of one length$"):
        entry(mu)


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

    def test_a_chain_without_stages_checks_the_query_width(self):
        # no kernel runs, so the chain itself must refuse a 3-vector for a 2-d measure
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(DimensionMismatch, match="^points of dimension 3 meet a matrix of width 2$"):
            ic.InContextMap.identity(2)(mu, np.zeros(3))

    def test_rows_reads_nested_lists_as_arrays(self):
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        X = [[0.0, 0.0], [0.5, -1.0]]
        for chain in (ic.InContextMap.identity(2), ic.InContextMap.from_gamma(random_attention(np.random.default_rng(13), 2))):
            assert np.array_equal(chain.rows(mu, X), chain.rows(mu, np.array(X)))
            with pytest.raises(DimensionMismatch, match="^points of dimension 3 meet a matrix of width 2$"):
                chain.rows(mu, [[0.0, 0.0, 0.0]])

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            gs = [ic.InContextMap.from_gamma(random_attention(rng, 2)) for _ in range(3)]
            left = ic.compose_diamond(ic.compose_diamond(gs[0], gs[1]), gs[2])
            right = ic.compose_diamond(gs[0], ic.compose_diamond(gs[1], gs[2]))
            mu = random_measure(rng, 3, 2)
            x = rng.uniform(-1, 1, size=2)
            assert np.array_equal(left(mu, x), right(mu, x))

    @pytest.mark.parametrize("nesting", ["left", "right"])
    def test_nested_push_calls_each_stage_once(self, nesting):
        rng = np.random.default_rng(13)
        calls = [0] * 12

        def counted(k):
            def stage(pts, w, X):
                calls[k] += 1
                return X + 1.0

            return ic.InContextMap((stage,), 1)

        maps = [counted(k) for k in range(12)]
        if nesting == "left":
            chain = reduce(ic.compose_diamond, maps)
        else:
            chain = reduce(lambda right, g: ic.compose_diamond(g, right), maps[::-1])
        mu = random_measure(rng, 3, 1)
        out = chain.push(mu)
        assert calls == [1] * 12
        assert np.array_equal(out.points, ic.canonicalize(mu).points + 12.0)

    def test_push_calls_the_map_once(self):
        rng = np.random.default_rng(15)
        calls = {"g1": 0, "g2": 0}

        def counted(name):
            def stage(pts, w, X):
                calls[name] += 1
                return X + 1.0

            return stage

        g1, g2 = ic.InContextMap((counted("g1"),), 1), ic.InContextMap((counted("g2"),), 1)
        mu = random_measure(rng, 3, 1)
        g1.push(mu)
        assert calls == {"g1": 1, "g2": 0}
        # the diamond's push: each stage once, on all atoms of its context
        ic.compose_diamond(g1, g2).push(random_measure(rng, 3, 1))
        assert calls == {"g1": 2, "g2": 1}


def drops_a_row(pts, w, X):
    return X[:-1] + 0.1


def doubles_the_width(pts, w, X):
    return np.hstack((X, X))


BAD_STAGES = pytest.mark.parametrize(
    "stage, error, message",
    [
        (drops_a_row, MapUndefinedAtAtom, r"^map returned shape \(\d, 2\) for \d atoms$"),
        (doubles_the_width, DimensionMismatch, "^points of dimension 2 meet a matrix of width 4$"),
    ],
    ids=["drops-a-row", "doubles-the-width"],
)


class TestStageShape:
    """Every stage is held to its query's shape, so a chain cannot drop atoms,
    lose mass or change its dimension."""

    MU = ic.new_discrete([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], [0.2, 0.3, 0.5])

    @staticmethod
    def chains(stage):
        # the bad stage alone, and after a layer that reads the context
        bad = ic.InContextMap((stage,), 2)
        return bad, ic.compose_diamond(ic.InContextMap.from_gamma(random_attention(np.random.default_rng(21), 2)), bad)

    @BAD_STAGES
    def test_push_raises(self, stage, error, message):
        for chain in self.chains(stage):
            with pytest.raises(error, match=message):
                chain.push(self.MU)

    @BAD_STAGES
    @pytest.mark.parametrize("m", [1, 4])
    def test_rows_raise(self, stage, error, message, m):
        X = np.linspace(-1.0, 1.0, 2 * m).reshape(m, 2)
        for chain in self.chains(stage):
            with pytest.raises(error, match=message):
                chain.rows(self.MU, X)

    @BAD_STAGES
    def test_extraction_through_the_measure_map_raises(self, stage, error, message):
        for chain in self.chains(stage):
            with pytest.raises(error, match=message):
                ic.extract_g(ic.MeasureMap.from_in_context(chain), self.MU, np.array([0.25, 0.25]))

    def test_rows_reject_a_query_that_is_not_two_dimensional(self):
        for chain in (ic.InContextMap.identity(2), self.chains(doubles_the_width)[1]):
            # a 1-d array holds points of dimension 1
            with pytest.raises(DimensionMismatch, match="^points of dimension 1 meet a matrix of width 2$"):
                chain.rows(self.MU, np.zeros(2))

    def test_a_good_chain_keeps_atoms_and_mass(self):
        chain = self.chains(lambda pts, w, X: X + 0.1)[1]
        nu = chain.push(self.MU)
        assert nu.n == self.MU.n and nu.dim == 2
        assert nu.weights.tolist() == ic.canonicalize(self.MU).weights.tolist()
