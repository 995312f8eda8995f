"""The batched layer kernel: batch-size independence, agreement with the
per-point reference evaluation, and the bitwise equality of the two ways its
attention body sums the contractions over the atoms."""

import importlib
import itertools
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incontext as ic
from incontext import deep_transformer
from incontext.attention import (
    ACTIVATIONS,
    SCRATCH_ENTRIES,
    SMALL_ENTRIES,
    _attend,
    _context,
    _leading_sum,
    _mlp_rows,
)
from incontext.errors import EmptyMeasure
from incontext.measures import relocate

from helpers import (
    each_row,
    random_attention,
    random_measure,
    random_mlp,
    reference_apply_layer,
    reference_attention,
    reference_attention_weights,
    reference_mlp,
    reference_velocity,
)

SIZES = (1, 2, 3, 5, 17, 64, 256)


def random_layer(rng, d, heads, key_dim, scale=1.0):
    return ic.Layer(random_attention(rng, d, heads=heads, key_dim=key_dim), random_mlp(rng, d), scale)


def cases(seed):
    """(layer, canonical context, queries) over sizes, dimensions, heads and key dims."""
    rng = np.random.default_rng(seed)
    for n, d, heads in itertools.product(SIZES, range(1, 5), (1, 2)):
        key_dim = int(rng.integers(1, 5))
        scale = 1.0 if rng.random() < 0.5 else 0.125
        ctx = ic.canonicalize(random_measure(rng, n, d))
        queries = np.vstack([ctx.points, rng.uniform(-2.5, 2.5, size=(7, d))])
        yield random_layer(rng, d, heads, key_dim, scale), ctx, queries


class TestBatchIndependence:
    def test_rows_equal_single_row_evaluations_bitwise(self):
        for layer, ctx, X in cases(0):
            batched = ic.layer_step(layer, ctx.points, ctx.weights, X)
            assert batched.shape == X.shape
            for i in range(X.shape[0]):
                alone = ic.layer_step(layer, ctx.points, ctx.weights, X[i : i + 1])
                assert np.array_equal(batched[i], alone[0]), (ctx.n, ctx.dim, i)

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(1)
        for layer, ctx, X in cases(1):
            perm = rng.permutation(X.shape[0])
            assert np.array_equal(
                ic.layer_step(layer, ctx.points, ctx.weights, X[perm]),
                ic.layer_step(layer, ctx.points, ctx.weights, X)[perm],
            )

    def test_velocity_rows_equal_single_rows(self):
        for layer, ctx, X in cases(2):
            batched = ic.velocity_rows(layer.attention, layer.mlp, ctx.points, ctx.weights, X)
            for i in range(X.shape[0]):
                alone = ic.velocity_rows(layer.attention, layer.mlp, ctx.points, ctx.weights, X[i : i + 1])
                assert np.array_equal(batched[i], alone[0])

    def test_point_functions_match_rows(self):
        for layer, ctx, X in cases(3):
            att, mlp_p = layer.attention, layer.mlp
            rows = ic.layer_step(layer, ctx.points, ctx.weights, X)
            # a non-canonical context: the point functions canonicalize it first
            mu = ic.new_discrete(ctx.points[::-1], ctx.weights[::-1], ctx.box)
            pts, w = _context(mu)
            head_weights = []
            att_rows = _attend(att, pts, w, X, head_weights)
            vel_rows = ic.velocity_rows(att, mlp_p, pts, w, X)
            for i in (0, X.shape[0] - 1):
                one_layer = ic.LayerStack((layer,), X.shape[1])
                assert np.array_equal(ic.forward_map(one_layer, ctx, X[i]), rows[i])
                assert np.array_equal(ic.forward_map(one_layer, mu, X[i]), rows[i])
                assert np.array_equal(ic.attention(att, mu, X[i]), att_rows[i])
                assert np.array_equal(ic.gamma(att, mu, X[i]), X[i] + att_rows[i])
                assert np.array_equal(ic.velocity(att, mlp_p, mu, X[i]), vel_rows[i])
                got = ic.attention_weights(att, mu, X[i])
                assert len(got) == len(head_weights)
                for p, q in zip(got, head_weights):
                    assert np.array_equal(p, q[i])


def contiguous_transpose_rowmul(X, A):
    """The former ``_rowmul``: column j of A read as row j of a contiguous copy of A.T."""
    cols = np.ascontiguousarray(A.T)
    out = X[:, :1] * cols[0]
    term = np.empty_like(out)
    for j in range(1, X.shape[1]):
        out += np.multiply(X[:, j : j + 1], cols[j], out=term)
    return out


class TestArrayKernel:
    def test_leading_sum_reads_columns_of_any_layout_bitwise(self):
        rng = np.random.default_rng(7)
        for m, k, d in itertools.product((1, 3, 17), (1, 2, 5), (1, 2, 4, 9)):
            X, A = rng.normal(size=(m, d)), rng.normal(size=(k, d))
            big_X, big_A = rng.normal(size=(2 * m, 2 * d + 1)), rng.normal(size=(2 * k + 1, 3 * d))
            xs = (X, np.asfortranarray(X), big_X[::2, 1::2])
            as_ = (A, np.asfortranarray(A), big_A[1::2, ::3])
            assert xs[2].shape == (m, d) and as_[2].shape == (k, d)
            if d > 1:
                assert not xs[2].flags.c_contiguous and not as_[2].flags.c_contiguous
            for x, a in itertools.product(xs, as_):
                assert np.array_equal(_leading_sum(a, x.T).T, contiguous_transpose_rowmul(x, a)), (m, k, d)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 12), st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.sampled_from(sorted(ACTIVATIONS)), st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**32 - 1),
    )
    def test_mlp_rows_add_the_terms_in_order(self, m, widths, activation, x_layout, seed):
        # layer widths d, widths[1:]..., d: 9 is one past numpy's 8-term pairwise runs
        rng = np.random.default_rng(seed)
        d, chain = widths[0], widths + widths[:1]
        layers = tuple((rng.normal(size=(k, j)), rng.normal(size=k)) for j, k in zip(chain, chain[1:]))
        mlp_p = ic.MlpParams(1.0, layers, activation)
        X = layouts(rng, m, d)[x_layout]
        h = X
        for a, b in layers:
            h = ACTIVATIONS[activation](contiguous_transpose_rowmul(h, a) + b)
        assert _mlp_rows(mlp_p, X).tobytes() == (X + h).tobytes()

    def test_empty_context_arrays_raise(self):
        rng = np.random.default_rng(8)
        layer = random_layer(rng, 2, 2, 3)
        pts, w, X = np.empty((0, 2)), np.empty(0), rng.uniform(-1.0, 1.0, size=(3, 2))
        for scale in (1.0, 0.25):
            with pytest.raises(EmptyMeasure):
                ic.layer_step(replace(layer, scale=scale), pts, w, X)
        with pytest.raises(EmptyMeasure):
            ic.velocity_rows(layer.attention, layer.mlp, pts, w, X)


def collapsing_stack(rng, d):
    """A stack whose first layer sends every atom to the origin (an MLP with
    skip 0 and a zero matrix), followed by two random layers."""
    collapse = ic.MlpParams(skip=0.0, layers=((np.zeros((d, d)), np.zeros(d)),))
    first = ic.Layer(random_attention(rng, d, heads=2, key_dim=3), collapse)
    return ic.LayerStack((first, random_layer(rng, d, 2, 2), random_layer(rng, d, 1, 3, 0.25)), d)


def layer_by_layer_chain(stack, mu, step=ic.layer_step):
    """The context chain of ``stack`` on ``mu`` from one ``step`` call per layer."""
    chain = [ic.canonicalize(mu)]
    for layer in stack.layers:
        nu = chain[-1]
        chain.append(relocate(nu, step(layer, nu.points, nu.weights, nu.points)))
    return chain


def in_chunks(fn, *args, size=7):
    """``fn(*args)`` on consecutive chunks of ``size`` rows of its last argument, stacked."""
    *head, X = args
    return np.vstack([fn(*head, X[i : i + size]) for i in range(0, X.shape[0], size)])


chunked_step = partial(in_chunks, ic.layer_step)


def distinct_context(rng, n, d):
    ctx = ic.canonicalize(random_measure(rng, n, d))
    assert ctx.n == n
    return ctx


def traced_peak(fn):
    """Bytes by which ``fn()`` raises the tracemalloc peak above what was traced before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWorkspace:
    """The kernel's own scratch: query rows taken in blocks of bounded size."""

    def test_blocked_rows_equal_small_chunks_bitwise(self):
        rng = np.random.default_rng(9)
        n = 1100
        assert SCRATCH_ENTRIES // n < n < 2 * (SCRATCH_ENTRIES // n)  # two blocks
        for d, heads, scale in ((1, 2, 1.0), (3, 1, 0.125)):
            layer = random_layer(rng, d, heads, 2, scale)
            ctx = distinct_context(rng, n, d)
            X = np.vstack([ctx.points[100:][::-1], rng.uniform(-2.5, 2.5, size=(100, d))])
            args = (ctx.points, ctx.weights, X)
            assert np.array_equal(ic.layer_step(layer, *args), chunked_step(layer, *args))
            att, mlp_p = layer.attention, layer.mlp
            assert np.array_equal(ic.velocity_rows(att, mlp_p, *args), in_chunks(ic.velocity_rows, att, mlp_p, *args))

            def head_weights(rows):
                weights = []
                _attend(att, ctx.points, ctx.weights, rows, weights)
                return np.stack(weights)

            chunks = [head_weights(X[i : i + 7]) for i in range(0, n, 7)]
            assert np.array_equal(head_weights(X), np.concatenate(chunks, axis=1))

    def test_blocked_stack_passes_equal_small_chunks_bitwise(self):
        rng = np.random.default_rng(10)
        n, d = 1500, 2
        stack = ic.LayerStack((random_layer(rng, d, 2, 3), random_layer(rng, d, 1, 2, 0.25)), d)
        mu = random_measure(rng, n, d)
        want = layer_by_layer_chain(stack, mu, chunked_step)
        assert want[0].n == n
        got = ic.forward_measure(stack, mu)
        assert np.array_equal(got.points, want[-1].points) and np.array_equal(got.weights, want[-1].weights)

        seq = ic.new_tokens(mu.points[rng.permutation(n)])
        X = seq.tokens
        for layer, ctx in zip(stack.layers, layer_by_layer_chain(stack, ic.iota(seq), chunked_step)):
            X = chunked_step(layer, ctx.points, ctx.weights, X)
        assert np.array_equal(ic.forward_tokens(stack, seq).tokens, X)

    def test_context_collapsing_mid_pass_matches_layer_by_layer_calls(self):
        rng = np.random.default_rng(10)
        for d in (1, 3):
            stack = collapsing_stack(rng, d)
            mu = random_measure(rng, 40, d)
            chain = layer_by_layer_chain(stack, mu)
            assert [c.n for c in chain] == [40, 1, 1, 1]
            got = ic.forward_measure(stack, mu)
            assert np.array_equal(got.points, chain[-1].points) and np.array_equal(got.weights, chain[-1].weights)

            seq = ic.new_tokens(rng.uniform(-2.0, 2.0, size=(25, d))[rng.integers(0, 25, size=50)])
            X = seq.tokens
            for layer, ctx in zip(stack.layers, layer_by_layer_chain(stack, ic.iota(seq))):
                X = ic.layer_step(layer, ctx.points, ctx.weights, X)
            assert np.array_equal(ic.forward_tokens(stack, seq).tokens, X)

    def test_attention_weights_are_per_head_copies(self):
        rng = np.random.default_rng(11)
        att = random_attention(rng, 3, heads=2, key_dim=2)
        mu = random_measure(rng, 30, 3)
        x = np.array([0.3, -0.2, 0.9])
        got = ic.attention_weights(att, mu, x)
        assert len(got) == 2 and not np.shares_memory(got[0], got[1])
        assert not np.array_equal(got[0], got[1])
        for head, p in zip(att.heads, got):
            alone = ic.AttentionParams((head,), att.key_dim)
            assert np.array_equal(ic.attention_weights(alone, mu, x)[0], p)

    def test_blocked_attention_weights_are_per_head_copies(self, monkeypatch):
        # the scratch form, in blocks of 2 rows, fills one (m, n) array per head
        rng = np.random.default_rng(11)
        att = random_attention(rng, 3, heads=2, key_dim=2)
        mu = ic.canonicalize(random_measure(rng, 30, 3))
        X = rng.normal(size=(5, 3))
        monkeypatch.setattr(KERNEL, "SMALL_ENTRIES", 0)
        monkeypatch.setattr(KERNEL, "SCRATCH_ENTRIES", 2 * mu.n)
        got = []
        _attend(att, mu.points, mu.weights, X, got)
        assert len(got) == 2 and not np.shares_memory(got[0], got[1])
        for head, p in zip(att.heads, got):
            alone = []
            _attend(ic.AttentionParams((head,), att.key_dim), mu.points, mu.weights, X, alone)
            assert p.shape == (5, mu.n) and np.array_equal(alone[0], p)

    @pytest.mark.parametrize("heads", [2, 4])
    def test_layer_step_allocates_less_than_three_logit_arrays(self, heads):
        rng = np.random.default_rng(12)
        m = n = 256
        layer = random_layer(rng, 4, heads, 3)
        ctx = distinct_context(rng, n, 4)

        def step():
            ic.layer_step(layer, ctx.points, ctx.weights, ctx.points)

        step()
        peak = traced_peak(step)
        assert peak < 3 * m * n * 8, peak

    def test_scratch_is_bounded_for_many_atoms(self):
        rng = np.random.default_rng(14)
        n = 3000
        layer = random_layer(rng, 1, 1, 2)
        ctx = distinct_context(rng, n, 1)
        peak = traced_peak(lambda: ic.layer_step(layer, ctx.points, ctx.weights, ctx.points))
        assert peak < 2 * SCRATCH_ENTRIES * 8 + 2**20, peak

    def test_an_empty_stack_allocates_no_workspace(self):
        rng = np.random.default_rng(13)
        mu = random_measure(rng, 2000, 2)
        stack = ic.LayerStack((), 2)
        peak = traced_peak(lambda: (ic.forward_measure(stack, mu), ic.forward_tokens(stack, ic.new_tokens(mu.points))))
        assert peak < 2000 * 2000 * 8, peak


def counted_kernel(monkeypatch):
    """The row count of each ``layer_step`` call that the stacks make, in call order."""
    rows = []

    def step(layer, pts, w, X):
        rows.append(len(X))
        return ic.layer_step(layer, pts, w, X)

    monkeypatch.setattr(deep_transformer, "layer_step", step)
    return rows


class TestWorkCount:
    """Tokens are read off the push-forward: each layer runs once, on its context's atoms."""

    def test_tokens_run_each_layer_once_on_the_atoms(self, monkeypatch):
        rng = np.random.default_rng(15)
        stack = ic.LayerStack(tuple(random_layer(rng, 4, 2, 3) for _ in range(6)), 4)
        base = rng.uniform(-2.0, 2.0, size=(64, 4))
        seq = ic.new_tokens(np.concatenate([base, base])[rng.permutation(128)])
        want = seq.tokens
        for layer, ctx in zip(stack.layers, layer_by_layer_chain(stack, ic.iota(seq))):
            want = ic.layer_step(layer, ctx.points, ctx.weights, want)
        rows = counted_kernel(monkeypatch)
        assert np.array_equal(ic.forward_tokens(stack, seq).tokens, want)
        assert rows == [64] * 6

    def test_tokens_follow_their_atoms_through_a_collapse(self, monkeypatch):
        rng = np.random.default_rng(16)
        stack = collapsing_stack(rng, 2)
        seq = ic.new_tokens(rng.uniform(-2.0, 2.0, size=(25, 2))[rng.integers(0, 25, size=50)])
        distinct = ic.iota(seq).n
        rows = counted_kernel(monkeypatch)
        out = ic.forward_tokens(stack, seq)
        assert rows == [distinct, 1, 1]
        assert np.array_equal(out.tokens, np.broadcast_to(out.tokens[0], out.tokens.shape))


class TestAgainstPerPointReference:
    def test_layer_step(self):
        for layer, ctx, X in cases(4):
            want = np.array([reference_apply_layer(layer, ctx, x) for x in X])
            assert np.max(np.abs(ic.layer_step(layer, ctx.points, ctx.weights, X) - want)) <= 1e-12

    def test_point_functions(self):
        rng = np.random.default_rng(5)
        for layer, ctx, X in cases(5):
            att, mlp_p = layer.attention, layer.mlp
            mu = ic.new_discrete(ctx.points[::-1], ctx.weights[::-1], ctx.box)  # not canonical
            for x in X[rng.permutation(X.shape[0])[:3]]:
                assert np.max(np.abs(ic.attention(att, mu, x) - reference_attention(att, mu, x))) <= 1e-12
                assert np.max(np.abs(ic.gamma(att, mu, x) - x - reference_attention(att, mu, x))) <= 1e-12
                assert np.max(np.abs(ic.mlp(mlp_p, x) - reference_mlp(mlp_p, x))) <= 1e-12
                v = ic.velocity(att, mlp_p, mu, x)
                assert np.max(np.abs(v - reference_velocity(att, mlp_p, mu, x))) <= 1e-12
                for p, q in zip(ic.attention_weights(att, mu, x), reference_attention_weights(att, mu, x)):
                    assert np.max(np.abs(p - q)) <= 1e-12

    def test_forward_measure(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            layers = tuple(
                random_layer(rng, d, int(rng.integers(1, 3)), int(rng.integers(1, 5))) for _ in range(3)
            )
            mu = random_measure(rng, int(rng.integers(1, 65)), d)
            nu = ic.canonicalize(mu)
            for layer in layers:
                ctx = nu
                nu = ic.push_forward(ctx, each_row(lambda z: reference_apply_layer(layer, ctx, z)))
            got = ic.forward_measure(ic.LayerStack(layers, d), mu)
            assert got.n == nu.n
            assert np.max(np.abs(got.points - nu.points)) <= 1e-12
            assert np.max(np.abs(got.weights - nu.weights)) <= 1e-12


def layouts(rng, rows, cols):
    """One (rows, cols) array of normal draws, C-ordered, Fortran-ordered and as a strided view."""
    a = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-2, 3)
    big = rng.normal(size=(2 * rows, 3 * cols))
    big[::2, 1::3] = a
    return {"C": a, "F": np.asfortranarray(a), "strided": big[::2, 1::3]}


def attention_of(rng, d, key_dim, head_dims):
    """Attention with normal entries and one head of each value dimension in ``head_dims``."""
    heads = tuple(
        ic.HeadParams(*(rng.normal(size=shape) for shape in ((key_dim, d), (key_dim, d), (dh, d), (d, dh))))
        for dh in head_dims
    )
    return ic.AttentionParams(heads, key_dim)


KERNEL = importlib.import_module("incontext.attention")


def spied_blocks(monkeypatch):
    """Patch ``_pooled`` to record each call's block of softmax rows: its row
    count, or None where whole products ran without a scratch."""
    blocks, pooled = [], KERNEL._pooled

    def spy(pts_t, p, scratch=None):
        blocks.append(None if scratch is None else len(p))
        return pooled(pts_t, p, scratch)

    monkeypatch.setattr(KERNEL, "_pooled", spy)
    return blocks


def both_forms(att, pts, w, X):
    """Rows and per-head softmax weights of one ``_attend`` call, summed as
    whole products, then term by term in blocks of about a third of the rows."""
    m, n = X.shape[0], pts.shape[0]
    rows = (m + 2) // 3
    results = []
    with pytest.MonkeyPatch.context() as mp:
        blocks = spied_blocks(mp)
        mp.setattr(KERNEL, "SCRATCH_ENTRIES", n * rows)
        for limit in (2**62, 0):
            mp.setattr(KERNEL, "SMALL_ENTRIES", limit)
            weights = []
            results.append((_attend(att, pts, w, X, weights), weights))
    # one whole block, then several from 2 rows on, each walked head by head
    assert blocks == [None for _ in att.heads] + [min(rows, m - lo) for lo in range(0, m, rows) for _ in att.heads]
    return results


def assert_bitwise_equal(results):
    (whole, whole_probs), (scratch, scratch_probs) = results
    assert whole.tobytes() == scratch.tobytes()
    assert [p.tobytes() for p in whole_probs] == [p.tobytes() for p in scratch_probs]


class TestTwoBodies:
    """The attention body's two summation forms, whole products and term by
    term in a scratch, are bitwise equal on every shape and layout, also over
    several row blocks; the call's size picks one, and whole products stay
    within a fixed multiple of its constant."""

    # widths reach 9, one past the 8-term runs that numpy sums pairwise
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 9), st.integers(1, 9),
        st.lists(st.integers(1, 9), min_size=1, max_size=2), st.sampled_from(["C", "F", "strided"]),
        st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**32 - 1),
    )
    def test_bodies_are_bitwise_equal(self, n, m, d, key_dim, head_dims, pts_layout, x_layout, seed):
        rng = np.random.default_rng(seed)
        att = attention_of(rng, d, key_dim, head_dims)
        pts, X = layouts(rng, n, d)[pts_layout], layouts(rng, m, d)[x_layout]
        w = rng.uniform(0.1, 1.0, size=n)
        assert_bitwise_equal(both_forms(att, pts, w / w.sum(), X))

    def test_lone_entries_of_many_terms_are_summed_in_order(self):
        # one query and one atom: every contraction of 8 or more terms has a lone
        # output entry, and the softmax weight is exactly 1, so the row is W V x_1
        rng = np.random.default_rng(15)
        for d, key_dim, dh in itertools.product((1, 8, 11), (1, 9), (1, 10)):
            att = attention_of(rng, d, key_dim, [dh])
            pts, X = rng.normal(size=(1, d)) * 1e3, rng.normal(size=(1, d))
            results = both_forms(att, pts, np.ones(1), X)
            assert_bitwise_equal(results)
            head = att.heads[0]
            want = contiguous_transpose_rowmul(contiguous_transpose_rowmul(pts, head.v), head.w)
            assert results[0][0].tobytes() == want.tobytes(), (d, key_dim, dh)

    @pytest.mark.parametrize(
        "m, n, d, key_dim, small",
        [
            (17, 16, 2, 2, True),  # a flow with a tracer
            (13, 13, 2, 2, True),  # an extraction probe
            (45, 45, 1, 1, True),
            (1, 1000, 2, 2, True),
            (32, 32, 2, 2, False),  # the smallest forward pass: m n max(d, key_dim) is the constant
            (23, 23, 4, 1, False),
            (23, 23, 1, 4, False),
        ],
    )
    def test_the_call_size_picks_the_body(self, monkeypatch, m, n, d, key_dim, small):
        rng = np.random.default_rng(16)
        att = random_attention(rng, d, key_dim=key_dim)
        blocks = spied_blocks(monkeypatch)
        pts, w, X = rng.normal(size=(n, d)), np.full(n, 1.0 / n), rng.normal(size=(m, d))
        _attend(att, pts, w, X)
        assert blocks == [None if small else m]

    @pytest.mark.parametrize(
        "m, n, d, key_dim",
        [(31, 33, 2, 2), (45, 45, 1, 1), (22, 23, 4, 4), (1, 1023, 2, 2), (1023, 1, 2, 2), (1, 511, 4, 4),
         (511, 1, 4, 4), (2047, 1, 1, 1)],
    )
    def test_small_body_memory_is_bounded_by_its_constant(self, monkeypatch, m, n, d, key_dim):
        # just below the constant, no whole product has more than max(d, key_dim)
        # times SMALL_ENTRIES entries (d_head = d here); a broadcast multiply also
        # holds two operand buffers of its output's size, and arrays of the rows lie beside it
        rng = np.random.default_rng(17)
        assert SMALL_ENTRIES - 50 < m * n * max(d, key_dim) < SMALL_ENTRIES
        att = random_attention(rng, d, heads=2, key_dim=key_dim)
        pts, w, X = rng.normal(size=(n, d)), np.full(n, 1.0 / n), rng.normal(size=(m, d))
        blocks = spied_blocks(monkeypatch)
        peak = traced_peak(lambda: _attend(att, pts, w, X))
        assert blocks == [None, None]
        assert peak < 8 * max(d, key_dim) * SMALL_ENTRIES * 8, peak
