"""Reduced invariant suite behind the ``self-test`` CLI subcommand.

Each check re-verifies one headline property at small problem sizes and raises
AssertionError with a short message on violation.  Checks call into the
package through module attributes so a deliberately broken function (as in a
mutation drill) is picked up rather than a captured reference.

The seeded generators (``random_measure``, ``random_probability``, ``random_attention``,
``random_mlp``, ``random_stack``) and the literal gap oracle below are also the
test suite's: ``tests/helpers.py`` imports them from here.
"""

from __future__ import annotations

import importlib
import itertools
import math

import numpy as np

# Module handles (not name imports) so that a deliberately patched function is
# seen by every check; the attention module in particular is shadowed at the
# package top level by the function of the same name.
att_mod = importlib.import_module(".attention", __package__)
cex_mod = importlib.import_module(".counterexample", __package__)
deep_mod = importlib.import_module(".deep_transformer", __package__)
der_mod = importlib.import_module(".derivative", __package__)
meas_mod = importlib.import_module(".measures", __package__)
trans_mod = importlib.import_module(".transport", __package__)
vla_mod = importlib.import_module(".vlasov", __package__)


def random_measure(
    rng: np.random.Generator, n: int, dim: int, lo: float = -2.5, hi: float = 2.5, uniform: bool = False
):
    """n atoms uniform in [lo, hi]^dim; weights uniform in [0.2, 1], or all 1/n."""
    pts = rng.uniform(lo, hi, size=(n, dim))
    w = np.full(n, 1.0 / n) if uniform else rng.uniform(0.2, 1.0, size=n)
    return meas_mod.new_discrete(pts, w)


def random_attention(rng: np.random.Generator, dim: int, heads: int = 1, key_dim: int = 2):
    hs = tuple(
        att_mod.HeadParams(
            q=rng.uniform(-0.5, 0.5, size=(key_dim, dim)),
            k=rng.uniform(-0.5, 0.5, size=(key_dim, dim)),
            v=rng.uniform(-0.5, 0.5, size=(dim, dim)),
            w=rng.uniform(-0.5, 0.5, size=(dim, dim)),
        )
        for _ in range(heads)
    )
    return att_mod.AttentionParams(hs, key_dim)


def random_mlp(rng: np.random.Generator, dim: int):
    return att_mod.MlpParams(
        skip=1.0,
        layers=(
            (rng.uniform(-0.5, 0.5, size=(dim, dim)), rng.uniform(-0.2, 0.2, size=dim)),
        ),
        activation="tanh",
    )


def random_probability(rng: np.random.Generator, n: int, dim: int, box=None, lo: float = -2.5, hi: float = 2.5):
    """n atoms uniform in [lo, hi]^dim; weights uniform in [0.2, 1], normalized to mass 1."""
    pts = rng.uniform(lo, hi, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n)
    return meas_mod.new_discrete(pts, w / w.sum(), box)


def random_stack(rng: np.random.Generator, dim: int, depth: int = 1, heads: int = 1, scale: float = 1.0):
    layers = tuple(
        deep_mod.Layer(random_attention(rng, dim, heads=heads), random_mlp(rng, dim), scale) for _ in range(depth)
    )
    return deep_mod.LayerStack(layers, dim)


def gap_oracle_literal(weights, require_nonempty_k: bool = False) -> float:
    """Gap by literal enumeration of disjoint index-set pairs (small n only)."""
    n = len(weights)
    best = math.inf
    idx = list(range(n))
    for r_j in range(1, n + 1):
        for j_set in itertools.combinations(idx, r_j):
            rest = [i for i in idx if i not in j_set]
            k_min = 1 if require_nonempty_k else 0
            for r_k in range(k_min, len(rest) + 1):
                for k_set in itertools.combinations(rest, r_k):
                    s = sum(weights[i] for i in j_set) - sum(weights[i] for i in k_set)
                    best = min(best, abs(s))
    return best


def check_canonical_roundtrip(rng: np.random.Generator) -> None:
    for _ in range(20):
        n = int(rng.integers(1, 7))
        seq = meas_mod.new_tokens(rng.integers(-2, 3, size=(n, 2)).astype(float))
        mu = meas_mod.iota(seq)
        back = meas_mod.iota_inv(mu, n)
        expected = seq.tokens[meas_mod._lex_order(seq.tokens)]
        assert np.array_equal(back.tokens, expected), "iota round trip lost tokens"
        again = meas_mod.canonicalize(meas_mod.canonicalize(mu))
        assert again == meas_mod.canonicalize(mu), "canonicalize not idempotent"


def check_pushforward_mass(rng: np.random.Generator) -> None:
    for _ in range(20):
        mu = random_measure(rng, int(rng.integers(1, 9)), 2)
        nu = meas_mod.push_forward(mu, lambda p: np.tanh(p) + 0.5)
        rel = abs(nu.total_mass - mu.total_mass) / mu.total_mass
        assert rel <= 1e-12, f"push-forward mass drift {rel}"


def check_gap_oracle(rng: np.random.Generator) -> None:
    for _ in range(10):
        n = int(rng.integers(1, 9))
        w = rng.uniform(0.1, 2.0, size=n)
        mu = meas_mod.new_discrete(rng.uniform(-1, 1, size=(n, 1)), w)
        got = meas_mod.gap(mu)
        want = gap_oracle_literal(w)
        assert abs(got - want) <= 1e-12, f"gap {got} vs oracle {want}"


def check_make_dif(rng: np.random.Generator) -> None:
    for trial in range(10):
        n = int(rng.integers(2, 7))
        w = np.repeat(rng.uniform(0.3, 1.0), n)  # equal weights: certainly degenerate
        mu = meas_mod.new_discrete(rng.uniform(-2, 2, size=(n, 1)), w)
        out = trans_mod.make_dif(mu, 1e-3, seed=trial)
        assert meas_mod.is_dif(out), "make_dif output still degenerate"
        moved = trans_mod.w1_extended(meas_mod.canonicalize(mu), out)
        assert moved < 1e-3, f"make_dif moved too far: {moved}"


def check_w1_oracle(rng: np.random.Generator) -> None:
    for _ in range(25):
        a = random_measure(rng, int(rng.integers(1, 7)), 1)
        m = int(rng.integers(1, 7))
        pts = rng.uniform(-2.5, 2.5, size=(m, 1))
        w = rng.uniform(0.2, 1.0, size=m)
        w *= a.total_mass / w.sum()
        b = meas_mod.new_discrete(pts, w)
        d_cdf = trans_mod.w1_1d(a, b)
        d_flow = trans_mod.w1_matching(a, b).cost
        assert abs(d_cdf - d_flow) <= 1e-10, f"1d oracle mismatch {d_cdf} vs {d_flow}"


def check_metric_axioms(rng: np.random.Generator) -> None:
    for _ in range(10):
        ms = [random_probability(rng, int(rng.integers(1, 6)), 2) for _ in range(3)]
        d01 = trans_mod.w1_matching(ms[0], ms[1]).cost
        d10 = trans_mod.w1_matching(ms[1], ms[0]).cost
        d02 = trans_mod.w1_matching(ms[0], ms[2]).cost
        d12 = trans_mod.w1_matching(ms[1], ms[2]).cost
        assert abs(d01 - d10) <= 1e-12, "asymmetric distance"
        assert d02 <= d01 + d12 + 1e-10, "triangle inequality violated"
        assert trans_mod.w1_matching(ms[0], ms[0]).cost == 0.0, "self distance not zero"


def check_attention_invariances(rng: np.random.Generator) -> None:
    for _ in range(10):
        dim = 2
        params = random_attention(rng, dim)
        mu = random_measure(rng, int(rng.integers(1, 6)), dim)
        x = rng.uniform(-2, 2, size=dim)
        for p in att_mod.attention_weights(params, mu, x):
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12, "softmax weights do not sum to 1"
        base = att_mod.attention(params, mu, x)
        for s in (0.5, 2.0, 10.0):
            scaled = att_mod.attention(params, mu.scaled(s), x)
            assert np.max(np.abs(scaled - base)) <= 1e-12, "mass rescaling leaked"
        perm = rng.permutation(mu.n)
        shuffled = meas_mod.new_discrete(mu.points[perm], mu.weights[perm], mu.box)
        assert np.array_equal(att_mod.attention(params, shuffled, x), base), "relabeling changed output"


def check_velocity_identity(rng: np.random.Generator) -> None:
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        params = random_attention(rng, dim)
        mlp_p = random_mlp(rng, dim)
        mu = random_measure(rng, int(rng.integers(1, 5)), dim)
        x = rng.uniform(-2, 2, size=dim)
        v = att_mod.velocity(params, mlp_p, mu, x)
        direct = att_mod.mlp(mlp_p, att_mod.gamma(params, mu, x))
        assert np.max(np.abs(x + v - direct)) <= 1e-13, "velocity identity broken"


def check_token_equivariance(rng: np.random.Generator) -> None:
    for _ in range(10):
        dim = 2
        stack = random_stack(rng, dim)
        n = int(rng.integers(2, 6))
        toks = rng.uniform(-2, 2, size=(n, dim))
        toks[1] = toks[0]  # force a duplicate
        seq = meas_mod.new_tokens(toks)
        out = deep_mod.forward_tokens(stack, seq)
        assert np.array_equal(out.tokens[0], out.tokens[1]), "duplicate tokens split"
        perm = rng.permutation(n)
        out_p = deep_mod.forward_tokens(stack, meas_mod.new_tokens(toks[perm]))
        assert np.array_equal(out_p.tokens, out.tokens[perm]), "not permutation equivariant"


def check_integrator_order(rng: np.random.Generator) -> None:
    decay = vla_mod.VelocityField(lambda t, pts, w, x: -x)
    mu0 = meas_mod.dirac([1.0])
    exact = math.exp(-1.0)
    e64 = abs(vla_mod.rk4_flow(decay, mu0, 64).final.points[0, 0] - exact)
    e32 = abs(vla_mod.rk4_flow(decay, mu0, 32).final.points[0, 0] - exact)
    assert e64 <= 1e-6, f"rk4 error too large: {e64}"
    assert 12.0 <= e32 / e64 <= 20.0, f"rk4 order ratio off: {e32 / e64}"


def check_extraction(rng: np.random.Generator) -> None:
    dim = 2
    stack = random_stack(rng, dim)
    f = der_mod.MeasureMap.from_stack(stack)
    mu = random_measure(rng, 3, dim)
    for _ in range(3):
        x = rng.uniform(-2, 2, size=dim)
        got = der_mod.extract_g(f, mu, x, 1e-6)
        want = deep_mod.forward_map(stack, mu, x)
        assert np.max(np.abs(got - want)) <= 1e-4, "extraction drifted from the stack map"


def check_counterexample(rng: np.random.Generator) -> None:
    rows = cex_mod.discontinuity_scan(6)
    up = {r.m: r for r in rows if r.family == "limsup"}
    down = {r.m: r for r in rows if r.family == "liminf"}
    for m in (5, 6):
        sep = abs(up[m].g_extracted - down[m].g_extracted)
        assert sep > 0.15, f"families not separated at m={m}: {sep}"
        assert max(up[m].w1_to_limit, down[m].w1_to_limit) < 0.05, "inputs not close"
    for _ in range(10):
        pair = [random_probability(rng, int(rng.integers(1, 5)), 1, cex_mod.domain_box(), -2.9, 2.9) for _ in range(2)]
        lhs = trans_mod.w1_1d(cex_mod.f_counter(pair[0]), cex_mod.f_counter(pair[1]))
        near = [
            float(np.sum(m.weights[np.abs(m.points[:, 0]) <= 1.5])) for m in pair
        ]
        rhs = 3.0 * (near[0] + near[1]) + trans_mod.w1_1d(pair[0], pair[1])
        assert lhs <= rhs + 1e-10, "continuity bound violated"


CHECKS = [
    ("measures.canonical-roundtrip", check_canonical_roundtrip),
    ("measures.pushforward-mass", check_pushforward_mass),
    ("measures.gap-oracle", check_gap_oracle),
    ("measures.make-dif", check_make_dif),
    ("transport.w1-oracle", check_w1_oracle),
    ("transport.metric-axioms", check_metric_axioms),
    ("attention.invariances", check_attention_invariances),
    ("attention.velocity-identity", check_velocity_identity),
    ("deep.token-equivariance", check_token_equivariance),
    ("vlasov.integrator-order", check_integrator_order),
    ("derivative.extraction", check_extraction),
    ("counterexample.families", check_counterexample),
]


def run_self_test(seed: int = 0) -> bool:
    """Run every check on its own generator seeded with ``seed``, so its draws do not depend on
    the checks before it; print one PASS/FAIL line each; return overall success."""
    ok = True
    for name, check in CHECKS:
        try:
            check(np.random.default_rng(seed))
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    return ok
