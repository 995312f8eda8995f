"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: transport costs
come from literal permutation search, subset-sum gaps from explicit
enumeration of index-set pairs.  Expected values frozen into tests were
computed with these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import incontext as ic


def random_measure(rng, n, dim, box=None, lo=-2.5, hi=2.5, uniform=False):
    pts = rng.uniform(lo, hi, size=(n, dim))
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
    return ic.new_discrete(pts, w, box)


def random_probability(rng, n, dim, box=None, lo=-2.5, hi=2.5):
    pts = rng.uniform(lo, hi, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n)
    return ic.new_discrete(pts, w / w.sum(), box)


def random_attention(rng, dim, heads=1, key_dim=2, scale=0.5):
    hs = tuple(
        ic.HeadParams(
            q=rng.uniform(-scale, scale, size=(key_dim, dim)),
            k=rng.uniform(-scale, scale, size=(key_dim, dim)),
            v=rng.uniform(-scale, scale, size=(dim, dim)),
            w=rng.uniform(-scale, scale, size=(dim, dim)),
        )
        for _ in range(heads)
    )
    return ic.AttentionParams(hs, key_dim)


def random_mlp(rng, dim, scale=0.5):
    return ic.MlpParams(
        skip=1.0,
        layers=(
            (rng.uniform(-scale, scale, size=(dim, dim)), rng.uniform(-0.2, 0.2, size=dim)),
        ),
        activation="tanh",
    )


def random_stack(rng, dim, depth=1, heads=1):
    layers = tuple(
        ic.Layer(random_attention(rng, dim, heads=heads), random_mlp(rng, dim))
        for _ in range(depth)
    )
    return ic.LayerStack(layers, dim)


# positive coordinates make every logit +inf, and inf - max = nan
OVERFLOW_POINTS = [[0.5, 1.0], [1.5, 0.2], [0.3, 0.3]]


def overflowing_stack(d=2):
    """Finite parameters whose logits overflow: Q = K = 1e200 everywhere."""
    big = np.full((2, d), 1e200)
    head = ic.HeadParams(q=big, k=big, v=np.eye(d), w=np.eye(d))
    return ic.LayerStack((ic.Layer(ic.AttentionParams((head,), 2), ic.identity_mlp()),), d)


# -- oracles -------------------------------------------------------------------


def permutation_match_cost(points_a, points_b, weights):
    """Exhaustive minimum over atom permutations of sum_i w_i |a_i - b_sigma(i)|.

    Distances use sqrt(sum of squared differences) so the only thing being
    cross-checked is the optimization, not floating-point summation order.
    """
    return min(permutation_match_costs(points_a, points_b, weights))


def permutation_match_costs(points_a, points_b, weights):
    """Cost of every atom permutation (same float recipe as the plan cost)."""
    n = points_a.shape[0]
    costs = []
    for perm in itertools.permutations(range(n)):
        diff = points_a - points_b[list(perm)]
        sel = np.sqrt(np.sum(diff * diff, axis=1))
        costs.append(float(np.sum(weights * sel)))
    return costs


def gap_oracle_literal(weights, require_nonempty_k=False):
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
                    s = abs(
                        sum(weights[i] for i in j_set) - sum(weights[i] for i in k_set)
                    )
                    best = min(best, s)
    return best


def gap_oracle_signed(weights, require_nonempty_k=False):
    """Gap by full enumeration of signed subset sums (vectorized, n <= 14)."""
    sums = np.zeros(1)
    has_pos = np.zeros(1, dtype=bool)
    has_neg = np.zeros(1, dtype=bool)
    for w in weights:
        sums = np.concatenate([sums, sums + w, sums - w])
        has_pos = np.concatenate([has_pos, np.ones_like(has_pos), has_pos])
        has_neg = np.concatenate([has_neg, has_neg, np.ones_like(has_neg)])
    if require_nonempty_k:
        mask = has_pos & has_neg
    else:
        mask = has_pos | has_neg
    if not np.any(mask):
        return math.inf
    return float(np.min(np.abs(sums[mask])))


# -- per-point reference evaluation ----------------------------------------------
#
# The layer evaluation as it was before the batched kernel: one query point per
# call, BLAS products, the context canonicalized on every call.  Batched
# results must agree with it to 1e-12.


def reference_attention_weights(params, mu, x):
    mu_c = ic.canonicalize(mu)
    x = np.asarray(x, dtype=float).reshape(-1)
    scale = 1.0 / math.sqrt(params.key_dim)
    out = []
    for head in params.heads:
        logits = (mu_c.points @ head.k.T) @ (head.q @ x) * scale
        z = mu_c.weights * np.exp(logits - np.max(logits))
        out.append(z / np.sum(z))
    return out


def reference_attention(params, mu, x):
    mu_c = ic.canonicalize(mu)
    x = np.asarray(x, dtype=float).reshape(-1)
    out = np.zeros(x.shape[0])
    for head, p in zip(params.heads, reference_attention_weights(params, mu_c, x)):
        out = out + head.w @ (head.v @ (p @ mu_c.points))
    return out


def reference_mlp(params, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if not params.layers:
        return params.skip * x
    h = x
    for a, b in params.layers:
        h = np.tanh(a @ h + b)
    return params.skip * x + h


def reference_velocity(att, mlp_p, mu, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    a = reference_attention(att, mu, x)
    g = x + a
    return a + (reference_mlp(mlp_p, g) - g)


def reference_apply_layer(layer, mu, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    if layer.scale == 1.0:
        return reference_mlp(layer.mlp, x + reference_attention(layer.attention, mu, x))
    return x + layer.scale * reference_velocity(layer.attention, layer.mlp, mu, x)


def reference_canonicalize(mu, tol=ic.measures.MERGE_TOL):
    """The merge scan of ``canonicalize`` without its no-merge shortcut."""
    order = np.lexsort(mu.points.T[::-1])
    pts = mu.points[order]
    w = mu.weights[order]
    rep_rows, group_weights, current = [], [], []
    for i in range(pts.shape[0]):
        if rep_rows and np.max(np.abs(pts[i] - pts[rep_rows[-1]])) <= tol:
            current.append(w[i])
        else:
            if current:
                group_weights.append(float(np.sum(np.sort(current))))
            rep_rows.append(i)
            current = [w[i]]
    group_weights.append(float(np.sum(np.sort(current))))
    return ic.new_discrete(pts[rep_rows], np.array(group_weights), mu.box)


def reference_marginal_constraints(n, m):
    """The transport LP's equality matrix built entry by entry from Python lists."""
    from scipy import sparse

    rows = []
    cols = []
    for i in range(n):
        rows.extend([i] * m)
        cols.extend(range(i * m, (i + 1) * m))
    for j in range(m):
        rows.extend([n + j] * n)
        cols.extend(range(j, n * m, m))
    data = np.ones(2 * n * m)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n + m, n * m))
