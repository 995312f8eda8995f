"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: transport costs
come from literal permutation search, subset-sum gaps from explicit
enumeration of index-set pairs, JSON text from a per-value recursive emitter.
Expected values frozen into tests were
computed with these.  The seeded generators (``random_measure``,
``random_probability``, ``random_attention``, ``random_mlp``,
``random_stack``) and the literal gap oracle are the ones ``self-test`` runs
on, imported from ``incontext.selftest``.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import incontext as ic
from incontext.selftest import (  # noqa: F401 - re-exported for the tests
    gap_oracle_literal,
    random_attention,
    random_measure,
    random_mlp,
    random_probability,
    random_stack,
)


def each_row(point_fn):
    """The rows form of a one-point function: ``point_fn(*args, x)`` applied
    to each row x of the last argument, the results stacked in row order."""

    def rows_fn(*args):
        *head, X = args
        return np.array([point_fn(*head, x) for x in X])

    return rows_fn


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


def reference_emit(value):
    """The JSON emitter as one recursive call per value, floats formatted one
    at a time with 17 significant digits."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{reference_emit(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_emit(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return reference_emit(value.tolist())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(type(value).__name__)


def reference_flow_csv(traj):
    """The flow CSV as one list of cells per row, each cell formatted alone:
    floats with 17 significant digits, the atom index with ``str``."""
    d = traj.points.shape[2]
    lines = [",".join(["t", "atom_index"] + [f"x_{i + 1}" for i in range(d)] + ["weight"])]
    weights = traj.weights.tolist()
    for t, state in zip(traj.times.tolist(), traj.points.tolist()):
        for i, x in enumerate(state):
            lines.append(",".join([format(t, ".17g"), str(i)] + [format(c, ".17g") for c in [*x, weights[i]]]))
    return "\n".join(lines) + "\n"


# -- per-point reference evaluation ----------------------------------------------
#
# The layer evaluation as it was before the batched kernel: one query point per
# call, BLAS products, the context canonicalized on every call.  Batched
# results must agree with it to 1e-12.


def reference_distances(A, B):
    """Euclidean distances from each row of A to each row of B: the (n, m, d)
    cube of coordinate differences, squared and reduced over its last axis.
    ``measures._distances`` must equal it bit for bit."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=2))


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


def scan_canonicalize(mu):
    """Canonical form by a per-atom scan over the lex-sorted atoms: an atom
    equal to the first atom of the group before it joins that group."""
    order = np.lexsort(mu.points.T[::-1])
    pts = mu.points[order]
    w = mu.weights[order]
    rep_rows, group_weights, current = [], [], []
    for i in range(pts.shape[0]):
        if rep_rows and np.array_equal(pts[i], pts[rep_rows[-1]]):
            current.append(w[i])
        else:
            if current:
                group_weights.append(float(np.sum(np.sort(current))))
            rep_rows.append(i)
            current = [w[i]]
    group_weights.append(float(np.sum(np.sort(current))))
    return ic.new_discrete(pts[rep_rows], np.array(group_weights), mu.box)


def reference_canonicalize(mu):
    """``canonicalize`` as it was before its early return for measures with no
    merges: the group bounds of every measure, and merged weights summed by
    np.sum over each group's ascending row of a (g, k) block."""
    if mu.is_canonical:
        return mu
    pts = mu.points + 0.0
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], mu.weights[order]
    bounds = np.flatnonzero(np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1), [True])))
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    weights = w[first]
    for k in set(sizes[sizes > 1].tolist()):
        of_size_k = sizes == k
        block = w[first[of_size_k, None] + np.arange(k)]
        weights[of_size_k] = np.sum(np.sort(block, axis=1), axis=1)
    return ic.measures._raw_measure(pts[first], weights, mu.box, True)


def reference_relocate(mu, images):
    """``relocate`` as it was: the same box rule, then ``reference_canonicalize``."""
    if images.shape[1] == mu.dim:
        box = mu.box.hull(images)
    else:
        box = ic.Box(images.min(axis=0), images.max(axis=0))
    return reference_canonicalize(ic.measures._raw_measure(images, mu.weights, box, False))


def reference_add_atom(mu, x, mass):
    """``add_atom`` as it was, for a finite x of the measure's dimension."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    pts = np.vstack([mu.points, x])
    w = np.concatenate([mu.weights, [mass]])
    return reference_canonicalize(ic.measures._raw_measure(pts, w, mu.box.hull(x), False))


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


def reference_linprog(c, a_eq, b_eq):
    """``scipy.optimize.linprog(method="highs")`` on a transport LP, with the
    options the library solves at: the flows and the equality duals."""
    from scipy.optimize import linprog

    options = {"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=options)
    assert res.status == 0, res.message
    return res.x, res.eqlin.marginals


def full_lp_plan(mu, nu):
    """Optimal flows and cost of the transport LP over all n*m columns.

    scipy's HiGHS with the library's options and total mass, on the
    list-built equality matrix: no column selection and no certificate.
    Returns the (n, m) flow at the measures' own mass and its cost.
    """
    from incontext.transport import LP_MASS

    n, m = mu.n, nu.n
    total = mu.total_mass
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    b_eq = np.concatenate([mu.weights, nu.weights * (total / nu.total_mass)]) * (LP_MASS / total)
    x, _ = reference_linprog(dist.reshape(-1), reference_marginal_constraints(n, m), b_eq)
    flow = x.reshape(n, m) * (total / LP_MASS)
    return flow, float(np.sum(flow * dist))
