"""Multi-head self-attention on discrete measures, MLPs, and in-context maps.

Attention here is measure-weighted: the softmax over context atoms carries the
atom weights in numerator and denominator, which matches the integral form of
the layer and makes the output invariant under rescaling the total mass.  For
uniform weights it coincides with the familiar token-sequence softmax.

A single residual layer is attention followed by an MLP with unit skip; its
displacement ``x -> F(x + Att(mu, x)) - x`` is the layer velocity.  An
in-context map is a chain of stages under the diamond rule: each stage sees
the context pushed forward through the stages before it.  Composing two maps
joins their chains, and layer stacks run through the same chain.

All of it is evaluated by one batched kernel, :func:`layer_step`, on query
rows (m, d) against context points (n, d) and weights (n,) in the order given;
the single-point functions are its m = 1 calls on a canonical measure's arrays.

The kernel has one attention body.  Every short contraction (keys, queries,
the V and W maps, each MLP layer) is one product summed along its leading
axis, ``_leading_sum``.  Per head, the body also forms two contractions over
the atoms, the (m, n) logits and the pooled values, and the size of the call
picks only how those two are summed.  A call whose rows x atoms x max(d,
key_dim) is below ``SMALL_ENTRIES``, as on the few-atom contexts of flows and
extraction, forms them as whole (key_dim, m, n) and (d, m, n) products.  On
large contexts such products cost more than adding one (m, n) term at a time
(1.9x at 256 atoms in d = 4 with two heads, on a 2-core Xeon), and on few
atoms less (the term-by-term sums are 1.16-1.20x slower per call at 8-16
atoms).  So a larger call adds the terms into one scratch of two (rows, n)
arrays, the running sum and the current term, and attends in blocks of
``max(1, SCRATCH_ENTRIES // n)`` query rows; the scratch has at most
2 * max(SCRATCH_ENTRIES, n) entries however many queries meet.  Rows do not
depend on the batch, so blocking changes no bit, and the two summation forms
are bitwise equal.  numpy's summation order follows the memory layout (term
by term along a leading axis, pairwise along a contiguous last one), so
``np.exp`` and every reduction read C-contiguous arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionMismatch, EmptyMeasure, LengthMismatch, OutOfDomain, SkipNotUnit
from .measures import DiscreteMeasure, _canonical, _count, _finite_rows, _floats, _held_to, _mismatch, _real
from .measures import _relocated, canonicalize

ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
    "relu-smooth": lambda z: np.logaddexp(0.0, z),
}

# The most (row, atom) entries of one block of the kernel's scratch.
SCRATCH_ENTRIES = 2**20
# Calls whose rows x atoms x max(d, key_dim) is smaller sum their atom
# contractions as whole products.
SMALL_ENTRIES = 2**11


@dataclass(frozen=True)
class HeadParams:
    """One attention head: query/key (k x d), value (d_head x d), output (d x d_head)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _arrays(arrays, what: str) -> None:
    """DimensionMismatch naming the type of the first of ``arrays`` not a numpy array, or its dtype if not real."""
    for a in arrays:
        if not isinstance(a, np.ndarray):
            raise DimensionMismatch(f"{what} must be numpy arrays, got {type(a).__name__}")
        if a.dtype.kind not in "biuf":
            raise DimensionMismatch(f"{what} must be real, got dtype {a.dtype}")


@dataclass(frozen=True)
class AttentionParams:
    """Multi-head attention parameters with shared key dimension; a matrix that is not a real numpy
    array, or a ``key_dim`` that is not a Python or numpy integer of at least 1, raises DimensionMismatch."""

    heads: tuple[HeadParams, ...]
    key_dim: int

    def __post_init__(self) -> None:
        if not self.heads:
            raise LengthMismatch("attention needs at least one head")
        for h in self.heads:
            if not isinstance(h, HeadParams):
                raise DimensionMismatch(f"attention heads must be HeadParams, got {type(h).__name__}")
        matrices = [m for h in self.heads for m in (h.q, h.k, h.v, h.w)]
        _arrays(matrices, "attention matrices")
        if any(m.ndim != 2 for m in matrices):
            raise DimensionMismatch("attention matrices must be 2-d")
        empty = "attention matrices must be nonempty"
        _count(self.key_dim, 1, DimensionMismatch, "key_dim must be an integer, got {!r}", empty)
        if any(m.size == 0 for m in matrices):
            raise DimensionMismatch(empty)
        d = self.heads[0].q.shape[1]
        for h in self.heads:
            if h.q.shape != (self.key_dim, d) or h.k.shape != (self.key_dim, d):
                raise DimensionMismatch("query/key matrices must be key_dim x d")
            if h.v.shape[1] != d or h.w.shape[0] != d or h.w.shape[1] != h.v.shape[0]:
                raise DimensionMismatch("value/output matrices have inconsistent shapes")
            for m in (h.q, h.k, h.v, h.w):
                if not np.isfinite(m).all():
                    raise DimensionMismatch("attention matrices must be finite")

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def dim(self) -> int:
        return self.heads[0].q.shape[1]


@dataclass(frozen=True)
class MlpParams:
    """MLP ``x -> skip * x + act(A_L(...act(A_1 x + b_1)...) + b_L)``.

    An empty layer list is the pure skip map ``skip * x``.  A matrix or bias
    that is not a real numpy array raises DimensionMismatch, and a skip that is
    not a finite real number OutOfDomain.
    """

    skip: float
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise LengthMismatch(f"unknown activation {self.activation!r}")
        if self.layers:
            if any(not isinstance(layer, (tuple, list)) or len(layer) != 2 for layer in self.layers):
                raise DimensionMismatch("each MLP layer must be a pair (A, b)")
            _arrays((m for layer in self.layers for m in layer), "MLP matrices and biases")
            if any(a.ndim != 2 or b.ndim != 1 for a, b in self.layers):
                raise DimensionMismatch("each MLP layer needs a 2-d matrix A and a 1-d bias b")
            if any(a.size == 0 for a, _ in self.layers):
                raise DimensionMismatch("MLP matrices must be nonempty")
            d = self.layers[0][0].shape[1]
            prev = d
            for a, b in self.layers:
                if a.shape[1] != prev or b.shape[0] != a.shape[0]:
                    raise DimensionMismatch("MLP layer shapes do not chain")
                prev = a.shape[0]
            if prev != d:
                raise DimensionMismatch("MLP must map back to its input dimension")
            if not all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in self.layers):
                raise DimensionMismatch("MLP matrices must be finite")
        if not math.isfinite(_real(self.skip)):
            raise OutOfDomain(f"MLP skip must be finite, got {self.skip}")

    @property
    def dim(self) -> int | None:
        return self.layers[0][0].shape[1] if self.layers else None


def identity_mlp() -> MlpParams:
    """Unit-skip MLP with no layers: the identity map."""
    return MlpParams(skip=1.0, layers=())


@dataclass(frozen=True)
class Layer:
    """One attention+MLP block with an optional velocity scale; fields of another type raise DimensionMismatch."""

    attention: AttentionParams
    mlp: MlpParams
    scale: float = 1.0

    def __post_init__(self) -> None:
        for value, kind in ((self.attention, AttentionParams), (self.mlp, MlpParams)):
            if not isinstance(value, kind):
                raise DimensionMismatch(f"layer parameters must be {kind.__name__}, got {type(value).__name__}")
        if not math.isfinite(_real(self.scale)):
            raise OutOfDomain(f"layer scale must be finite, got {self.scale}")


# -- the batched layer kernel ------------------------------------------------------
#
# Every evaluation of attention, MLPs and layers runs through the row functions
# below on queries X of shape (m, d).  Short contractions (over d, key_dim,
# d_head or an MLP width) are accumulated term by term by ``_leading_sum``,
# whole or one (m, n) term at a time into a scratch, and the atom axis is
# reduced along contiguous rows, so each output row depends on its own query
# row only: evaluating m rows at once gives bitwise the same result as
# evaluating each row alone.  BLAS products would not (their blocking and
# kernels change with the operand shapes), so none is used here.


def _leading_sum(A: np.ndarray, Xt: np.ndarray, scratch: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """``A @ Xt`` for A (k, d) and Xt (d, m) of any layout: the C-ordered
    (d, k, m) product of the terms, summed along its leading axis.

    numpy adds leading-axis terms one at a time, in the order of the shared
    axis, so each output entry is bitwise the same whatever k, m and the
    layouts are.  A lone output entry (k = m = 1) is accumulated instead, as
    numpy sums a lone run of 8 or more terms pairwise.  Given ``scratch``, two
    (k, m) arrays, the terms are added in the same order one (k, m) product at
    a time into ``scratch[0]``, which is returned, with ``scratch[1]`` holding
    each term.  Raises DimensionMismatch when the rows of Xt and the width of
    A differ.
    """
    if Xt.shape[0] != A.shape[1]:
        raise _mismatch(Xt.shape[0], A.shape[1])
    if scratch is not None:
        out, term = scratch
        np.multiply(A[:, :1], Xt[0], out=out)
        for a_j, x_j in zip(A.T[1:], Xt[1:]):
            out += np.multiply(a_j[:, None], x_j, out=term)
        return out
    terms = np.multiply(A.T[:, :, None], Xt[:, None, :], order="C")
    if A.shape[0] * Xt.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _pooled(pts_t: np.ndarray, p: np.ndarray, scratch: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The (d, m) sums over the atoms of each coordinate row of ``pts_t`` (d, n)
    times each softmax row of ``p`` (m, n), every row summed by numpy's pairwise
    rule: the C-ordered (d, m, n) product reduced along its last axis, or,
    given ``scratch`` (two (m, n) arrays, ``p`` in the first), one (m, n)
    product per coordinate in ``scratch[1]``, reduced the same way."""
    if scratch is None:
        return np.add.reduce(np.multiply(pts_t[:, None, :], p, order="C"), axis=2)
    pooled, term = np.empty((len(pts_t), len(p))), scratch[1]
    for coord, pooled_j in zip(pts_t, pooled):
        np.add.reduce(np.multiply(p, coord, out=term), axis=1, out=pooled_j)
    return pooled


def _attend(
    params: AttentionParams,
    pts: np.ndarray,
    w: np.ndarray,
    X: np.ndarray,
    weights: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Attention displacement at every query row against context atoms ``pts``, weights ``w``.

    Per head: logits (m, n) = (Q x) . (K x_l) / sqrt(key_dim), a weighted
    softmax stabilized by each row's maximum, and the pooled values mapped
    through W V, reducing over the atoms in the order given.  The (m, n)
    softmax weights of each head are appended to ``weights`` if given, as
    copies.  Each head's keys K x_l are computed once per call as C-ordered
    (key_dim, n) rows; queries, the V and W maps and the keys are
    ``_leading_sum`` products.  A call whose rows x atoms x max(d, key_dim),
    the size of its largest whole products, is below ``SMALL_ENTRIES`` forms
    the logits and the pooled values as whole products too, in one block of
    rows.  Any other call sums them term by term in one scratch of two
    (rows, n) arrays, reading contiguous copies of the coordinate rows, and
    attends in blocks of ``max(1, SCRATCH_ENTRIES // n)`` query rows; the two
    forms are bitwise equal (see the module docstring).  The atom reductions
    call ``np.maximum.reduce`` and ``np.add.reduce`` directly: on rows of few
    atoms, the Python wrappers of ``np.max`` and ``np.sum`` cost as much as
    the arithmetic.
    """
    if pts.shape[0] == 0:
        raise EmptyMeasure("attention needs a nonempty context measure")
    m, n = X.shape[0], pts.shape[0]
    whole = m * n * max(X.shape[1], params.key_dim) < SMALL_ENTRIES
    rows = max(1, m if whole else SCRATCH_ENTRIES // n)
    scratch = None if whole else np.empty((2, min(m, rows), n))
    pts_t = pts.T if whole else np.ascontiguousarray(pts.T)
    keys = [_leading_sum(head.k, pts_t) for head in params.heads]
    scale = 1.0 / math.sqrt(params.key_dim)
    probs = [np.empty((m, n)) for _ in params.heads] if weights is not None else None
    out = np.zeros(X.shape, X.dtype)
    for lo in range(0, max(m, 1), rows):  # a call of no rows still checks their width
        Xt, o = (X.T, out) if whole else (X[lo : lo + rows].T, out[lo : lo + rows])
        block = None if whole else (scratch[0, : Xt.shape[1]], scratch[1, : Xt.shape[1]])
        for h, head in enumerate(params.heads):
            p = _leading_sum((_leading_sum(head.q, Xt) * scale).T, keys[h], block)
            p -= np.maximum.reduce(p, axis=1, keepdims=True)
            np.exp(p, out=p)
            p *= w
            p /= np.add.reduce(p, axis=1, keepdims=True)
            if probs is not None:
                probs[h][lo : lo + rows] = p
            o += _leading_sum(head.w, _leading_sum(head.v, _pooled(pts_t, p, block))).T
    if weights is not None:
        weights.extend(probs)
    return out


def _mlp_rows(params: MlpParams, X: np.ndarray) -> np.ndarray:
    if not params.layers:
        return params.skip * X
    act = ACTIVATIONS[params.activation]
    h = X
    for a, b in params.layers:
        h = act(_leading_sum(a, h.T).T + b)
    return params.skip * X + h


def velocity_rows(att: AttentionParams, mlp_p: MlpParams, pts: np.ndarray, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Layer velocity Att(ctx, x) + H(x + Att(ctx, x)) at every row of X (m, d).

    Context atoms ``pts`` (weights ``w``) are reduced in the order given.  Requires
    a unit skip coefficient; rows do not depend on how many are evaluated together.
    """
    if mlp_p.skip != 1.0:
        raise SkipNotUnit(f"velocity needs skip coefficient 1, got {mlp_p.skip}")
    a = _attend(att, pts, w, X)
    g = X + a
    return a + (_mlp_rows(mlp_p, g) - g)


def layer_step(layer: Layer, pts: np.ndarray, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The batched layer kernel: images of the query rows X (m, d) under one layer.

    Context atoms ``pts`` (weights ``w``) are reduced in the order given.  At
    scale 1 a row maps to F(x + Att(ctx, x)); at scale c to x + c * velocity.
    Each row's result is bitwise independent of the batch size m, as if alone.
    """
    X = _floats(X)
    if layer.scale == 1.0:
        return _mlp_rows(layer.mlp, X + _attend(layer.attention, pts, w, X))
    return X + layer.scale * velocity_rows(layer.attention, layer.mlp, pts, w, X)


def _row(x: np.ndarray) -> np.ndarray:
    return _floats(x).reshape(1, -1)


def _context(mu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's context arrays: the points and weights of canonical ``mu``."""
    c = canonicalize(mu)
    return c.points, c.weights


def attention_weights(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> list[np.ndarray]:
    """Per-head measure-weighted softmax weights over the canonical atoms.

    Logits are (Q x) . (K x_l) / sqrt(key_dim), stabilized by subtracting the
    maximum before exponentiation; each returned vector sums to one.
    """
    weights: list[np.ndarray] = []
    _attend(params, *_context(mu), _row(x), weights)
    return [p[0] for p in weights]


def attention(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """Attention displacement sum_h W_h V_h (sum_l p_l x_l) at query x.

    Context atoms are reduced in canonical order, so the result is identical
    (bitwise) for any atom relabeling of ``mu``.
    """
    return _attend(params, *_context(mu), _row(x))[0]


def gamma(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """Residual attention layer x + Att(mu, x)."""
    x = _row(x)
    return (x + _attend(params, *_context(mu), x))[0]


def mlp(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the MLP (skip term plus activated layer chain)."""
    return _mlp_rows(params, _row(x))[0]


def velocity(att: AttentionParams, mlp_p: MlpParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """One-layer displacement Att(mu, x) + H(x + Att(mu, x)) with H = F - Id.

    Requires a unit skip coefficient so that the layer is a perturbation of
    the identity; then x + velocity(mu, x) = F(x + Att(mu, x)) exactly.
    """
    return velocity_rows(att, mlp_p, *_context(mu), _row(x))[0]


def _push_stage(
    context: tuple[DiscreteMeasure, np.ndarray, np.ndarray], stage: Callable
) -> tuple[DiscreteMeasure, np.ndarray, np.ndarray]:
    nu = context[0]
    return _relocated(nu, _held_to(stage(nu.points, nu.weights, nu.points), nu.points))


@dataclass(frozen=True)
class InContextMap:
    """A chain of in-context maps under the diamond rule, acting on points and measures.

    Stage k, ``f(points, weights, X)``, maps query rows X (m, dim) to their
    image rows (m, dim) against the arrays of its canonical context: the input
    measure pushed through stages 0..k-1.  Another row count raises
    MapUndefinedAtAtom and another width DimensionMismatch, so a chain keeps
    the atom count, the mass and the dimension.  ``rows`` and ``push`` run
    the stages under one ``np.errstate(over="ignore", invalid="ignore")``,
    so an image that overflows meets its finiteness check without a warning.
    Nothing is cached.
    """

    stages: tuple[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], ...]
    dim: int

    def _contexts(self, mu: DiscreteMeasure) -> Iterator[tuple[DiscreteMeasure, np.ndarray, np.ndarray]]:
        """Each stage's context, then the pushed measure, each computed when it is read.

        Each comes as ``measures._canonical`` returns it, with the sort order and
        group starts that place the atoms it was built from (the atoms of ``mu``,
        then of the context before it), so a caller can follow an atom through
        every merge with ``measures._with_atoms``; a caller that does not pays
        nothing for it."""
        if mu.dim != self.dim:
            raise _mismatch(mu.dim, self.dim)
        if mu.is_canonical:  # each atom is its own row, in order
            return accumulate(self.stages, _push_stage, initial=(mu, np.arange(mu.n), np.arange(mu.n - 1)))
        return accumulate(self.stages, _push_stage, initial=_canonical(mu.points, mu.weights, mu.box))

    def rows(self, mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
        """Images of the query rows X (m, dim), one context read per stage; checks
        the shape first, and names the first non-finite image row as its atom."""
        X = _floats(X)
        if X.shape[1:] != (self.dim,):  # a 1-d X holds points of dimension 1
            raise _mismatch(math.prod(X.shape[1:]), self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for stage, (nu, *_) in zip(self.stages, self._contexts(mu)):
                X = _held_to(stage(nu.points, nu.weights, X), X)
        return _finite_rows(X)

    def __call__(self, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
        return self.rows(mu, _row(x))[0]

    def push(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        """Push-forward of ``mu``: each stage runs once, on all atoms of its context."""
        with np.errstate(over="ignore", invalid="ignore"):
            for nu, *_ in self._contexts(mu):
                pass
        return nu

    @staticmethod
    def identity(dim: int) -> "InContextMap":
        return InContextMap((), dim)

    @staticmethod
    def from_gamma(params: AttentionParams) -> "InContextMap":
        return InContextMap((lambda pts, w, X: X + _attend(params, pts, w, X),), params.dim)

    @staticmethod
    def from_layer(att: AttentionParams, mlp_p: MlpParams) -> "InContextMap":
        return InContextMap((partial(layer_step, Layer(att, mlp_p)),), att.dim)


def compose_diamond(g1: InContextMap, g2: InContextMap) -> InContextMap:
    """Diamond composition (mu, x) -> g2(g1 push-forward of mu, g1(mu, x)): g1's stages, then g2's."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"cannot chain output dimension {g1.dim} into input dimension {g2.dim}")
    return InContextMap(g1.stages + g2.stages, g1.dim)
