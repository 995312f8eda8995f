"""Multi-head self-attention on discrete measures, MLPs, and in-context maps.

Attention here is measure-weighted: the softmax over context atoms carries the
atom weights in numerator and denominator, which matches the integral form of
the layer and makes the output invariant under rescaling the total mass.  For
uniform weights it coincides with the familiar token-sequence softmax.

A single residual layer is attention followed by an MLP with unit skip; its
displacement ``x -> F(x + Att(mu, x)) - x`` is the layer velocity.  In-context
maps compose with the diamond rule: the second map sees the first map's
pushed-forward context.

All of it is evaluated by one batched kernel, :func:`layer_step`, on query
rows of shape (m, d) against a context reduced in its given atom order; the
single-point functions are its m = 1 calls on their canonical measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyMeasure, LengthMismatch, SkipNotUnit
from .measures import DiscreteMeasure, canonicalize, push_forward

ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
    "relu-smooth": lambda z: np.logaddexp(0.0, z),
}


@dataclass(frozen=True)
class HeadParams:
    """One attention head: query/key (k x d), value (d_head x d), output (d x d_head)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class AttentionParams:
    """Multi-head attention parameters with shared key dimension."""

    heads: tuple[HeadParams, ...]
    key_dim: int

    def __post_init__(self) -> None:
        if not self.heads:
            raise LengthMismatch("attention needs at least one head")
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

    An empty layer list is the pure skip map ``skip * x``.
    """

    skip: float
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise LengthMismatch(f"unknown activation {self.activation!r}")
        if self.layers:
            d = self.layers[0][0].shape[1]
            prev = d
            for a, b in self.layers:
                if a.shape[1] != prev or b.shape[0] != a.shape[0]:
                    raise DimensionMismatch("MLP layer shapes do not chain")
                prev = a.shape[0]
            if prev != d:
                raise DimensionMismatch("MLP must map back to its input dimension")

    @property
    def dim(self) -> int | None:
        return self.layers[0][0].shape[1] if self.layers else None


def identity_mlp() -> MlpParams:
    """Unit-skip MLP with no layers: the identity map."""
    return MlpParams(skip=1.0, layers=())


@dataclass(frozen=True)
class Layer:
    """One attention+MLP block with an optional velocity scale."""

    attention: AttentionParams
    mlp: MlpParams
    scale: float = 1.0


# -- the batched layer kernel ------------------------------------------------------
#
# Every evaluation of attention, MLPs and layers runs through the row functions
# below on queries X of shape (m, d).  Short contractions (key_dim, d) are
# accumulated term by term with elementwise products and the atom axis is
# reduced with ``np.sum`` along contiguous rows, so each output row depends on
# its own query row only: evaluating m rows at once gives bitwise the same
# result as evaluating each row alone.  BLAS products would not (their blocking
# and kernels change with the operand shapes), so none is used here.


def _rowmul(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Rows of ``X @ A.T``, accumulated over the shared axis term by term.

    Raises DimensionMismatch when the rows of X and of A differ in width.
    """
    if X.shape[1] != A.shape[1]:
        raise DimensionMismatch(f"points of dimension {X.shape[1]} meet a matrix of width {A.shape[1]}")
    cols = np.ascontiguousarray(A.T)
    out = X[:, :1] * cols[0]
    term = np.empty_like(out)
    for j in range(1, X.shape[1]):
        out += np.multiply(X[:, j : j + 1], cols[j], out=term)
    return out


def _attend(
    params: AttentionParams,
    ctx: DiscreteMeasure,
    X: np.ndarray,
    weights: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Attention displacement at every query row against the context ``ctx``.

    Per head: logits (m, n) = (Q x) . (K x_l) / sqrt(key_dim), a weighted
    softmax stabilized by each row's maximum, and the pooled values mapped
    through W V, reducing over the atoms of ``ctx`` in the order given.  The
    (m, n) softmax weights of each head are appended to ``weights`` if given.
    """
    if ctx.n == 0:
        raise EmptyMeasure("attention needs a nonempty context measure")
    pts_t = np.ascontiguousarray(ctx.points.T)
    scale = 1.0 / math.sqrt(params.key_dim)
    out = np.zeros_like(X)
    for head in params.heads:
        p = _rowmul(_rowmul(X, head.q) * scale, _rowmul(ctx.points, head.k))
        p -= np.max(p, axis=1, keepdims=True)
        np.exp(p, out=p)
        p *= ctx.weights
        p /= np.sum(p, axis=1, keepdims=True)
        if weights is not None:
            weights.append(p)
        pooled = np.empty_like(X)
        term = np.empty_like(p)
        for j in range(pts_t.shape[0]):
            pooled[:, j] = np.sum(np.multiply(p, pts_t[j], out=term), axis=1)
        out = out + _rowmul(_rowmul(pooled, head.v), head.w)
    return out


def _mlp_rows(params: MlpParams, X: np.ndarray) -> np.ndarray:
    if not params.layers:
        return params.skip * X
    act = ACTIVATIONS[params.activation]
    h = X
    for a, b in params.layers:
        h = act(_rowmul(h, a) + b)
    return params.skip * X + h


def velocity_rows(
    att: AttentionParams, mlp_p: MlpParams, ctx: DiscreteMeasure, X: np.ndarray
) -> np.ndarray:
    """Layer velocity Att(ctx, x) + H(x + Att(ctx, x)) at every row of X (m, d).

    The atoms of ``ctx`` are reduced in the order given.  Requires a unit skip
    coefficient; rows do not depend on how many are evaluated together.
    """
    if mlp_p.skip != 1.0:
        raise SkipNotUnit(f"velocity needs skip coefficient 1, got {mlp_p.skip}")
    a = _attend(att, ctx, X)
    g = X + a
    return a + (_mlp_rows(mlp_p, g) - g)


def layer_step(layer: Layer, ctx: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
    """The batched layer kernel: images of the query rows X (m, d) under one layer.

    The atoms of ``ctx`` are reduced in the order given.  At scale 1 a row maps
    to F(x + Att(ctx, x)); at scale c to x + c * velocity.  Each row's result
    is bitwise independent of the batch size m, as if evaluated alone.
    """
    X = np.asarray(X, dtype=float)
    if layer.scale == 1.0:
        return _mlp_rows(layer.mlp, X + _attend(layer.attention, ctx, X))
    return X + layer.scale * velocity_rows(layer.attention, layer.mlp, ctx, X)


def _row(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(1, -1)


def attention_weights(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> list[np.ndarray]:
    """Per-head measure-weighted softmax weights over the canonical atoms.

    Logits are (Q x) . (K x_l) / sqrt(key_dim), stabilized by subtracting the
    maximum before exponentiation; each returned vector sums to one.
    """
    weights: list[np.ndarray] = []
    _attend(params, canonicalize(mu), _row(x), weights)
    return [p[0] for p in weights]


def attention(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """Attention displacement sum_h W_h V_h (sum_l p_l x_l) at query x.

    Context atoms are reduced in canonical order, so the result is identical
    (bitwise) for any atom relabeling of ``mu``.
    """
    return _attend(params, canonicalize(mu), _row(x))[0]


def gamma(params: AttentionParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """Residual attention layer x + Att(mu, x)."""
    x = _row(x)
    return (x + _attend(params, canonicalize(mu), x))[0]


def mlp(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the MLP (skip term plus activated layer chain)."""
    return _mlp_rows(params, _row(x))[0]


def velocity(att: AttentionParams, mlp_p: MlpParams, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """One-layer displacement Att(mu, x) + H(x + Att(mu, x)) with H = F - Id.

    Requires a unit skip coefficient so that the layer is a perturbation of
    the identity; then x + velocity(mu, x) = F(x + Att(mu, x)) exactly.
    """
    return velocity_rows(att, mlp_p, canonicalize(mu), _row(x))[0]


@dataclass(eq=False)
class InContextMap:
    """A map (measure, point) -> point, with a push-forward action on measures.

    ``fn(mu, X)`` maps query rows X (m, d_in) to their image rows (m, d_out).
    """

    fn: Callable[[DiscreteMeasure, np.ndarray], np.ndarray]
    dim_in: int
    dim_out: int
    _last_push: tuple[DiscreteMeasure, DiscreteMeasure] | None = field(default=None, repr=False)

    def __call__(self, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(mu, _row(x)), dtype=float)[0]

    def push(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        """Push-forward of ``mu``: one call of ``fn`` on all atoms of ``mu``.

        Only the latest push is cached: a diamond composition pushes the same
        measure on every call, and older measures are not kept alive.
        """
        last = self._last_push
        if last is not None and last[0] is mu:
            return last[1]
        nu = push_forward(mu, lambda X: self.fn(mu, X))
        self._last_push = (mu, nu)
        return nu

    @staticmethod
    def identity(dim: int) -> "InContextMap":
        return InContextMap(lambda mu, X: X, dim, dim)

    @staticmethod
    def from_gamma(params: AttentionParams) -> "InContextMap":
        d = params.dim
        return InContextMap(lambda mu, X: X + _attend(params, canonicalize(mu), X), d, d)

    @staticmethod
    def from_layer(att: AttentionParams, mlp_p: MlpParams) -> "InContextMap":
        layer = Layer(att, mlp_p)
        return InContextMap(lambda mu, X: layer_step(layer, canonicalize(mu), X), att.dim, att.dim)


def compose_diamond(g1: InContextMap, g2: InContextMap) -> InContextMap:
    """Diamond composition: (mu, x) -> g2(g1 push-forward of mu, g1(mu, x))."""
    if g1.dim_out != g2.dim_in:
        raise DimensionMismatch(
            f"cannot chain output dimension {g1.dim_out} into input dimension {g2.dim_in}"
        )

    def composed(mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
        return g2.fn(g1.push(mu), g1.fn(mu, X))

    return InContextMap(composed, g1.dim_in, g2.dim_out)
