"""Layer stacks: deep attention+MLP compositions as one in-context map.

A stack of T layers acts on a point by threading it through each layer while
the context measure is pushed forward alongside (the diamond rule).  The same
stack acts on measures by relocating every atom, and on token sequences by
acting pointwise while keeping the input order.  Each layer moves all atoms
(or tokens) in one call of the batched kernel ``layer_step``.

Each layer carries an optional velocity scale: at scale 1 the layer applies
``F(x + Att(mu, x))`` directly, at scale c it applies ``x + c * velocity``,
which is how depth-rescaled stacks realize explicit Euler steps of the layer
velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Layer, layer_step
from .errors import DimensionMismatch
from .measures import DiscreteMeasure, TokenSequence, _freeze, canonicalize, iota, relocate


@dataclass(frozen=True)
class LayerStack:
    """Ordered attention+MLP layers; an empty stack is the identity map."""

    layers: tuple[Layer, ...]
    dim: int

    def __post_init__(self) -> None:
        for layer in self.layers:
            if layer.attention.dim != self.dim:
                raise DimensionMismatch(
                    f"layer dimension {layer.attention.dim} != stack dimension {self.dim}"
                )
            if layer.mlp.dim is not None and layer.mlp.dim != self.dim:
                raise DimensionMismatch("MLP dimension does not match the stack")

    @property
    def depth(self) -> int:
        return len(self.layers)


def apply_layer(layer: Layer, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """One layer at context ``mu``: F(Gamma(mu, x)), or the scaled velocity step."""
    return layer_step(layer, canonicalize(mu), np.asarray(x, dtype=float).reshape(1, -1))[0]


def context_chain(stack: LayerStack, mu: DiscreteMeasure) -> list[DiscreteMeasure]:
    """Canonical context measures seen by each layer, plus the final measure.

    Entry tau is the context for layer tau; the last entry is the output
    measure of the whole stack.  Each layer moves all atoms of its context in
    one kernel call.
    """
    nu = canonicalize(mu)
    chain = [nu]
    for layer in stack.layers:
        nu = relocate(nu, layer_step(layer, nu, nu.points))
        chain.append(nu)
    return chain


def _map_rows(stack: LayerStack, chain: list[DiscreteMeasure], X: np.ndarray) -> np.ndarray:
    for layer, ctx in zip(stack.layers, chain):
        X = layer_step(layer, ctx, X)
    return X


def forward_map(stack: LayerStack, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """The stack's in-context map at (mu, x)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return _map_rows(stack, context_chain(stack, mu), x)[0]


def forward_measure(stack: LayerStack, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Push ``mu`` through the stack (layerwise push-forwards composed)."""
    return context_chain(stack, mu)[-1]


def forward_tokens(stack: LayerStack, seq: TokenSequence) -> TokenSequence:
    """Act on a token sequence, preserving the input order.

    All tokens are mapped in one batch through the stack against the contexts
    generated by the sequence's empirical measure.  Kernel rows do not depend
    on the batch, so equal tokens receive equal images and permuting the
    input permutes the output identically, bit for bit.
    """
    out = _map_rows(stack, context_chain(stack, iota(seq)), seq.tokens)
    return TokenSequence(_freeze(out), seq.box.hull(out))
