"""Layer stacks: deep attention+MLP compositions as one in-context map.

A stack of T layers is the chain of its layers' in-context maps, whose stages
are the batched kernel ``layer_step``: a point threads through each layer while
the context measure is pushed forward alongside (the diamond rule).  The same
chain acts on measures by relocating every atom, and on token sequences by
acting pointwise while keeping the input order.  Each layer moves all atoms
(or tokens) in one kernel call, which reads only the context's arrays.

Each layer carries an optional velocity scale: at scale 1 the layer applies
``F(x + Att(mu, x))`` directly, at scale c it applies ``x + c * velocity``,
which is how depth-rescaled stacks realize explicit Euler steps of the layer
velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .attention import InContextMap, Layer, layer_step
from .errors import DimensionMismatch
from .measures import DiscreteMeasure, TokenSequence, _freeze, iota


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


def _chain(stack: LayerStack) -> InContextMap:
    return InContextMap(tuple(partial(layer_step, layer) for layer in stack.layers), stack.dim)


def forward_map(stack: LayerStack, mu: DiscreteMeasure, x: np.ndarray) -> np.ndarray:
    """The stack's in-context map at (mu, x); MapUndefinedAtAtom if the image is not finite."""
    return _chain(stack)(mu, x)


def forward_measure(stack: LayerStack, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Push ``mu`` through the stack (layerwise push-forwards composed)."""
    return _chain(stack).push(mu)


def forward_tokens(stack: LayerStack, seq: TokenSequence) -> TokenSequence:
    """Act on a token sequence, preserving the input order.

    All tokens are mapped in one batch through the stack against the contexts
    generated by the sequence's empirical measure.  Kernel rows do not depend
    on the batch, so equal tokens receive equal images and permuting the
    input permutes the output identically, bit for bit.  Raises
    MapUndefinedAtAtom naming, as its atom, the first token whose image is
    not finite.
    """
    out = _chain(stack).rows(iota(seq), seq.tokens)
    return TokenSequence(_freeze(out), seq.box.hull(out))
