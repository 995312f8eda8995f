"""Layer stacks: deep attention+MLP compositions as one in-context map.

A stack of T layers is the chain of its layers' in-context maps, whose stages
are the batched kernel ``layer_step``: a point threads through each layer while
the context measure is pushed forward alongside (the diamond rule).  The same
chain acts on measures by relocating every atom, and on token sequences as
the push-forward of their empirical measure: each token carries the index of
its atom through every merge and reads the last layer's image of that atom,
in the input order.  Each layer moves all atoms of its context in one kernel
call, which reads only the context's arrays, so T layers make T calls on at
most as many rows as there are distinct tokens.

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
from .measures import DiscreteMeasure, TokenSequence, _count, _empirical, _finite_rows, _freeze, _with_atoms


@dataclass(frozen=True)
class LayerStack:
    """Ordered attention+MLP layers; an empty stack is the identity map.  ``layers`` that are not a
    tuple or list, a ``dim`` that is not a Python or numpy integer of at least 1, or a layer that is
    not a Layer, raise DimensionMismatch; a list is stored as a tuple."""

    layers: tuple[Layer, ...]
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.layers, (tuple, list)):
            raise DimensionMismatch(f"stack layers must be a tuple or list, got {type(self.layers).__name__}")
        _count(self.dim, 1, DimensionMismatch, "stack dimension must be an integer of at least 1, got {!r}")
        object.__setattr__(self, "layers", tuple(self.layers))  # hashable, and equal to the stack built on a tuple
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise DimensionMismatch(f"stack layers must be Layer, got {type(layer).__name__}")
            if layer.attention.dim != self.dim:
                raise DimensionMismatch(f"layer dimension {layer.attention.dim} != stack dimension {self.dim}")
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

    The image of a token is the image of its atom of ``iota(seq)`` in the
    stack's push-forward: each layer runs once, on the atoms of its context,
    and each token follows its atom through every merge, then reads the last
    layer's image of that atom.  As kernel rows do not depend on the batch,
    that is bitwise the stack's map at the token's atom.  Tokens of one atom
    get one image, so permuting the input permutes the output identically,
    bit for bit; a token holding -0.0 is the atom at +0.0 and gets its image.
    An empty stack returns the tokens as given, signed zeros included.
    Raises MapUndefinedAtAtom naming a context atom when an intermediate
    image is not finite, and the first token when a last image is not; the
    layers run under one ``np.errstate``, so an overflow warns nothing.
    """
    contexts = _chain(stack)._contexts(_empirical(seq))  # checks the dimension, also with no layers
    if not stack.layers:
        return seq
    atom = np.arange(seq.n)  # token i is atom i of the empirical measure
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, context in zip(stack.layers, contexts):
            nu, merged = _with_atoms(context)
            atom = merged[atom]
        images = layer_step(layer, nu.points, nu.weights, nu.points)
    out = _finite_rows(images[atom])
    return TokenSequence(_freeze(out), seq.box.hull(out))
