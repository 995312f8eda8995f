"""JSON and CSV interchange for measures, tokens, parameters, stacks and plans.

All floats are written in decimal with 17 significant digits, which
round-trips IEEE-754 doubles exactly and keeps output files byte-stable across
runs.  The emitter is a small recursive serializer because the standard json
encoder does not expose float formatting.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

from .attention import AttentionParams, HeadParams, MlpParams
from .deep_transformer import Layer, LayerStack
from .errors import LengthMismatch
from .measures import Box, DiscreteMeasure, TokenSequence, new_discrete, new_tokens
from .transport import TransportPlan


def fmt(x: float) -> str:
    """Decimal representation with 17 significant digits."""
    return format(float(x), ".17g")


def _emit(value: Any) -> str:
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise LengthMismatch(f"cannot serialize value of type {type(value).__name__}")


def dumps(doc: Any) -> str:
    return _emit(doc) + "\n"


# -- measures and tokens ---------------------------------------------------------


def measure_to_doc(mu: DiscreteMeasure) -> dict:
    return {
        "dim": mu.dim,
        "points": mu.points,
        "weights": mu.weights,
        "box": {"lo": mu.box.lo, "hi": mu.box.hi},
    }


def _object(value: Any, what: str) -> dict:
    """``value`` itself, after checking that it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _box_from_doc(box: Any) -> Box:
    box = _object(box, "box")
    return Box(np.asarray(box["lo"], dtype=float), np.asarray(box["hi"], dtype=float))


def measure_from_doc(doc: dict) -> DiscreteMeasure:
    return new_discrete(doc["points"], doc["weights"], _box_from_doc(doc["box"]))


def tokens_to_doc(seq: TokenSequence) -> dict:
    return {"dim": seq.dim, "tokens": seq.tokens}


def tokens_from_doc(doc: dict) -> TokenSequence:
    toks = np.atleast_2d(np.asarray(doc["tokens"], dtype=float))
    box = None
    if "box" in doc:
        box = _box_from_doc(doc["box"])
    elif toks.size:
        lo = np.minimum(toks.min(axis=0), -3.0)
        hi = np.maximum(toks.max(axis=0), 3.0)
        box = Box(lo, hi)
    return new_tokens(toks, box)


# -- parameters --------------------------------------------------------------------


def attention_to_doc(params: AttentionParams) -> dict:
    return {
        "heads": params.n_heads,
        "key_dim": params.key_dim,
        "per_head": [
            {"Q": h.q, "K": h.k, "V": h.v, "W": h.w} for h in params.heads
        ],
    }


def attention_from_doc(doc: dict) -> AttentionParams:
    doc = _object(doc, "attention")
    heads = tuple(
        HeadParams(
            q=np.asarray(h["Q"], dtype=float),
            k=np.asarray(h["K"], dtype=float),
            v=np.asarray(h["V"], dtype=float),
            w=np.asarray(h["W"], dtype=float),
        )
        for h in (_object(h, "per_head entry") for h in doc["per_head"])
    )
    if len(heads) != int(doc["heads"]):
        raise LengthMismatch("head count does not match per_head entries")
    return AttentionParams(heads, int(doc["key_dim"]))


def mlp_to_doc(params: MlpParams) -> dict:
    return {
        "skip": params.skip,
        "layers": [{"A": a, "b": b} for a, b in params.layers],
        "activation": params.activation,
    }


def mlp_from_doc(doc: dict) -> MlpParams:
    doc = _object(doc, "mlp")
    layers = tuple(
        (np.asarray(layer["A"], dtype=float), np.asarray(layer["b"], dtype=float))
        for layer in (_object(layer, "mlp layer") for layer in doc["layers"])
    )
    return MlpParams(float(doc["skip"]), layers, str(doc.get("activation", "tanh")))


def stack_to_doc(stack: LayerStack) -> dict:
    layers = []
    for layer in stack.layers:
        entry = {"attention": attention_to_doc(layer.attention), "mlp": mlp_to_doc(layer.mlp)}
        if layer.scale != 1.0:
            entry["scale"] = layer.scale
        layers.append(entry)
    return {"dim": stack.dim, "layers": layers}


def stack_from_doc(doc: dict) -> LayerStack:
    layers = tuple(
        Layer(
            attention_from_doc(entry["attention"]),
            mlp_from_doc(entry["mlp"]),
            float(entry.get("scale", 1.0)),
        )
        for entry in (_object(entry, "stack layer") for entry in doc["layers"])
    )
    return LayerStack(layers, int(doc["dim"]))


def plan_to_doc(plan: TransportPlan) -> dict:
    return {
        "cost": plan.cost,
        "flows": [
            {"source": int(i), "target": int(j), "mass": float(m)}
            for i, j, m in plan.triples()
        ],
    }


# -- file helpers --------------------------------------------------------------------


def load_json(path: str) -> dict:
    """Parse a JSON file whose document is an object."""
    with open(path, "r", encoding="utf-8") as fh:
        return _object(json.load(fh), f"the document in {path}")


def save_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(doc))


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """CSV with '.' decimals, ',' separators, a header row and LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                fmt(c) if isinstance(c, (float, np.floating)) else str(c) for c in row
            ]
            fh.write(",".join(cells) + "\n")
