"""JSON and CSV interchange for measures, tokens, parameters, stacks and plans.

All floats are written in decimal with 17 significant digits, which
round-trips IEEE-754 doubles exactly and keeps output files byte-stable across
runs.  The emitter is a small recursive serializer because the standard json
encoder does not expose float formatting; it writes each float64 array, and
each record array (a plan's flows), with one ``%`` format.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

from .attention import AttentionParams, HeadParams, MlpParams
from .deep_transformer import Layer, LayerStack
from .errors import BadInputFile, LengthMismatch
from .measures import Box, DiscreteMeasure, TokenSequence, default_box, new_discrete, new_tokens
from .transport import TransportPlan


def fmt(x: float) -> str:
    """Decimal representation with 17 significant digits."""
    return format(float(x), ".17g")


def _emit_array(value: np.ndarray) -> str:
    """A float64 array, or a record array of int and float fields, as one ``%`` format
    built from its shape: ``"%.17g" % x`` is ``fmt(x)`` for every double."""
    if value.dtype.names is None:
        item, cells = "%.17g", value.ravel().tolist()
    else:
        fields = [f'{json.dumps(k)}:{"%.17g" if value.dtype[k].kind == "f" else "%d"}' for k in value.dtype.names]
        item, cells = "{" + ",".join(fields) + "}", chain.from_iterable(value.ravel().tolist())
    for n in reversed(value.shape):
        item = "[" + ",".join([item] * n) + "]"
    return item % tuple(cells)


def _emit(value: Any) -> str:
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 or value.dtype.names is not None:
            return _emit_array(value)
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
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


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


def _key(doc: dict, key: str):
    """``doc[key]`` of a decoded JSON object; BadInputFile naming the key when it is missing."""
    if key not in doc:
        raise BadInputFile(f"missing key {key!r}")
    return doc[key]


def _type_name(value: Any) -> str:
    """The Python type name of a decoded JSON value, ``dict`` for an object."""
    return "dict" if isinstance(value, dict) else type(value).__name__


_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _json(value: Any, kind: type, what: str):
    """``value`` itself, after checking that it is a JSON object, array or string
    (``kind`` dict, list or str)."""
    if not isinstance(value, kind):
        raise BadInputFile(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {_type_name(value)}")
    return value


def _numbers(value: Any, what: str) -> np.ndarray:
    """``value`` as a float array, after checking that it is a JSON number or
    a rectangular array of numbers; one numpy conversion, and a per-element
    loop only for integers beyond int64, which numpy holds as objects.  Those
    are read as floats; one beyond the float range is a BadInputFile."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise BadInputFile(f"{what} must be a rectangular array of numbers") from exc
    if arr.dtype == object and all(type(x) is int or type(x) is float for x in arr.flat):
        try:
            return arr.astype(float)
        except OverflowError as exc:
            raise BadInputFile(f"{what} holds an integer beyond the float range") from exc
    if arr.dtype.kind not in "iuf":
        raise BadInputFile(f"{what} must be numeric, got {_type_name(value)}")
    return arr.astype(float, copy=False)


def _number(value: Any, what: str) -> float:
    arr = _numbers(value, what)
    if arr.ndim:
        raise BadInputFile(f"{what} must be a number, got an array")
    return float(arr)


def _integer(value: Any, what: str) -> int:
    x = _number(value, what)
    if not x.is_integer():
        raise BadInputFile(f"{what} must be an integer, got {value!r}")
    return int(x)


def _box_from_doc(box: Any) -> Box:
    box = _json(box, dict, "box")
    return Box(_numbers(_key(box, "lo"), "box lo"), _numbers(_key(box, "hi"), "box hi"))


def _dim_checked(doc: dict, value):
    """``value`` itself, after checking it against the document's optional ``dim``."""
    if "dim" in doc and _integer(doc["dim"], "dim") != value.dim:
        raise LengthMismatch(f"the document says dim {doc['dim']!r}, its entries have dimension {value.dim}")
    return value


def measure_from_doc(doc: dict) -> DiscreteMeasure:
    points, weights = _numbers(_key(doc, "points"), "points"), _numbers(_key(doc, "weights"), "weights")
    return _dim_checked(doc, new_discrete(points, weights, _box_from_doc(_key(doc, "box"))))


def tokens_to_doc(seq: TokenSequence) -> dict:
    return {"dim": seq.dim, "tokens": seq.tokens}


def tokens_from_doc(doc: dict) -> TokenSequence:
    toks = np.atleast_2d(_numbers(_key(doc, "tokens"), "tokens"))
    # the default box hulls the tokens with non-finite entries clipped, so new_tokens names them
    box = _box_from_doc(doc["box"]) if "box" in doc else default_box(toks.shape[1]).hull(np.nan_to_num(toks))
    return _dim_checked(doc, new_tokens(toks, box))


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
    doc = _json(doc, dict, "attention")
    heads = tuple(
        HeadParams(*(_numbers(_key(h, k), k) for k in ("Q", "K", "V", "W")))
        for h in (_json(h, dict, "per_head entry") for h in _json(_key(doc, "per_head"), list, "per_head"))
    )
    if len(heads) != _integer(_key(doc, "heads"), "heads"):
        raise LengthMismatch("head count does not match per_head entries")
    return AttentionParams(heads, _integer(_key(doc, "key_dim"), "key_dim"))


def mlp_to_doc(params: MlpParams) -> dict:
    return {
        "skip": params.skip,
        "layers": [{"A": a, "b": b} for a, b in params.layers],
        "activation": params.activation,
    }


def mlp_from_doc(doc: dict) -> MlpParams:
    doc = _json(doc, dict, "mlp")
    layers = tuple(
        (_numbers(_key(layer, "A"), "A"), _numbers(_key(layer, "b"), "b"))
        for layer in (_json(layer, dict, "mlp layer") for layer in _json(_key(doc, "layers"), list, "mlp layers"))
    )
    activation = _json(doc.get("activation", "tanh"), str, "activation")
    return MlpParams(_number(_key(doc, "skip"), "skip"), layers, activation)


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
            attention_from_doc(_key(entry, "attention")),
            mlp_from_doc(_key(entry, "mlp")),
            _number(entry.get("scale", 1.0), "scale"),
        )
        for entry in (_json(entry, dict, "stack layer") for entry in _json(_key(doc, "layers"), list, "stack layers"))
    )
    return LayerStack(layers, _integer(_key(doc, "dim"), "dim"))


def plan_to_doc(plan: TransportPlan) -> dict:
    """The cost and the flows, a record array with fields source, target and mass."""
    flows = np.rec.fromarrays((plan.source, plan.target, plan.mass), names="source,target,mass")
    return {"cost": plan.cost, "flows": flows}


# -- file helpers --------------------------------------------------------------------


def load_json(path: str) -> dict:
    """Parse a JSON file whose document is an object, as plain dicts and lists;
    BadInputFile when it is not UTF-8 JSON, nests too deeply or is not an object.
    Readers take its required keys through ``_key``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise BadInputFile(f"cannot decode the document in {path}: {exc}") from None
    return _json(doc, dict, f"the document in {path}")


def save_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(doc))


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any] | str]) -> None:
    """CSV with '.' decimals, ',' separators, a header row and LF endings.

    Each item of ``rows`` is one row of cells, floats written by ``fmt`` and
    other cells by ``str``, or a str of whole lines already formatted, written
    as it is.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                continue
            cells = [
                fmt(c) if isinstance(c, (float, np.floating)) else str(c) for c in row
            ]
            fh.write(",".join(cells) + "\n")
