"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps, from outside the package, the public functions of every
``incontext`` layer module at every place they are bound: ``from .measures
import canonicalize`` copies the name into ``attention``,
``deep_transformer``, ``vlasov`` and ``derivative``, and at package level
``incontext.attention`` is the function, not the module.  It also wraps a few
methods and the scipy solver bindings in ``transport``.

Each wrapped call is one span: name, start, end, parent and job.  Self time is
a span's duration minus the time its child spans cover, where a child covers
its whole wrapper, so the tracer's own bookkeeping is charged to nobody.
Counts are taken from call arguments and results only, so they repeat exactly
for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter_ns as _now

import numpy as np

PACKAGE = "incontext"

# Modules of src/incontext that are layers; a span's layer is its module.
LAYERS = (
    "measures",
    "transport",
    "attention",
    "deep_transformer",
    "vlasov",
    "derivative",
    "counterexample",
    "serialize",
    "cli",
)

METHODS = (
    ("vlasov", "VelocityField", "__call__"),
    ("derivative", "MeasureMap", "__call__"),
    ("derivative", "TestFunction", "value"),
    ("derivative", "TestFunction", "gradient"),
)

# scipy entry points bound in transport, traced as layers of their own so
# that transport's self time is LP assembly and bookkeeping only.
SOLVERS = {
    "linprog": "transport.lp_solver",
    "linear_sum_assignment": "transport.assignment_solver",
}

# serialize.fmt formats one float; a span per float would cost more than the
# call it measures.  Its time lands in the caller's self time.
UNTRACED = frozenset({"serialize.fmt"})

# Functions reported as a layer of their own rather than with their module.
OWN_LAYER = frozenset({"attention.mlp"})


def _arg(args: tuple, kwargs: dict, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _calls(key: str):
    def hook(counts: Counter, args: tuple, kwargs: dict, out) -> None:
        counts[key] += 1

    return hook


def _canonicalize(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    mu = _arg(args, kwargs, 0, "mu")
    counts["measures.canonicalize.calls"] += 1
    counts["measures.canonicalize.atoms_in"] += mu.n
    if mu.is_canonical:
        return
    counts["measures.canonicalize.full"] += 1
    if (
        out.n == mu.n
        and np.array_equal(out.points, mu.points)
        and np.array_equal(out.weights, mu.weights)
    ):
        counts["measures.canonicalize.redundant"] += 1


def _push_forward(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    counts["measures.push_forward.calls"] += 1
    counts["measures.push_forward.atoms"] += _arg(args, kwargs, 0, "mu").n


def _attention(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    params = _arg(args, kwargs, 0, "params")
    counts["attention.calls"] += 1
    counts["attention.query_atom_pairs"] += _arg(args, kwargs, 1, "mu").n * params.n_heads


def _steps(position: int, key: str):
    def hook(counts: Counter, args: tuple, kwargs: dict, out) -> None:
        counts["vlasov.steps"] += int(_arg(args, kwargs, position, key))

    return hook


def _linprog(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    counts["transport.route_lp"] += 1
    counts["transport.lp_vars"] += len(_arg(args, kwargs, 0, "c"))


def _bytes_out(counts: Counter, args: tuple, kwargs: dict, out) -> None:
    counts["serialize.bytes_out"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "measures.canonicalize": _canonicalize,
    "measures.push_forward": _push_forward,
    "attention.attention": _attention,
    "attention.mlp": _calls("attention.mlp.calls"),
    "deep_transformer.forward_measure": _calls("deep_transformer.forward_measure.calls"),
    "deep_transformer.forward_tokens": _calls("deep_transformer.forward_tokens.calls"),
    "deep_transformer.apply_layer": _calls("deep_transformer.apply_layer.calls"),
    "vlasov.VelocityField.__call__": _calls("vlasov.velocity_evals"),
    "vlasov.euler_flow": _steps(2, "T"),
    "vlasov.rk4_flow": _steps(2, "steps"),
    "transport.w1_1d": _calls("transport.w1_1d.calls"),
    "transport.linear_sum_assignment": _calls("transport.route_assignment"),
    "transport.linprog": _linprog,
    "derivative.extract_g_detailed": _calls("derivative.extract.calls"),
    "derivative.MeasureMap.__call__": _calls("derivative.map_evals"),
    "derivative.TestFunction.value": _calls("derivative.test_fn_evals"),
    "derivative.TestFunction.gradient": _calls("derivative.test_fn_evals"),
    "counterexample.discontinuity_scan": _calls("counterexample.scan.calls"),
    "serialize.save_json": _bytes_out,
    "serialize.write_csv": _bytes_out,
}

# Record fields: name, parent index, job, start, end, wrapper entry, wrapper exit.
NAME, PARENT, JOB, START, END, OUTER_START, OUTER_END = range(7)


class Tracer:
    """Spans and counts for calls into the package while installed."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.records.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        records, stack, tracer = self.records, self._stack, self
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.job, 0, 0, _now(), 0]
            stack.append(len(records))
            records.append(rec)
            rec[START] = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = rec[OUTER_END] = _now()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, out)
                rec[OUTER_END] = _now()
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{m}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    layer = name if name in OWN_LAYER else m
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, layer))
        for attr, layer in SOLVERS.items():
            obj = getattr(mods["transport"], attr)
            wrappers[id(obj)] = (obj, self._wrap(obj, f"transport.{attr}", layer))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        for m, cls_name, meth in METHODS:
            owner = getattr(mods[m], cls_name)
            obj = owner.__dict__[meth]
            setattr(owner, meth, self._wrap(obj, f"{m}.{cls_name}.{meth}", m))
            self._patches.append((owner, meth, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the wrappers of its children."""
        records = self.records
        covered = [0] * len(records)
        for rec in records:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[OUTER_END] - rec[OUTER_START]
        return [rec[END] - rec[START] - c for rec, c in zip(records, covered)]

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time summed by span name and by layer, in seconds."""
        by_name: Counter = Counter()
        for rec, s in zip(self.records, self.self_ns()):
            by_name[rec[NAME]] += s
        by_layer: Counter = Counter()
        for name, s in by_name.items():
            by_layer[self.layer_of[name]] += s
        return (
            {k: v / 1e9 for k, v in by_name.items()},
            {k: v / 1e9 for k, v in by_layer.items()},
        )

    def transformer_layers(self) -> list[int | None]:
        """Transformer layer index of each span, where one applies.

        ``context_chain`` pushes the context through layer k in its k-th
        ``push_forward`` call, and everything under that call belongs to
        layer k.  ``forward_tokens`` and ``forward_map`` call ``apply_layer``
        directly, layer after layer, after computing their context chain.
        """
        records = self.records
        index: list[int | None] = [None] * len(records)
        pushes: Counter = Counter()
        applies: Counter = Counter()
        chain_of: dict[int, int] = {}
        for i, rec in enumerate(records):
            p = rec[PARENT]
            if p < 0:
                continue
            name, parent = rec[NAME], records[p][NAME]
            if name == "deep_transformer.context_chain":
                chain_of[p] = i
            if name == "measures.push_forward" and parent == "deep_transformer.context_chain":
                index[i] = pushes[p]
                pushes[p] += 1
            elif name == "deep_transformer.apply_layer" and p in chain_of and index[p] is None:
                index[i] = applies[p] % pushes[chain_of[p]]
                applies[p] += 1
            elif index[p] is not None:
                index[i] = index[p]
        return index

    def dump(self) -> dict:
        """Spans as plain data, times in ns from the first span's start."""
        names = sorted(self.layer_of)
        code = {n: i for i, n in enumerate(names)}
        t0 = self.records[0][OUTER_START] if self.records else 0
        self_ns = self.self_ns()
        layers = self.transformer_layers()
        by_tlayer: Counter = Counter()
        for s, k in zip(self_ns, layers):
            if k is not None:
                by_tlayer[k] += s
        return {
            "fields": ["id", "parent", "job", "name", "start_ns", "end_ns", "self_ns", "transformer_layer"],
            "names": names,
            "layer_of": [self.layer_of[n] for n in names],
            "spans": [
                [i, rec[PARENT], rec[JOB], code[rec[NAME]], rec[START] - t0, rec[END] - t0, s, k]
                for i, (rec, s, k) in enumerate(zip(self.records, self_ns, layers))
            ],
            "self_s_by_transformer_layer": {str(k): v / 1e9 for k, v in sorted(by_tlayer.items())},
        }
