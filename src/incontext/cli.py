"""Command-line driver.

Subcommands: ``w1``, ``forward``, ``forward-tokens``, ``flow``,
``depth-limit``, ``extract-g``, ``counterexample`` and ``self-test``.  Domain
errors (a bad input document among them), file and memory errors exit 1, naming
the error on stderr; usage errors exit 2; any other exception is a program fault
and leaves ``main`` uncaught.
Outputs are byte-identical across runs with the same arguments and seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterator

import numpy as np

from . import __version__
from .counterexample import counter_map, discontinuity_scan
from .deep_transformer import forward_measure, forward_tokens
from .derivative import MeasureMap, extract_g_detailed
from .errors import DomainError, TooFewTimePoints
from .selftest import run_self_test
from .serialize import (
    attention_from_doc,
    fmt,
    load_json,
    measure_from_doc,
    measure_to_doc,
    mlp_from_doc,
    plan_to_doc,
    save_json,
    stack_from_doc,
    tokens_from_doc,
    tokens_to_doc,
    write_csv,
)
from .transport import w1, w1_extended, w1_matching
from .vlasov import Trajectory, VelocityField, depth_limit_error, euler_flow, rk4_flow


def _comma_list(kind: Callable[[str], object]) -> Callable[[str], tuple[str, list]]:
    """An argparse type: the argument as given and its comma-separated entries
    read by ``kind``, empty entries skipped.  A malformed entry is a usage
    error (exit 2), not a bad input file."""

    def parse(text: str) -> tuple[str, list]:
        return text, [kind(s) for s in text.split(",") if s]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incontext",
        description="In-context maps on discrete measures: transport, stacks, flows, extraction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0, help="seed for seeded subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_w1 = sub.add_parser("w1", help="1-Wasserstein distance between two measures")
    p_w1.add_argument("--a", required=True, help="first measure JSON")
    p_w1.add_argument("--b", required=True, help="second measure JSON")
    route = p_w1.add_mutually_exclusive_group()
    route.add_argument("--extended", action="store_true", help="allow unequal masses")
    route.add_argument("--plan", help="write the optimal flow as JSON")

    p_fwd = sub.add_parser("forward", help="push a measure through a layer stack")
    p_fwd.add_argument("--stack", required=True)
    p_fwd.add_argument("--measure", required=True)
    p_fwd.add_argument("--out", required=True)

    p_ft = sub.add_parser("forward-tokens", help="map a token sequence through a layer stack")
    p_ft.add_argument("--stack", required=True)
    p_ft.add_argument("--tokens", required=True)
    p_ft.add_argument("--out", required=True)

    p_flow = sub.add_parser("flow", help="integrate the interacting-particle flow")
    p_flow.add_argument("--stack", required=True)
    p_flow.add_argument("--measure", required=True)
    p_flow.add_argument("--T", type=int, required=True, dest="steps")
    p_flow.add_argument("--integrator", choices=["euler", "rk4"], default="euler")
    p_flow.add_argument("--out", required=True)

    p_dl = sub.add_parser("depth-limit", help="depth-scaling error against the RK4 reference")
    p_dl.add_argument("--base", required=True, help="JSON with attention and mlp parameters")
    p_dl.add_argument("--measure", required=True)
    p_dl.add_argument("--Ts", required=True, type=_comma_list(int), help="comma-separated depths")
    p_dl.add_argument("--out", required=True)

    p_ex = sub.add_parser("extract-g", help="recover the pointwise map from a measure map")
    p_ex.add_argument("--map", required=True, dest="map_spec", help="identity | stack:FILE | counterexample")
    p_ex.add_argument("--measure", required=True)
    p_ex.add_argument("--x", required=True, type=_comma_list(float), help="comma-separated query point")
    p_ex.add_argument("--eps", type=float, default=1e-6)

    p_cex = sub.add_parser("counterexample", help="scan the discontinuity families")
    p_cex.add_argument("--mmax", type=int, required=True)
    p_cex.add_argument("--out", required=True)

    sub.add_parser("self-test", help="run the reduced invariant suite")
    return parser


def _cmd_w1(args: argparse.Namespace) -> int:
    a = measure_from_doc(load_json(args.a))
    b = measure_from_doc(load_json(args.b))
    if args.plan is None:  # --plan and --extended exclude each other
        value = (w1_extended if args.extended else w1)(a, b)
    else:
        plan = w1_matching(a, b)
        save_json(args.plan, plan_to_doc(plan))
        value = plan.cost
    print(fmt(value))
    return 0


def _cmd_forward(args: argparse.Namespace) -> int:
    stack = stack_from_doc(load_json(args.stack))
    mu = measure_from_doc(load_json(args.measure))
    save_json(args.out, measure_to_doc(forward_measure(stack, mu)))
    return 0


def _cmd_forward_tokens(args: argparse.Namespace) -> int:
    stack = stack_from_doc(load_json(args.stack))
    seq = tokens_from_doc(load_json(args.tokens))
    save_json(args.out, tokens_to_doc(forward_tokens(stack, seq)))
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    stack = stack_from_doc(load_json(args.stack))
    mu = measure_from_doc(load_json(args.measure))
    v = VelocityField.from_stack(stack)
    traj = (euler_flow if args.integrator == "euler" else rk4_flow)(v, mu, args.steps)
    header = ["t", "atom_index"] + [f"x_{i + 1}" for i in range(mu.dim)] + ["weight"]
    write_csv(args.out, header, _trajectory_blocks(traj))
    return 0


def _trajectory_blocks(traj: Trajectory) -> Iterator[np.ndarray]:
    """One (n, d + 3) block per time step, rows ``t, atom_index, x_1..x_d, weight``.

    Every step reuses one array, so a block is valid until the next is drawn.
    """
    n, d = traj.points.shape[1:]
    block = np.empty((n, d + 3))
    block[:, 1] = np.arange(n)
    block[:, -1] = traj.weights
    for t, state in zip(traj.times, traj.points):
        block[:, 0] = t
        block[:, 2:-1] = state
        yield block


def _cmd_depth_limit(args: argparse.Namespace) -> int:
    text, depths = args.Ts
    if not depths:
        raise TooFewTimePoints(f"--Ts {text!r} names no depth")
    doc = load_json(args.base)
    att, mlp_p = attention_from_doc(doc["attention"]), mlp_from_doc(doc["mlp"])
    mu = measure_from_doc(load_json(args.measure))
    rows = [[T, depth_limit_error(att, mlp_p, mu, T)] for T in depths]
    write_csv(args.out, ["T", "error"], rows)
    return 0


def _make_map(name: str) -> MeasureMap:
    if name == "identity":
        return MeasureMap.identity()
    if name == "counterexample":
        return counter_map()
    if name.startswith("stack:"):
        return MeasureMap.from_stack(stack_from_doc(load_json(name[len("stack:"):])))
    raise DomainError(f"unknown map name {name!r}")


def _cmd_extract_g(args: argparse.Namespace) -> int:
    mu = measure_from_doc(load_json(args.measure))
    x = np.array(args.x[1])
    f = _make_map(args.map_spec)
    values, eps_used = extract_g_detailed(f, mu, x, args.eps)
    print(" ".join(fmt(v) for v in values))
    print(f"eps_used {fmt(eps_used)}")
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    header = ["family", "m", "eps", "w1_to_delta2", "g_value_closed_form", "g_value_extracted"]
    # a ScanRow's __dict__ holds its fields in declaration order; astuple would deep-copy each
    write_csv(args.out, header, [vars(row).values() for row in discontinuity_scan(args.mmax)])
    return 0


def _cmd_self_test(args: argparse.Namespace) -> int:
    return 0 if run_self_test(seed=args.seed) else 1


_DISPATCH = {
    "w1": _cmd_w1,
    "forward": _cmd_forward,
    "forward-tokens": _cmd_forward_tokens,
    "flow": _cmd_flow,
    "depth-limit": _cmd_depth_limit,
    "extract-g": _cmd_extract_g,
    "counterexample": _cmd_counterexample,
    "self-test": _cmd_self_test,
}


# Built once: parsing leaves the parser unchanged, and building it costs more
# than the cheapest subcommands.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: FileNotFound: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: FileAccess: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: OutOfMemory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
