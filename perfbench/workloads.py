"""Seeded inputs, job lists and output checks for the benchmark workloads.

A workload is five job classes of the same number of jobs each.  A class
fixes the job kind and every size; the seed draws only values (parameters,
points, weights), so the work in a run is the same on every seed.  Classes are listed cheapest
first and sit well apart in cost, so over whole passes the median job always
falls inside the third class and the 90th percentile inside the fifth.

Every check holds for any seed at the acceptance-suite tolerances: 1e-12 for
mass and for agreement between two evaluations of the same stack, 1e-10 for
exact W1, 1e-4 for extracted values and 1e-10 for the counterexample's closed
form.  A check returns None when the output is right, else a message.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import incontext as ic
from incontext import cli
from incontext.serialize import (
    attention_to_doc,
    fmt,
    measure_from_doc,
    measure_to_doc,
    mlp_to_doc,
    save_json,
    stack_to_doc,
)

MASS_TOL = 1e-12
SAME_MAP_TOL = 1e-12
W1_TOL = 1e-10
EXTRACT_TOL = 1e-4
CLOSED_FORM_TOL = 1e-10
COUNTEREXAMPLE_W1_MAX = 0.05

Check = Callable[[str, bytes], "str | None"]


@dataclass
class Job:
    """One CLI call: its arguments, the file it writes and its output check."""

    cls: str
    argv: list[str]
    out: Path | None
    check: Check

    def argv_writing_to(self, out: Path) -> list[str]:
        return [str(out) if a == str(self.out) else a for a in self.argv]


# -- random inputs ---------------------------------------------------------------


def _stack(rng: np.random.Generator, d: int, depth: int, heads: int) -> ic.LayerStack:
    def mat(rows: int, cols: int) -> np.ndarray:
        return rng.uniform(-0.5, 0.5, size=(rows, cols))

    layers = tuple(
        ic.Layer(
            ic.AttentionParams(
                tuple(ic.HeadParams(mat(2, d), mat(2, d), mat(d, d), mat(d, d)) for _ in range(heads)),
                2,
            ),
            ic.MlpParams(1.0, ((mat(d, d), rng.uniform(-0.2, 0.2, size=d)),), "tanh"),
        )
        for _ in range(depth)
    )
    return ic.LayerStack(layers, d)


def _measure(rng: np.random.Generator, n: int, d: int, spread: float = 2.0, weights=None):
    w = rng.uniform(0.2, 1.0, size=n) if weights is None else weights
    return ic.new_discrete(rng.uniform(-spread, spread, size=(n, d)), w)


def _csv_rows(data: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], np.array(rows[1:], dtype=float)


def _nearest_gap(points: np.ndarray, y: np.ndarray) -> float:
    return float(np.min(np.max(np.abs(points - y), axis=1)))


# -- forward ---------------------------------------------------------------------


def _forward(n: int, depth: int, d: int, heads: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        stack, mu = _stack(rng, d, depth, heads), _measure(rng, n, d)
        probe = mu.points[rng.integers(n)]
        s, m, o = work / f"{tag}-stack.json", work / f"{tag}-mu.json", work / f"{tag}-out.json"
        save_json(s, stack_to_doc(stack))
        save_json(m, measure_to_doc(mu))

        def check(stdout: str, data: bytes) -> str | None:
            out = measure_from_doc(json.loads(data))
            drift = abs(out.total_mass - mu.total_mass) / mu.total_mass
            if drift > MASS_TOL:
                return f"mass drift {drift:.2e}"
            gap = _nearest_gap(out.points, ic.forward_map(stack, mu, probe))
            if gap > SAME_MAP_TOL:
                return f"forward_map image of an atom is {gap:.2e} from every output atom"
            return None

        argv = ["forward", "--stack", str(s), "--measure", str(m), "--out", str(o)]
        return Job("", argv, o, check)

    return build


def _forward_tokens(n: int, depth: int, d: int, heads: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        stack = _stack(rng, d, depth, heads)
        # every token appears twice, so atoms merge in the empirical measure
        base = rng.uniform(-2.0, 2.0, size=(n // 2, d))
        toks = np.concatenate([base, base])[rng.permutation(n)]
        perm = rng.permutation(n)
        k = int(rng.integers(n))
        s, t, o = work / f"{tag}-stack.json", work / f"{tag}-tokens.json", work / f"{tag}-out.json"
        save_json(s, stack_to_doc(stack))
        save_json(t, {"dim": d, "tokens": toks})
        seq = ic.new_tokens(toks)
        _, first_of, group = np.unique(toks, axis=0, return_index=True, return_inverse=True)

        def check(stdout: str, data: bytes) -> str | None:
            got = np.asarray(json.loads(data)["tokens"], dtype=float)
            if got.shape != toks.shape:
                return f"output shape {got.shape}, expected {toks.shape}"
            if not np.array_equal(got, got[first_of[group.reshape(-1)]]):
                return "equal tokens got different images"
            gap = float(np.max(np.abs(got[k] - ic.forward_map(stack, ic.iota(seq), toks[k]))))
            if gap > SAME_MAP_TOL:
                return f"token image differs from forward_map by {gap:.2e}"
            if j == 0:
                return _permuted_tokens(stack, toks, perm, got, work / f"{tag}-perm")
            return None

        argv = ["forward-tokens", "--stack", str(s), "--tokens", str(t), "--out", str(o)]
        return Job("", argv, o, check)

    return build


def _permuted_tokens(stack, toks: np.ndarray, perm: np.ndarray, got: np.ndarray, stem: Path) -> str | None:
    s, t, o = stem.with_suffix(".stack.json"), stem.with_suffix(".tokens.json"), stem.with_suffix(".out.json")
    save_json(s, stack_to_doc(stack))
    save_json(t, {"dim": toks.shape[1], "tokens": toks[perm]})
    rc = cli.main(["forward-tokens", "--stack", str(s), "--tokens", str(t), "--out", str(o)])
    if rc != 0:
        return f"permuted-token job exited {rc}"
    if not np.array_equal(np.asarray(json.loads(o.read_bytes())["tokens"], dtype=float), got[perm]):
        return "permuting the tokens did not permute the output bitwise"
    return None


# -- flow ------------------------------------------------------------------------


def _flow(n: int, steps: int, integrator: str):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        stack, mu = _stack(rng, 2, 1, 1), _measure(rng, n, 2, spread=1.5)
        s, m, o = work / f"{tag}-stack.json", work / f"{tag}-mu.json", work / f"{tag}-out.csv"
        save_json(s, stack_to_doc(stack))
        save_json(m, measure_to_doc(mu))

        def check(stdout: str, data: bytes) -> str | None:
            mu_c = ic.canonicalize(mu)
            header, rows = _csv_rows(data)
            if header != ["t", "atom_index", "x_1", "x_2", "weight"]:
                return f"unexpected header {header}"
            if rows.shape != ((steps + 1) * mu_c.n, 5):
                return f"{rows.shape[0]} rows, expected {(steps + 1) * mu_c.n} (atom count changed)"
            if not np.isfinite(rows).all():
                return "non-finite state"
            if not np.array_equal(rows[:, 1], np.tile(np.arange(mu_c.n), steps + 1)):
                return "atom indices changed"
            if not np.array_equal(rows[:, 4], np.tile(mu_c.weights, steps + 1)):
                return "weights changed"
            if integrator != "euler":
                return None
            final = rows[-mu_c.n:, 2:4]
            final = final[np.lexsort(final.T[::-1])]
            layer = stack.layers[0]
            want = ic.forward_measure(ic.scaled_stack(layer.attention, layer.mlp, steps), mu)
            if want.n != mu_c.n:
                return "scaled stack merged atoms"
            gap = float(np.max(np.abs(final - want.points)))
            if gap > SAME_MAP_TOL:
                return f"Euler final state differs from the scaled stack by {gap:.2e}"
            return None

        argv = ["flow", "--stack", str(s), "--measure", str(m), "--T", str(steps),
                "--integrator", integrator, "--out", str(o)]
        return Job("", argv, o, check)

    return build


def _depth_limit(n: int, depth: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        layer = _stack(rng, 2, 1, 1).layers[0]
        mu = _measure(rng, n, 2, spread=1.5, weights=np.full(n, 1.0 / n))
        b, m, o = work / f"{tag}-base.json", work / f"{tag}-mu.json", work / f"{tag}-out.csv"
        save_json(b, {"attention": attention_to_doc(layer.attention), "mlp": mlp_to_doc(layer.mlp)})
        save_json(m, measure_to_doc(mu))

        def check(stdout: str, data: bytes) -> str | None:
            header, rows = _csv_rows(data)
            if header != ["T", "error"] or rows.shape != (1, 2) or rows[0, 0] != depth:
                return "unexpected depth-limit table"
            err = rows[0, 1]
            stack_final = ic.forward_measure(ic.scaled_stack(layer.attention, layer.mlp, depth), mu)
            v = ic.VelocityField.from_layer(layer.attention, layer.mlp)
            ref_final = ic.rk4_flow(v, mu, 4 * depth).final
            return _w1_bounds(err, stack_final, ref_final)

        argv = ["depth-limit", "--base", str(b), "--measure", str(m), "--Ts", str(depth), "--out", str(o)]
        return Job("", argv, o, check)

    return build


# -- transport -------------------------------------------------------------------


def _pair(rng: np.random.Generator, n: int, m: int, d: int, uniform: bool = False, equal_mass: bool = True):
    a = _measure(rng, n, d, weights=np.full(n, 1.0 / n) if uniform else None)
    wb = np.full(m, 1.0 / m) if uniform else rng.uniform(0.2, 1.0, size=m)
    if equal_mass and not uniform:
        wb = wb * (a.total_mass / wb.sum())
    return a, _measure(rng, m, d, weights=wb)


def _dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))


def _w1_bounds(value: float, a, b) -> str | None:
    """Independent bounds on W1 between equal-mass measures.

    From below by the distance between the means (W1 dominates it for any
    1-Lipschitz linear test function); from above by the product coupling.
    """
    if not np.isfinite(value) or value < 0.0:
        return f"W1 value {value!r} is not a finite nonnegative number"
    mass = a.total_mass
    lower = float(np.linalg.norm(a.weights @ a.points - b.weights @ b.points)) / mass
    upper = float(a.weights @ _dist(a.points, b.points) @ b.weights) / mass
    if not lower - W1_TOL <= value <= upper + W1_TOL:
        return f"W1 {value!r} outside [{lower!r}, {upper!r}]"
    return None


def _plan_check(a, b, stdout: str, data: bytes) -> tuple[float, str | None]:
    plan = json.loads(data)
    cost = float(stdout)
    if fmt(cost) != fmt(plan["cost"]):
        return cost, "printed cost differs from the plan's cost"
    src = np.array([f["source"] for f in plan["flows"]], dtype=int)
    tgt = np.array([f["target"] for f in plan["flows"]], dtype=int)
    mass = np.array([f["mass"] for f in plan["flows"]], dtype=float)
    rows = np.bincount(src, weights=mass, minlength=a.n)
    cols = np.bincount(tgt, weights=mass, minlength=b.n)
    residual = max(np.max(np.abs(rows - a.weights)), np.max(np.abs(cols - b.weights)))
    if residual > W1_TOL:
        return cost, f"plan marginals off by {residual:.2e}"
    dist = np.sqrt(np.sum((a.points[src] - b.points[tgt]) ** 2, axis=1))
    if abs(float(np.sum(mass * dist)) - cost) > W1_TOL:
        return cost, "cost is not the sum of mass times distance"
    return cost, _w1_bounds(cost, a, b)


def _w1_closed_form(n: int, m: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        a, b = _pair(rng, n, m, 1)
        pa, pb = work / f"{tag}-a.json", work / f"{tag}-b.json"
        save_json(pa, measure_to_doc(a))
        save_json(pb, measure_to_doc(b))

        def check(stdout: str, data: bytes) -> str | None:
            value, lp = float(stdout), ic.w1_matching(a, b).cost
            if abs(value - lp) > W1_TOL:
                return f"closed form {value!r} vs LP {lp!r}"
            return None

        return Job("", ["w1", "--a", str(pa), "--b", str(pb)], None, check)

    return build


def _w1_plan(n: int, m: int, dims: tuple[int, ...], uniform: bool = False):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        d = dims[j % len(dims)]
        a, b = _pair(rng, n, m, d, uniform=uniform)
        pa, pb, o = work / f"{tag}-a.json", work / f"{tag}-b.json", work / f"{tag}-plan.json"
        save_json(pa, measure_to_doc(a))
        save_json(pb, measure_to_doc(b))

        def check(stdout: str, data: bytes) -> str | None:
            cost, err = _plan_check(a, b, stdout, data)
            if err is None and d == 1 and abs(cost - ic.w1_1d(a, b)) > W1_TOL:
                return f"LP {cost!r} vs closed form {ic.w1_1d(a, b)!r}"
            return err

        return Job("", ["w1", "--a", str(pa), "--b", str(pb), "--plan", str(o)], o, check)

    return build


def _w1_extended(n: int, m: int, d: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        a, b = _pair(rng, n, m, d, equal_mass=False)
        pa, pb = work / f"{tag}-a.json", work / f"{tag}-b.json"
        save_json(pa, measure_to_doc(a))
        save_json(pb, measure_to_doc(b))

        def check(stdout: str, data: bytes) -> str | None:
            base = float(stdout) - abs(a.total_mass - b.total_mass)
            return _w1_bounds(base, a.normalized(), b.normalized())

        return Job("", ["w1", "--a", str(pa), "--b", str(pb), "--extended"], None, check)

    return build


# -- extract ---------------------------------------------------------------------


def _extract(n: int, depth: int):
    """extract-g on the identity map (depth 0) or on a stack of that depth."""

    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        stack = _stack(rng, 2, depth, 1) if depth else None
        mu = _measure(rng, n, 2)
        x = rng.uniform(-2.0, 2.0, size=2)
        m = work / f"{tag}-mu.json"
        save_json(m, measure_to_doc(mu))
        spec = "identity"
        if stack is not None:
            s = work / f"{tag}-stack.json"
            save_json(s, stack_to_doc(stack))
            spec = f"stack:{s}"

        def check(stdout: str, data: bytes) -> str | None:
            lines = stdout.splitlines()
            got = np.array([float(v) for v in lines[0].split()])
            want = x if stack is None else ic.forward_map(stack, mu, x)
            if got.shape != want.shape or not lines[1].startswith("eps_used "):
                return "unexpected extract-g output"
            err = float(np.max(np.abs(got - want)))
            if err > EXTRACT_TOL:
                return f"extracted value off by {err:.2e}"
            return None

        # "--x=" keeps a leading minus sign from reading as an option
        argv = ["extract-g", "--map", spec, "--measure", str(m), "--x=" + ",".join(fmt(v) for v in x)]
        return Job("", argv, None, check)

    return build


def _counterexample(mmax: int):
    def build(rng: np.random.Generator, work: Path, tag: str, j: int) -> Job:
        o = work / f"{tag}-out.csv"

        def check(stdout: str, data: bytes) -> str | None:
            header, rows = _csv_rows(data.replace(b"limsup", b"1").replace(b"liminf", b"-1"))
            if rows.shape != (2 * (mmax - 1), 6):
                return f"{rows.shape[0]} scan rows, expected {2 * (mmax - 1)}"
            gap = float(np.max(np.abs(rows[:, 5] - rows[:, 4])))
            if gap > CLOSED_FORM_TOL:
                return f"extracted value {gap:.2e} from the closed form"
            if np.max(rows[:, 3]) > COUNTEREXAMPLE_W1_MAX:
                return "scanned measure farther than 0.05 from the limit"
            return None

        return Job("", ["counterexample", "--mmax", str(mmax), "--out", str(o)], o, check)

    return build


# -- workloads -------------------------------------------------------------------

# Five classes per workload, cheapest first, the class whose first job is
# timed in a fresh interpreter for setup_s, and the jobs per class.  Costs in
# brackets are per job on a 2-core Xeon with one BLAS thread.  The LP's time
# depends on the drawn values (its cost varies by about 15% between
# instances), so transport runs twelve of each to keep the pass time steady
# from seed to seed.
WORKLOADS = {
    "forward": (
        [
            ("forward-n32-T2-d2-h1", _forward(32, 2, 2, 1)),  # [13 ms]
            ("tokens-n64-T4-d2-h1", _forward_tokens(64, 4, 2, 1)),  # [25 ms]
            ("forward-n128-T4-d3-h1", _forward(128, 4, 3, 1)),  # [50 ms]
            ("tokens-n128-T6-d4-h2", _forward_tokens(128, 6, 4, 2)),  # [95 ms]
            ("forward-n256-T8-d4-h2", _forward(256, 8, 4, 2)),  # [220 ms]
        ],
        0,
        4,
    ),
    "flow": (
        [
            ("euler-n8-T8", _flow(8, 8, "euler")),  # [18 ms]
            ("euler-n16-T8", _flow(16, 8, "euler")),  # [48 ms]
            ("rk4-n8-T12", _flow(8, 12, "rk4")),  # [95 ms]
            ("depth-limit-n8-T6", _depth_limit(8, 6)),  # [150 ms]
            ("rk4-n16-T12", _flow(16, 12, "rk4")),  # [250 ms]
        ],
        0,
        4,
    ),
    "transport": (
        [
            ("closed-form-1d-n50", _w1_closed_form(50, 40)),  # [3 ms]
            ("assignment-d3-n200", _w1_plan(200, 200, (3,), uniform=True)),  # [12 ms]
            ("extended-d2-n50", _w1_extended(50, 40, 2)),  # [25 ms]
            ("plan-1d-n100", _w1_plan(100, 80, (1,))),  # [100 ms]
            ("lp-d2-3-n120", _w1_plan(120, 120, (2, 3))),  # [90 ms]
        ],
        1,
        12,
    ),
    "extract": (
        [
            ("identity-n12", _extract(12, 0)),  # [6 ms]
            ("stack-n8-depth2", _extract(8, 2)),  # [8 ms]
            ("stack-n12-depth3", _extract(12, 3)),  # [13 ms]
            ("counterexample-m10", _counterexample(10)),  # [22 ms]
            ("counterexample-m20", _counterexample(20)),  # [46 ms]
        ],
        0,
        4,
    ),
}


def build(workload: str, seed: int, work: Path) -> tuple[list[Job], int]:
    """The workload's jobs for one pass, interleaved by class, and the index of
    the job timed in fresh interpreters."""
    classes, setup_class, per_class = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    by_class: list[list[Job]] = []
    for c, (cls, make_job) in enumerate(classes):
        jobs = []
        for j in range(per_class):
            rng = np.random.default_rng([seed, c, j])
            job = make_job(rng, work, f"c{c}-{j}", j)
            job.cls = cls
            jobs.append(job)
        by_class.append(jobs)
    interleaved = [by_class[c][j] for j in range(per_class) for c in range(len(classes))]
    return interleaved, interleaved.index(by_class[setup_class][0])
