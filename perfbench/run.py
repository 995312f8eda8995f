"""Closed-loop benchmark of the incontext command line.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 15 --trace 0

One client in one process calls ``incontext.cli.main(argv)`` on input files
generated from ``--seed``, one job after another, in whole passes over the
workload's job list, until ``--seconds`` have passed and at least
``MIN_SAMPLES`` jobs have run.  A fixed calibration kernel runs after every
job, and every time is reported at the reference host speed it defines (see
``Calibration``).
``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, writing the spans of one traced pass to
perfbench/results/.  Outputs are checked outside the timed interval.  The
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; fresh interpreters inherit this.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# At least 120 timed jobs, so that at least ten lie beyond the 90th percentile.
MIN_SAMPLES = 120
SETUP_REPS = 7
IMPORT_REPS = 5

COUNTS = (
    "measures.canonicalize.calls",
    "measures.canonicalize.atoms_in",
    "measures.push_forward.calls",
    "measures.push_forward.atoms",
    "attention.calls",
    "attention.query_atom_pairs",
    "attention.mlp.calls",
    "deep_transformer.forward_measure.calls",
    "deep_transformer.forward_tokens.calls",
    "deep_transformer.apply_layer.calls",
    "vlasov.velocity_evals",
    "vlasov.steps",
    "transport.w1_1d.calls",
    "transport.route_assignment",
    "transport.route_lp",
    "transport.lp_vars",
    "derivative.extract.calls",
    "derivative.map_evals",
    "derivative.test_fn_evals",
    "counterexample.scan.calls",
    "serialize.bytes_out",
)
SELF_BY_NAME = {
    "measures.canonicalize.self_s": "measures.canonicalize",
    "measures.push_forward.self_s": "measures.push_forward",
}
SELF_BY_LAYER = {
    "attention.self_s": "attention",
    "attention.mlp.self_s": "attention.mlp",
    "deep_transformer.self_s": "deep_transformer",
    "vlasov.self_s": "vlasov",
    "transport.self_s": "transport",
    "transport.lp_solver_s": "transport.lp_solver",
    "transport.assignment_solver_s": "transport.assignment_solver",
    "derivative.self_s": "derivative",
    "counterexample.self_s": "counterexample",
    "serialize.self_s": "serialize",
    "cli.self_s": "cli",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


class Calibration:
    """Fixed work that gauges the host's current speed.

    On a shared host this process's vCPU runs up to five times slower, in
    spells of seconds to minutes; CPU time slows with wall time, so the
    process is not descheduled, the core itself is slower.  A job's time
    divided by the time of a fixed Python and numpy kernel run next to it
    holds within a few percent through those spells.  ``scale(times)`` turns
    seconds measured alongside kernel runs ``times`` into reference seconds:
    seconds at the host speed where the kernel takes ``REF_S``.

    A fresh interpreter spends its time opening, reading and executing
    modules, which slows differently from the kernel.  It is gauged instead
    by ``start()``, a fresh interpreter that imports numpy, whose time on
    that same reference host is ``START_S``.  Both constants are the
    reference machine's (2-core Xeon) figures in a quiet spell.
    """

    REF_S = 0.002
    START_S = 0.15

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(32, 3))
        self.w = rng.normal(size=(3, 3))

    def __call__(self) -> float:
        np, a, w = self.np, self.a, self.w
        t0 = time.perf_counter()
        s = 0.0
        for _ in range(150):
            z = a @ w
            e = np.exp(z - z.max(axis=0))
            s += float((e / e.sum(axis=0)).sum())
            s += sum(j * 0.5 for j in range(20))
        return time.perf_counter() - t0

    def scale(self, times: list[float]) -> float:
        return self.REF_S / statistics.median(times)

    def start(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True)
        return time.perf_counter() - t0


class Runner:
    """Runs jobs in-process and keeps per-job run and failure tallies.

    ``latencies`` holds wall seconds and ``scaled`` the same runs in
    reference seconds, both in run order.
    """

    def __init__(self, jobs: list) -> None:
        self.jobs = jobs
        self.cli = importlib.import_module("incontext.cli")
        self.calibrate = Calibration()
        self.expected: list = []
        self.warm_errors: dict[int, str] = {}
        self.check_errors: dict[int, str] = {}
        self.runs: Counter = Counter()
        self.bad: Counter = Counter()
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.scales: list[float] = []

    def run_job(self, job) -> tuple[float, tuple[str, bytes] | None, str]:
        if job.out is not None:
            job.out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        raised = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(job.argv))
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                rc, raised = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if rc != 0:
            return dt, None, raised or f"exit {rc}: {err.getvalue().strip()}"
        data = job.out.read_bytes() if job.out is not None else b""
        return dt, (out.getvalue(), data), ""

    def warm_up(self) -> None:
        """One untimed pass whose outputs later passes must repeat byte for byte."""
        for i, job in enumerate(self.jobs):
            _, output, err = self.run_job(job)
            self.expected.append(output)
            if output is None:
                self.warm_errors[i] = err

    def timed_pass(self, tracer=None) -> float:
        """One pass over the jobs, each followed by a kernel run.  Returns the
        pass's job time in reference seconds."""
        lat, ref = [], []
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            dt, output, _ = self.run_job(job)
            ref.append(self.calibrate())
            lat.append(dt)
            self.runs[i] += 1
            if output is None or output != self.expected[i]:
                self.bad[i] += 1
        scale = self.calibrate.scale(ref)
        self.scales.append(scale)
        self.latencies += lat
        self.scaled += [dt * scale for dt in lat]
        return sum(lat) * scale

    def loop(self, seconds: float, min_samples: int) -> int:
        """Whole passes until both limits are reached; returns the pass count."""
        t0 = time.perf_counter()
        passes = 0
        while passes * len(self.jobs) < min_samples or time.perf_counter() - t0 < seconds:
            self.timed_pass()
            passes += 1
        return passes

    def check_outputs(self) -> None:
        """Run each job's output check on its warm-up output."""
        self.check_errors = dict(self.warm_errors)
        for i, job in enumerate(self.jobs):
            if i in self.check_errors:
                continue
            try:
                msg = job.check(*self.expected[i])
            except Exception as exc:  # a malformed output fails its check
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                self.check_errors[i] = msg

    def failures(self) -> tuple[dict[int, str], int]:
        """Failed jobs with a reason, and the number of failed job runs."""
        errors = dict(self.check_errors)
        for i, n in self.bad.items():
            errors.setdefault(i, f"{n} repeated runs failed or differed from the first run")
        return errors, sum(self.runs[i] if i in errors else self.bad[i] for i in self.runs)


def _fresh_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _fresh_processes(calibrate: Calibration, argvs: list[list[str]]) -> list[tuple[float, subprocess.CompletedProcess]]:
    """Runs each argv in a fresh interpreter, with a reference start-up before
    the first and after each.  Returns each one's reference seconds, scaled by
    the mean of the start-ups on its two sides, and its completed process."""
    runs = []
    before = calibrate.start()
    for argv in argvs:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, check=False)
        dt = time.perf_counter() - t0
        after = calibrate.start()
        runs.append((dt * calibrate.START_S * 2 / (before + after), proc))
        before = after
    return runs


def setup_seconds(calibrate: Calibration, job, expected, work: Path) -> tuple[list[float], str | None]:
    """Fresh-interpreter reference seconds of ``python -m incontext.cli`` on one job."""
    outs = [work / f"setup-out-{k}" for k in range(SETUP_REPS)]
    argvs = [[sys.executable, "-m", "incontext.cli", *job.argv_writing_to(out)] for out in outs]
    times, error = [], None
    for out, (dt, proc) in zip(outs, _fresh_processes(calibrate, argvs)):
        times.append(dt)
        data = out.read_bytes() if job.out is not None and out.exists() else b""
        if proc.returncode != 0 or (proc.stdout, data) != expected:
            error = f"fresh-interpreter job differs from the in-process one: {proc.stderr.strip()}"
    return times, error


def import_seconds(calibrate: Calibration) -> float:
    """Fresh-process import of incontext.cli minus a bare interpreter (medians
    of reference seconds)."""
    argvs = [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import incontext.cli"]] * IMPORT_REPS
    times = [dt for dt, _ in _fresh_processes(calibrate, argvs)]
    return statistics.median(times[1::2]) - statistics.median(times[::2])


def end_to_end(runner: Runner, setup: int, args, work: Path) -> tuple[dict, list[str], list[str]]:
    """Timed loop, then set-up timing and the output checks.

    Times are reference seconds (see ``Calibration``).  ``jobs_per_s`` is the
    job count over the sum of each job's median time; the percentiles are
    over every timed run.
    """
    t0 = time.perf_counter()
    gc.collect()
    passes = runner.loop(args.seconds, MIN_SAMPLES)
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, setup_error = setup_seconds(runner.calibrate, runner.jobs[setup], runner.expected[setup], work)
    runner.check_outputs()
    n = len(runner.jobs)
    lat_ms = [dt * 1e3 for dt in runner.scaled]
    raw_ms = [dt * 1e3 for dt in runner.latencies]
    metrics = {
        "setup_s": statistics.median(times),
        "jobs_per_s": n / sum(statistics.median(runner.scaled[i::n]) for i in range(n)),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_mb,
    }
    notes = [
        f"{len(lat_ms)} timed jobs in {passes} passes of {n} over {wall:.2f} s",
        f"wall-clock job_p50_ms {statistics.median(raw_ms):.4g}, "
        f"job_p90_ms {statistics.quantiles(raw_ms, n=10, method='inclusive')[8]:.4g}",
        f"host speed (reference / current) per pass: median {statistics.median(runner.scales):.3f}, "
        f"range {min(runner.scales):.3f}-{max(runner.scales):.3f}",
        f"setup_s samples {[round(t, 4) for t in times]}",
    ]
    return metrics, notes, [setup_error] if setup_error else []


def layer_metrics(counts: dict, by_name: dict, by_layer: dict) -> dict:
    m = {k: counts.get(k, 0) for k in COUNTS}
    m.update({k: by_name.get(v, 0.0) for k, v in SELF_BY_NAME.items()})
    m.update({k: by_layer.get(v, 0.0) for k, v in SELF_BY_LAYER.items()})
    m["measures.canonicalize.redundant_ratio"] = _ratio(
        counts.get("measures.canonicalize.redundant", 0), counts.get("measures.canonicalize.full", 0)
    )
    m["attention.ns_per_pair"] = _ratio(m["attention.self_s"] * 1e9, m["attention.query_atom_pairs"])
    m["derivative.map_evals_per_extract"] = _ratio(m["derivative.map_evals"], m["derivative.extract.calls"])
    return m


def traced(runner: Runner, args) -> tuple[dict, list[str], list[str], dict]:
    """Alternate untraced and traced passes; per-layer metrics are per pass."""
    tr = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass, spans, errors = [], None, []
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < args.seconds:
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if not on:
                walls[on].append(runner.timed_pass())
                continue
            tr.reset()
            tr.install()
            try:
                walls[on].append(runner.timed_pass(tr))
            finally:
                tr.uninstall()
            scale = runner.scales[-1]
            by_name, by_layer = ({key: v * scale for key, v in d.items()} for d in tr.self_seconds())
            per_pass.append(layer_metrics(tr.counts, by_name, by_layer))
            if spans is None:
                spans = tr.dump()
        k += 1
    counts = [{c: p[c] for c in COUNTS} for p in per_pass]
    if any(c != counts[0] for c in counts):
        errors.append("work counts differ between traced passes")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(counts[0])
    metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False])
    metrics["cli.import_s"] = import_seconds(runner.calibrate)
    runner.check_outputs()
    notes = [f"{len(per_pass)} traced and {len(walls[False])} untraced passes of {len(runner.jobs)} jobs"]
    return metrics, notes, errors, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "incontext" / "__init__.py").is_file():
        print(f"perfbench: no incontext package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = Path("perfbench", "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, setup = workloads.build(args.workload, args.seed, work)
        runner = Runner(jobs)
        runner.warm_up()
        spans = None
        if args.trace:
            metrics, notes, problems, spans = traced(runner, args)
        else:
            metrics, notes, problems = end_to_end(runner, setup, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = len(runner.latencies)
    errors, failed = runner.failures()
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    machine = machine_record()
    problems += [f"job {i} ({jobs[i].cls}): {msg}" for i, msg in sorted(errors.items())]
    if spans is not None:
        out = Path("perfbench", "results", f"trace-{args.workload}-seed{args.seed}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine,
            "jobs": [{"id": i, "class": j.cls, "argv": j.argv} for i, j in enumerate(jobs)],
            "per_layer": metrics,
            **spans,
        }
        out.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        notes.append(f"spans of one traced pass written to {out}")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine))
    for note in notes + problems:
        print(note)
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
