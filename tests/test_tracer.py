"""The benchmark's tracer still binds the package.

``perfbench/tracer.py`` wraps package functions and methods by name.  This
smoke test installs it and runs one forward, one extract and one LP ``w1``
job through ``cli.main``, so a change that drops a name the tracer binds
fails here, not only in ``perfbench/run.py --trace 1`` runs.  It reads
``perfbench/`` only.
"""

import importlib.util
from pathlib import Path

import numpy as np

from incontext import serialize as ser
from incontext.cli import main

from helpers import random_measure, random_probability, random_stack

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_jobs_run_and_count(tmp_path, capsys):
    rng = np.random.default_rng(40)
    files = {
        "s.json": ser.stack_to_doc(random_stack(rng, 2)),
        "m.json": ser.measure_to_doc(random_measure(rng, 4, 2)),
        "a.json": ser.measure_to_doc(random_probability(rng, 5, 2)),
        "b.json": ser.measure_to_doc(random_probability(rng, 4, 2)),
    }
    for name, doc in files.items():
        ser.save_json(str(tmp_path / name), doc)
    s, m, a, b = (str(tmp_path / name) for name in files)
    tracer = load_tracer()
    tracer.install()
    try:
        assert main(["forward", "--stack", s, "--measure", m, "--out", str(tmp_path / "y.json")]) == 0
        assert main(["extract-g", "--map", f"stack:{s}", "--measure", m, "--x", "0.1,0.2"]) == 0
        assert main(["w1", "--a", a, "--b", b, "--plan", str(tmp_path / "plan.json")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["deep_transformer.forward_measure.calls"] >= 2
    assert counts["derivative.extract.calls"] == 1
    assert counts["derivative.map_evals"] >= 2
    assert counts["transport.route_lp"] >= 1
    assert counts["serialize.bytes_out"] > 0
    assert len(tracer.dump()["spans"]) == len(tracer.records) > 0
