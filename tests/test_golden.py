"""Byte identity of the command line on a fixed list of jobs.

Each job runs ``cli.main`` in-process on input files drawn from the seeded
generators of ``incontext.selftest`` and is recorded as its exit code and the
sha256 of its stdout, its stderr and its output file.  The jobs cover every
subcommand, every W1 route and a few named-error exits.
``golden_outputs.json`` holds the record and the numpy and scipy versions that
made it; the last bits of an output may change with those versions, so a
version mismatch fails the test rather than skipping it.  After an intended
change of outputs, regenerate the record with ``python tests/golden_update.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import scipy

import incontext as ic
from incontext import serialize as ser
from incontext.cli import main
from incontext.selftest import random_attention, random_measure, random_mlp, random_stack

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
DIR = "<dir>"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _probability(rng, n, dim):
    mu = random_measure(rng, n, dim)
    return mu.scaled(1.0 / mu.total_mass)


def _inputs(rng) -> dict:
    """Input documents by file name, drawn in a fixed order from ``rng``."""
    m2 = random_measure(rng, 6, 2)
    m3 = random_measure(rng, 5, 3)
    toks = rng.uniform(-2.0, 2.0, size=(6, 2))
    toks[3], toks[5] = toks[0], toks[1]
    base = {"attention": ser.attention_to_doc(random_attention(rng, 2)), "mlp": ser.mlp_to_doc(random_mlp(rng, 2))}
    docs = {
        "m2.json": ser.measure_to_doc(m2),
        "m3.json": ser.measure_to_doc(m3),
        "small2.json": ser.measure_to_doc(random_measure(rng, 3, 2)),
        "uniform2.json": ser.measure_to_doc(random_measure(rng, 4, 2, uniform=True)),
        "tokens.json": ser.tokens_to_doc(ic.new_tokens(toks)),
        "one_head.json": ser.stack_to_doc(random_stack(rng, 2, depth=2)),
        "two_heads.json": ser.stack_to_doc(random_stack(rng, 3, depth=1, heads=2)),
        "scaled.json": ser.stack_to_doc(random_stack(rng, 2, depth=3, scale=0.25)),
        "base.json": base,
        "a1.json": ser.measure_to_doc(_probability(rng, 7, 1)),
        "b1.json": ser.measure_to_doc(_probability(rng, 5, 1)),
        "ua.json": ser.measure_to_doc(random_measure(rng, 8, 3, uniform=True)),
        "ub.json": ser.measure_to_doc(random_measure(rng, 8, 3, uniform=True)),
        "a2.json": ser.measure_to_doc(_probability(rng, 9, 2)),
        "b2.json": ser.measure_to_doc(_probability(rng, 6, 2)),
        "heavy2.json": ser.measure_to_doc(random_measure(rng, 5, 2)),
        "near.json": ser.measure_to_doc(ic.two_atom_measure(0.01)),
    }
    # 24 atoms on four points: each merged weight is a sum of six, in one order
    merged = rng.uniform(-2.0, 2.0, size=(4, 2))[rng.permutation(np.repeat(np.arange(4), 6))]
    docs["merged.json"] = ser.measure_to_doc(ic.new_discrete(merged, rng.uniform(0.2, 1.0, size=24)))
    docs["mistyped.json"] = dict(docs["m2.json"], weights="heavy")
    # an existing atom of weight 0.5 takes the probe mass fl(0.5 + eps) - 0.5
    docs["pair.json"] = ser.measure_to_doc(ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]))
    # nine coordinates: the distances sum their squares by numpy's pairwise rule
    docs["ua9.json"] = ser.measure_to_doc(random_measure(rng, 12, 9, uniform=True))
    docs["ub9.json"] = ser.measure_to_doc(random_measure(rng, 12, 9, uniform=True))
    docs["a9.json"] = ser.measure_to_doc(_probability(rng, 10, 9))
    docs["b9.json"] = ser.measure_to_doc(_probability(rng, 8, 9))
    docs["m9.json"] = ser.measure_to_doc(random_measure(rng, 7, 9))
    return docs


# name -> command line, with {d} the directory of the input files; a job's
# output file, if any, is {d}/y.json or {d}/y.csv
JOBS = {
    "forward_one_head": "forward --stack {d}/one_head.json --measure {d}/m2.json --out {d}/y.json",
    "forward_two_heads": "forward --stack {d}/two_heads.json --measure {d}/m3.json --out {d}/y.json",
    "forward_scaled": "forward --stack {d}/scaled.json --measure {d}/m2.json --out {d}/y.json",
    "forward_merged_atoms": "forward --stack {d}/one_head.json --measure {d}/merged.json --out {d}/y.json",
    "forward_tokens_repeated": "forward-tokens --stack {d}/one_head.json --tokens {d}/tokens.json --out {d}/y.json",
    "flow_euler": "flow --stack {d}/one_head.json --measure {d}/m2.json --T 6 --out {d}/y.csv",
    "flow_rk4": "flow --stack {d}/two_heads.json --measure {d}/m3.json --T 4 --integrator rk4 --out {d}/y.csv",
    "depth_limit": "depth-limit --base {d}/base.json --measure {d}/uniform2.json --Ts 2,4 --out {d}/y.csv",
    "w1_closed_form": "w1 --a {d}/a1.json --b {d}/b1.json",
    "w1_assignment": "w1 --a {d}/ua.json --b {d}/ub.json --plan {d}/y.json",
    "w1_monotone_plan": "w1 --a {d}/a1.json --b {d}/b1.json --plan {d}/y.json",
    "w1_lp": "w1 --a {d}/a2.json --b {d}/b2.json --plan {d}/y.json",
    "w1_extended": "w1 --a {d}/a2.json --b {d}/heavy2.json --extended",
    "extract_identity": "extract-g --map identity --measure {d}/m2.json --x 0.3,-0.7",
    "extract_stack": "extract-g --map stack:{d}/one_head.json --measure {d}/small2.json --x 0.5,0.25",
    "extract_counterexample": "extract-g --map counterexample --measure {d}/near.json --x 0.1 --eps 1e-7",
    "extract_counterexample_halvings": "extract-g --map counterexample --measure {d}/near.json --x 0.1 --eps 0.01",
    "extract_existing_atom": "extract-g --map identity --measure {d}/pair.json --x 1,1",
    "w1_assignment_d9": "w1 --a {d}/ua9.json --b {d}/ub9.json --plan {d}/y.json",
    "w1_lp_d9": "w1 --a {d}/a9.json --b {d}/b9.json --plan {d}/y.json",
    "extract_identity_d9": "extract-g --map identity --measure {d}/m9.json --x 0.4,-0.3,0.2,-0.1,0.5,-0.6,0.7,-0.2,0.1",
    "counterexample": "counterexample --mmax 4 --out {d}/y.csv",
    "counterexample_m20": "counterexample --mmax 20 --out {d}/y.csv",
    "self_test": "--seed 3 self-test",
    "error_mass_mismatch": "w1 --a {d}/a2.json --b {d}/heavy2.json",
    "error_dimension_mismatch": "forward --stack {d}/one_head.json --measure {d}/m3.json --out {d}/y.json",
    "error_too_few_steps": "flow --stack {d}/one_head.json --measure {d}/m2.json --T 0 --out {d}/y.csv",
    "error_bad_input": "w1 --a {d}/mistyped.json --b {d}/m2.json",
    "error_missing_file": "w1 --a {d}/absent.json --b {d}/m2.json",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_jobs(workdir: Path) -> dict:
    """Every job's record, run in ``workdir``; paths in stdout and stderr read ``<dir>``."""
    for name, doc in _inputs(np.random.default_rng(16)).items():
        ser.save_json(str(workdir / name), doc)
    records = {}
    for name, line in JOBS.items():
        for out_file in workdir.glob("y.*"):
            out_file.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(line.format(d=workdir).split())
        out_files = list(workdir.glob("y.*"))
        records[name] = {
            "exit": code,
            "stdout": _sha(stdout.getvalue().replace(str(workdir), DIR).encode()),
            "stderr": _sha(stderr.getvalue().replace(str(workdir), DIR).encode()),
            "out": _sha(out_files[0].read_bytes()) if out_files else None,
        }
    return records


def test_outputs_match_the_golden_record(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == versions(), "golden outputs were made with other numpy/scipy versions"
    records = run_jobs(tmp_path)
    assert set(records) == set(golden["jobs"])
    for name, record in records.items():
        assert record == golden["jobs"][name], name
