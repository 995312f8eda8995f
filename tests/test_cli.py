import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import incontext as ic
from incontext import serialize as ser
from incontext import selftest
from incontext.cli import main

from helpers import (
    OVERFLOW_POINTS,
    overflowing_stack,
    random_attention,
    random_measure,
    random_mlp,
    random_probability,
    random_stack,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env(**extra):
    """The environment for a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def write_measure(path, mu):
    ser.save_json(str(path), ser.measure_to_doc(mu))
    return str(path)


def write_stack(path, stack):
    ser.save_json(str(path), ser.stack_to_doc(stack))
    return str(path)


class TestW1Command:
    def test_prints_unit_distance(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", ic.dirac([0.0]))
        b = write_measure(tmp_path / "b.json", ic.dirac([1.0]))
        assert main(["w1", "--a", a, "--b", b]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_extended_flag(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", ic.dirac([0.0], mass=2.0))
        b = write_measure(tmp_path / "b.json", ic.dirac([1.0]))
        assert main(["w1", "--a", a, "--b", b, "--extended"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_plan_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = write_measure(tmp_path / "a.json", random_measure(rng, 3, 2, uniform=True))
        b = write_measure(tmp_path / "b.json", random_measure(rng, 3, 2, uniform=True))
        plan_path = tmp_path / "plan.json"
        assert main(["w1", "--a", a, "--b", b, "--plan", str(plan_path)]) == 0
        doc = json.loads(plan_path.read_text())
        assert "cost" in doc and len(doc["flows"]) >= 3

    def test_mass_mismatch_is_domain_error(self, tmp_path, capsys):
        a = write_measure(tmp_path / "a.json", ic.dirac([0.0], mass=2.0))
        b = write_measure(tmp_path / "b.json", ic.dirac([1.0]))
        assert main(["w1", "--a", a, "--b", b]) == 1
        assert "MassMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("dim_b,flags", [(1, []), (3, []), (3, ["--extended"])])
    def test_dimension_mismatch_exits_one(self, tmp_path, capsys, dim_b, flags):
        rng = np.random.default_rng(13)
        a = write_measure(tmp_path / "a.json", random_probability(rng, 2, 2))
        b = write_measure(tmp_path / "b.json", random_probability(rng, 2, dim_b))
        assert main(["w1", "--a", a, "--b", b, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DimensionMismatch: "), captured.err

    @pytest.mark.parametrize("flags", [[], ["--extended"]])
    @pytest.mark.parametrize("dims", [(1, 2), (2, 1)])
    def test_dimension_mismatch_in_either_order(self, tmp_path, capsys, dims, flags):
        rng = np.random.default_rng(14)
        a = write_measure(tmp_path / "a.json", random_probability(rng, 2, dims[0]))
        b = write_measure(tmp_path / "b.json", random_probability(rng, 2, dims[1]))
        assert main(["w1", "--a", a, "--b", b, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: DimensionMismatch: cannot transport dimension {dims[0]} onto dimension {dims[1]}\n"
        )

    def test_usage_error_exit_code(self, capsys):
        assert main(["w1", "--a", "only.json"]) == 2

    def test_extended_with_plan_is_a_usage_error(self, tmp_path, capsys):
        # the extended distance has no plan to write
        a = write_measure(tmp_path / "a.json", ic.dirac([0.0], mass=2.0))
        b = write_measure(tmp_path / "b.json", ic.dirac([1.0]))
        plan_path = tmp_path / "plan.json"
        assert main(["w1", "--a", a, "--b", b, "--extended", "--plan", str(plan_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --plan: not allowed with argument --extended" in captured.err
        assert not plan_path.exists()


class TestForwardCommands:
    def test_forward_measure_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        stack = random_stack(rng, 2)
        s = write_stack(tmp_path / "s.json", stack)
        mu = random_measure(rng, 3, 2)
        m = write_measure(tmp_path / "m.json", mu)
        out = tmp_path / "y.json"
        assert main(["forward", "--stack", s, "--measure", m, "--out", str(out)]) == 0
        got = ser.measure_from_doc(json.loads(out.read_text()))
        assert got == ic.forward_measure(stack, mu)

    def test_forward_tokens(self, tmp_path):
        rng = np.random.default_rng(2)
        stack = random_stack(rng, 1)
        s = write_stack(tmp_path / "s.json", stack)
        seq = ic.new_tokens([[0.5], [0.5], [-1.0]])
        t = tmp_path / "t.json"
        ser.save_json(str(t), ser.tokens_to_doc(seq))
        out = tmp_path / "u.json"
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(out)]) == 0
        got = ser.tokens_from_doc(json.loads(out.read_text()))
        assert np.array_equal(got.tokens, ic.forward_tokens(stack, seq).tokens)


    def test_forward_tokens_in_a_declared_box(self, tmp_path):
        rng = np.random.default_rng(33)
        stack = random_stack(rng, 2)
        s = write_stack(tmp_path / "s.json", stack)
        box = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"dim": 2, "tokens": [[0.5, -0.5], [0.0, 1.0]], "box": box})
        out = tmp_path / "u.json"
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(out)]) == 0
        seq = ic.new_tokens([[0.5, -0.5], [0.0, 1.0]], ic.Box(np.array(box["lo"]), np.array(box["hi"])))
        assert out.read_text() == ser.dumps(ser.tokens_to_doc(ic.forward_tokens(stack, seq)))

    def test_token_outside_the_declared_box_exits_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(33), 2))
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"tokens": [[0.5, -0.5], [0.0, 1.5]], "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}})
        out = tmp_path / "u.json"
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: PointOutsideBox: some token lies outside the declared box\n"
        assert not out.exists()

    def test_empty_token_list_exits_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(34), 2))
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"tokens": []})
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(tmp_path / "u.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: EmptySequence: a token sequence needs at least one token\n"

    def test_overflowing_stack_exits_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", overflowing_stack())
        m = write_measure(tmp_path / "m.json", ic.new_discrete(OVERFLOW_POINTS, [0.2, 0.3, 0.5]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["forward", "--stack", s, "--measure", m, "--out", str(tmp_path / "y.json")]) == 1
        assert "error: MapUndefinedAtAtom" in capsys.readouterr().err

    def test_output_independent_of_blas_threads(self, tmp_path):
        rng = np.random.default_rng(9)
        s = write_stack(tmp_path / "s.json", random_stack(rng, 4, depth=8, heads=2))
        m = write_measure(tmp_path / "m.json", random_measure(rng, 256, 4))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"y{threads}.json"
            env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            argv = [sys.executable, "-m", "incontext.cli", "forward", "--stack", s, "--measure", m, "--out", str(out)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def scipy_loaded_after(*argv):
    """Whether a fresh interpreter has scipy loaded after importing the CLI
    and, if ``argv`` is given, running ``main(argv)`` with exit code 0."""
    code = (
        "import sys\n"
        "from incontext.cli import main\n"
        "argv = sys.argv[1:]\n"
        "assert not argv or main(argv) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *argv], env=src_env(), check=True, capture_output=True, text=True)
    return done.stdout.splitlines()[-1] == "True"


class TestStartup:
    def test_import_does_not_load_scipy(self):
        assert not scipy_loaded_after()

    def test_forward_does_not_load_scipy(self, tmp_path):
        rng = np.random.default_rng(10)
        s = write_stack(tmp_path / "s.json", random_stack(rng, 2))
        m = write_measure(tmp_path / "m.json", random_measure(rng, 4, 2))
        assert not scipy_loaded_after("forward", "--stack", s, "--measure", m, "--out", str(tmp_path / "y.json"))

    def test_assignment_route_loads_scipy(self, tmp_path):
        rng = np.random.default_rng(11)
        a = write_measure(tmp_path / "a.json", random_measure(rng, 4, 2, uniform=True))
        b = write_measure(tmp_path / "b.json", random_measure(rng, 4, 2, uniform=True))
        assert scipy_loaded_after("w1", "--a", a, "--b", b, "--plan", str(tmp_path / "plan.json"))

    def test_one_dim_plan_does_not_load_scipy(self, tmp_path):
        rng = np.random.default_rng(15)
        a = write_measure(tmp_path / "a.json", random_probability(rng, 5, 1))
        b = write_measure(tmp_path / "b.json", random_probability(rng, 7, 1))
        assert not scipy_loaded_after("w1", "--a", a, "--b", b, "--plan", str(tmp_path / "plan.json"))


class TestFlowCommand:
    def test_csv_layout_and_determinism(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = random_stack(rng, 2)
        s = write_stack(tmp_path / "s.json", stack)
        m = write_measure(tmp_path / "m.json", random_measure(rng, 3, 2))
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (out1, out2):
            code = main(
                ["flow", "--stack", s, "--measure", m, "--T", "8", "--integrator", "rk4", "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,atom_index,x_1,x_2,weight"
        assert len(lines) == 1 + 9 * 3  # header + (T+1) times x 3 atoms

    def test_empty_stack_leaves_the_atoms_in_place(self, tmp_path):
        s = tmp_path / "s.json"
        ser.save_json(str(s), {"dim": 2, "layers": []})
        mu = ic.new_discrete([[0.5, -1.0], [-0.25, 2.0]], [0.25, 0.75])
        m = write_measure(tmp_path / "m.json", mu)
        out = tmp_path / "t.csv"
        assert main(["flow", "--stack", str(s), "--measure", m, "--T", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        atoms = ["-0.25,2,0.75", "0.5,-1,0.25"]
        assert lines == ["t,atom_index,x_1,x_2,weight"] + [
            f"{t},{i},{atom}" for t in ["0", "0.5", "1"] for i, atom in enumerate(atoms)
        ]


class TestDepthLimitCommand:
    def test_errors_decrease(self, tmp_path):
        rng = np.random.default_rng(42)
        base = {
            "attention": ser.attention_to_doc(random_attention(rng, 2)),
            "mlp": ser.mlp_to_doc(random_mlp(rng, 2)),
        }
        base_path = tmp_path / "base.json"
        ser.save_json(str(base_path), base)
        m = write_measure(
            tmp_path / "m.json",
            ic.new_discrete(rng.uniform(-1.5, 1.5, (3, 2)), np.full(3, 1 / 3)),
        )
        out = tmp_path / "err.csv"
        code = main(
            ["depth-limit", "--base", str(base_path), "--measure", m, "--Ts", "16,32", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,error"
        assert len(lines) == 3
        e16 = float(lines[1].split(",")[1])
        e32 = float(lines[2].split(",")[1])
        assert e32 < e16


class TestExtractGCommand:
    def test_identity_map(self, tmp_path, capsys):
        mu = ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5])
        m = write_measure(tmp_path / "m.json", mu)
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "0.7,0.2"]) == 0
        out = capsys.readouterr().out.splitlines()
        vec = [float(v) for v in out[0].split()]
        assert vec == pytest.approx([0.7, 0.2], abs=1e-10)
        assert out[1].startswith("eps_used ")

    def test_counterexample_map(self, tmp_path, capsys):
        mu = ic.two_atom_measure(0.01)
        m = write_measure(tmp_path / "m.json", mu)
        assert main(
            ["extract-g", "--map", "counterexample", "--measure", m, "--x", "0.1", "--eps", "1e-7"]
        ) == 0
        vec = float(capsys.readouterr().out.splitlines()[0])
        assert vec == pytest.approx(ic.r_map(100.0, 0.1), abs=1e-8)

    @pytest.mark.parametrize("eps", ["1e-6", "1e-16"])
    def test_probe_at_an_atom_reads_the_atom(self, tmp_path, capsys, eps):
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        m = write_measure(tmp_path / "m.json", mu)
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "1,1", "--eps", eps]) == 0
        assert capsys.readouterr().out.splitlines() == ["1 1", f"eps_used {ser.fmt(float(eps))}"]

    def test_probe_mass_lost_to_rounding_exits_one(self, tmp_path, capsys):
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        m = write_measure(tmp_path / "m.json", mu)
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "1,1", "--eps", "1e-17"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ProbeMassLost" in captured.err


    def test_anchors_too_close_exits_one(self, tmp_path, capsys):
        # image atoms 1e-9 apart leave a patch radius of 2.5e-10
        mu = ic.new_discrete([[0.0, 0.0], [1e-9, 0.0]], [0.5, 0.5])
        m = write_measure(tmp_path / "m.json", mu)
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: AnchorsTooClose: usable patch radius 2.5e-10 below 1e-08\n"

    def test_displacement_too_large_names_the_last_eps(self, tmp_path, capsys):
        # eps 100 retunes the counterexample's frequency; 12 halvings end at 100 / 4096
        m = write_measure(tmp_path / "m.json", ic.two_atom_measure(0.01))
        argv = ["extract-g", "--map", "counterexample", "--measure", m, "--x", "0.5", "--eps", "100"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DisplacementTooLarge: image support moves more than 0.0125 even at eps 0.0244\n"
        )


class TestCounterexampleCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["counterexample", "--mmax", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,m,eps,w1_to_delta2,g_value_closed_form,g_value_extracted"
        assert len(lines) == 1 + 2 * 9

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["counterexample", "--mmax", "5", "--out", str(a)])
        main(["counterexample", "--mmax", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSelfTest:
    def test_passes_cleanly(self, capsys):
        assert main(["self-test"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == len(selftest.CHECKS)

    def test_seed_does_not_change_outcomes(self, capsys):
        assert main(["--seed", "0", "self-test"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "1", "self-test"]) == 0
        second = capsys.readouterr().out
        assert [l.split()[0] for l in first.splitlines()] == [
            l.split()[0] for l in second.splitlines()
        ]

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # flip the sign of the 1d distance: the transport oracle check must trip
        import incontext.transport as transport

        true_fn = transport.w1_1d
        monkeypatch.setattr(transport, "w1_1d", lambda a, b: -true_fn(a, b))
        assert main(["self-test"]) == 1
        out = capsys.readouterr().out
        assert any(
            line.startswith("FAIL transport.w1-oracle") for line in out.splitlines()
        )


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert ic.__version__ in capsys.readouterr().out


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_interpreters(self, tmp_path, capsys, monkeypatch):
        # the usage lines wrap at the terminal width, so both sides get the same
        monkeypatch.setenv("COLUMNS", "80")
        rng = np.random.default_rng(22)
        a = write_measure(tmp_path / "a.json", random_probability(rng, 3, 2))
        b = write_measure(tmp_path / "b.json", random_probability(rng, 4, 2))
        calls = [
            ["w1", "--a", a, "--b", b],
            ["w1", "--a", a],
            ["extract-g", "--map", "identity", "--measure", a, "--x", "0.5,0.5"],
            ["--version"],
            ["flow", "--stack", "s.json", "--measure", a, "--T", "2", "--integrator", "midpoint", "--out", "y.csv"],
            ["--seed", "3", "w1", "--a", a, "--b", b, "--extended"],
        ]
        alone = [
            subprocess.Popen(
                [sys.executable, "-m", "incontext.cli", *argv],
                env=src_env(COLUMNS="80"),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for argv in calls
        ]
        in_one = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            in_one.append((captured.out, captured.err, code))
        assert [code for _, _, code in in_one] == [0, 2, 0, 0, 2, 0]
        for argv, got, proc in zip(calls, in_one, alone):
            out, err = proc.communicate()
            assert got == (out, err, proc.returncode), argv


class TestBadInputs:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert "BadInputFile" in capsys.readouterr().err

    def test_non_object_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        b = write_measure(tmp_path / "b.json", ic.dirac([0.0]))
        assert main(["w1", "--a", str(bad), "--b", b]) == 1
        assert "error: BadInputFile: ValueError: the document in" in capsys.readouterr().err

    def test_non_object_box_exits_one(self, tmp_path, capsys):
        doc = ser.measure_to_doc(ic.dirac([0.0]))
        doc["box"] = 5
        bad = tmp_path / "box.json"
        ser.save_json(str(bad), doc)
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert "error: BadInputFile: ValueError: box must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, what",
        [
            (lambda doc: doc.update(layers=[1]), "stack layer"),
            (lambda doc: doc["layers"][0].update(attention=[1]), "attention"),
            (lambda doc: doc["layers"][0]["attention"].update(per_head=[1]), "per_head entry"),
            (lambda doc: doc["layers"][0].update(mlp=[1]), "mlp"),
            (lambda doc: doc["layers"][0]["mlp"].update(layers=[1]), "mlp layer"),
        ],
    )
    def test_non_object_stack_entry_exits_one(self, tmp_path, capsys, edit, what):
        rng = np.random.default_rng(12)
        doc = ser.stack_to_doc(random_stack(rng, 1))
        edit(doc)
        s = tmp_path / "s.json"
        ser.save_json(str(s), doc)
        m = write_measure(tmp_path / "m.json", random_measure(rng, 2, 1))
        assert main(["forward", "--stack", str(s), "--measure", m, "--out", str(tmp_path / "y.json")]) == 1
        assert f"error: BadInputFile: ValueError: {what} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, what",
        [
            (lambda doc: doc.update(layers=5), "stack layers"),
            (lambda doc: doc["layers"][0]["attention"].update(per_head=3), "per_head"),
            (lambda doc: doc["layers"][0]["mlp"].update(layers=3), "mlp layers"),
        ],
    )
    def test_non_array_stack_entry_exits_one(self, tmp_path, capsys, edit, what):
        rng = np.random.default_rng(14)
        doc = ser.stack_to_doc(random_stack(rng, 2))
        edit(doc)
        s = tmp_path / "s.json"
        ser.save_json(str(s), doc)
        m = write_measure(tmp_path / "m.json", random_measure(rng, 2, 2))
        assert main(["forward", "--stack", str(s), "--measure", m, "--out", str(tmp_path / "y.json")]) == 1
        assert f"error: BadInputFile: ValueError: {what} must be a JSON array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            ([1.0, -1.0], [0.0, 1.0], "PointOutsideBox: box lower corner exceeds upper corner"),
            ([-1.0, -1.0], [1.0], "LengthMismatch: box corners must be 1-d vectors of equal length"),
            ([-1.0, -1.0], [1.0, 1e999], "PointOutsideBox: box corners must be finite"),
        ],
    )
    def test_bad_box_corners_exit_one(self, tmp_path, capsys, lo, hi, message):
        bad = tmp_path / "box.json"
        bad.write_text(json.dumps({"points": [[0.0, 0.0]], "weights": [1.0], "box": {"lo": lo, "hi": hi}}))
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_head_count_mismatch_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        doc = ser.stack_to_doc(random_stack(rng, 2))
        doc["layers"][0]["attention"]["heads"] = 2
        s = tmp_path / "s.json"
        ser.save_json(str(s), doc)
        m = write_measure(tmp_path / "m.json", random_measure(rng, 2, 2))
        assert main(["forward", "--stack", str(s), "--measure", m, "--out", str(tmp_path / "y.json")]) == 1
        assert capsys.readouterr().err == "error: LengthMismatch: head count does not match per_head entries\n"

    def test_empty_measure_file_exits_one(self, tmp_path, capsys):
        doc = ser.measure_to_doc(ic.dirac([0.0]))
        doc.update(points=[], weights=[])
        empty = tmp_path / "empty.json"
        ser.save_json(str(empty), doc)
        assert main(["w1", "--a", str(empty), "--b", str(empty)]) == 1
        assert capsys.readouterr().err.startswith("error: EmptyMeasure")

    def test_missing_file_exits_one(self, capsys):
        assert main(["w1", "--a", "/nonexistent.json", "--b", "/nonexistent.json"]) == 1
        assert "FileNotFound" in capsys.readouterr().err

    def test_euler_flow_command(self, tmp_path):
        rng = np.random.default_rng(8)
        s = write_stack(tmp_path / "s.json", random_stack(rng, 1))
        m = write_measure(tmp_path / "m.json", random_measure(rng, 2, 1))
        out = tmp_path / "tr.csv"
        code = main(["flow", "--stack", s, "--measure", m, "--T", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,atom_index,x_1,weight"
        assert len(lines) == 1 + 5 * 2


def _subcommand_argv(command, tmp_path, stack, mu):
    """argv running ``command`` on the stack (or its first layer) and the measure."""
    s = write_stack(tmp_path / "s.json", stack)
    m = write_measure(tmp_path / "m.json", mu)
    out = str(tmp_path / "out")
    if command == "forward-tokens":
        t = tmp_path / "t.json"
        ser.save_json(str(t), ser.tokens_to_doc(ic.new_tokens(mu.points)))
        return ["forward-tokens", "--stack", s, "--tokens", str(t), "--out", out]
    if command == "depth-limit":
        layer = stack.layers[0]
        base = tmp_path / "base.json"
        doc = {"attention": ser.attention_to_doc(layer.attention), "mlp": ser.mlp_to_doc(layer.mlp)}
        ser.save_json(str(base), doc)
        return ["depth-limit", "--base", str(base), "--measure", m, "--Ts", "2", "--out", out]
    if command == "extract-g":
        return ["extract-g", "--map", f"stack:{s}", "--measure", m, "--x", ",".join(["0.1"] * mu.dim)]
    if command == "forward":
        return ["forward", "--stack", s, "--measure", m, "--out", out]
    return ["flow", "--stack", s, "--measure", m, "--T", "2", "--out", out]


class TestDimensionMismatch:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("command", ["forward", "forward-tokens", "flow", "depth-limit", "extract-g"])
    def test_input_of_another_dimension_exits_one(self, tmp_path, capsys, command, dim):
        rng = np.random.default_rng(30)
        argv = _subcommand_argv(command, tmp_path, random_stack(rng, 2), random_measure(rng, 3, dim))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch: points of dimension "), err

    def test_matching_dimension_still_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(30)
        for command in ["forward", "forward-tokens", "flow", "depth-limit", "extract-g"]:
            assert main(_subcommand_argv(command, tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))) == 0


class TestNonFiniteSizes:
    def test_zero_depth_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        argv = _subcommand_argv("depth-limit", tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))
        argv[argv.index("--Ts") + 1] = "0"
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: TooFewTimePoints: ")

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_one(self, tmp_path, capsys, eps):
        m = write_measure(tmp_path / "m.json", ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5]))
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "0.7,0.2", "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonpositiveWeight: eps must be positive and finite")


class TestDocumentDim:
    def test_measure_dim_must_match_points(self, tmp_path, capsys):
        doc = ser.measure_to_doc(ic.new_discrete([[0.1, 0.2]], [1.0]))
        doc["dim"] = 3
        a = tmp_path / "a.json"
        ser.save_json(str(a), doc)
        assert main(["w1", "--a", str(a), "--b", str(a)]) == 1
        assert capsys.readouterr().err.startswith("error: LengthMismatch: the document says dim 3")

    def test_tokens_dim_must_match_tokens(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(32), 2))
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"dim": 2, "tokens": 5})
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(tmp_path / "u.json")]) == 1
        assert capsys.readouterr().err.startswith("error: LengthMismatch: the document says dim 2")
