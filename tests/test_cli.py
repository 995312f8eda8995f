import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import incontext as ic
from incontext import cli, selftest
from incontext import serialize as ser
from incontext.cli import main
from incontext.errors import OutOfDomain

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

    def test_empty_plan_path_exits_one(self, tmp_path, capsys):
        # like forward --out "": an empty path names no file to write
        rng = np.random.default_rng(0)
        a = write_measure(tmp_path / "a.json", random_measure(rng, 3, 2, uniform=True))
        b = write_measure(tmp_path / "b.json", random_measure(rng, 3, 2, uniform=True))
        assert main(["w1", "--a", a, "--b", b, "--plan", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FileNotFound: "), captured.err

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

    def test_box_of_another_dimension_exits_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(35), 2))
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"tokens": [[0.5, 0.5], [0.25, -0.5]], "box": {"lo": [-1.0], "hi": [1.0]}})
        out = tmp_path / "u.json"
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LengthMismatch: box dimension 1 vs tokens of shape (2, 2)\n"
        assert not out.exists()

    def test_overflowing_stack_exits_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", overflowing_stack())
        m = write_measure(tmp_path / "m.json", ic.new_discrete(OVERFLOW_POINTS, [0.2, 0.3, 0.5]))
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


# VmHWM is the peak resident memory of this program; ru_maxrss would also
# count the parent's resident memory at the fork
RSS_GROWTH_MAIN = (
    "import sys\n"
    "from incontext.cli import main\n"
    "def kib(field):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(line.split()[1]) for line in fh if line.startswith(field))\n"
    "before = kib('VmRSS:')\n"
    "code = main(sys.argv[1:])\n"
    "print(code, (kib('VmHWM:') - before) * 1024)\n"
)


def flow_rss_growth(tmp_path, steps):
    """Run ``flow`` on 16 atoms in d = 2, one child process per step count, all
    at once; return each child's exit code and the bytes by which its peak
    resident memory exceeds its resident memory before ``main``.  The field is
    zero: a layer's work allocates nothing that outlives its step."""
    s, m = tmp_path / "s.json", tmp_path / "m.json"
    ser.save_json(str(s), {"dim": 2, "layers": []})
    write_measure(m, random_measure(np.random.default_rng(61), 16, 2))
    procs = {
        T: subprocess.Popen(
            [sys.executable, "-c", RSS_GROWTH_MAIN, "flow", "--stack", str(s), "--measure", str(m),
             "--T", str(T), "--out", str(tmp_path / f"y{T}.csv")],
            env=src_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        for T in steps
    }
    return {T: tuple(int(v) for v in proc.communicate()[0].split()) for T, proc in procs.items()}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads resident memory from /proc")
def test_flow_csv_memory_is_bounded_in_the_step_count(tmp_path):
    # the (T + 1, n, d) path is the only array that grows with T; the CSV is
    # written one time step at a time (a list of all rows took 221 MiB at T = 40,000)
    n, d = 16, 2
    growth = flow_rss_growth(tmp_path, (5_000, 20_000))
    for T, (code, grown) in growth.items():
        assert code == 0
        assert grown <= (T + 1) * n * d * 8 + 4 * 2**20, (T, grown)
    assert growth[20_000][1] - growth[5_000][1] <= 15_000 * n * d * 8 + 2 * 2**20, growth


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

    def test_each_check_draws_from_its_own_generator(self, monkeypatch):
        draws = []
        monkeypatch.setattr(selftest, "CHECKS", [(name, lambda rng: draws.append(rng.random(3))) for name in "ab"])
        assert selftest.run_self_test(5)
        want = np.random.default_rng(5).random(3)
        assert len(draws) == 2 and all(np.array_equal(d, want) for d in draws)

    def test_a_check_that_raises_another_error_fails_by_its_type(self, capsys, monkeypatch):
        def check(rng):
            raise OutOfDomain("no such point")

        monkeypatch.setattr(selftest, "CHECKS", [("probe", check)])
        assert main(["self-test"]) == 1
        assert capsys.readouterr().out == "FAIL probe: OutOfDomain: no such point\n"

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
        procs = [
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
        # read every process before the first assertion, so a failed one leaves no pipe open
        alone = [(*proc.communicate(), proc.returncode) for proc in procs]
        assert [code for _, _, code in in_one] == [0, 2, 0, 0, 2, 0]
        for argv, got, want in zip(calls, in_one, alone):
            assert got == want, argv


BAD = "BadInputFile: "


def _attention(doc):
    return doc["layers"][0]["attention"]


def _head(doc):
    return _attention(doc)["per_head"][0]


def _mlp(doc):
    return doc["layers"][0]["mlp"]


# a required key: the subcommand, its input file that lacks the key and the path to the object holding it
MISSING_KEYS = [
    *[("forward", "m.json", (), key) for key in ("points", "weights", "box")],
    *[("forward", "m.json", ("box",), key) for key in ("lo", "hi")],
    ("forward-tokens", "t.json", (), "tokens"),
    *[("forward", "s.json", (), key) for key in ("dim", "layers")],
    *[("forward", "s.json", ("layers", 0), key) for key in ("attention", "mlp")],
    *[("forward", "s.json", ("layers", 0, "attention"), key) for key in ("per_head", "heads", "key_dim")],
    ("forward", "s.json", ("layers", 0, "attention", "per_head", 0), "Q"),
    ("forward", "s.json", ("layers", 0, "mlp"), "skip"),
    ("forward", "s.json", ("layers", 0, "mlp", "layers", 0), "A"),
    *[("depth-limit", "base.json", (), key) for key in ("attention", "mlp")],
]


class TestBadInputs:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert "BadInputFile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data", [b"[" * 100000 + b"]" * 100000, b'{"points": "\xff"}'], ids=["deep-nesting", "not-utf-8"]
    )
    def test_undecodable_document_exits_one(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        b = write_measure(tmp_path / "b.json", ic.dirac([0.0]))
        assert main(["w1", "--a", str(bad), "--b", b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: BadInputFile: cannot decode the document in {bad}: ")
        assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize(
        "command, name, path, key", MISSING_KEYS, ids=[f"{name[:-5]}-{key}" for _, name, _, key in MISSING_KEYS]
    )
    def test_missing_key_exits_one(self, tmp_path, capsys, command, name, path, key):
        rng = np.random.default_rng(35)
        argv = _subcommand_argv(command, tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))
        doc = json.loads((tmp_path / name).read_text())
        owner = doc
        for step in path:
            owner = owner[step]
        del owner[key]
        (tmp_path / name).write_text(json.dumps(doc))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: BadInputFile: missing key {key!r}\n")
        assert not (tmp_path / "out").exists()

    def test_a_value_error_from_a_subcommand_leaves_main(self, monkeypatch):
        # a ValueError that escapes a subcommand is a program fault, not a bad input file
        def fault(args):
            raise ValueError("a program fault")

        monkeypatch.setitem(cli._DISPATCH, "w1", fault)
        with pytest.raises(ValueError, match="^a program fault$"):
            main(["w1", "--a", "a.json", "--b", "b.json"])

    def test_non_object_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        b = write_measure(tmp_path / "b.json", ic.dirac([0.0]))
        assert main(["w1", "--a", str(bad), "--b", b]) == 1
        assert "error: BadInputFile: the document in" in capsys.readouterr().err

    def test_non_object_box_exits_one(self, tmp_path, capsys):
        doc = ser.measure_to_doc(ic.dirac([0.0]))
        doc["box"] = 5
        bad = tmp_path / "box.json"
        ser.save_json(str(bad), doc)
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert "error: BadInputFile: box must be a JSON object" in capsys.readouterr().err

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
        assert f"error: BadInputFile: {what} must be a JSON object" in capsys.readouterr().err

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
        assert f"error: BadInputFile: {what} must be a JSON array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            ([1.0, -1.0], [0.0, 1.0], "PointOutsideBox: box lower corner exceeds upper corner"),
            ([-1.0, -1.0], [1.0], "LengthMismatch: box corners must be 1-d vectors of equal length"),
            ([-1.0, -1.0], [1.0, 1e999], "PointOutsideBox: box corners must be finite"),
            ({}, [1.0, 1.0], f"{BAD}box lo must be numeric, got dict"),
        ],
    )
    def test_bad_box_corners_exit_one(self, tmp_path, capsys, lo, hi, message):
        bad = tmp_path / "box.json"
        bad.write_text(json.dumps({"points": [[0.0, 0.0]], "weights": [1.0], "box": {"lo": lo, "hi": hi}}))
        assert main(["w1", "--a", str(bad), "--b", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: _mlp(doc).update(skip=[1]), f"{BAD}skip must be a number, got an array"),
            (lambda doc: _attention(doc).update(heads=[1]), f"{BAD}heads must be a number, got an array"),
            (lambda doc: doc["layers"][0].update(scale=[1]), f"{BAD}scale must be a number, got an array"),
            (lambda doc: doc.update(dim=None), f"{BAD}dim must be numeric, got NoneType"),
            (lambda doc: doc.update(dim=1.5), f"{BAD}dim must be an integer, got 1.5"),
            (lambda doc: _head(doc).update(Q={}), f"{BAD}Q must be numeric, got dict"),
            (lambda doc: _head(doc).update(Q=[[1], [1, 2]]), f"{BAD}Q must be a rectangular array of numbers"),
            (lambda doc: _head(doc).update(Q=1), "DimensionMismatch: attention matrices must be 2-d"),
            (lambda doc: _head(doc).update(Q=[0.1]), "DimensionMismatch: attention matrices must be 2-d"),
            (
                lambda doc: _mlp(doc)["layers"][0].update(A=1),
                "DimensionMismatch: each MLP layer needs a 2-d matrix A and a 1-d bias b",
            ),
            (lambda doc: _mlp(doc).update(activation=[1]), f"{BAD}activation must be a JSON string, got list"),
            (lambda doc: _mlp(doc).update(activation=None), f"{BAD}activation must be a JSON string, got NoneType"),
        ],
    )
    def test_mistyped_stack_field_exits_one(self, tmp_path, capsys, edit, message):
        rng = np.random.default_rng(16)
        doc = ser.stack_to_doc(random_stack(rng, 2))
        edit(doc)
        s = tmp_path / "s.json"
        ser.save_json(str(s), doc)
        m = write_measure(tmp_path / "m.json", random_measure(rng, 2, 2))
        assert main(["forward", "--stack", str(s), "--measure", m, "--out", str(tmp_path / "y.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"points": [[0.5]], "weights": {"a": 1}, "box": {"lo": [-1.0], "hi": [1.0]}},
                f"{BAD}weights must be numeric, got dict",
            ),
            (
                {"points": [[[0.5, 0.2]], [[0.1, 0.3]]], "weights": [0.5, 0.5], "box": {"lo": [-1.0], "hi": [1.0]}},
                "LengthMismatch: points must form an (n, d) array, got shape (2, 1, 2)",
            ),
        ],
    )
    def test_mistyped_measure_exits_one(self, tmp_path, capsys, doc, message):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(doc))
        assert main(["w1", "--a", str(a), "--b", str(a)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mistyped_tokens_exit_one(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(17), 2))
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"tokens": {}}))
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(tmp_path / "u.json")]) == 1
        assert capsys.readouterr().err == f"error: {BAD}tokens must be numeric, got dict\n"

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


NAN, INF = float("nan"), float("inf")


class TestErrorBranches:
    """One run per error branch of the package that the CLI reaches and no
    other test runs: exit 1 and exactly its error line.  ``{m}``, ``{s}``,
    ``{t}`` and ``{out}`` in the arguments stand for a 2-d measure, a 2-d
    stack, a 2-d token sequence (each after ``edit``) and an output file."""

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (
                "extract-g --map foo --measure {m} --x 0.1,0.2",
                None,
                "DomainError: unknown map name 'foo'",
            ),
            (
                "extract-g --map identity --measure {m} --x 0.1,0.2,0.3",
                None,
                "LengthMismatch: atom dimension does not match the measure",
            ),
            (
                "w1 --a {m} --b {m}",
                lambda d: d["m"].update(points=[[NAN, 0.0], [0.5, 0.5]]),
                "PointOutsideBox: points must be finite",
            ),
            (
                "w1 --a {m} --b {m}",
                lambda d: d["m"].update(box={"lo": [-3.0] * 3, "hi": [3.0] * 3}),
                "LengthMismatch: box dimension 3 vs point dimension 2",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _attention(d["s"]).update(heads=0, per_head=[]),
                "LengthMismatch: attention needs at least one head",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _head(d["s"]).update(Q=[[0.1, 0.2]] * 3),
                "DimensionMismatch: query/key matrices must be key_dim x d",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _head(d["s"]).update(W=[[1.0]]),
                "DimensionMismatch: value/output matrices have inconsistent shapes",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _head(d["s"]).update(V=[[NAN, 0.0], [0.0, 1.0]]),
                "DimensionMismatch: attention matrices must be finite",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _mlp(d["s"])["layers"][0].update(b=[INF, 0.0]),
                "DimensionMismatch: MLP matrices must be finite",
            ),
            (
                "flow --stack {s} --measure {m} --T 2 --out {out}",
                lambda d: _mlp(d["s"])["layers"][0]["A"][1].__setitem__(0, NAN),
                "DimensionMismatch: MLP matrices must be finite",
            ),
            (
                "extract-g --map stack:{s} --measure {m} --x 0.1,0.2",
                lambda d: _mlp(d["s"])["layers"][0].update(b=[0.0, -INF]),
                "DimensionMismatch: MLP matrices must be finite",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _mlp(d["s"]).update(skip=NAN),
                "OutOfDomain: MLP skip must be finite, got nan",
            ),
            (
                "flow --stack {s} --measure {m} --T 2 --out {out}",
                lambda d: d["s"]["layers"][0].update(scale=NAN),
                "OutOfDomain: layer scale must be finite, got nan",
            ),
            (
                "extract-g --map stack:{s} --measure {m} --x 0.1,0.2",
                lambda d: d["s"]["layers"][0].update(scale=INF),
                "OutOfDomain: layer scale must be finite, got inf",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _mlp(d["s"]).update(activation="relu"),
                "LengthMismatch: unknown activation 'relu'",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _mlp(d["s"]).update(layers=[{"A": [[0.1, 0.2]] * 3, "b": [0.0] * 3}]),
                "DimensionMismatch: MLP must map back to its input dimension",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: d["s"].update(dim=3),
                "DimensionMismatch: layer dimension 2 != stack dimension 3",
            ),
            (
                "forward --stack {s} --measure {m} --out {out}",
                lambda d: _mlp(d["s"]).update(layers=[{"A": [[0.1, 0.2, 0.3]] * 3, "b": [0.0] * 3}]),
                "DimensionMismatch: MLP dimension does not match the stack",
            ),
            (
                "flow --stack {s} --measure {m} --T 0 --integrator rk4 --out {out}",
                None,
                "TooFewTimePoints: need at least one RK4 step",
            ),
            (
                "counterexample --mmax 1 --out {out}",
                None,
                "OutOfDomain: scan needs m_max >= 2",
            ),
            (
                "flow --stack {s} --measure {m} --T 1 --out {out}",
                lambda d: d["m"].update(weights=[[0.5, 0.5]]),
                "LengthMismatch: weights must form an (n,) array, got shape (1, 2)",
            ),
            (
                "forward-tokens --stack {s} --tokens {t} --out {out}",
                lambda d: d["t"].update(tokens=[[NAN, 0.0], [0.5, 0.5]], box={"lo": [-3.0] * 2, "hi": [3.0] * 2}),
                "PointOutsideBox: tokens must be finite",
            ),
            (
                "forward-tokens --stack {s} --tokens {t} --out {out}",
                lambda d: d["t"].update(tokens=[[NAN, 0.0], [0.5, 0.5]]),
                "PointOutsideBox: tokens must be finite",
            ),
        ],
        ids=[
            "unknown-map", "probe-dim", "nan-point", "box-dim", "no-head", "query-shape", "output-shape",
            "nan-matrix", "inf-mlp-bias", "nan-mlp-matrix-flow", "inf-mlp-bias-extract", "nan-skip", "nan-scale-flow",
            "inf-scale-extract", "activation", "mlp-dim-change", "stack-dim", "mlp-stack-dim", "rk4-steps", "mmax",
            "weights-2d", "nan-token-in-box", "nan-token-default-box",
        ],
    )
    def test_exits_one_naming_the_error(self, tmp_path, capsys, argv, edit, message):
        rng = np.random.default_rng(33)
        docs = {
            "m": ser.measure_to_doc(random_measure(rng, 2, 2)),
            "s": ser.stack_to_doc(random_stack(rng, 2)),
            "t": ser.tokens_to_doc(ic.new_tokens([[0.1, 0.2], [0.3, 0.4]])),
        }
        docs = {k: json.loads(ser.dumps(doc)) for k, doc in docs.items()}  # plain JSON values, NaN allowed
        if edit is not None:
            edit(docs)
        paths = {"out": str(tmp_path / "out")}
        for k, doc in docs.items():
            paths[k] = str(tmp_path / f"{k}.json")
            Path(paths[k]).write_text(json.dumps(doc))
        assert main([arg.format(**paths) for arg in argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from incontext.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_limited(*argv):
    """The CLI on ``argv`` in a fresh interpreter whose address space is capped at 2 GiB."""
    return subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv], env=src_env(), capture_output=True, text=True)


class TestResourceErrors:
    def test_a_directory_in_place_of_a_file_exits_one(self, tmp_path, capsys):
        m = write_measure(tmp_path / "m.json", ic.dirac([0.0]))
        for argv in (["counterexample", "--mmax", "2", "--out", str(tmp_path)], ["w1", "--a", str(tmp_path), "--b", m]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: FileAccess: IsADirectoryError: "), argv

    def test_failed_allocations_exit_one(self, tmp_path):
        rng = np.random.default_rng(33)
        s = write_stack(tmp_path / "s.json", random_stack(rng, 1))
        few = write_measure(tmp_path / "few.json", random_measure(rng, 8, 1))
        done = run_limited("flow", "--stack", s, "--measure", few, "--T", "100000000", "--out", str(tmp_path / "f.csv"))
        assert (done.returncode, done.stdout) == (1, ""), done.stderr
        assert done.stderr.startswith("error: OutOfMemory: ") and done.stderr.count("\n") == 1, done.stderr

    def test_extract_on_many_atoms_runs_in_bounded_memory(self, tmp_path):
        # the (n, n + 1) distance matrices of a 10,000-atom extraction took 763 MiB each
        n = 10000
        grid = ic.new_discrete(np.linspace(-2.5, 2.5, n)[:, None], np.full(n, 1.0 / n))
        m = write_measure(tmp_path / "grid.json", grid)
        done = run_limited("extract-g", "--map", "identity", "--measure", m, "--x", "0.1")
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        value, eps_line = done.stdout.splitlines()
        assert abs(float(value) - 0.1) <= 1e-10 and eps_line == "eps_used 9.9999999999999995e-07"

    def test_forward_on_many_atoms_runs_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(34)
        s = write_stack(tmp_path / "s.json", random_stack(rng, 1))
        m = write_measure(tmp_path / "m.json", random_measure(rng, 12000, 1))
        done = run_limited("forward", "--stack", s, "--measure", m, "--out", str(tmp_path / "y.json"))
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        assert ser.measure_from_doc(ser.load_json(str(tmp_path / "y.json"))).dim == 1


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

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("command", ["forward", "forward-tokens", "flow", "extract-g"])
    def test_empty_stack_of_another_dimension_exits_one(self, tmp_path, capsys, command, dim):
        rng = np.random.default_rng(30)
        argv = _subcommand_argv(command, tmp_path, ic.LayerStack((), dim), random_measure(rng, 3, 2))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: DimensionMismatch: points of dimension 2 meet a matrix of width {dim}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "command, option, message",
        [
            ("flow", "--T", "a flow path of {} steps exceeds the address space"),
            ("depth-limit", "--Ts", "a stack of depth {} exceeds the address space"),
        ],
    )
    def test_thirty_digit_count_exits_one(self, tmp_path, capsys, command, option, message):
        rng = np.random.default_rng(31)
        argv = _subcommand_argv(command, tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))
        count = "1" + "0" * 29
        argv[argv.index(option) + 1] = count
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: ProblemTooLarge: {message.format(count)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depths", [",", ",,", ""])
    def test_no_depth_exits_one(self, tmp_path, capsys, depths):
        rng = np.random.default_rng(31)
        argv = _subcommand_argv("depth-limit", tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))
        argv[argv.index("--Ts") + 1] = depths
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: TooFewTimePoints: --Ts {depths!r} names no depth\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("extract-g", "--x", "0.1,abc"),
            ("extract-g", "--x", "1e400x"),
            ("depth-limit", "--Ts", "4,x"),
            ("depth-limit", "--Ts", "2.5"),
        ],
    )
    def test_malformed_list_entry_is_a_usage_error(self, tmp_path, capsys, command, option, value):
        rng = np.random.default_rng(31)
        argv = _subcommand_argv(command, tmp_path, random_stack(rng, 2), random_measure(rng, 3, 2))
        argv[argv.index(option) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        kind = "float" if option == "--x" else "int"
        assert captured.err.endswith(f"error: argument {option}: invalid comma-separated {kind} value: {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_one(self, tmp_path, capsys, eps):
        m = write_measure(tmp_path / "m.json", ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5]))
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "0.7,0.2", "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonpositiveWeight: eps must be positive and finite")

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_probe_point_exits_one(self, tmp_path, capsys, x):
        m = write_measure(tmp_path / "m.json", ic.new_discrete([[0.1], [1.2]], [0.5, 0.5]))
        assert main(["extract-g", "--map", "identity", "--measure", m, f"--x={x}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: PointOutsideBox: added atom [{float(x)}] must be finite\n"


class TestOverflowingMass:
    """Weights whose total mass overflows end as NonpositiveWeight, exit 1,
    with the error line alone on stderr: no overflow warning, and no run on
    a measure of infinite mass."""

    @pytest.mark.parametrize("command", ["forward", "flow", "w1", "w1-extended"])
    def test_measure_file_exits_one(self, tmp_path, capsys, command):
        pts = [[0.5, 0.1], [1.0, 0.2], [0.0, 0.0]]
        big, big3 = str(tmp_path / "big.json"), str(tmp_path / "big3.json")
        doc = {"dim": 2, "points": pts[:2], "weights": [1e308, 1e308], "box": {"lo": [-3, -3], "hi": [3, 3]}}
        ser.save_json(big, doc)
        ser.save_json(big3, dict(doc, points=pts, weights=[1e308, 1e308, 1.0]))
        p3 = write_measure(tmp_path / "p3.json", ic.new_discrete(pts, [0.3, 0.3, 0.4]))
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(33), 2))
        out = str(tmp_path / "out")
        argv = {
            "forward": ["forward", "--stack", s, "--measure", big, "--out", out],
            "flow": ["flow", "--stack", s, "--measure", big, "--T", "2", "--out", out],
            "w1": ["w1", "--a", big3, "--b", p3],
            "w1-extended": ["w1", "--a", big, "--b", p3, "--extended"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: NonpositiveWeight: weights must be strictly positive with a finite total\n"
        assert not os.path.exists(out)

    def test_probe_mass_that_overflows_the_total_exits_one(self, tmp_path, capsys):
        m = write_measure(tmp_path / "m.json", ic.new_discrete([[0.5, 0.1], [1.0, 0.2]], [1e308, 0.5]))
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "0.5,0.1", "--eps", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: NonpositiveWeight: adding mass 1e+308 leaves a total that is not finite\n"


    @pytest.mark.parametrize("weights", [[5e-324, 2.0], [1e-300, 1e300]], ids=["subnormal", "wide"])
    def test_extended_w1_on_a_weight_lost_to_normalization_exits_one(self, tmp_path, capsys, weights):
        a = write_measure(tmp_path / "a.json", ic.new_discrete([[0.0], [1.0]], weights))
        b = write_measure(tmp_path / "b.json", ic.dirac([0.5]))
        assert main(["w1", "--a", a, "--b", b, "--extended"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: NonpositiveWeight: a weight divided by the total mass rounds to 0\n"


class TestOverflowingDistances:
    """Atoms whose squared (or, in dimension one, plain) differences overflow:
    every W1 route exits 1 with ProblemTooLarge before a solver or a sum sees
    +inf, and extraction reads the overflow as "far", with nothing on stderr."""

    PAIRS = {
        "assignment": ([[1e200, 1e200], [-1e200, -1e200]], [0.5, 0.5], [[-1e200, 1e200], [1e200, -1e200]], [0.5, 0.5]),
        "lp": ([[1e200, 1e200], [-1e200, -1e200]], [0.5, 0.5], [[-1e200, 1e200], [1e200, -1e200], [0.0, 0.0]], [0.3, 0.3, 0.4]),
        "line": ([[1e308], [-1e308]], [0.5, 0.5], [[-1e308], [1e308]], [0.2, 0.8]),
    }

    @staticmethod
    def wide_measure(path, points, weights):
        half_width = 1.7e308 if len(points[0]) == 1 else 1e300
        box = ic.Box([-half_width] * len(points[0]), [half_width] * len(points[0]))
        return write_measure(path, ic.new_discrete(points, weights, box))

    # in dimension one, w1 takes the closed form and --plan the monotone plan
    @pytest.mark.parametrize("plan", [False, True], ids=["value", "plan"])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_w1_exits_one(self, tmp_path, capsys, pair, plan):
        pa, wa, pb, wb = self.PAIRS[pair]
        a, b = self.wide_measure(tmp_path / "a.json", pa, wa), self.wide_measure(tmp_path / "b.json", pb, wb)
        out = tmp_path / "plan.json"
        assert main(["w1", "--a", a, "--b", b, *(["--plan", str(out)] if plan else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ProblemTooLarge: atom distances overflow\n"
        assert not out.exists()

    @pytest.mark.parametrize("plan", [False, True], ids=["value", "plan"])
    def test_far_atoms_on_one_side_are_no_overflow(self, tmp_path, capsys, plan):
        # only distances between the two measures count: each is 1e308 here
        a = self.wide_measure(tmp_path / "a.json", [[-1e308], [1e308]], [0.5, 0.5])
        b = self.wide_measure(tmp_path / "b.json", [[0.0]], [1.0])
        assert main(["w1", "--a", a, "--b", b, *(["--plan", str(tmp_path / "plan.json")] if plan else [])]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1e+308\n" and captured.err == ""

    def test_extraction_reads_overflow_as_far(self, tmp_path, capsys):
        pa, wa, _, _ = self.PAIRS["assignment"]
        m = self.wide_measure(tmp_path / "m.json", pa, wa)
        assert main(["extract-g", "--map", "identity", "--measure", m, "--x", "0.25,-0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("0.25 -0.5\n") and captured.err == ""


class TestOverflowingCost:
    """Finite atom distances whose W1 cost overflows end in ProblemTooLarge
    before anything is printed or written, on every route; so do LPs whose
    magnitudes the solver cannot handle."""

    PAIRS = {
        "line": ([[8e307], [-8e307]], [5.0, 5.0], [[-8e307], [8e307]], [2.0, 8.0]),
        "assignment": ([[1.0, 1.0], [-1.0, -1.0]], [8e307, 8e307], [[-1.0, 1.0], [1.0, -1.0]], [8e307, 8e307]),
        "lp": (
            [[1.0, 1.0], [-1.0, -1.0]], [8e307, 8e307],
            [[-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], [4.8e307, 4.8e307, 6.4e307],
        ),
    }

    @staticmethod
    def run(tmp_path, capsys, pair, plan):
        pa, wa, pb, wb = pair
        a = TestOverflowingDistances.wide_measure(tmp_path / "a.json", pa, wa)
        b = TestOverflowingDistances.wide_measure(tmp_path / "b.json", pb, wb)
        out = tmp_path / "plan.json"
        assert main(["w1", "--a", a, "--b", b, *(["--plan", str(out)] if plan else [])]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("plan", [False, True], ids=["value", "plan"])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_w1_exits_one(self, tmp_path, capsys, pair, plan):
        err = self.run(tmp_path, capsys, self.PAIRS[pair], plan)
        assert err == "error: ProblemTooLarge: the W1 cost overflows\n"

    @pytest.mark.parametrize("scale", [1e18, 1e100])
    def test_lp_the_solver_cannot_finish_is_too_large(self, tmp_path, capsys, scale):
        # the transport LP is feasible and bounded, so a solver that stops short met magnitudes it cannot handle
        pa, pb = [[scale, scale], [-scale, -scale]], [[-scale, scale], [scale, -scale], [0.0, 0.0]]
        err = self.run(tmp_path, capsys, (pa, [0.5, 0.5], pb, [0.3, 0.3, 0.4]), True)
        assert err.startswith("error: ProblemTooLarge: transport LP failed: ") and err.count("\n") == 1


class TestOverflowingAttention:
    """Attention logits, layer images or flow states that overflow end in one
    named error, with no numpy warning before it, and write no output."""

    @staticmethod
    def argv(tmp_path, case):
        rng = np.random.default_rng(36)
        out = str(tmp_path / "out")
        s = write_stack(tmp_path / "s.json", random_stack(rng, 2))
        if case == "token":
            t = tmp_path / "t.json"
            ser.save_json(str(t), {"tokens": [[1e300, 0.0], [0.0, 1.0]]})
            return ["forward-tokens", "--stack", s, "--tokens", str(t), "--out", out]
        if case == "atom":
            box = ic.Box([-1e301, -1e301], [1e301, 1e301])
            m = write_measure(tmp_path / "m.json", ic.new_discrete([[1e300, 0.0], [0.0, 1.0]], [0.5, 0.5], box))
            return ["forward", "--stack", s, "--measure", m, "--out", out]
        if case == "logits":
            s = write_stack(tmp_path / "s.json", overflowing_stack())
            m = write_measure(tmp_path / "m.json", ic.new_discrete(OVERFLOW_POINTS, [0.2, 0.3, 0.5]))
            return ["forward", "--stack", s, "--measure", m, "--out", out]
        layer = random_stack(rng, 2).layers[0]
        s = write_stack(tmp_path / "s.json", ic.LayerStack((ic.Layer(layer.attention, layer.mlp, 1e308),), 2))
        m = write_measure(tmp_path / "m.json", random_measure(rng, 3, 2))
        return ["flow", "--stack", s, "--measure", m, "--T", "2", "--out", out]

    @pytest.mark.parametrize(
        "case, error",
        [
            ("token", "MapUndefinedAtAtom"),
            ("atom", "MapUndefinedAtAtom"),
            ("logits", "MapUndefinedAtAtom"),
            ("flow", "NonFiniteState"),
        ],
    )
    def test_exits_one_without_a_warning(self, tmp_path, capsys, case, error):
        assert main(self.argv(tmp_path, case)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: "), captured.err
        assert not (tmp_path / "out").exists()


class TestDocumentDim:
    def test_measure_dim_must_match_points(self, tmp_path, capsys):
        doc = ser.measure_to_doc(ic.new_discrete([[0.1, 0.2]], [1.0]))
        doc["dim"] = 3
        a = tmp_path / "a.json"
        ser.save_json(str(a), doc)
        assert main(["w1", "--a", str(a), "--b", str(a)]) == 1
        assert capsys.readouterr().err.startswith("error: LengthMismatch: the document says dim 3")

    @pytest.mark.parametrize(
        "dim, message",
        [("2", f"{BAD}dim must be numeric, got str"), ([2], f"{BAD}dim must be a number, got an array")],
        ids=["string", "array"],
    )
    def test_measure_dim_is_read_as_an_integer(self, tmp_path, capsys, dim, message):
        doc = ser.measure_to_doc(ic.new_discrete([[0.1, 0.2]], [1.0]))
        a = tmp_path / "a.json"
        ser.save_json(str(a), dict(doc, dim=dim))
        assert main(["w1", "--a", str(a), "--b", str(a)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        ser.save_json(str(a), dict(doc, dim=2.0))
        assert main(["w1", "--a", str(a), "--b", str(a)]) == 0

    def test_tokens_dim_must_match_tokens(self, tmp_path, capsys):
        s = write_stack(tmp_path / "s.json", random_stack(np.random.default_rng(32), 2))
        t = tmp_path / "t.json"
        ser.save_json(str(t), {"dim": 2, "tokens": 5})
        assert main(["forward-tokens", "--stack", s, "--tokens", str(t), "--out", str(tmp_path / "u.json")]) == 1
        assert capsys.readouterr().err.startswith("error: LengthMismatch: the document says dim 2")
