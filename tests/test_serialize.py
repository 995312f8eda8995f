import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import incontext as ic
from incontext import serialize as ser
from incontext.cli import _trajectory_blocks, main
from incontext.errors import BadInputFile
from incontext.vlasov import Trajectory

from helpers import random_attention, random_measure, random_mlp, random_stack, reference_emit, reference_flow_csv

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestFloatFormat:
    def test_seventeen_digit_roundtrip(self):
        for x in (1.0, 1 / 3, math.pi, 1e-300, -2.5e17, 0.1):
            assert float(ser.fmt(x)) == x

    def test_integers_stay_short(self):
        assert ser.fmt(1.0) == "1"
        assert ser.fmt(-4.0) == "-4"


class TestFloatArrays:
    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 1e16, -1e16, 0.1, 1.0]

    def test_special_values_match_the_recursive_emitter(self):
        vec = np.array(self.SPECIAL)
        every_rank = (vec[6].reshape(()), vec[:8].reshape(2, 2, 2), vec[:8].reshape(2, 1, 2, 2).transpose(3, 1, 2, 0))
        for value in (vec, vec.reshape(1, -1), vec.reshape(-1, 1), vec[::-2], vec.reshape(-1, 1).T, *every_rank):
            assert ser.dumps(value) == reference_emit(value) + "\n"
        assert ser.dumps(np.array(-0.0)) == "-0\n"

    def test_empty_arrays_match_the_recursive_emitter(self):
        for shape in [(0,), (0, 4), (3, 0), (0, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0)]:
            value = np.empty(shape)
            assert ser.dumps({"a": value}) == reference_emit({"a": value}) + "\n"

    def test_random_measure_documents_match_the_recursive_emitter(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            mu = random_measure(rng, 256, 4)
            doc = ser.measure_to_doc(mu)
            assert ser.dumps(doc) == reference_emit(doc) + "\n"
            pts = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(256, 4))
            assert ser.dumps(pts) == reference_emit(pts) + "\n"

    def test_other_dtypes_and_ranks_keep_their_form(self):
        for value in (np.arange(6).reshape(2, 3), np.ones((2, 2, 2)), np.array([True, False]), np.float32([0.1])):
            assert ser.dumps(value) == reference_emit(value) + "\n"


class TestJsonDocs:
    def test_measure_roundtrip(self):
        rng = np.random.default_rng(0)
        mu = ic.canonicalize(random_measure(rng, 5, 3))
        doc = json.loads(ser.dumps(ser.measure_to_doc(mu)))
        back = ser.measure_from_doc(doc)
        assert back == mu

    def test_a_value_it_cannot_write_is_a_program_fault(self):
        # no domain error: cli.main would report it as a bad input and exit 1
        with pytest.raises(TypeError, match="^cannot serialize value of type object$"):
            ser.dumps({"x": object()})

    BOX = '"box": {"lo": [-1e21], "hi": [1e21]}'

    def test_integers_beyond_int64_read_as_floats(self):
        doc = json.loads('{"points": [[100000000000000000000], [-1.5]], "weights": [1, 2], ' + self.BOX + "}")
        assert np.array_equal(ser.measure_from_doc(doc).points, [[1e20], [-1.5]])

    def test_an_integer_beyond_the_float_range_is_bad_input(self):
        doc = json.loads('{"points": [[1' + "0" * 400 + ']], "weights": [1], ' + self.BOX + "}")
        with pytest.raises(BadInputFile, match="^points holds an integer beyond the float range$"):
            ser.measure_from_doc(doc)

    def test_tokens_roundtrip(self):
        seq = ic.new_tokens([[0.1, 0.2], [0.1, 0.2], [-1.0, 2.0]])
        doc = json.loads(ser.dumps(ser.tokens_to_doc(seq)))
        back = ser.tokens_from_doc(doc)
        assert np.array_equal(back.tokens, seq.tokens)

    def test_attention_roundtrip(self):
        rng = np.random.default_rng(1)
        params = random_attention(rng, 2, heads=2, key_dim=3)
        doc = json.loads(ser.dumps(ser.attention_to_doc(params)))
        back = ser.attention_from_doc(doc)
        assert back.key_dim == params.key_dim
        for h0, h1 in zip(params.heads, back.heads):
            for a, b in ((h0.q, h1.q), (h0.k, h1.k), (h0.v, h1.v), (h0.w, h1.w)):
                assert np.array_equal(a, b)

    def test_mlp_roundtrip(self):
        rng = np.random.default_rng(2)
        params = random_mlp(rng, 2)
        back = ser.mlp_from_doc(json.loads(ser.dumps(ser.mlp_to_doc(params))))
        assert back.skip == params.skip
        assert back.activation == params.activation
        assert np.array_equal(back.layers[0][0], params.layers[0][0])

    def test_stack_roundtrip_with_scale(self):
        rng = np.random.default_rng(3)
        stack = ic.scaled_stack(random_attention(rng, 2), random_mlp(rng, 2), 4)
        back = ser.stack_from_doc(json.loads(ser.dumps(ser.stack_to_doc(stack))))
        assert back.depth == 4
        assert back.layers[0].scale == 0.25

    def test_plan_doc(self):
        a = ic.new_discrete([[0.0], [2.0]], [0.5, 0.5])
        b = ic.new_discrete([[1.0], [3.0]], [0.5, 0.5])
        doc = ser.plan_to_doc(ic.w1_matching(a, b))
        assert doc["cost"] == 1.0
        assert len(doc["flows"]) == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_plan_doc_matches_the_recursive_emitter(self, d):
        # the flows as one JSON object each, in plan order
        rng = np.random.default_rng(13)
        plan = ic.w1_matching(random_measure(rng, 40, d).normalized(), random_measure(rng, 30, d).normalized())
        flows = [{"source": i, "target": j, "mass": m} for i, j, m in zip(plan.source, plan.target, plan.mass)]
        assert ser.dumps(ser.plan_to_doc(plan)) == reference_emit({"cost": plan.cost, "flows": flows}) + "\n"


class TestCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        ser.write_csv(str(path), ["a", "b"], [[1, 0.5], [2, 0.25]])
        text = path.read_bytes().decode()
        assert text == "a,b\n1,0.5\n2,0.25\n"


class TestFloatBlocks:
    """A block of lines formatted by one ``"%.17g"`` format call reads, byte for byte, as ``fmt``."""

    @PROPERTY
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    @example(float("inf"))
    @example(float("-inf"))
    @example(float("nan"))
    @example(1e-300)
    @example(2.0**53)
    def test_percent_format_is_fmt(self, x):
        assert "%.17g" % x == ser.fmt(x)

    def test_percent_format_is_fmt_on_random_bit_patterns(self):
        # every exponent, both signs, subnormals and NaN payloads
        bits = np.random.default_rng(52).integers(0, 2**64, size=100_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist()
        assert ("%.17g," * len(values)) % tuple(values) == "".join([ser.fmt(x) + "," for x in values])

    @PROPERTY
    @given(st.integers(0, 2**53))
    def test_integral_floats_read_as_their_integer(self, i):
        assert "%.17g" % float(i) == str(i)

    def test_block_equals_its_rows_cell_by_cell(self, tmp_path):
        # a block is text formatted by one "%.17g" call per step, written as it is
        cells = [[0.0, 1, -0.0, 1e-300], [0.5, 2, 5e-324, -1 / 3], [1.0, 3, -1e308, float("nan")]]
        text = ("%.17g,%d,%.17g,%.17g\n" * 3) % tuple(c for row in cells for c in row)
        ser.write_csv(str(tmp_path / "a.csv"), ["t", "i", "x", "w"], [text[:20], text[20:]])
        ser.write_csv(str(tmp_path / "b.csv"), ["t", "i", "x", "w"], cells)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_mixed_rows_keep_their_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        ser.write_csv(str(path), ["a", "b"], [["x", 0.5], "1,-0\n", [2, 0.25]])
        assert path.read_text() == "a,b\nx,0.5\n1,-0\n2,0.25\n"


# coordinates with signed zeros, subnormals and the ends of the float range;
# weights of 17 significant digits, down to the least subnormal
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
WEIGHTS = st.one_of(
    st.sampled_from([5e-324, 0.1, 1 / 3, 0.30000000000000004, 1e308]),
    st.floats(5e-324, 1e308),
)


class TestFlowCsv:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(1, 20), st.integers(1, 5), st.data())
    def test_any_trajectory_matches_the_cell_writer(self, tmp_path_factory, d, n, steps, data):
        points = data.draw(arrays(np.float64, (steps + 1, n, d), elements=COORDINATES))
        weights = data.draw(arrays(np.float64, n, elements=WEIGHTS))
        traj = Trajectory(np.arange(steps + 1) * (1.0 / steps), points, weights, ic.default_box(d))
        path = tmp_path_factory.getbasetemp() / "flow-property.csv"
        header = ["t", "atom_index"] + [f"x_{i + 1}" for i in range(d)] + ["weight"]
        ser.write_csv(str(path), header, _trajectory_blocks(traj))
        assert path.read_text() == reference_flow_csv(traj)

    def test_trajectory_with_signed_zero_and_tiny_values_matches_the_cell_writer(self, tmp_path):
        points = np.array(
            [[[-0.0, 1e-300], [0.5, -5e-324]], [[1e-300, -0.0], [-1e308, 1 / 3]], [[0.0, 2.5], [-2.5, 1e16]]]
        )
        weights = np.array([1e-300, 0.75])
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), points, weights, ic.default_box(2))
        path = tmp_path / "t.csv"
        ser.write_csv(str(path), ["t", "atom_index", "x_1", "x_2", "weight"], _trajectory_blocks(traj))
        assert path.read_text() == reference_flow_csv(traj)
        assert ",-0," in path.read_text() and ",1e-300," in path.read_text()

    def test_flow_command_matches_the_cell_writer(self, tmp_path):
        rng = np.random.default_rng(51)
        stack = random_stack(rng, 2, depth=2)
        mu = ic.new_discrete(rng.uniform(-1.0, 1.0, (5, 2)) * [1.0, 1e-300], rng.uniform(0.2, 1.0, 5))
        ser.save_json(str(tmp_path / "s.json"), ser.stack_to_doc(stack))
        ser.save_json(str(tmp_path / "m.json"), ser.measure_to_doc(mu))
        for integrator, flow in (("euler", ic.euler_flow), ("rk4", ic.rk4_flow)):
            out = tmp_path / f"{integrator}.csv"
            argv = ["flow", "--stack", str(tmp_path / "s.json"), "--measure", str(tmp_path / "m.json")]
            assert main(argv + ["--T", "7", "--integrator", integrator, "--out", str(out)]) == 0
            traj = flow(ic.VelocityField.from_stack(stack), mu, 7)
            assert out.read_text() == reference_flow_csv(traj)
