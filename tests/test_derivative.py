import tracemalloc

import numpy as np
import pytest

import incontext as ic
from incontext.derivative import (
    MAX_PATCH_RADIUS,
    SPACING_BLOCK_ENTRIES,
    _min_spacing,
    _nearest,
    regular_derivative,
)
from incontext.errors import (
    AnchorsTooClose,
    DimensionMismatch,
    DisplacementTooLarge,
    NonpositiveWeight,
    ProbeMassLost,
)

from helpers import each_row, random_attention, random_measure, random_mlp, random_stack, reference_distances


class TestPatchedTest:
    def test_constant_near_anchor(self):
        base = ic.coordinate_test(0, ic.default_box(1))
        patched = ic.build_patched_test(base, np.array([[0.0]]), 0.1)
        for y in (0.0, 0.02, -0.05, 0.049):
            assert patched.value(np.array([y])) == 0.0
        assert patched.value(np.array([0.5])) == base.value(np.array([0.5]))

    def test_sup_deviation_bounded(self):
        rng = np.random.default_rng(0)
        base = ic.coordinate_test(0, ic.default_box(2))
        anchors = rng.uniform(-2, 2, size=(4, 2))
        r = 0.05
        patched = ic.build_patched_test(base, anchors, r)
        ys = rng.uniform(-2.5, 2.5, size=(500, 2))
        dev = max(
            abs(patched.value(y) - base.value(y)) for y in ys
        )
        assert dev <= base.lip * r + 1e-12

    def test_no_anchors_returns_base(self):
        base = ic.coordinate_test(0, ic.default_box(1))
        assert ic.build_patched_test(base, np.zeros((0, 1)), 0.1) is base

    def test_radius_shrinks_for_close_anchors(self):
        base = ic.coordinate_test(0, ic.default_box(1))
        patched = ic.build_patched_test(base, np.array([[0.0], [0.15]]), 0.2)
        assert patched.patch.radius < 0.075

    def test_too_close_anchors_raise(self):
        base = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(AnchorsTooClose):
            ic.build_patched_test(base, np.array([[0.0], [1e-9]]), 0.1)

    @pytest.mark.parametrize("r", [0.0, -0.1])
    def test_nonpositive_radius_raises(self, r):
        base = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(AnchorsTooClose, match="patch radius must be positive"):
            ic.build_patched_test(base, np.array([[0.0], [1.0]]), r)

    def test_gradient_vanishes_inside_ball(self):
        base = ic.coordinate_test(0, ic.default_box(2))
        patched = ic.build_patched_test(base, np.array([[0.5, 0.5]]), 0.1)
        g = patched.gradient(np.array([0.52, 0.5]))
        assert np.array_equal(g, np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        # central differences across the blend region confirm the ramp is C^1
        base = ic.coordinate_test(0, ic.default_box(2))
        patched = ic.build_patched_test(base, np.array([[0.5, 0.5]]), 0.2)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            y = np.array([0.5, 0.5]) + rng.uniform(-0.3, 0.3, size=2)
            grad = patched.gradient(y)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (patched.value(y + e) - patched.value(y - e)) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-6


def triu_min_spacing(points):
    """The minimum of the whole distance matrix over its strict upper triangle."""
    if points.shape[0] < 2:
        return np.inf
    return float(np.min(reference_distances(points, points)[np.triu_indices(points.shape[0], k=1)]))


class TestMinSpacing:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_the_upper_triangle_minimum_bitwise(self, d):
        rng = np.random.default_rng(40 + d)
        # one block of `side` rows at n = side, two blocks at side + 1, three at 600;
        # a repeated row gives spacing zero
        side = int(SPACING_BLOCK_ENTRIES**0.5)
        for n in (1, 2, 3, 5, 17, side, side + 1, 600):
            points = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, d))
            got, want = _min_spacing(points), triu_min_spacing(points)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, got, want)
            if n > 3:
                points[n // 2] = points[1]
                assert _min_spacing(points) == triu_min_spacing(points) == 0.0
                points[-1] = np.nan
                assert np.isnan(_min_spacing(points)) and np.isnan(triu_min_spacing(points))

    def test_memory_does_not_grow_with_the_square_of_n(self):
        points = np.random.default_rng(44).uniform(-2.5, 2.5, size=(5000, 1))
        tracemalloc.start()
        try:
            _min_spacing(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole matrix with its index pairs took 572 MiB
        assert peak < 8 * 2**20, peak


class TestNearest:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_the_dense_argmin_bitwise(self, d):
        # m = 64 columns give blocks of 1024 rows: one block at n = 1024, two
        # at 1025 and three at 3000
        rng = np.random.default_rng(70 + d)
        m = 64
        rows = SPACING_BLOCK_ENTRIES // m
        for n in (1, 5, rows, rows + 1, 3000):
            B = rng.integers(-4, 5, size=(m, d)).astype(float)
            B[m // 2 :] = B[: m - m // 2]  # every column has a twin further on
            A = rng.normal(scale=10.0 ** rng.integers(-3, 2), size=(n, d))
            # planted ties: rows on a twinned column, and 1-D midpoints of two columns
            A[::3] = B[rng.integers(0, m, size=A[::3].shape[0])]
            A[1::7, 0] = 0.5
            dense = reference_distances(A, B)
            assert (np.add.reduce(dense == dense.min(axis=1)[:, None], axis=1) > 1).any()
            want = dense.argmin(axis=1)
            index, dist = _nearest(A, B)
            assert index.dtype == np.intp and np.array_equal(index, want), n
            assert dist.tobytes() == dense[np.arange(n), want].tobytes() == dense.min(axis=1).tobytes(), n

    def test_squares_with_one_root_take_the_lowest_index(self):
        # rows (1.39, t_k) lie 1.39**2 + k ulps from the origin; three whose
        # squares share one root, listed largest first: the dense argmin of
        # the roots takes index 0, where an argmin of the squares would take 2
        A = np.zeros((1, 2))
        rows = np.column_stack([np.full(8, 1.39), np.sqrt(np.arange(8) * 2.0**-52)])
        roots = reference_distances(A, rows)[0]
        k = next(k for k in range(6) if roots[k] == roots[k + 2])
        B = rows[[k + 2, k + 1, k]]
        assert len(set(np.add.reduce(B * B, axis=1))) == 3
        index, dist = _nearest(A, B)
        assert index.tolist() == [0] and dist.tobytes() == roots[k : k + 1].tobytes()

    def test_a_nan_is_taken_where_argmin_takes_it(self):
        A = np.array([[0.0, 0.0], [np.nan, 1.0]])
        B = np.array([[1.0, 1.0], [0.5, 0.5], [np.nan, 0.0], [0.0, 0.0]])
        index, dist = _nearest(A, B)
        assert index.tolist() == reference_distances(A, B).argmin(axis=1).tolist() == [2, 0]
        assert np.isnan(dist).all()

    def test_picks_the_lowest_index_on_a_tie(self):
        index, dist = _nearest(np.array([[1.0], [3.0], [0.0]]), np.array([[0.0], [2.0], [2.0], [0.0]]))
        assert index.tolist() == [0, 1, 0] and dist.tolist() == [1.0, 1.0, 0.0]

    def test_extraction_memory_does_not_grow_with_the_square_of_n(self):
        mu = ic.new_discrete(np.linspace(-2.5, 2.5, 5000)[:, None], np.full(5000, 1 / 5000))
        f = ic.MeasureMap.identity()
        tracemalloc.start()
        try:
            values, eps_used = ic.extract_g_detailed(f, mu, np.array([0.1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(values[0] - 0.1) <= 1e-10 and eps_used == 1e-6
        # the (n, n + 1) distance matrices took 572 MiB
        assert peak < 8 * 2**20, peak


class TestCoordinateTest:
    def test_equals_projection_inside_box(self):
        box = ic.default_box(2)
        psi = ic.coordinate_test(1, box)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.uniform(-3, 3, size=2)
            assert psi.value(y) == pytest.approx(y[1], abs=0)
            assert np.allclose(psi.gradient(y), [0.0, 1.0], atol=0)

    def test_compact_support(self):
        psi = ic.coordinate_test(0, ic.default_box(2))
        far = np.array([10.0, 0.0])
        assert psi.value(far) == 0.0
        assert np.array_equal(psi.gradient(far), np.zeros(2))


class TestRegularDerivative:
    def test_identity_map_reads_coordinate(self):
        f = ic.MeasureMap.identity()
        mu = ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(2))
        x = np.array([0.7, 0.2])
        assert regular_derivative(f, mu, x, psi) == pytest.approx(0.7, abs=1e-12)

    def test_doubling_map(self):
        f = ic.MeasureMap.from_point_map(lambda p: 2.0 * p)
        got = regular_derivative(
            f, ic.dirac([0.0]), np.array([1.0]), ic.coordinate_test(0, ic.default_box(1))
        )
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_attention_layer_reads_composed_value(self):
        rng = np.random.default_rng(3)
        params = random_attention(rng, 2)
        g = ic.InContextMap.from_gamma(params)
        f = ic.MeasureMap.from_in_context(g)
        mu = random_measure(rng, 3, 2)
        psi = ic.coordinate_test(1, ic.default_box(2).enlarged(2.0))
        x = rng.uniform(-1, 1, size=2)
        got = regular_derivative(f, mu, x, psi, 1e-6)
        want = psi.value(ic.gamma(params, ic.canonicalize(mu), x))
        assert abs(got - want) <= 1e-5

    def test_linearity_in_test_function(self):
        rng = np.random.default_rng(4)
        f = ic.MeasureMap.from_stack(random_stack(rng, 2))
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        box = ic.default_box(2).enlarged(2.0)
        psi1 = ic.coordinate_test(0, box)
        psi2 = ic.coordinate_test(1, box)
        from incontext.derivative import linear_combination

        combo = linear_combination(2.0, psi1, -0.5, psi2)
        d1 = regular_derivative(f, mu, x, psi1, 1e-6)
        d2 = regular_derivative(f, mu, x, psi2, 1e-6)
        dc = regular_derivative(f, mu, x, combo, 1e-6)
        assert abs(dc - (2.0 * d1 - 0.5 * d2)) <= 1e-10

    def test_displacement_guard_triggers(self):
        # a map that teleports every image once any extra mass is added
        def jumpy(mu):
            shift = 1.0 if mu.total_mass > 1.0 else 0.0
            return ic.push_forward(mu, lambda p: p + shift)

        f = ic.MeasureMap(jumpy)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(DisplacementTooLarge):
            regular_derivative(f, mu, np.array([0.5]), psi, 1e-6)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_patch_radius_fails_before_any_map_evaluation(self, radius):
        calls = []

        def counted(mu):
            calls.append(mu)
            return ic.canonicalize(mu)

        f = ic.MeasureMap(counted)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(AnchorsTooClose, match="^patch radius must be positive$"):
            regular_derivative(f, mu, np.array([0.5]), psi, 1e-6, patch_radius=radius)
        assert calls == []

    @pytest.mark.parametrize("eps", [0.0, np.nan])
    def test_bad_eps_fails_before_any_map_evaluation(self, eps):
        calls = []

        def counted(mu):
            calls.append(mu)
            return ic.canonicalize(mu)

        f = ic.MeasureMap(counted)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(NonpositiveWeight, match="^eps must be positive and finite"):
            regular_derivative(f, mu, np.array([0.5]), psi, eps)
        assert calls == []

    def test_eps_halving_reported(self):
        # displacement shrinks with eps: the probe must settle on a smaller eps
        def touchy(mu):
            extra = mu.total_mass - 1.0
            return ic.push_forward(mu, lambda p: p + 4000.0 * extra)

        f = ic.MeasureMap(touchy)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        _, eps_used = ic.extract_g_detailed(f, mu, np.array([0.4]), 1e-5)
        assert eps_used < 1e-5


class TestExtractG:
    def test_identity(self):
        f = ic.MeasureMap.identity()
        mu = ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5])
        x = np.array([0.7, 0.2])
        assert np.allclose(ic.extract_g(f, mu, x), x, atol=1e-12)

    def test_two_layer_stack(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            stack = random_stack(rng, 2, depth=2)
            f = ic.MeasureMap.from_stack(stack)
            mu = random_measure(rng, 4, 2)
            x = rng.uniform(-1.5, 1.5, size=2)
            got = ic.extract_g(f, mu, x, 1e-6)
            want = ic.forward_map(stack, mu, x)
            assert np.max(np.abs(got - want)) <= 1e-4

    def test_light_atom_is_not_taken_for_the_probe(self):
        # atoms lighter than eps: the probe's image is told by position, not by mass
        rng = np.random.default_rng(5)
        stack = ic.LayerStack((ic.Layer(random_attention(rng, 2), random_mlp(rng, 2)),), 2)
        f = ic.MeasureMap.from_stack(stack)
        x = np.array([0.1, -0.9])
        for light in (1e-3, 5e-7, 1e-8, 1e-10):
            mu = ic.new_discrete([[0.5, 0.2], [-0.7, 1.0], [1.2, -0.4]], [1.0, 1.0, light])
            got, eps_used = ic.extract_g_detailed(f, mu, x)
            assert eps_used == 1e-6
            assert np.max(np.abs(got - ic.forward_map(stack, mu, x))) <= 1e-4

    def test_error_decreases_with_eps(self):
        rng = np.random.default_rng(6)
        stack = random_stack(rng, 2, depth=1)
        f = ic.MeasureMap.from_stack(stack)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        want = ic.forward_map(stack, mu, x)
        errors = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            got = ic.extract_g(f, mu, x, eps)
            errors.append(float(np.max(np.abs(got - want))))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12

    def test_patch_radius_invariance(self):
        rng = np.random.default_rng(7)
        stack = random_stack(rng, 2, depth=1)
        f = ic.MeasureMap.from_stack(stack)
        mu = random_measure(rng, 3, 2)
        x = rng.uniform(-1, 1, size=2)
        box = ic.default_box(2).enlarged(2.0)
        psi = ic.coordinate_test(0, box)
        full = regular_derivative(f, mu, x, psi, 1e-6)
        halved = regular_derivative(f, mu, x, psi, 1e-6, patch_radius=MAX_PATCH_RADIUS / 2)
        assert abs(full - halved) <= 1e-10

    def test_reconstruction_on_distinct_sum_measures(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            stack = random_stack(rng, 2, depth=1)
            f = ic.MeasureMap.from_stack(stack)
            raw = random_measure(rng, 4, 2)
            mu = ic.make_dif(raw, 1e-6, seed=0)
            rebuilt = ic.push_forward(mu, each_row(lambda p: ic.extract_g(f, mu, p, 1e-6)))
            assert ic.w1_matching(rebuilt, ic.forward_measure(stack, mu)).cost <= 1e-4

    def test_probe_is_settled_and_paired_once(self, monkeypatch):
        # one spacing pass over the image support and one pairing (a nearest
        # search each way) per eps tried; the coordinates read the pairing
        # and compute no distance
        from incontext import derivative

        calls = []
        nearest = derivative._nearest
        for name in ("_distances", "_squared_distances"):
            kernel = getattr(derivative, name)
            monkeypatch.setattr(derivative, name, lambda A, B, kernel=kernel: calls.append("d") or kernel(A, B))
        monkeypatch.setattr(derivative, "_nearest", lambda A, B: calls.append("n") or nearest(A, B))
        rng = np.random.default_rng(5)
        f = ic.MeasureMap.from_stack(random_stack(rng, 2, depth=3))
        mu = random_measure(rng, 12, 2)
        _, eps_used = ic.extract_g_detailed(f, mu, rng.uniform(-1, 1, size=2), 1e-6)
        assert eps_used == 1e-6
        # each walk over 12 or 13 atoms is a single block
        assert calls == ["d"] + ["n", "d"] * 2

    def test_query_image_near_existing_image(self):
        # the probe's image lands 0.01 from an existing image atom, inside the
        # default patch ball, and sorts before or after it; either way the
        # radius must shrink so the reading stays exact
        f = ic.MeasureMap.identity()
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        for atom in mu.points:
            for step in ([0.01, 0.0], [-0.01, 0.0], [0.0, 0.01], [0.0, -0.01]):
                x = atom + np.array(step)
                got = ic.extract_g(f, mu, x, 1e-6)
                assert np.max(np.abs(got - x)) <= 1e-10, x

    def test_query_image_closer_than_the_radius_floor_raises(self):
        # the probe's image lies 5e-10 from the image of the atom at 0: a patch
        # ball that keeps it apart is below 1e-8, so no reading can be trusted
        # (a radius lifted to 1e-8 would merge it into that atom and read 0)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(AnchorsTooClose, match="^usable patch radius 2.5e-10 below 1e-08$"):
            ic.extract_g_detailed(ic.MeasureMap.identity(), mu, np.array([5e-10]))

    def test_close_image_atoms_fail_before_the_first_probe(self):
        # two image atoms 1.3e-9 apart leave a radius below 1e-8 at f(mu) already
        stack = random_stack(np.random.default_rng(1), 1, depth=1)
        calls = []
        f = ic.MeasureMap(lambda mu: calls.append(mu) or ic.forward_measure(stack, mu))
        mu = ic.new_discrete([[0.3], [0.3 + 1e-9], [-0.8]], [0.3, 0.3, 0.4])
        with pytest.raises(AnchorsTooClose, match="^usable patch radius 3.32e-10 below 1e-08$"):
            ic.extract_g_detailed(f, mu, np.array([0.1]))
        assert len(calls) == 1

    @pytest.mark.parametrize("eps", [1e-6, 1e-16])
    def test_probe_at_an_atom_divides_by_the_added_mass(self, eps):
        # 0.5 + eps adds fl(0.5 + eps) - 0.5, not eps: 1e-16 adds 1.11e-16
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        x = np.array([1.0, 1.0])
        values, eps_used = ic.extract_g_detailed(ic.MeasureMap.identity(), mu, x, eps)
        assert values.tolist() == [1.0, 1.0]
        assert eps_used == eps
        psi = ic.coordinate_test(0, ic.default_box(2))
        assert regular_derivative(ic.MeasureMap.identity(), mu, x, psi, eps) == 1.0

    def test_probe_mass_lost_to_rounding_raises(self):
        # 0.5 + 1e-17 == 0.5: the probe would read 0 instead of (1, 1)
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ProbeMassLost):
            ic.extract_g(ic.MeasureMap.identity(), mu, np.array([1.0, 1.0]), 1e-17)

    def test_counterexample_value(self):
        from incontext.counterexample import counter_map, two_atom_measure

        eps = 1e-2
        mu = two_atom_measure(eps)
        x = np.array([np.sqrt(eps)])
        got = ic.extract_g(counter_map(), mu, x, eps**1.5 / 20.0)
        want = ic.r_map(1.0 / eps, float(x[0]))
        assert abs(got[0] - want) <= 1e-10


class TestOutputDimension:
    """Extraction reads the output dimension off f(mu); a map declares none."""

    MU = ic.new_discrete([[0.1, -0.4], [1.2, 0.8], [-0.9, 0.3]], [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_extracts_every_coordinate(self, d):
        rng = np.random.default_rng(40 + d)
        mu = ic.new_discrete(rng.uniform(-1, 1, size=(3, d)), [0.2, 0.3, 0.5])
        x = rng.uniform(-1, 1, size=d)
        got = ic.extract_g(ic.MeasureMap.identity(), mu, x)
        assert got.shape == (d,) and np.max(np.abs(got - x)) <= 1e-10

    @pytest.mark.parametrize(
        "rows_map, want",
        [
            (lambda X: X[:, :1] + X[:, 1:], [0.9]),
            (lambda X: np.hstack((X, X[:, :1] * X[:, 1:])), [0.7, 0.2, 0.7 * 0.2]),
        ],
        ids=["into-1", "into-3"],
    )
    def test_a_map_into_another_dimension_extracts_its_values(self, rows_map, want):
        got = ic.extract_g(ic.MeasureMap.from_point_map(rows_map), self.MU, np.array([0.7, 0.2]))
        assert got.shape == (len(want),) and np.max(np.abs(got - want)) <= 1e-10

    def test_a_probe_image_of_another_dimension_raises(self):
        def switching(nu):
            return ic.canonicalize(nu) if nu.n == 3 else ic.push_forward(nu, lambda X: X[:, :1])

        with pytest.raises(DimensionMismatch, match="^f maps the probe to dimension 1 and mu to 2$"):
            ic.extract_g(ic.MeasureMap(switching), self.MU, np.array([0.7, 0.2]))


class TestSplitRegIrreg:
    def test_context_free_map_has_zero_irregular_part(self):
        rng = np.random.default_rng(9)
        mlp_p = random_mlp(rng, 2)
        g = ic.InContextMap((each_row(lambda pts, w, x: ic.mlp(mlp_p, x)),), 2)
        mu = random_measure(rng, 3, 2)
        psi = ic.coordinate_test(0, ic.default_box(2).enlarged(2.0))
        reg, irreg = ic.split_reg_irreg(g, mu, np.array([0.1, 0.2]), psi, 1e-6)
        assert irreg == 0.0
        assert reg == pytest.approx(psi.value(ic.mlp(mlp_p, np.array([0.1, 0.2]))), abs=0)

    def test_identity_map(self):
        g = ic.InContextMap.identity(2)
        mu = ic.new_discrete([[0.3, 0.1]], [1.0])
        psi = ic.coordinate_test(0, ic.default_box(2))
        x = np.array([0.5, -0.5])
        reg, irreg = ic.split_reg_irreg(g, mu, x, psi, 1e-6)
        assert reg == 0.5
        assert irreg == 0.0

    def test_sum_equals_raw_quotient(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = ic.InContextMap.from_gamma(random_attention(rng, 2))
            mu = ic.canonicalize(random_measure(rng, 3, 2))
            psi = ic.coordinate_test(1, ic.default_box(2).enlarged(2.0))
            x = rng.uniform(-1, 1, size=2)
            eps = 1e-3
            reg, irreg = ic.split_reg_irreg(g, mu, x, psi, eps)
            f = ic.MeasureMap.from_in_context(g)
            probe = ic.add_atom(mu, x, eps)
            pair = lambda nu: float(
                np.sum(nu.weights * np.array([psi.value(p) for p in nu.points]))
            )
            raw = (pair(f(probe)) - pair(f(mu))) / eps
            assert abs((reg + irreg) - raw) <= 1e-12
