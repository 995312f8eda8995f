import numpy as np
import pytest

import incontext as ic
from incontext.derivative import MAX_PATCH_RADIUS, regular_derivative
from incontext.errors import AnchorsTooClose, DisplacementTooLarge, ProbeMassLost

from helpers import each_row, random_attention, random_measure, random_mlp, random_stack


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
        f = ic.MeasureMap.identity(2)
        mu = ic.new_discrete([[0.1, -0.4], [1.2, 0.8]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(2))
        x = np.array([0.7, 0.2])
        assert regular_derivative(f, mu, x, psi) == pytest.approx(0.7, abs=1e-12)

    def test_doubling_map(self):
        f = ic.MeasureMap.from_point_map(lambda p: 2.0 * p, 1)
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

        f = ic.MeasureMap(jumpy, 1)
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

        f = ic.MeasureMap(counted, 1)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        psi = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(AnchorsTooClose, match="^patch radius must be positive$"):
            regular_derivative(f, mu, np.array([0.5]), psi, 1e-6, patch_radius=radius)
        assert calls == []

    def test_eps_halving_reported(self):
        # displacement shrinks with eps: the probe must settle on a smaller eps
        def touchy(mu):
            extra = mu.total_mass - 1.0
            return ic.push_forward(mu, lambda p: p + 4000.0 * extra)

        f = ic.MeasureMap(touchy, 1)
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        _, eps_used = ic.extract_g_detailed(f, mu, np.array([0.4]), 1e-5)
        assert eps_used < 1e-5


class TestExtractG:
    def test_identity(self):
        f = ic.MeasureMap.identity(2)
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
        # one spacing matrix for the image support and one matrix per eps
        # tried; the coordinates read the pairing and build none
        from incontext import derivative

        calls = []
        distances = derivative._distances
        monkeypatch.setattr(derivative, "_distances", lambda A, B: calls.append(1) or distances(A, B))
        rng = np.random.default_rng(5)
        f = ic.MeasureMap.from_stack(random_stack(rng, 2, depth=3))
        mu = random_measure(rng, 12, 2)
        _, eps_used = ic.extract_g_detailed(f, mu, rng.uniform(-1, 1, size=2), 1e-6)
        assert eps_used == 1e-6
        assert len(calls) == 1 + 1

    def test_query_image_near_existing_image(self):
        # the probe's image lands 0.01 from an existing image atom, inside the
        # default patch ball; the radius must shrink so the reading stays exact
        f = ic.MeasureMap.identity(2)
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        x = np.array([0.01, 0.0])
        got = ic.extract_g(f, mu, x, 1e-6)
        assert np.max(np.abs(got - x)) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-6, 1e-16])
    def test_probe_at_an_atom_divides_by_the_added_mass(self, eps):
        # 0.5 + eps adds fl(0.5 + eps) - 0.5, not eps: 1e-16 adds 1.11e-16
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        x = np.array([1.0, 1.0])
        values, eps_used = ic.extract_g_detailed(ic.MeasureMap.identity(2), mu, x, eps)
        assert values.tolist() == [1.0, 1.0]
        assert eps_used == eps
        psi = ic.coordinate_test(0, ic.default_box(2))
        assert regular_derivative(ic.MeasureMap.identity(2), mu, x, psi, eps) == 1.0

    def test_probe_mass_lost_to_rounding_raises(self):
        # 0.5 + 1e-17 == 0.5: the probe would read 0 instead of (1, 1)
        mu = ic.new_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ProbeMassLost):
            ic.extract_g(ic.MeasureMap.identity(2), mu, np.array([1.0, 1.0]), 1e-17)

    def test_counterexample_value(self):
        from incontext.counterexample import counter_map, two_atom_measure

        eps = 1e-2
        mu = two_atom_measure(eps)
        x = np.array([np.sqrt(eps)])
        got = ic.extract_g(counter_map(), mu, x, eps**1.5 / 20.0)
        want = ic.r_map(1.0 / eps, float(x[0]))
        assert abs(got[0] - want) <= 1e-10


class TestSplitRegIrreg:
    def test_context_free_map_has_zero_irregular_part(self):
        rng = np.random.default_rng(9)
        mlp_p = random_mlp(rng, 2)
        g = ic.InContextMap(each_row(lambda mu, x: ic.mlp(mlp_p, x)), 2, 2)
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
