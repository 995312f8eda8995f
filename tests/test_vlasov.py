import math

import numpy as np
import pytest

import incontext as ic
from incontext import vlasov
from incontext.errors import NonFiniteState, TooFewTimePoints

from helpers import each_row, random_attention, random_measure, random_mlp


def decay_field():
    return ic.VelocityField(lambda t, mu, x: -x)


def zero_field():
    return ic.VelocityField(lambda t, mu, x: np.zeros_like(x))


class TestEulerFlow:
    def test_zero_field_constant(self):
        mu0 = ic.new_discrete([[0.5], [-1.0]], [0.4, 0.6])
        traj = ic.euler_flow(zero_field(), mu0, 8)
        for s in traj.states:
            assert np.array_equal(s.points, traj.states[0].points)

    def test_single_decay_step(self):
        traj = ic.euler_flow(decay_field(), ic.dirac([1.0]), 1)
        assert traj.final.points[0, 0] == 0.0

    def test_zero_layer_velocity_constant(self):
        d = 1
        head = ic.HeadParams(
            q=np.zeros((1, d)), k=np.zeros((1, d)), v=np.eye(d), w=np.zeros((d, d))
        )
        v = ic.VelocityField.from_layer(ic.AttentionParams((head,), 1), ic.identity_mlp())
        mu0 = ic.new_discrete([[0.5], [-1.0]], [0.4, 0.6])
        traj = ic.euler_flow(v, mu0, 4)
        assert np.array_equal(traj.final.points, traj.states[0].points)

    def test_weights_and_count_conserved(self):
        rng = np.random.default_rng(0)
        mu0 = random_measure(rng, 5, 2)
        traj = ic.euler_flow(decay_field(), mu0, 16)
        for s in traj.states:
            assert s.n == traj.states[0].n
            assert np.array_equal(s.weights, traj.states[0].weights)

    def test_nonfinite_detected(self):
        blowup = ic.VelocityField(lambda t, mu, x: x * 1e200)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            ic.euler_flow(blowup, ic.dirac([1.0]), 4)


class TestRk4Flow:
    def test_zero_field_constant(self):
        mu0 = ic.new_discrete([[0.5], [-1.0]], [0.4, 0.6])
        traj = ic.rk4_flow(zero_field(), mu0, 4)
        assert np.array_equal(traj.final.points, traj.states[0].points)

    def test_exponential_decay(self):
        traj = ic.rk4_flow(decay_field(), ic.dirac([1.0]), 64)
        assert abs(traj.final.points[0, 0] - math.exp(-1.0)) <= 1e-6

    def test_fourth_order_contraction(self):
        exact = math.exp(-1.0)
        e_coarse = abs(ic.rk4_flow(decay_field(), ic.dirac([1.0]), 32).final.points[0, 0] - exact)
        e_fine = abs(ic.rk4_flow(decay_field(), ic.dirac([1.0]), 64).final.points[0, 0] - exact)
        assert 12.0 <= e_coarse / e_fine <= 20.0


class TestFixedOrder:
    def test_one_canonicalize_per_flow(self, monkeypatch):
        calls = []

        def counting(mu):
            calls.append(mu.n)
            return ic.canonicalize(mu)

        monkeypatch.setattr(vlasov, "canonicalize", counting)
        rng = np.random.default_rng(7)
        v = ic.VelocityField.from_layer(random_attention(rng, 2), random_mlp(rng, 2))
        mu0 = random_measure(rng, 4, 2)
        for run in (
            lambda: ic.euler_flow(v, mu0, 5),
            lambda: ic.rk4_flow(v, mu0, 3),
            lambda: ic.characteristic_map(v, mu0, np.zeros(2), 1.0, steps=4),
        ):
            calls.clear()
            run()
            assert calls == [4]

    def test_stage_measures_keep_the_carrier_invariants(self):
        seen = []

        def spreading(t, mu, x):
            seen.append(mu)
            return 3.0 * x

        mu0 = ic.new_discrete([[0.5, -1.0], [1.0, 0.25], [-0.75, 0.5]], [0.2, 0.3, 0.5])
        ic.rk4_flow(ic.VelocityField(spreading), mu0, 4)
        assert len(seen) == 16
        for mu in seen:
            assert not mu.points.flags.writeable
            assert mu.box.contains(mu.points)
            assert np.array_equal(mu.weights, ic.canonicalize(mu0).weights)
        assert any(mu.box == mu0.box for mu in seen)
        assert any(mu.box != mu0.box for mu in seen)


class TestTrajectoryArrays:
    def test_points_read_only_and_state_box_rule(self):
        mu0 = ic.new_discrete([[0.5, -1.0], [1.0, 0.25], [-0.75, 0.5]], [0.2, 0.3, 0.5])
        traj = ic.euler_flow(ic.VelocityField(lambda t, mu, x: 3.0 * x), mu0, 4)
        assert traj.points.shape == (5, 3, 2)
        assert not traj.points.flags.writeable
        with pytest.raises(ValueError):
            traj.points[0, 0, 0] = 0.0
        mu_c = ic.canonicalize(mu0)
        assert np.array_equal(traj.points[0], mu_c.points)
        inside = [mu_c.box.contains(p) for p in traj.points]
        assert any(inside) and not all(inside)
        for k, state in enumerate(traj.states):
            assert np.array_equal(state.points, traj.points[k])
            assert np.array_equal(state.weights, mu_c.weights)
            assert state.box == (mu_c.box if inside[k] else mu_c.box.hull(traj.points[k]))
        assert traj.final == traj.states[-1]


class TestCharacteristicMap:
    def test_time_zero(self):
        x = np.array([0.7])
        got = ic.characteristic_map(decay_field(), ic.dirac([1.0]), x, 0.0)
        assert np.array_equal(got, x)

    def test_zero_field(self):
        x = np.array([0.7, -0.8])
        mu0 = ic.new_discrete([[0.0, 0.0]], [1.0])
        got = ic.characteristic_map(zero_field(), mu0, x, 1.0, steps=16)
        assert np.array_equal(got, x)

    def test_atom_query_matches_particle(self):
        rng = np.random.default_rng(1)
        att = random_attention(rng, 2)
        v = ic.VelocityField.from_layer(att, random_mlp(rng, 2))
        mu0 = ic.canonicalize(random_measure(rng, 4, 2))
        traj = ic.rk4_flow(v, mu0, 64)
        for i in range(mu0.n):
            got = ic.characteristic_map(v, mu0, mu0.points[i], 1.0, steps=64)
            assert np.max(np.abs(got - traj.final.points[i])) <= 1e-8

    def test_midpoint_time_matches_grid(self):
        rng = np.random.default_rng(2)
        v = ic.VelocityField.from_layer(random_attention(rng, 1, key_dim=1), random_mlp(rng, 1))
        mu0 = ic.canonicalize(random_measure(rng, 3, 1))
        traj = ic.rk4_flow(v, mu0, 32)
        got = ic.characteristic_map(v, mu0, mu0.points[1], 0.5, steps=32)
        k = 16  # t = 0.5 on the 32-step grid
        assert np.max(np.abs(got - traj.states[k].points[1])) <= 1e-10


class TestWeakResidual:
    def test_zero_field(self):
        mu0 = ic.new_discrete([[0.5], [-1.0]], [0.4, 0.6])
        traj = ic.euler_flow(zero_field(), mu0, 8)
        phi = ic.coordinate_test(0, ic.default_box(1))
        assert ic.weak_residual(traj, zero_field(), phi) == 0.0

    def test_constant_test_function(self):
        const = ic.TestFunction(each_row(lambda y: 1.0), each_row(lambda y: np.zeros_like(y)), 0.0)
        mu0 = ic.dirac([1.0])
        traj = ic.rk4_flow(decay_field(), mu0, 16)
        assert ic.weak_residual(traj, decay_field(), const) <= 1e-15

    def test_decay_first_moment(self):
        mu0 = ic.new_discrete([[1.0], [0.5]], [0.5, 0.5])
        traj = ic.rk4_flow(decay_field(), mu0, 256)
        phi = ic.coordinate_test(0, ic.default_box(1))
        assert ic.weak_residual(traj, decay_field(), phi) <= 1e-4

    def test_too_few_points(self):
        traj = ic.euler_flow(zero_field(), ic.dirac([1.0]), 1)
        phi = ic.coordinate_test(0, ic.default_box(1))
        with pytest.raises(TooFewTimePoints):
            ic.weak_residual(traj, zero_field(), phi)


class TestDepthLimit:
    @pytest.mark.parametrize("T", [0, -1])
    def test_rejects_depth_below_one(self, T):
        rng = np.random.default_rng(5)
        with pytest.raises(TooFewTimePoints):
            ic.depth_limit_error(random_attention(rng, 2), random_mlp(rng, 2), ic.dirac([0.0, 0.0]), T)

    def test_zero_base_velocity(self):
        d = 1
        head = ic.HeadParams(
            q=np.zeros((1, d)), k=np.zeros((1, d)), v=np.eye(d), w=np.zeros((d, d))
        )
        att = ic.AttentionParams((head,), 1)
        mu0 = ic.new_discrete([[0.5], [-1.0]], [0.4, 0.6])
        for T in (4, 16):
            assert ic.depth_limit_error(att, ic.identity_mlp(), mu0, T) <= 1e-15

    def test_first_order_ratio(self):
        rng = np.random.default_rng(42)
        att, mlp_p = random_attention(rng, 2), random_mlp(rng, 2)
        mu0 = ic.new_discrete(rng.uniform(-1.5, 1.5, (4, 2)), np.full(4, 0.25))
        e16 = ic.depth_limit_error(att, mlp_p, mu0, 16)
        e32 = ic.depth_limit_error(att, mlp_p, mu0, 32)
        assert 0.3 <= e32 / e16 <= 0.7

    def test_scaled_layer_is_euler_step(self):
        rng = np.random.default_rng(3)
        att = random_attention(rng, 2)
        mlp_p = random_mlp(rng, 2)
        T = 8
        stack = ic.scaled_stack(att, mlp_p, T)
        mu = ic.canonicalize(random_measure(rng, 3, 2))
        x = rng.uniform(-1, 1, size=2)
        from incontext.deep_transformer import apply_layer

        got = apply_layer(stack.layers[0], mu, x)
        want = x + (1.0 / T) * ic.velocity(att, mlp_p, mu, x)
        assert np.array_equal(got, want)

    def test_scaled_stack_tracks_euler_flow(self):
        rng = np.random.default_rng(4)
        att = random_attention(rng, 2)
        mlp_p = random_mlp(rng, 2)
        T = 16
        mu0 = ic.canonicalize(random_measure(rng, 3, 2))
        via_stack = ic.forward_measure(ic.scaled_stack(att, mlp_p, T), mu0)
        via_euler = ic.euler_flow(ic.VelocityField.from_layer(att, mlp_p), mu0, T).final
        cost = ic.w1_matching(via_stack, ic.canonicalize(via_euler)).cost
        assert cost <= 1e-13


class TestTranslationEquivariance:
    def test_mean_centered_field(self):
        # velocity depending only on displacement from the weighted mean
        def centered(t, mu, x):
            mean = np.sum(mu.weights[:, None] * mu.points, axis=0) / mu.total_mass
            return np.tanh(x - mean)

        v = ic.VelocityField(centered)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(4, 2))
        w = rng.uniform(0.2, 1.0, size=4)
        shift = np.array([0.7, -0.4])
        big = ic.Box(np.full(2, -10.0), np.full(2, 10.0))
        mu0 = ic.new_discrete(pts, w, big)
        mu0_shifted = ic.new_discrete(pts + shift, w, big)
        tr = ic.euler_flow(v, mu0, 16)
        tr_s = ic.euler_flow(v, mu0_shifted, 16)
        for s, ss in zip(tr.states, tr_s.states):
            assert np.max(np.abs(ss.points - (s.points + shift))) <= 1e-10


class TestLipschitzRatios:
    def test_ratio_stable_across_scales(self):
        rng = np.random.default_rng(6)
        att = random_attention(rng, 2)
        mlp_p = random_mlp(rng, 2)
        v = ic.VelocityField.from_layer(att, mlp_p)
        mu0 = ic.canonicalize(random_measure(rng, 3, 2))
        x = rng.uniform(-1, 1, size=2)
        base = ic.characteristic_map(v, mu0, x, 1.0, steps=32)
        per_scale = []
        for scale in (1e-1, 1e-2, 1e-3):
            ratios = []
            for _ in range(10):
                dp = rng.normal(size=mu0.points.shape) * scale
                nu0 = ic.new_discrete(mu0.points + dp, mu0.weights, mu0.box.enlarged(1.0))
                y = x + rng.normal(size=2) * scale
                out = ic.characteristic_map(v, nu0, y, 1.0, steps=32)
                denom = ic.w1_matching(mu0, ic.canonicalize(nu0)).cost + float(
                    np.linalg.norm(x - y)
                )
                ratios.append(float(np.linalg.norm(out - base)) / denom)
            per_scale.append(max(ratios))
        assert all(np.isfinite(per_scale))
        assert max(per_scale) / min(per_scale) < 5.0
