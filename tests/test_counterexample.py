import math

import numpy as np
import pytest

import incontext as ic
from incontext.counterexample import (
    counter_map,
    domain_box,
    f_counter_extended,
    frequency,
    two_atom_measure,
)
from incontext.errors import NotProbability, OutOfDomain

from helpers import random_probability


class TestRMap:
    def test_identity_outside_core(self):
        for a in (0.0, 1.0, 100.0):
            assert ic.r_map(a, 2.0) == 2.0
            assert ic.r_map(a, -2.5) == -2.5

    def test_fixes_boundary(self):
        for a in (0.3, 7.0):
            assert ic.r_map(a, 1.0) == 1.0
            assert ic.r_map(a, -1.0) == -1.0

    def test_closed_form_inside(self):
        eps = 0.01
        a = 1.0 / eps
        x = math.sqrt(eps)
        want = x + 0.1 * math.cos(0.5 * math.pi * x) ** 2 * math.cos(a * x)
        assert ic.r_map(a, x) == want

    def test_origin_value(self):
        # frequency one at the origin: bump has full amplitude
        assert ic.r_map(1.0, 0.0) == pytest.approx(0.1, abs=0)

    def test_domain_checks(self):
        with pytest.raises(OutOfDomain):
            ic.r_map(1.0, 3.5)
        with pytest.raises(OutOfDomain):
            ic.r_map(-1.0, 0.0)

    def test_bounded_displacement(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.uniform(0, 50)
            x = rng.uniform(-3, 3)
            assert abs(ic.r_map(a, x) - x) <= 0.1 + 1e-15
            assert -3.0 <= ic.r_map(a, x) <= 3.0


class TestKappa:
    def test_atom_at_two(self):
        assert ic.kappa(ic.dirac([2.0], box=domain_box())) == 0.0

    def test_two_atom_family(self):
        for eps in (0.25, 0.04, 1e-4):
            assert ic.kappa(two_atom_measure(eps)) == pytest.approx(eps, abs=1e-15)

    def test_origin(self):
        assert ic.kappa(ic.dirac([0.0], box=domain_box())) == 1.0

    def test_taper(self):
        assert ic.kappa(ic.dirac([1.5], box=domain_box())) == 0.5
        assert ic.kappa(ic.dirac([-1.5], box=domain_box())) == 0.5
        assert ic.kappa(ic.dirac([2.5], box=domain_box())) == 0.0

    def test_dimension_check(self):
        with pytest.raises(OutOfDomain):
            ic.kappa(ic.new_discrete([[0.0, 0.0]], [1.0]))

    def test_support_beyond_the_domain_rejected(self):
        wide = ic.Box(np.array([-4.0]), np.array([4.0]))
        with pytest.raises(OutOfDomain, match=r"^support leaves \[-3, 3\]$"):
            ic.kappa(ic.dirac([3.5], box=wide))


class TestFCounter:
    def test_fixes_far_atom(self):
        d2 = ic.dirac([2.0], box=domain_box())
        assert ic.f_counter(d2) == ic.canonicalize(d2)

    def test_two_atom_closed_form(self):
        eps = 0.01
        mu = two_atom_measure(eps)
        out = ic.f_counter(mu)
        want_moved = ic.r_map(1.0 / eps, math.sqrt(eps))
        assert out.n == 2
        assert out.points[0, 0] == want_moved
        assert out.points[1, 0] == 2.0
        assert np.array_equal(np.sort(out.weights), [eps, 1.0 - eps])

    def test_origin_moves_to_amplitude(self):
        out = ic.f_counter(ic.dirac([0.0], box=domain_box()))
        assert out.n == 1
        assert out.points[0, 0] == pytest.approx(0.1, abs=0)

    def test_rejects_non_probability(self):
        with pytest.raises(NotProbability):
            ic.f_counter(ic.dirac([0.0], mass=2.0, box=domain_box()))

    def test_extension_is_mass_homogeneous(self):
        mu = two_atom_measure(0.04)
        out1 = ic.f_counter(mu)
        out2 = f_counter_extended(mu.scaled(3.0))
        assert np.array_equal(out1.points, out2.points)
        assert np.allclose(out2.weights, 3.0 * out1.weights, rtol=1e-15)

    def test_support_preserving(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = random_probability(rng, int(rng.integers(1, 6)), 1, box=domain_box(), lo=-2.9, hi=2.9)
            out = ic.f_counter(mu)
            assert out.n <= ic.canonicalize(mu).n
            assert out.box.contains(out.points)

    def test_range_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            mu = random_probability(rng, 3, 1, box=domain_box(), lo=-2.9, hi=2.9)
            out = ic.f_counter(mu)
            assert np.all(np.abs(out.points) <= 3.0)


class TestContinuityBound:
    def test_w1_bound_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pair = [
                random_probability(rng, int(rng.integers(1, 6)), 1, box=domain_box(), lo=-2.9, hi=2.9)
                for _ in range(2)
            ]
            lhs = ic.w1_1d(ic.f_counter(pair[0]), ic.f_counter(pair[1]))
            near = [
                float(np.sum(m.weights[np.abs(m.points[:, 0]) <= 1.5])) for m in pair
            ]
            rhs = 3.0 * (near[0] + near[1]) + ic.w1_1d(pair[0], pair[1])
            assert lhs <= rhs + 1e-10


class TestDiscontinuityScan:
    def test_row_layout(self):
        rows = ic.discontinuity_scan(4)
        assert len(rows) == 2 * 3
        assert {r.family for r in rows} == {"limsup", "liminf"}
        assert sorted({r.m for r in rows}) == [2, 3, 4]

    @pytest.mark.parametrize("m_max", [3.5, 4.0, "4"], ids=["half", "float", "str"])
    def test_non_integral_m_max_raises(self, m_max):
        with pytest.raises(OutOfDomain, match=f"^scan needs an integer m_max, got {m_max}$"):
            ic.discontinuity_scan(m_max)

    def test_numpy_integer_m_max(self):
        assert ic.discontinuity_scan(np.int64(3)) == ic.discontinuity_scan(3)

    def test_extracted_matches_closed_form(self):
        rows = ic.discontinuity_scan(8)
        for r in rows:
            assert abs(r.g_extracted - r.g_closed_form) <= 1e-10

    def test_families_separate_while_inputs_converge(self):
        rows = ic.discontinuity_scan(12)
        up = {r.m: r for r in rows if r.family == "limsup"}
        down = {r.m: r for r in rows if r.family == "liminf"}
        for m in range(5, 13):
            assert abs(up[m].g_extracted - down[m].g_extracted) > 0.15
            assert max(up[m].w1_to_limit, down[m].w1_to_limit) < 0.05

    def test_values_approach_limits(self):
        rows = ic.discontinuity_scan(20)
        up = [r for r in rows if r.family == "limsup"]
        down = [r for r in rows if r.family == "liminf"]
        dev_up = [abs(r.g_extracted - 0.1) for r in up]
        dev_down = [abs(r.g_extracted + 0.1) for r in down]
        assert all(b < a for a, b in zip(dev_up, dev_up[1:]))
        assert all(b < a for a, b in zip(dev_down, dev_down[1:]))
        # the oscillation component sits within 2e-3 of the limit throughout;
        # the full value enters the 0.02 band once the query offset 1/(2 pi m)
        # is small enough, which happens at m = 8
        for r in up:
            assert abs((r.g_extracted - math.sqrt(r.eps)) - 0.1) <= 2e-3
        assert abs(up[5].g_extracted - 0.1) > 0.02   # m = 7 still outside
        assert abs(up[6].g_extracted - 0.1) <= 0.02  # m = 8 inside

    def test_w1_column_is_exact_transport_cost(self):
        rows = ic.discontinuity_scan(3)
        for r in rows:
            moved = r.eps * (2.0 - math.sqrt(r.eps))
            assert r.w1_to_limit == pytest.approx(moved, rel=1e-12)

    def test_frequency_helper(self):
        assert frequency(ic.dirac([2.0], box=domain_box())) == 0.0
        assert frequency(ic.dirac([0.0], box=domain_box())) == 1.0

    def test_counter_map_wrapper(self):
        f = counter_map()
        out = f(two_atom_measure(0.01))
        assert out.n == 2
