import sys
from pathlib import Path

import numpy as np
import pytest

import incontext as ic
from incontext.errors import DimensionNotOne, MassMismatch, ProblemTooLarge
from incontext.transport import _marginal_constraints

from helpers import (
    permutation_match_cost,
    permutation_match_costs,
    random_measure,
    random_probability,
    reference_marginal_constraints,
)


def pair_1d(points, weights):
    return ic.new_discrete(np.asarray(points, dtype=float)[:, None], weights, ic.default_box(1))


class TestW1OneDim:
    def test_unit_shift(self):
        assert ic.w1_1d(ic.dirac([0.0]), ic.dirac([1.0])) == 1.0

    def test_identity(self):
        mu = pair_1d([0.3, -1.2], [0.5, 0.5])
        assert ic.w1_1d(mu, mu) == 0.0

    def test_pair_to_midpoint(self):
        # frozen from the coupling oracle: each half travels distance 1
        mu = pair_1d([0.0, 2.0], [0.5, 0.5])
        assert ic.w1_1d(mu, ic.dirac([1.0])) == 1.0

    def test_rejects_dimension(self):
        a = ic.new_discrete([[0.0, 0.0]], [1.0])
        with pytest.raises(DimensionNotOne):
            ic.w1_1d(a, a)

    def test_rejects_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            ic.w1_1d(ic.dirac([0.0]), ic.dirac([1.0], mass=2.0))


class TestW1Matching:
    def test_uniform_pairing(self):
        a = pair_1d([0.0, 2.0], [0.5, 0.5])
        b = pair_1d([1.0, 3.0], [0.5, 0.5])
        # permutation oracle: identity pairing costs 1, the swap costs 2
        assert permutation_match_cost(a.points, b.points, a.weights) == 1.0
        plan = ic.w1_matching(a, b)
        assert plan.cost == 1.0
        assert sorted(plan.triples()) == [(0, 0, 0.5), (1, 1, 0.5)]

    def test_self_distance_zero(self):
        mu = random_measure(np.random.default_rng(0), 4, 2)
        plan = ic.w1_matching(mu, mu)
        assert plan.cost == 0.0
        row, col = plan.marginals(mu.n, mu.n)
        assert np.allclose(row, mu.weights, atol=1e-10)

    def test_forced_split(self):
        a = ic.dirac([0.0])
        b = pair_1d([1.0, -1.0], [0.5, 0.5])
        plan = ic.w1_matching(a, b)
        assert plan.cost == pytest.approx(1.0, abs=1e-12)
        assert len(plan.triples()) == 2

    def test_atom_cap(self):
        n = 201
        pts = np.linspace(-2, 2, n)[:, None]
        a = ic.new_discrete(pts, np.ones(n))
        with pytest.raises(ProblemTooLarge):
            ic.w1_matching(a, a)

    def test_marginals_on_lp_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_measure(rng, int(rng.integers(1, 8)), 2)
            m = int(rng.integers(1, 8))
            pts = rng.uniform(-2.5, 2.5, size=(m, 2))
            w = rng.uniform(0.2, 1.0, size=m)
            b = ic.new_discrete(pts, w * (a.total_mass / w.sum()))
            plan = ic.w1_matching(a, b)
            row, col = plan.marginals(a.n, b.n)
            assert np.max(np.abs(row - a.weights)) <= 1e-10
            assert np.max(np.abs(col - b.weights)) <= 1e-10

    def test_agrees_with_cdf_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_measure(rng, int(rng.integers(1, 9)), 1)
            m = int(rng.integers(1, 9))
            pts = rng.uniform(-2.5, 2.5, size=(m, 1))
            w = rng.uniform(0.2, 1.0, size=m)
            b = ic.new_discrete(pts, w * (a.total_mass / w.sum()))
            assert abs(ic.w1_1d(a, b) - ic.w1_matching(a, b).cost) <= 1e-10

    def test_agrees_with_permutation_oracle(self):
        # In 1d, distinct permutations can be co-optimal with float costs one
        # ulp apart; accept any member of the cost set within 2 ulps of the min.
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            a = random_measure(rng, n, d, uniform=True)
            b = random_measure(rng, n, d, uniform=True)
            costs = permutation_match_costs(a.points, b.points, a.weights)
            got = ic.w1_matching(a, b).cost
            want = min(costs)
            assert got in costs
            assert got - want <= 2 * np.spacing(max(want, 1.0))


class TestLpAssembly:
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 5), (50, 40), (100, 80), (120, 120)])
    def test_matches_list_built_matrix(self, n, m):
        got = _marginal_constraints(n, m)
        want = reference_marginal_constraints(n, m)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestSolverTracing:
    def test_benchmark_tracer_sees_each_solver_route(self):
        # perfbench/tracer.py times the solvers by wrapping transport's
        # linear_sum_assignment and linprog attributes
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from tracer import Tracer
        finally:
            sys.path.pop(0)
        rng = np.random.default_rng(13)
        uniform = [random_measure(rng, 4, 2, uniform=True) for _ in range(2)]
        weighted = [random_probability(rng, n, 2) for n in (3, 5)]
        tracer = Tracer()
        tracer.install()
        try:
            ic.w1_matching(*uniform)
            ic.w1_matching(*weighted)
        finally:
            tracer.uninstall()
        assert tracer.counts["transport.route_assignment"] == 1
        assert tracer.counts["transport.route_lp"] == 1
        assert tracer.counts["transport.lp_vars"] == 15


class TestMetricAxioms:
    def test_symmetry_triangle_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            ms = [random_probability(rng, int(rng.integers(1, 6)), 2) for _ in range(3)]
            d01 = ic.w1_matching(ms[0], ms[1]).cost
            d10 = ic.w1_matching(ms[1], ms[0]).cost
            assert abs(d01 - d10) <= 1e-12
            d02 = ic.w1_matching(ms[0], ms[2]).cost
            d12 = ic.w1_matching(ms[1], ms[2]).cost
            assert d02 <= d01 + d12 + 1e-10

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        mu = random_probability(rng, 4, 2)
        shuffled = ic.new_discrete(mu.points[::-1], mu.weights[::-1], mu.box)
        assert ic.w1_matching(mu, shuffled).cost <= 1e-15
        assert ic.canonicalize(mu) == ic.canonicalize(shuffled)
        moved = ic.push_forward(mu, lambda p: p + 0.1)
        assert ic.w1_matching(mu, moved).cost > 1e-3


class TestW1Extended:
    def test_mass_gap_only(self):
        # doubling the mass of the same atom costs exactly the mass difference
        assert ic.w1_extended(ic.dirac([0.0], mass=2.0), ic.dirac([0.0])) == 1.0

    def test_identical(self):
        mu = ic.dirac([0.7], mass=3.0)
        assert ic.w1_extended(mu, mu) == 0.0

    def test_shift_plus_mass(self):
        assert ic.w1_extended(ic.dirac([0.0], mass=2.0), ic.dirac([1.0])) == 2.0

    def test_scaling_identity(self):
        rng = np.random.default_rng(8)
        mu = random_probability(rng, 3, 1)
        for s in (0.5, 2.0, 7.0):
            assert ic.w1_extended(mu.scaled(s), mu) == pytest.approx(abs(s - 1.0), abs=1e-12)
