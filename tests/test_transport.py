import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incontext as ic
from incontext import transport
from incontext.errors import DimensionMismatch, DimensionNotOne, DualityGap, MassMismatch, ProblemTooLarge
from incontext.transport import (
    LP_MASS, MASS_TOL, NEIGHBOURS, TransportPlan, _certify, _lp_plan, _monotone_plan
)

from helpers import (
    full_lp_plan,
    permutation_match_cost,
    permutation_match_costs,
    random_measure,
    random_probability,
    reference_linprog,
    reference_marginal_constraints,
)


def pair_1d(points, weights):
    return ic.new_discrete(np.asarray(points, dtype=float)[:, None], weights, ic.default_box(1))


def triples(plan):
    """The plan's flows as (source, target, mass) tuples of Python scalars."""
    return list(zip(plan.source.tolist(), plan.target.tolist(), plan.mass.tolist()))


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


class TestMassTolerance:
    def test_rescaled_large_masses_are_equal(self):
        # both sides rescaled to mass 1e6 end a few ulps apart (one ulp is
        # 1.2e-10), which an absolute 1e-10 check rejected
        rng = np.random.default_rng(20)
        apart = 0
        for _ in range(10):
            a, b = (random_probability(rng, n, 1).scaled(1e6) for n in (20, 25))
            apart += abs(a.total_mass - b.total_mass) > 1e-10
            want = 1e6 * ic.w1_1d(a.normalized(), b.normalized())
            assert abs(ic.w1_1d(a, b) - want) <= 1e-12 * 1e6
            assert abs(ic.w1_matching(a, b).cost - want) <= 1e-12 * 1e6
        assert apart >= 3

    def test_small_masses_are_compared_relatively(self):
        # 5e-5 relative at mass 1e-6 is 5e-11 absolute
        a, b = ic.dirac([0.0], mass=1e-6), ic.dirac([1.0], mass=1e-6 * (1 + 5e-5))
        with pytest.raises(MassMismatch):
            ic.w1_1d(a, b)
        with pytest.raises(MassMismatch):
            ic.w1_matching(a, b)


class TestW1Matching:
    def test_uniform_pairing(self):
        a = pair_1d([0.0, 2.0], [0.5, 0.5])
        b = pair_1d([1.0, 3.0], [0.5, 0.5])
        # permutation oracle: identity pairing costs 1, the swap costs 2
        assert permutation_match_cost(a.points, b.points, a.weights) == 1.0
        plan = ic.w1_matching(a, b)
        assert plan.cost == 1.0
        assert sorted(triples(plan)) == [(0, 0, 0.5), (1, 1, 0.5)]

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
        assert len(triples(plan)) == 2

    def test_atom_cap(self):
        n = 201
        pts = np.linspace(-2, 2, n)[:, None]
        a = ic.new_discrete(pts, np.ones(n))
        with pytest.raises(ProblemTooLarge):
            ic.w1_matching(a, a)

    @pytest.mark.parametrize("dim_b", [1, 3])
    def test_rejects_dimension_mismatch(self, dim_b):
        # without the check, (n, 1, 2) - (1, m, 1) broadcasts to a wrong distance
        rng = np.random.default_rng(12)
        a, b = random_probability(rng, 2, 2), random_probability(rng, 2, dim_b)
        with pytest.raises(DimensionMismatch):
            ic.w1_matching(a, b)
        with pytest.raises(DimensionMismatch):
            ic.w1_extended(a, b)

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


# 1-D supports drawn partly from a few shared values, so that ties within a
# support and atoms common to both supports occur often
coordinate = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-2.5, 2.5))
support = st.lists(st.tuples(coordinate, st.floats(0.01, 1.0)), min_size=1, max_size=25)


def measure_1d(atoms, mass=None):
    points, weights = map(np.array, zip(*atoms))
    if mass is not None:
        weights = weights * (mass / weights.sum())
    return pair_1d(points, weights)


class TestMonotonePlan:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(support, support)
    def test_plan_properties(self, source, target):
        a = measure_1d(source)
        b = measure_1d(target, a.total_mass)
        tol = 1e-10 * a.total_mass
        plan = _monotone_plan(a, b)
        row, col = plan.marginals(a.n, b.n)
        assert np.max(np.abs(row - a.weights)) <= tol
        assert np.max(np.abs(col - b.weights)) <= tol
        assert abs(plan.cost - ic.w1_1d(a, b)) <= tol
        assert abs(plan.cost - _lp_plan(a, b).cost) <= tol
        # no crossing: a source to the right never sends to a target to the left
        x, y = a.points[plan.source, 0], b.points[plan.target, 0]
        assert np.all(np.subtract.outer(x, x) * np.subtract.outer(y, y) >= 0.0)
        assert len(plan.mass) <= a.n + b.n - 1
        assert np.array_equal(np.lexsort((plan.target, plan.source)), np.arange(len(plan.mass)))
        again = _monotone_plan(a, b)
        assert triples(plan) == triples(again) and plan.cost == again.cost

    def test_one_dim_route_is_the_monotone_plan(self):
        a = pair_1d([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        b = pair_1d([2.0, -1.0], [0.4, 0.6])
        plan = ic.w1_matching(a, b)
        assert triples(plan) == triples(_monotone_plan(a, b))
        # sorted, source masses 0.2 | 0.5 | 0.3 meet target masses 0.6 | 0.4
        assert [(i, j) for i, j, _ in triples(plan)] == [(0, 1), (1, 0), (1, 1), (2, 0)]
        assert plan.mass == pytest.approx([0.2, 0.1, 0.4, 0.3], abs=1e-15)
        assert plan.cost == pytest.approx(0.2 * 1 + 0.1 * 1 + 0.4 * 2 + 0.3 * 1, abs=1e-15)


class TestLpAccuracy:
    @pytest.mark.parametrize("exponent", [-30, 10])
    def test_matches_normalised_solve(self, exponent):
        # integer weights with equal sums, scaled by a power of two, so both
        # sides keep exactly equal masses of about 1e-6 and 1e6
        rng = np.random.default_rng(16)
        for _ in range(10):
            wa = 1 + rng.multinomial(980, np.full(20, 1 / 20))
            wb = 1 + rng.multinomial(975, np.full(25, 1 / 25))
            pa, pb = rng.uniform(-2.5, 2.5, (20, 2)), rng.uniform(-2.5, 2.5, (25, 2))
            scale = 2.0**exponent
            a, b = ic.new_discrete(pa, wa * scale), ic.new_discrete(pb, wb * scale)
            unit = ic.w1_matching(a.normalized(), b.normalized())
            plan = ic.w1_matching(a, b)
            mass = a.total_mass
            assert np.array_equal(plan.source, unit.source) and np.array_equal(plan.target, unit.target)
            assert np.max(np.abs(plan.mass - unit.mass * mass)) <= 1e-12 * mass
            assert abs(plan.cost - unit.cost * mass) <= 1e-12 * mass
            row, col = plan.marginals(a.n, b.n)
            assert np.max(np.abs(row - a.weights)) <= 1e-10 * mass
            assert np.max(np.abs(col - b.weights)) <= 1e-10 * mass

    def test_near_equal_pairs_keep_their_marginals(self):
        # weights a tiny jitter apart: HiGHS's default primal tolerance let
        # these plans miss their marginals by up to 1e-7
        rng = np.random.default_rng(18)
        for trial in range(40):
            n = int(rng.integers(2, 30))
            pts = rng.uniform(-2.5, 2.5, (n, 2))
            w = rng.choice([0.2, 0.4, 0.6, 0.8, 1.0], n)
            v = w + rng.uniform(-1.0, 1.0, n) * 10.0 ** (-5 - trial % 5)
            a, b = ic.new_discrete(pts, w), ic.new_discrete(pts, v * (w.sum() / v.sum()))
            plan = ic.w1_matching(a, b)
            row, col = plan.marginals(n, n)
            assert np.max(np.abs(row - a.weights)) <= 1e-12 * a.total_mass
            assert np.max(np.abs(col - b.weights)) <= 1e-12 * a.total_mass

    def test_cost_optimal_on_near_tie(self):
        # two plans 2e-9 apart in cost: HiGHS's default dual tolerance
        # stopped at the worse one
        a = pair_1d([-1.0, -1.0, -1.0, 1e-9], [1.0] * 4)
        b = pair_1d([-1.0, -1.0, 0.0, 0.5], [1.0] * 4)
        assert abs(_lp_plan(a, b).cost - ic.w1_1d(a, b)) <= 1e-12


class TestLpAssembly:
    """``transport.linprog`` builds the column-wise constraint matrix from the
    column list and solves through scipy's HiGHS binding.  scipy's ``linprog``
    on the list-built matrix, at the same options, must return the same flows
    and duals bit for bit."""

    @staticmethod
    def assert_same_solve(c, src, tgt, a, b):
        n, m = len(a), len(b)
        got = transport.linprog(c, src, tgt, a, b)
        a_eq = reference_marginal_constraints(n, m)[:, src * m + tgt]
        x, duals = reference_linprog(c, a_eq, np.concatenate([a, b]))
        assert np.array_equal(got.x, x) and np.array_equal(got.duals, duals)

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 5), (50, 40), (100, 80), (120, 120)])
    def test_matches_list_built_matrix(self, n, m):
        rng = np.random.default_rng(n * m)
        a, b = random_probability(rng, n, 2), random_probability(rng, m, 2)
        src, tgt = np.nonzero(np.ones((n, m), dtype=bool))
        dist = np.sqrt(np.sum((a.points[src] - b.points[tgt]) ** 2, axis=1))
        self.assert_same_solve(dist, src, tgt, a.weights * LP_MASS, b.weights * LP_MASS)

    # n, m, d and kind of 18 pairs; the two-cluster pairs need a second solve
    RESTRICTED = [
        (3, 5, 2, "uniform"), (5, 3, 3, "uniform"), (12, 20, 2, "grid"), (36, 36, 3, "uniform"),
        (37, 50, 2, "uniform"), (60, 45, 3, "grid"), (80, 70, 2, "two-cluster"), (90, 120, 3, "uniform"),
        (120, 120, 2, "uniform"), (120, 120, 3, "uniform"), (60, 60, 2, "jittered"), (100, 40, 3, "two-cluster"),
        (45, 90, 2, "grid"), (120, 3, 2, "uniform"), (7, 110, 3, "uniform"), (70, 70, 3, "jittered"),
        (50, 40, 2, "uniform"), (110, 100, 3, "grid"),
    ]

    def test_restricted_lps_match_scipy_linprog(self, monkeypatch):
        calls = []
        solve = transport.linprog
        monkeypatch.setattr(transport, "linprog", lambda *args: calls.append(args) or solve(*args))
        for seed, (n, m, d, kind) in enumerate(self.RESTRICTED):
            before = len(calls)
            _lp_plan(*lp_pair(np.random.default_rng(seed), n, m, d, kind))
            assert len(calls) - before >= (2 if kind == "two-cluster" else 1)
        monkeypatch.undo()
        assert len(calls) >= 20
        for args in calls:
            self.assert_same_solve(*args)


@contextmanager
def recorded(name):
    """Wrap ``transport.<name>`` for the block; yields the list of its results."""
    results = []
    original = getattr(transport, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    setattr(transport, name, wrapper)
    try:
        yield results
    finally:
        setattr(transport, name, original)


def lp_pair(rng, n, m, d, kind):
    """Two probability measures of n and m atoms for the sparse LP route.

    ``uniform``: points and weights uniform; ``two-cluster``: most source mass
    in one far cluster and most target mass in the other; ``grid``: integer
    points, so many distances tie; ``jittered``: one support, with weights a
    tiny jitter apart (m is taken equal to n).
    """
    if kind == "two-cluster":
        def cluster(k, share):
            centre = np.where(np.arange(k) < share * k, 2.0, -2.0)[:, None]
            return centre + rng.uniform(-0.3, 0.3, (k, d))

        pa, pb = cluster(n, 0.2), cluster(m, 0.5)
    elif kind == "grid":
        pa, pb = rng.integers(-2, 3, (n, d)).astype(float), rng.integers(-2, 3, (m, d)).astype(float)
    else:
        pa, pb = rng.uniform(-2.5, 2.5, (n, d)), rng.uniform(-2.5, 2.5, (m, d))
    wa = rng.uniform(0.2, 1.0, n)
    if kind == "jittered":
        pb, wb = pa, wa + rng.uniform(-1.0, 1.0, n) * 1e-7
    else:
        wb = rng.uniform(0.2, 1.0, m)
    return ic.new_discrete(pa, wa / wa.sum()), ic.new_discrete(pb, wb / wb.sum())


class TestSparseColumns:
    """More than NEIGHBOURS atoms per side: the LP starts from a sparse column
    set and must reach the optimum of the full LP, certified."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(NEIGHBOURS + 1, 90),
        st.integers(NEIGHBOURS + 1, 90),
        st.integers(2, 3),
        st.sampled_from(["uniform", "two-cluster", "grid", "jittered"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_full_column_lp(self, n, m, d, kind, seed):
        a, b = lp_pair(np.random.default_rng(seed), n, m, d, kind)
        mass = a.total_mass
        with recorded("_certify") as gaps:
            plan = _lp_plan(a, b)
        _, want = full_lp_plan(a, b)
        assert abs(plan.cost - want) <= 1e-12 * mass
        row, col = plan.marginals(a.n, b.n)
        assert np.max(np.abs(row - a.weights)) <= 1e-10 * mass
        assert np.max(np.abs(col - b.weights)) <= 1e-10 * mass
        assert len(gaps) == 1 and gaps[0] <= MASS_TOL * mass

    def test_two_clusters_need_more_columns(self):
        # 30% of the mass must cross between clusters 4 apart, and no
        # near-neighbour column crosses
        a, b = lp_pair(np.random.default_rng(19), 80, 70, 2, "two-cluster")
        with recorded("linprog") as solves:
            plan = _lp_plan(a, b)
        assert len(solves) >= 2
        assert len(solves[0].x) < a.n * b.n
        _, want = full_lp_plan(a, b)
        assert abs(plan.cost - want) <= 1e-12 * a.total_mass

    def test_small_sides_solve_every_column_once(self):
        rng = np.random.default_rng(20)
        a, b = random_probability(rng, NEIGHBOURS, 2), random_probability(rng, 90, 2)
        with recorded("linprog") as solves:
            _lp_plan(a, b)
        assert len(solves) == 1 and len(solves[0].x) == NEIGHBOURS * 90

    def test_only_improving_columns_enter(self):
        # sources left of targets on one line: every cost is y_j - x_i, so
        # every plan is optimal and no column prices below zero beyond
        # rounding; the first restricted LP is final
        rng = np.random.default_rng(3)
        n, m = 60, 50
        xa, xb = rng.uniform(-2.5, -0.5, n), rng.uniform(0.5, 2.5, m)
        wa, wb = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, m)
        a = ic.new_discrete(np.column_stack((xa, np.zeros(n))), wa / wa.sum())
        b = ic.new_discrete(np.column_stack((xb, np.zeros(m))), wb / wb.sum())
        with recorded("linprog") as solves:
            plan = _lp_plan(a, b)
        assert len(solves) == 1 and len(solves[0].x) < n * m
        assert abs(plan.cost - (np.sum(b.weights * b.points[:, 0]) - np.sum(a.weights * a.points[:, 0]))) <= 1e-12

    def test_certificate_on_two_by_two(self):
        # sources (0,0), (1,0) and targets (0,1), (1,1), half a unit each:
        # with u = 0 the repaired v is (1, 1) and the bound 1, the straight cost
        dist = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]])
        half = np.array([0.5, 0.5])
        u = np.zeros(2)
        straight = TransportPlan(np.array([0, 1]), np.array([0, 1]), half, 1.0)
        assert _certify(straight, dist, half, half, u) == 0.0
        crossing = TransportPlan(np.array([0, 1]), np.array([1, 0]), half, float(np.sqrt(2.0)))
        with pytest.raises(DualityGap, match="exceeds its dual bound by 0.414"):
            _certify(crossing, dist, half, half, u)


class TestCertificateScale:
    """The LP certificate allows a gap of MASS_TOL of the mass times the
    largest distance (at most 1), so shrinking every coordinate by s leaves an
    optimal plan's cost at s times the unscaled one, or ends in DualityGap."""

    @staticmethod
    def pair(seed, s):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(3, 60, 2)
        pa, pb = rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, (m, 2))
        wa, wb = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, m)
        return ic.new_discrete(pa * s, wa), ic.new_discrete(pb * s, wb * (wa.sum() / wb.sum()))

    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_distances_raise_duality_gap(self, seed):
        # HiGHS's dual tolerance is absolute: at s = 1e-9 it stops 0.2-3.7% above the optimum
        with pytest.raises(DualityGap):
            ic.w1_matching(*self.pair(seed, 1e-9))

    @pytest.mark.parametrize("s", [1e-6, 1e-3])
    def test_certified_costs_scale_with_the_distances(self, s):
        certified = 0
        for seed in range(12):
            want = s * ic.w1_matching(*self.pair(seed, 1.0)).cost
            try:
                got = ic.w1_matching(*self.pair(seed, s)).cost
            except DualityGap:
                continue
            certified += 1
            assert abs(got - want) <= 1e-15 * want, seed
        assert certified >= 9


class TestSolverTracing:
    @staticmethod
    def tracer():
        # perfbench/tracer.py times the solvers by wrapping transport's
        # linear_sum_assignment and linprog attributes
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from tracer import Tracer
        finally:
            sys.path.pop(0)
        return Tracer()

    def test_benchmark_tracer_sees_each_solver_route(self):
        rng = np.random.default_rng(13)
        uniform = [random_measure(rng, 4, 2, uniform=True) for _ in range(2)]
        weighted = [random_probability(rng, n, 2) for n in (3, 5)]
        tracer = self.tracer()
        tracer.install()
        try:
            ic.w1_matching(*uniform)
            ic.w1_matching(*weighted)
        finally:
            tracer.uninstall()
        assert tracer.counts["transport.route_assignment"] == 1
        assert tracer.counts["transport.route_lp"] == 1
        assert tracer.counts["transport.lp_vars"] == 15

    def test_one_dim_pair_reaches_no_solver(self):
        tracer = self.tracer()
        rng = np.random.default_rng(17)
        tracer.install()
        try:
            ic.w1_matching(random_probability(rng, 6, 1), random_probability(rng, 9, 1))
        finally:
            tracer.uninstall()
        assert tracer.counts["transport.route_lp"] == 0
        assert tracer.counts["transport.route_assignment"] == 0


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
