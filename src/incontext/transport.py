"""Exact 1-Wasserstein distances between discrete measures.

Four routes:

* ``w1_1d`` — the closed-form cumulative-distribution integral in dimension
  one, evaluated exactly as a piecewise-constant integral over the merged
  breakpoints of both supports.
* ``w1_matching`` on a uniform same-size pair — an exact combinatorial
  assignment.
* ``w1_matching`` on any other pair in dimension one — the monotone
  (north-west-corner) plan, which sends the k-th unit of mass in sorted
  source order to the k-th unit in sorted target order.  It is the unique
  monotone optimal plan, so 1-D plans do not depend on which optimal vertex
  a solver reaches.
* ``w1_matching`` on everything else — an exact linear-programming solve on
  the bipartite atom graph, at a fixed total mass, by HiGHS's dual simplex
  through scipy's bundled HiGHS binding, called directly.  It solves over a
  sparse column set (near neighbours plus a north-west-corner plan, so that
  every restricted LP is feasible) and adds each column with negative
  reduced cost until none is left.  When either side has at most 36 atoms
  the set is every column.

How each plan route is certified:

* LP — by duality.  Its duals, repaired to be feasible on every column, bound
  W1 from below, and the plan's cost must meet that bound to ``MASS_TOL`` of
  the mass times min(1, the largest distance), else ``DualityGap`` is raised.
  An LP solve that stops short raises ``ProblemTooLarge``.
* 1-D — the plan is the unique monotone plan, whose cost equals ``w1_1d``.
* assignment — exact by construction.  scipy's combinatorial solver returns
  no duals to certify it with.

One check, ``_finite``, refuses overflow: an infinite distance (in dimension one,
the farthest pair across the measures) or W1 result raises ProblemTooLarge,
"atom distances overflow" or "the W1 cost overflows", before it is used.

``w1`` picks the closed form in dimension one and the optimal plan's cost
otherwise, after checking that both measures share a dimension.
``w1_extended`` extends W1 to positive measures of unequal mass: the distance
between the normalized measures plus the mass difference.  ``make_dif``
perturbs weights, within an extended-W1 budget, until all disjoint subset sums
are distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, DimensionNotOne, DualityGap, ExhaustedRetries, MassMismatch, OutOfDomain, ProblemTooLarge
)
from .measures import DiscreteMeasure, _amount, _count, _distances, _raw_measure, canonicalize, is_dif

MASS_TOL = 1e-10
ATOM_CAP = 200
# Total mass the transport LP is solved at.  HiGHS's feasibility tolerances are
# absolute: a plan it returns can miss its marginals by the whole primal
# tolerance and its optimal cost by the dual tolerance times the mass.
LP_MASS = 1e3
# Nearest targets of each source, and nearest sources of each target, in the
# LP's first column set.  Measured from 24 to 56 on 120 x 120 LPs in dimensions
# 2 and 3: below 36 so many LPs need a second solve that their median time
# jumps between one and two solves, and above 36 every solve grows.
NEIGHBOURS = 36
# A column enters the LP when its reduced cost is below -REDUCED_COST_TOL:
# HiGHS's own dual feasibility test, applied to the columns it was not given.
REDUCED_COST_TOL = 1e-10

_MAKE_DIF_TRIES = 64


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two discrete measures.

    ``source``/``target`` hold atom indices, ``mass`` the flow on each pair,
    and ``cost`` the total transport cost sum(mass * |x_i - y_j|).
    """

    source: np.ndarray
    target: np.ndarray
    mass: np.ndarray
    cost: float

    def marginals(self, n_source: int, n_target: int) -> tuple[np.ndarray, np.ndarray]:
        row = np.zeros(n_source)
        col = np.zeros(n_target)
        np.add.at(row, self.source, self.mass)
        np.add.at(col, self.target, self.mass)
        return row, col


def _require_same_dim(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"cannot transport dimension {mu.dim} onto dimension {nu.dim}")


def _require_equal_mass(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    """Total masses must agree to MASS_TOL relative to the larger one."""
    a, b = mu.total_mass, nu.total_mass
    if abs(a - b) > MASS_TOL * max(a, b):
        raise MassMismatch(f"total masses differ: {a!r} vs {b!r}")


def w1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 in dimension one via the integral of |F_mu - F_nu|.

    Requires equal total mass (relative 1e-10).  Exact up to summation rounding:
    the integrand is piecewise constant between the merged atom positions.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionNotOne(f"got dimensions {mu.dim} and {nu.dim}")
    _require_equal_mass(mu, nu)
    xs, cum_x = _cdf_steps(mu)
    ys, cum_y = _cdf_steps(nu)
    with np.errstate(over="ignore"):
        _finite(max(xs[-1] - ys[0], ys[-1] - xs[0]), "atom distances overflow")
        grid = np.sort(np.concatenate((xs, ys)), kind="stable")
        f_x = cum_x[xs.searchsorted(grid, side="right")]
        f_y = cum_y[ys.searchsorted(grid, side="right")]
        cost = float(np.add.reduce(np.abs(f_x - f_y)[:-1] * (grid[1:] - grid[:-1])))
    return _finite(cost, "the W1 cost overflows")


def _cdf_steps(mu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The sorted atom positions, and the cumulative masses: entry k is the
    mass of the k leftmost atoms, from 0.0 at k = 0."""
    x = mu.points[:, 0]
    return np.sort(x), np.concatenate(([0.0], mu.weights[x.argsort(kind="stable")])).cumsum()


def _finite(value: float, message: str) -> float:
    """``value``, or ProblemTooLarge(message) if it is not finite, NaN included."""
    if not math.isfinite(value):
        raise ProblemTooLarge(message)
    return value


def _uniform_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    return (
        mu.n == nu.n
        and np.all(mu.weights == mu.weights[0])
        and np.all(nu.weights == nu.weights[0])
    )


# The scipy solvers are imported on first call, not at module level, so that
# the routes which never solve an assignment or an LP start without loading
# scipy.  They keep scipy's names here because perfbench/tracer.py times the
# solvers by wrapping these two module attributes.  The LP calls scipy's
# HiGHS binding directly: ``scipy.optimize.linprog`` around the same solve
# converts the matrix and builds per-column bound multipliers in Python.


def linear_sum_assignment(cost: np.ndarray):
    """``scipy.optimize.linear_sum_assignment`` on a dense cost matrix."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


# The options ``scipy.optimize.linprog(method="highs")`` passes, with the
# transport LP's presolve and tolerances.  At mass LP_MASS and HiGHS's
# tightest tolerances (the defaults are 1e-7) the marginals hold to about
# 1e-13 of the mass and the cost is optimal to rounding.  Presolve removes
# nothing from a transport LP and costs 35-50% of the solve.
_HIGHS_OPTIONS = {
    "presolve": "off",
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_strategy": 1,  # dual simplex
    "output_flag": False,
    "log_to_console": False,
}


@dataclass(frozen=True)
class LpSolution:
    """An optimal transport LP solution: the flow ``x`` on each column, and
    the dual of each marginal row, sources first."""

    x: np.ndarray
    duals: np.ndarray


def linprog(c: np.ndarray, src: np.ndarray, tgt: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Minimize ``c @ x`` over flows ``x >= 0`` on the columns (src[k],
    tgt[k]) whose row sums are ``a`` and column sums ``b``, by HiGHS's dual
    simplex.

    Column k of the constraint matrix holds a one in row src[k] and in row
    n + tgt[k].  The LP is feasible and bounded, so any status but optimal
    means the solver met numbers it cannot handle: ProblemTooLarge.
    """
    from scipy.optimize._highspy import _core as highs

    k = len(c)
    bounds = np.concatenate([a, b])
    starts = np.arange(0, 2 * k, 2, dtype=np.int32)
    rows = np.column_stack([src, len(a) + tgt]).astype(np.int32).ravel()
    solver = highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        solver.setOptionValue(key, value)
    # columns, rows, nonzeros, matrix format, sense, objective offset; column
    # cost and bounds; row bounds; the matrix; every column continuous
    status = solver.passModel(
        k, len(bounds), 2 * k, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        c, np.zeros(k), np.full(k, np.inf),
        bounds, bounds,
        starts, rows, np.ones(2 * k),
        np.zeros(k, dtype=np.int32),
    )
    if status != highs.HighsStatus.kError:
        status = solver.run()
    model = solver.getModelStatus()
    if status == highs.HighsStatus.kError or model != highs.HighsModelStatus.kOptimal:
        raise ProblemTooLarge(f"transport LP failed: {solver.modelStatusToString(model)}")
    solution = solver.getSolution()
    return LpSolution(np.array(solution.col_value), np.array(solution.row_dual))


def _assignment_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    dist = _distances(mu.points, nu.points)
    _finite(np.maximum.reduce(dist, axis=None), "atom distances overflow")  # the largest; a NaN propagates
    rows, cols = linear_sum_assignment(dist)
    mass = mu.weights[rows]
    cost = float(np.sum(mass * dist[rows, cols]))
    return TransportPlan(rows, cols, mass, cost)


def _north_west_corner(a: np.ndarray, b: np.ndarray):
    """The north-west-corner plan of weight vectors ``a`` and ``b`` (equal
    sums) in index order: index pairs and masses, one per piece.

    Both cumulative-mass grids are merged; each piece between consecutive
    breakpoints flows from the index whose mass interval holds it on each
    side.  Pieces may have zero mass.
    """
    cum_x = np.cumsum(a)
    cum_y = np.cumsum(b)
    ends = np.append(np.sort(np.concatenate([cum_x[:-1], cum_y[:-1]])), cum_x[-1])
    starts = np.concatenate([[0.0], ends[:-1]])
    src = np.minimum(np.searchsorted(cum_x, starts, side="right"), len(a) - 1)
    tgt = np.minimum(np.searchsorted(cum_y, starts, side="right"), len(b) - 1)
    return src, tgt, ends - starts


def _monotone_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """The monotone plan in dimension one, flows in row-major order: the
    north-west-corner plan of both measures in sorted order, without pieces
    of at most 1e-13 of the mass."""
    total = mu.total_mass
    ox = np.argsort(mu.points[:, 0], kind="stable")
    oy = np.argsort(nu.points[:, 0], kind="stable")
    x, y = mu.points[ox, 0], nu.points[oy, 0]
    _finite(max(x[-1] - y[0], y[-1] - x[0]), "atom distances overflow")
    # rescale the target marginal so both sides sum identically
    src, tgt, mass = _north_west_corner(mu.weights[ox], nu.weights[oy] * (total / nu.total_mass))
    keep = mass > 1e-13 * total
    src, tgt, mass = ox[src[keep]], oy[tgt[keep]], mass[keep]
    order = np.lexsort((tgt, src))
    src, tgt, mass = src[order], tgt[order], mass[order]
    cost = float(np.sum(mass * np.abs(mu.points[src, 0] - nu.points[tgt, 0])))
    return TransportPlan(src, tgt, mass, cost)


def _first_columns(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The LP's first column set as an (n, m) mask: each source's NEIGHBOURS
    nearest targets, each target's NEIGHBOURS nearest sources, and the
    north-west-corner plan of the marginals ``a`` and ``b``, which makes the
    restricted LP feasible.  Every column when a side has at most NEIGHBOURS
    atoms."""
    n, m = dist.shape
    active = np.zeros((n, m), dtype=bool)
    k = min(NEIGHBOURS, m)
    active[np.arange(n)[:, None], np.argpartition(dist, k - 1, axis=1)[:, :k]] = True
    k = min(NEIGHBOURS, n)
    active[np.argpartition(dist, k - 1, axis=0)[:k], np.arange(m)] = True
    src, tgt, _ = _north_west_corner(a, b)
    active[src, tgt] = True
    return active


def _certify(plan: TransportPlan, dist: np.ndarray, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> float:
    """The plan's cost minus a lower bound on W1 between the marginals ``a``
    and ``b``, from the source potentials ``u``.

    The target potentials v_j = min_i (dist_ij - u_i) make (u, v) feasible for
    the dual LP on every column, so sum(a u) + sum(b v) <= W1.  Raises
    DualityGap when the gap exceeds MASS_TOL * mass * min(1, largest distance).
    """
    v = np.min(dist - u[:, None], axis=0)
    gap = plan.cost - float(np.sum(a * u) + np.sum(b * v))
    total = float(np.sum(a))
    if gap > MASS_TOL * total * min(1.0, float(np.max(dist))):
        raise DualityGap(f"transport plan cost exceeds its dual bound by {gap:.3g} at mass {total!r}")
    return gap


def _lp_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """The LP's optimal plan, solved over a growing column set.

    Each restricted LP's duals price every column; those with reduced cost
    below -REDUCED_COST_TOL join the set, until none is left.  The plan's
    marginals are then checked, and its cost certified by the last duals.
    """
    n, m = mu.n, nu.n
    total = mu.total_mass
    dist = _distances(mu.points, nu.points)
    _finite(np.maximum.reduce(dist, axis=None), "atom distances overflow")  # the largest; a NaN propagates
    # rescale the target marginal so both sides sum identically
    b_target = nu.weights * (total / nu.total_mass)
    scale = LP_MASS / total
    active = _first_columns(dist, mu.weights, b_target)
    while True:
        src, tgt = np.nonzero(active)
        res = linprog(dist[src, tgt], src, tgt, mu.weights * scale, b_target * scale)
        u, v = res.duals[:n], res.duals[n:]
        entering = ~active & (dist - u[:, None] - v < -REDUCED_COST_TOL)
        if not entering.any():
            break
        active |= entering
    flow = res.x * (total / LP_MASS)
    keep = flow > 1e-13 * total
    src, tgt, mass = src[keep], tgt[keep], flow[keep]
    plan = TransportPlan(src, tgt, mass, float(np.sum(mass * dist[src, tgt])))
    row, col = plan.marginals(n, m)
    residual = max(np.max(np.abs(row - mu.weights)), np.max(np.abs(col - b_target)))
    if residual > MASS_TOL * total:
        raise MassMismatch(f"transport LP failed: plan marginals off by {residual:.3g} of mass {total!r}")
    _certify(plan, dist, mu.weights, b_target, u)
    return plan


def w1_matching(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Optimal transport plan between equal-mass discrete measures.

    Uniform same-size pairs are solved by exact assignment, so the cost equals
    the minimum over atom permutations of the mean displacement; other pairs
    in dimension one get the monotone plan, and everything else an exact LP
    solve.  Raises DimensionMismatch when the measures live in different
    dimensions, and ProblemTooLarge beyond 200 atoms on either side or when a
    distance or the cost overflows.
    """
    _require_same_dim(mu, nu)
    _require_equal_mass(mu, nu)
    if mu.n > ATOM_CAP or nu.n > ATOM_CAP:
        raise ProblemTooLarge(f"atom counts {mu.n}, {nu.n} exceed cap {ATOM_CAP}")
    route = _assignment_plan if _uniform_pair(mu, nu) else _monotone_plan if mu.dim == 1 else _lp_plan
    with np.errstate(over="ignore"):
        plan = route(mu, nu)
    _finite(plan.cost, "the W1 cost overflows")
    return plan


def w1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between equal-mass measures: the closed form in dimension one, else
    the optimal plan's cost.  DimensionMismatch comes first, in either order."""
    _require_same_dim(mu, nu)
    return w1_1d(mu, nu) if mu.dim == 1 else w1_matching(mu, nu).cost


def w1_extended(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between the mass-normalized measures plus |mass difference|."""
    return w1(mu.normalized(), nu.normalized()) + abs(mu.total_mass - nu.total_mass)


def make_dif(mu: DiscreteMeasure, eps: float, seed: int) -> DiscreteMeasure:
    """Perturb weights so all disjoint subset sums become distinct.

    Each weight moves by less than eps/n, the perturbed measure stays within
    extended-W1 distance eps of the canonical input, and the draw is
    deterministic given ``seed``.  Measures already having distinct subset
    sums are returned unchanged (canonicalized).  A seed that is not a Python
    or numpy integer of at least 0 raises OutOfDomain.
    """
    _amount(eps, "eps")
    _count(seed, 0, OutOfDomain, "seed must be a nonnegative integer, got {!r}")
    mu_c = canonicalize(mu)
    if is_dif(mu_c):
        return mu_c
    n = mu_c.n
    delta = min(eps / (2.0 * n), float(np.min(mu_c.weights)) / 2.0)
    rng = np.random.default_rng(seed)
    for _ in range(_MAKE_DIF_TRIES):
        eta = rng.uniform(-delta, delta, size=n)
        cand = _raw_measure(mu_c.points, mu_c.weights + eta, mu_c.box, True)
        if is_dif(cand) and w1_extended(mu_c, cand) < eps:
            return cand
    raise ExhaustedRetries(f"no valid perturbation found in {_MAKE_DIF_TRIES} draws")
