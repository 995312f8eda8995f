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
  the bipartite atom graph, at a fixed total mass.

``w1_extended`` extends W1 to positive measures of unequal mass: the distance
between the normalized measures plus the mass difference.  ``make_dif``
perturbs weights, within an extended-W1 budget, until all disjoint subset sums
are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, DimensionNotOne, ExhaustedRetries, MassMismatch, NonpositiveWeight, ProblemTooLarge
)
from .measures import DiscreteMeasure, _distances, _raw_measure, canonicalize, is_dif

MASS_TOL = 1e-10
ATOM_CAP = 200
# Total mass the transport LP is solved at.  HiGHS's feasibility tolerances are
# absolute: a plan it returns can miss its marginals by the whole primal
# tolerance and its optimal cost by the dual tolerance times the mass.
LP_MASS = 1e3

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

    def triples(self) -> list[tuple[int, int, float]]:
        return [
            (int(i), int(j), float(m))
            for i, j, m in zip(self.source, self.target, self.mass)
        ]

    def marginals(self, n_source: int, n_target: int) -> tuple[np.ndarray, np.ndarray]:
        row = np.zeros(n_source)
        col = np.zeros(n_target)
        np.add.at(row, self.source, self.mass)
        np.add.at(col, self.target, self.mass)
        return row, col


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
    xs = np.sort(mu.points[:, 0])
    ys = np.sort(nu.points[:, 0])
    cum_x = np.cumsum(mu.weights[np.argsort(mu.points[:, 0], kind="stable")])
    cum_y = np.cumsum(nu.weights[np.argsort(nu.points[:, 0], kind="stable")])
    grid = np.sort(np.concatenate([xs, ys]), kind="stable")
    ix = np.searchsorted(xs, grid, side="right")
    iy = np.searchsorted(ys, grid, side="right")
    f_x = np.where(ix > 0, cum_x[np.maximum(ix - 1, 0)], 0.0)
    f_y = np.where(iy > 0, cum_y[np.maximum(iy - 1, 0)], 0.0)
    return float(np.sum(np.abs(f_x - f_y)[:-1] * np.diff(grid)))


def _uniform_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    return (
        mu.n == nu.n
        and np.all(mu.weights == mu.weights[0])
        and np.all(nu.weights == nu.weights[0])
    )


# The scipy solvers are imported on first call, not at module level, so that
# the routes which never solve an assignment or an LP start without loading
# scipy.  They keep scipy's names here because perfbench/tracer.py times the
# solvers by wrapping these two module attributes.


def linear_sum_assignment(cost: np.ndarray):
    """``scipy.optimize.linear_sum_assignment`` on a dense cost matrix."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def linprog(c: np.ndarray, **kwargs):
    """``scipy.optimize.linprog`` with cost vector ``c``."""
    from scipy.optimize import linprog as solve

    return solve(c, **kwargs)


def _assignment_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    dist = _distances(mu.points, nu.points)
    rows, cols = linear_sum_assignment(dist)
    mass = mu.weights[rows]
    cost = float(np.sum(mass * dist[rows, cols]))
    return TransportPlan(rows, cols, mass, cost)


def _marginal_constraints(n: int, m: int):
    """Equality-constraint matrix of the n x m transport LP, flow row-major.

    Rows 0..n-1 sum each source atom's outgoing flow, rows n..n+m-1 each
    target atom's incoming flow.
    """
    from scipy import sparse

    rows = np.concatenate([np.repeat(np.arange(n), m), np.repeat(np.arange(n, n + m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m).reshape(n, m).T.reshape(-1)])
    data = np.ones(2 * n * m)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n + m, n * m))


def _monotone_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """The monotone plan in dimension one, flows in row-major order.

    Both cumulative-mass grids are merged; each piece between consecutive
    breakpoints flows from the source atom whose mass interval holds it to
    the target atom whose interval holds it.
    """
    total = mu.total_mass
    ox = np.argsort(mu.points[:, 0], kind="stable")
    oy = np.argsort(nu.points[:, 0], kind="stable")
    cum_x = np.cumsum(mu.weights[ox])
    # rescale the target marginal so both sides sum identically
    cum_y = np.cumsum(nu.weights[oy] * (total / nu.total_mass))
    ends = np.append(np.sort(np.concatenate([cum_x[:-1], cum_y[:-1]])), cum_x[-1])
    starts = np.concatenate([[0.0], ends[:-1]])
    mass = ends - starts
    keep = mass > 1e-13 * total
    starts, mass = starts[keep], mass[keep]
    src = ox[np.minimum(np.searchsorted(cum_x, starts, side="right"), mu.n - 1)]
    tgt = oy[np.minimum(np.searchsorted(cum_y, starts, side="right"), nu.n - 1)]
    order = np.lexsort((tgt, src))
    src, tgt, mass = src[order], tgt[order], mass[order]
    cost = float(np.sum(mass * np.abs(mu.points[src, 0] - nu.points[tgt, 0])))
    return TransportPlan(src, tgt, mass, cost)


def _lp_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    n, m = mu.n, nu.n
    total = mu.total_mass
    dist = _distances(mu.points, nu.points)
    a_eq = _marginal_constraints(n, m)
    # rescale the target marginal so both sides sum identically
    b_target = nu.weights * (total / nu.total_mass)
    # At mass LP_MASS and HiGHS's tightest tolerances (the defaults are 1e-7)
    # the marginals hold to about 1e-13 of the mass and the cost is optimal to
    # rounding.  Presolve removes nothing from a transport LP and costs 35-50%
    # of the solve.
    b_eq = np.concatenate([mu.weights, b_target]) * (LP_MASS / total)
    options = {"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(dist.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=options)
    if res.status != 0:
        raise MassMismatch(f"transport LP failed: {res.message}")
    flow = res.x.reshape(n, m) * (total / LP_MASS)
    keep = flow > 1e-13 * total
    src, tgt = np.nonzero(keep)
    mass = flow[src, tgt]
    plan = TransportPlan(src, tgt, mass, float(np.sum(mass * dist[src, tgt])))
    row, col = plan.marginals(n, m)
    residual = max(np.max(np.abs(row - mu.weights)), np.max(np.abs(col - b_target)))
    if residual > MASS_TOL * total:
        raise MassMismatch(f"transport LP failed: plan marginals off by {residual:.3g} of mass {total!r}")
    return plan


def w1_matching(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Optimal transport plan between equal-mass discrete measures.

    Uniform same-size pairs are solved by exact assignment, so the cost equals
    the minimum over atom permutations of the mean displacement; other pairs
    in dimension one get the monotone plan, and everything else an exact LP
    solve.  Raises DimensionMismatch when the measures live in different
    dimensions and ProblemTooLarge beyond 200 atoms on either side.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"cannot transport dimension {mu.dim} onto dimension {nu.dim}")
    _require_equal_mass(mu, nu)
    if mu.n > ATOM_CAP or nu.n > ATOM_CAP:
        raise ProblemTooLarge(f"atom counts {mu.n}, {nu.n} exceed cap {ATOM_CAP}")
    if _uniform_pair(mu, nu):
        return _assignment_plan(mu, nu)
    if mu.dim == 1:
        return _monotone_plan(mu, nu)
    return _lp_plan(mu, nu)


def w1_extended(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between the mass-normalized measures plus |mass difference|."""
    mu_n = mu.normalized()
    nu_n = nu.normalized()
    if mu.dim == 1:
        base = w1_1d(mu_n, nu_n)
    else:
        base = w1_matching(mu_n, nu_n).cost
    return base + abs(mu.total_mass - nu.total_mass)


def make_dif(mu: DiscreteMeasure, eps: float, seed: int) -> DiscreteMeasure:
    """Perturb weights so all disjoint subset sums become distinct.

    Each weight moves by less than eps/n, the perturbed measure stays within
    extended-W1 distance eps of the canonical input, and the draw is
    deterministic given ``seed``.  Measures already having distinct subset
    sums are returned unchanged (canonicalized).
    """
    if not 0.0 < eps < np.inf:
        raise NonpositiveWeight(f"eps must be positive and finite, got {eps!r}")
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
