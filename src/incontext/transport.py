"""Exact 1-Wasserstein distances between discrete measures.

Three routes:

* ``w1_1d`` — the closed-form cumulative-distribution integral in dimension
  one, evaluated exactly as a piecewise-constant integral over the merged
  breakpoints of both supports.
* ``w1_matching`` — the general-dimension optimal coupling from an exact
  linear-programming solve on the bipartite atom graph (with a combinatorial
  assignment fast path when both measures are uniform with the same size).
* ``w1_extended`` — the extension to positive measures of unequal mass:
  distance between the normalized measures plus the mass difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionNotOne, MassMismatch, ProblemTooLarge
from .measures import DiscreteMeasure

MASS_TOL = 1e-10
ATOM_CAP = 200


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


def _dist_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _require_equal_mass(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if abs(mu.total_mass - nu.total_mass) > MASS_TOL:
        raise MassMismatch(
            f"total masses differ: {mu.total_mass!r} vs {nu.total_mass!r}"
        )


def w1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 in dimension one via the integral of |F_mu - F_nu|.

    Requires equal total mass (within 1e-10).  Exact up to summation rounding:
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
    dist = _dist_matrix(mu.points, nu.points)
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


def _lp_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    n, m = mu.n, nu.n
    dist = _dist_matrix(mu.points, nu.points)
    # rescale the target marginal so both sides sum identically
    b_target = nu.weights * (mu.total_mass / nu.total_mass)
    a_eq = _marginal_constraints(n, m)
    b_eq = np.concatenate([mu.weights, b_target])
    res = linprog(dist.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise MassMismatch(f"transport LP failed: {res.message}")
    flow = res.x.reshape(n, m)
    keep = flow > 1e-13 * mu.total_mass
    src, tgt = np.nonzero(keep)
    mass = flow[src, tgt]
    cost = float(np.sum(mass * dist[src, tgt]))
    return TransportPlan(src, tgt, mass, cost)


def w1_matching(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Optimal transport plan between equal-mass discrete measures.

    Uniform same-size pairs are solved by exact assignment, so the cost equals
    the minimum over atom permutations of the mean displacement; everything
    else goes through an exact LP solve.  Raises ProblemTooLarge beyond
    200 atoms on either side.
    """
    _require_equal_mass(mu, nu)
    if mu.n > ATOM_CAP or nu.n > ATOM_CAP:
        raise ProblemTooLarge(f"atom counts {mu.n}, {nu.n} exceed cap {ATOM_CAP}")
    if _uniform_pair(mu, nu):
        return _assignment_plan(mu, nu)
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
