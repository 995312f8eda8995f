"""Interacting-particle flows driven by a measure-dependent velocity field.

The coupled system is ``dx_i/dt = v(t, mu_t, x_i)`` over [0, 1], with ``mu_t``
the empirical measure of the particles; one velocity call evaluates all
particles and tracers.  The state is one (n, d) array in the atom order of
the canonical initial measure; stage measures view it without a copy or a
re-sort, so flows are bitwise equivariant under relabelling the initial atoms.
One step loop runs explicit Euler (a depth-T residual stack with velocity
scale 1/T), classical RK4 (the convergence reference) and the characteristic
map, which carries a query point along the flow as a passive tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionParams, Layer, MlpParams, velocity_rows
from .deep_transformer import LayerStack, forward_measure
from .errors import NonFiniteState, TooFewTimePoints
from .measures import Box, DiscreteMeasure, _freeze, _raw_measure, canonicalize
from .transport import w1_matching

VelocityFn = Callable[[float, DiscreteMeasure, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VelocityField:
    """Velocity ``(t, mu, X) -> dX/dt`` evaluated on query rows X of shape (m, d).

    ``fn`` receives all m rows at once and returns an (m, d) array; row i is
    the velocity at X[i] in the field of the measure ``mu``, whose atoms the
    layer fields reduce in the order given.
    """

    fn: VelocityFn

    def __call__(self, t: float, mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.asarray(self.fn(t, mu, X), dtype=float).reshape(X.shape)

    @staticmethod
    def from_layer(att: AttentionParams, mlp_p: MlpParams) -> "VelocityField":
        """Time-independent field given by one attention+MLP layer displacement."""
        return VelocityField(lambda t, mu, X: velocity_rows(att, mlp_p, mu, X))

    @staticmethod
    def from_stack(stack: LayerStack) -> "VelocityField":
        """Piecewise-constant-in-time field: layer floor(t * depth) drives [0, 1]."""
        layers = stack.layers
        if not layers:
            return VelocityField(lambda t, mu, X: np.zeros_like(X))

        def fn(t: float, mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
            layer = layers[min(int(t * len(layers)), len(layers) - 1)]
            return layer.scale * velocity_rows(layer.attention, layer.mlp, mu, X)

        return VelocityField(fn)


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus atom positions as one read-only (steps + 1, n, d) array;
    states are built on demand, in the initial ``box`` hulled as they leave it."""

    times: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    box: Box

    @property
    def states(self) -> tuple[DiscreteMeasure, ...]:
        return tuple(_state_measure(p, self.weights, self.box) for p in self.points)

    @property
    def final(self) -> DiscreteMeasure:
        return _state_measure(self.points[-1], self.weights, self.box)


def _state_measure(rows: np.ndarray, weights: np.ndarray, box: Box) -> DiscreteMeasure:
    """Measure on a read-only view of the particle rows: no copy, no re-sort."""
    if not np.isfinite(rows).all():
        raise NonFiniteState("particle positions became non-finite")
    return _raw_measure(rows, weights, box.hull(rows), False)


def _integrate(
    v: VelocityField, mu_c: DiscreteMeasure, z: np.ndarray, h: float, steps: int, rk4: bool
) -> np.ndarray:
    """z and its rows after each of ``steps`` Euler or RK4 steps of size h from
    t = 0, as one read-only (steps + 1, len(z), d) array.

    Rows z[:n] are the atoms of the canonical ``mu_c``; the velocity sees their
    measure, in that atom order.  Rows from n on are passive tracers.
    """
    n, w, box = mu_c.n, mu_c.weights, mu_c.box

    def k(t: float, zs: np.ndarray) -> np.ndarray:
        return v(t, _state_measure(zs[:n], w, box), zs)

    path = np.empty((steps + 1,) + z.shape)
    path[0] = z
    for step in range(steps):
        t, z = step * h, path[step]
        k1 = k(t, z)
        if not rk4:
            path[step + 1] = z + h * k1
            continue
        k2 = k(t + h / 2, z + (h / 2) * k1)
        k3 = k(t + h / 2, z + (h / 2) * k2)
        k4 = k(t + h, z + h * k3)
        path[step + 1] = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.isfinite(path[-1]).all():
        raise NonFiniteState("flow state became non-finite")
    return _freeze(path)


def _flow(v: VelocityField, mu0: DiscreteMeasure, steps: int, rk4: bool) -> Trajectory:
    mu_c = canonicalize(mu0)
    h = 1.0 / steps
    path = _integrate(v, mu_c, mu_c.points, h, steps, rk4)
    return Trajectory(_freeze(np.arange(steps + 1) * h), path, mu_c.weights, mu_c.box)


def euler_flow(v: VelocityField, mu0: DiscreteMeasure, T: int) -> Trajectory:
    """T explicit Euler steps of size 1/T on [0, 1].

    All atoms within a step advance from the same frozen measure.  Weights and
    atom count never change; the initial measure is canonicalized once.
    """
    if T < 1:
        raise TooFewTimePoints("need at least one Euler step")
    return _flow(v, mu0, T, rk4=False)


def rk4_flow(v: VelocityField, mu0: DiscreteMeasure, steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on the coupled particle system over [0, 1]."""
    if steps < 1:
        raise TooFewTimePoints("need at least one RK4 step")
    return _flow(v, mu0, steps, rk4=True)


def characteristic_map(
    v: VelocityField,
    mu0: DiscreteMeasure,
    x: np.ndarray,
    t: float,
    steps: int = 256,
) -> np.ndarray:
    """Transport the query point x along the flow of ``mu0`` up to time t.

    The particle system is integrated with RK4 while the query rides along as
    a passive tracer evaluated against the same stage measures, so a query
    placed on an atom reproduces that atom's trajectory exactly (the query is
    one more row of each velocity evaluation).  ``steps`` is the step count
    for the full unit horizon; integration to time t uses round(steps * t)
    steps of equal size.
    """
    if not 0.0 <= t <= 1.0:
        raise TooFewTimePoints(f"time {t} outside [0, 1]")
    y = np.array(np.asarray(x, dtype=float).reshape(-1))
    if t == 0.0:
        return y
    mu_c = canonicalize(mu0)
    n = max(1, int(round(steps * t)))
    return _integrate(v, mu_c, np.vstack([mu_c.points, y]), t / n, n, rk4=True)[-1, -1].copy()


def weak_residual(traj: Trajectory, v: VelocityField, phi) -> float:
    """Max transport-identity residual over interior grid times.

    Compares the central difference of t -> <phi, mu_t> with
    <grad(phi) . v(t, mu_t, .), mu_t>.  ``phi`` must expose ``value`` and
    ``gradient`` on points given as rows (n, d), as a TestFunction does.
    """
    times, points, w = traj.times, traj.points, traj.weights
    if len(times) < 3:
        raise TooFewTimePoints("need at least three time points")
    pairings = [float(np.sum(w * phi.value(p))) for p in points]
    worst = 0.0
    for k in range(1, len(times) - 1):
        lhs = (pairings[k + 1] - pairings[k - 1]) / (times[k + 1] - times[k - 1])
        vel = v(times[k], _state_measure(points[k], w, traj.box), points[k])
        rhs = float(np.sum(w * np.sum(phi.gradient(points[k]) * vel, axis=1)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def scaled_stack(att: AttentionParams, mlp_p: MlpParams, T: int):
    """Depth-T stack whose every layer applies 1/T of the base layer velocity."""
    layer = Layer(att, mlp_p, scale=1.0 / T)
    return LayerStack(tuple([layer] * T), att.dim)


def depth_limit_error(att: AttentionParams, mlp_p: MlpParams, mu0: DiscreteMeasure, T: int) -> float:
    """W1 gap between the depth-T scaled stack and the RK4 continuum reference.

    Both are built from one base layer (``att``, ``mlp_p``); the reference
    uses 4T RK4 steps of that layer's velocity.
    """
    if T < 1:
        raise TooFewTimePoints(f"need a depth of at least one, got {T}")
    stack_final = forward_measure(scaled_stack(att, mlp_p, T), mu0)
    ref_final = rk4_flow(VelocityField.from_layer(att, mlp_p), mu0, 4 * T).final
    return w1_matching(stack_final, ref_final).cost
