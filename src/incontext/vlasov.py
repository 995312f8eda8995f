"""Interacting-particle flows driven by a measure-dependent velocity field.

The coupled system is ``dx_i/dt = v(t, mu_t, x_i)`` with ``mu_t`` the current
empirical measure of the particles themselves, over the fixed horizon [0, 1].
A velocity field is evaluated on all particles (and tracers) in one call.
Explicit Euler realizes a depth-T residual stack whose layers carry velocity
scale 1/T; classical RK4 provides the reference solution for convergence
studies.  The characteristic map transports an arbitrary query point along the
flow generated by the particles, with the query acting as a passive tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionParams, Layer, MlpParams, velocity_rows
from .deep_transformer import LayerStack, forward_measure
from .errors import NonFiniteState, TooFewTimePoints
from .measures import Box, DiscreteMeasure, canonicalize
from .transport import w1_matching

VelocityFn = Callable[[float, DiscreteMeasure, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VelocityField:
    """Velocity ``(t, mu, X) -> dX/dt`` evaluated on query rows X of shape (m, d).

    ``fn`` receives all m rows at once and returns an (m, d) array; row i is
    the velocity at X[i] in the field of the measure ``mu``.
    """

    fn: VelocityFn

    def __call__(self, t: float, mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.asarray(self.fn(t, mu, X), dtype=float).reshape(X.shape)

    @staticmethod
    def from_layer(att: AttentionParams, mlp_p: MlpParams) -> "VelocityField":
        """Time-independent field given by one attention+MLP layer displacement."""
        return VelocityField(lambda t, mu, X: velocity_rows(att, mlp_p, canonicalize(mu), X))

    @staticmethod
    def from_stack(stack: LayerStack) -> "VelocityField":
        """Piecewise-constant-in-time field: layer floor(t * depth) drives [0, 1]."""
        layers = stack.layers
        if not layers:
            return VelocityField(lambda t, mu, X: np.zeros_like(X))

        def fn(t: float, mu: DiscreteMeasure, X: np.ndarray) -> np.ndarray:
            layer = layers[min(int(t * len(layers)), len(layers) - 1)]
            return layer.scale * velocity_rows(layer.attention, layer.mlp, canonicalize(mu), X)

        return VelocityField(fn)


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus one measure per time: fixed weights, moving atoms."""

    times: np.ndarray
    states: tuple[DiscreteMeasure, ...]

    @property
    def final(self) -> DiscreteMeasure:
        return self.states[-1]


def _state_measure(points: np.ndarray, weights: np.ndarray, box: Box) -> DiscreteMeasure:
    if not np.isfinite(points).all():
        raise NonFiniteState("particle positions became non-finite")
    state_box = box if box.contains(points) else box.hull(points)
    pts = np.array(points)
    pts.flags.writeable = False
    return DiscreteMeasure(pts, weights, state_box, False)


def _integrate(advance, mu0: DiscreteMeasure, steps: int) -> Trajectory:
    """``steps`` equal steps on [0, 1] from the canonical form of ``mu0``.

    ``advance(state, w, box, t, h)`` returns the particle positions one step
    of size h after ``state``, the measure at time t.  Weights and atom count
    never change.
    """
    mu_c = canonicalize(mu0)
    w = mu_c.weights
    box = mu_c.box
    h = 1.0 / steps
    times = [0.0]
    states = [_state_measure(mu_c.points, w, box)]
    for step in range(steps):
        x = advance(states[-1], w, box, step * h, h)
        times.append((step + 1) * h)
        states.append(_state_measure(x, w, box))
    return Trajectory(np.array(times), tuple(states))


def euler_flow(v: VelocityField, mu0: DiscreteMeasure, T: int) -> Trajectory:
    """T explicit Euler steps of size 1/T on [0, 1].

    All atoms within a step advance from the same frozen measure.  Weights and
    atom count never change; the initial measure is canonicalized once.
    """
    if T < 1:
        raise TooFewTimePoints("need at least one Euler step")
    return _integrate(lambda mu, w, box, t, h: mu.points + h * v(t, mu, mu.points), mu0, T)


def _rk4_advance(
    v: VelocityField, z: np.ndarray, n: int, w: np.ndarray, box: Box, t: float, h: float
) -> np.ndarray:
    """One RK4 step of the particle system z[:n]; rows from n on are passive tracers.

    Stage measures are rebuilt from the stage particle positions; the tracers
    see those measures but never enter them.
    """

    def k(ts: float, zs: np.ndarray) -> np.ndarray:
        return v(ts, _state_measure(zs[:n], w, box), zs)

    k1 = k(t, z)
    k2 = k(t + h / 2, z + (h / 2) * k1)
    k3 = k(t + h / 2, z + (h / 2) * k2)
    k4 = k(t + h, z + h * k3)
    return z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_flow(v: VelocityField, mu0: DiscreteMeasure, steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on the coupled particle system over [0, 1]."""
    if steps < 1:
        raise TooFewTimePoints("need at least one RK4 step")
    return _integrate(
        lambda mu, w, box, t, h: _rk4_advance(v, mu.points, mu.n, w, box, t, h), mu0, steps
    )


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
    one more row of each velocity evaluation).  ``steps``
    is the step count for the full unit horizon; integration to time t uses
    round(steps * t) steps of equal size.
    """
    if not 0.0 <= t <= 1.0:
        raise TooFewTimePoints(f"time {t} outside [0, 1]")
    y = np.array(np.asarray(x, dtype=float).reshape(-1))
    if t == 0.0:
        return y
    mu_c = canonicalize(mu0)
    w = mu_c.weights
    box = mu_c.box
    n = max(1, int(round(steps * t)))
    h = t / n
    z = np.vstack([mu_c.points, y])
    for step in range(n):
        z = _rk4_advance(v, z, mu_c.n, w, box, step * h, h)
    y = z[-1]
    if not np.isfinite(y).all():
        raise NonFiniteState("characteristic became non-finite")
    return y


def weak_residual(traj: Trajectory, v: VelocityField, phi) -> float:
    """Max transport-identity residual over interior grid times.

    Compares the central difference of t -> <phi, mu_t> with
    <grad(phi) . v(t, mu_t, .), mu_t>.  ``phi`` must expose ``value`` and
    ``gradient`` on points given as rows (n, d), as a TestFunction does.
    """
    if len(traj.states) < 3:
        raise TooFewTimePoints("need at least three time points")
    pairings = [float(np.sum(s.weights * phi.value(s.points))) for s in traj.states]
    worst = 0.0
    for k in range(1, len(traj.states) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        lhs = (pairings[k + 1] - pairings[k - 1]) / dt2
        mu_k = traj.states[k]
        grads = phi.gradient(mu_k.points)
        vel = v(traj.times[k], mu_k, mu_k.points)
        rhs = float(np.sum(mu_k.weights * np.sum(grads * vel, axis=1)))
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
