"""Interacting-particle flows driven by a measure-dependent velocity field.

The coupled system is ``dx_i/dt = v(t, mu_t, x_i)`` over [0, 1], with ``mu_t``
the empirical measure of the particles.  The field sees ``mu_t`` only through
its particles' points and weights: one call ``fn(t, points, weights, X)``
evaluates all particles and tracers.  The state is one (n, d) array in the
atom order of the canonical initial measure; each stage hands the field
read-only views of its particle rows, the weights and X, with no copy, re-sort
or per-stage measure, so flows are bitwise equivariant under relabelling the
initial atoms.  Those float64 rows are the flow's own, so ``fn`` gets them
unread; per stage the flow reads only what ``fn`` returns, held to real numbers
in the state's shape.  One step loop runs explicit Euler (a depth-T residual
stack with velocity scale 1/T), classical RK4 (the convergence reference) and
the characteristic map, which carries a query point along the flow as a
passive tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionParams, Layer, MlpParams, velocity_rows
from .deep_transformer import LayerStack, forward_measure
from .errors import DimensionMismatch, NonFiniteState, ProblemTooLarge, TooFewTimePoints
from .measures import Box, DiscreteMeasure, _call, _count, _floats, _freeze, _held_to, _raw_measure, _real, canonicalize
from .transport import w1_matching

VelocityFn = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VelocityField:
    """Velocity ``(t, points, weights, X) -> dX/dt`` on query rows X of shape (m, d).

    ``fn`` receives all m rows at once and returns real numbers in X's shape,
    or the call raises DimensionMismatch, as it does for an X that is not 2-d;
    row i is the velocity at X[i] in the field of sum_j weights[j] * delta(points[j]),
    points (n, d) and weights (n,), whose atoms the layer fields reduce in
    the order given.  ``fn`` is caller code, called by the one rule of ``measures._call``.
    A flow calls ``fn`` on read-only float64 views of the stage state, X with the
    tracer rows, and per stage reads only what it returns.
    """

    fn: VelocityFn

    def __call__(self, t: float, points: np.ndarray, weights: np.ndarray, X: np.ndarray) -> np.ndarray:
        X = _floats(X)
        if X.ndim != 2:
            raise DimensionMismatch(f"query rows must form an (m, d) array, got shape {X.shape}")
        return _held_to(_call(self.fn, t, points, weights, X), X, DimensionMismatch)

    @staticmethod
    def from_layer(att: AttentionParams, mlp_p: MlpParams) -> "VelocityField":
        """Time-independent field given by one attention+MLP layer displacement."""
        return VelocityField(lambda t, pts, w, X: velocity_rows(att, mlp_p, pts, w, X))

    @staticmethod
    def from_stack(stack: LayerStack) -> "VelocityField":
        """Piecewise-constant-in-time field: layer floor(t * depth) drives [0, 1]."""
        layers, dim = stack.layers, stack.dim
        if not layers:  # rows of the stack's dimension, so X of another width raises
            return VelocityField(lambda t, pts, w, X: np.zeros((len(X), dim)))

        def fn(t: float, pts: np.ndarray, w: np.ndarray, X: np.ndarray) -> np.ndarray:
            layer = layers[min(int(t * len(layers)), len(layers) - 1)]
            rows = velocity_rows(layer.attention, layer.mlp, pts, w, X)
            return rows if layer.scale == 1.0 else layer.scale * rows  # 1.0 * rows is rows, bit for bit

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


def _check_finite(rows: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(rows), axis=None):
        raise NonFiniteState("particle positions became non-finite")


def _state_measure(rows: np.ndarray, weights: np.ndarray, box: Box) -> DiscreteMeasure:
    """Measure on a read-only view of the particle rows: no copy, no re-sort."""
    _check_finite(rows)
    return _raw_measure(rows, weights, box.hull(rows), False)


def _integrate(v: VelocityField, w: np.ndarray, z: np.ndarray, h: float, steps: int, rk4: bool) -> np.ndarray:
    """z and its rows after each of ``steps`` Euler or RK4 steps of size h from
    t = 0, as one read-only (steps + 1, len(z), d) array.

    Rows z[:n] are the particles, with the read-only weights w (n,) in the
    canonical atom order; rows from n on are passive tracers.  Each stage
    hands the field read-only views of its particle rows, w and all of z.
    The steps run under one ``np.errstate(over="ignore", invalid="ignore")``:
    a state that overflows raises NonFiniteState without a warning.  A path
    of more bytes than the address space holds raises ProblemTooLarge.
    """
    if (int(steps) + 1) * z.nbytes > np.iinfo(np.intp).max:  # Python ints: no wrap-around
        raise ProblemTooLarge(f"a flow path of {steps} steps exceeds the address space")
    n = len(w)

    def k(t: float, zs: np.ndarray) -> np.ndarray:
        zs = _freeze(zs)
        _check_finite(zs[:n])
        return _held_to(_call(v.fn, t, zs[:n], w, zs), zs, DimensionMismatch)

    path = np.empty((steps + 1,) + z.shape)
    path[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
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
    path = _integrate(v, mu_c.weights, mu_c.points, h, steps, rk4)
    return Trajectory(_freeze(np.arange(steps + 1) * h), path, mu_c.weights, mu_c.box)


def euler_flow(v: VelocityField, mu0: DiscreteMeasure, T: int) -> Trajectory:
    """T explicit Euler steps of size 1/T on [0, 1].

    All atoms within a step advance from the same frozen state.  Weights and
    atom count never change; the initial measure is canonicalized once.  A T
    that is not a Python or numpy integer of at least 1 raises
    TooFewTimePoints.
    """
    T = _count(T, 1, TooFewTimePoints, "need a whole number of Euler steps, got {}", "need at least one Euler step")
    return _flow(v, mu0, T, rk4=False)


def rk4_flow(v: VelocityField, mu0: DiscreteMeasure, steps: int) -> Trajectory:
    """Classical 4-stage Runge-Kutta on the coupled particle system over [0, 1]; ``steps`` that
    is not a Python or numpy integer of at least 1 raises TooFewTimePoints."""
    steps = _count(steps, 1, TooFewTimePoints, "need a whole number of RK4 steps, got {}", "need at least one RK4 step")
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
    a passive tracer evaluated against the same stage particles, so a query
    placed on an atom reproduces that atom's trajectory exactly (the query is
    one more row of each velocity evaluation).  ``steps`` is the step count
    for the full unit horizon, a real number of at least 1; integration to
    time t uses round(steps * t) steps of equal size.  A t or ``steps`` that
    is not a real number in its range, a string, None, NaN or an infinite
    ``steps`` included, raises TooFewTimePoints.  Raises DimensionMismatch
    when x is not a point of the dimension of ``mu0``.
    """
    if not 0.0 <= _real(t) <= 1.0:
        raise TooFewTimePoints(f"time {t} outside [0, 1]")
    if not 1 <= _real(steps) < np.inf:
        raise TooFewTimePoints(f"need at least one RK4 step, got {steps}")
    t, steps = _real(t), _real(steps)  # floats: steps * t and t / n are not rounded in a narrow numpy dtype
    y = np.array(_floats(x).reshape(-1))
    if y.shape[0] != mu0.dim:
        raise DimensionMismatch(f"query point of length {y.shape[0]} in a measure of dimension {mu0.dim}")
    if t == 0.0:
        return y
    mu_c = canonicalize(mu0)
    n = max(1, int(round(steps * t)))
    return _integrate(v, mu_c.weights, np.vstack([mu_c.points, y]), t / n, n, rk4=True)[-1, -1].copy()


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
        vel = v(times[k], points[k], w, points[k])
        rhs = float(np.sum(w * np.sum(phi.gradient(points[k]) * vel, axis=1)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def scaled_stack(att: AttentionParams, mlp_p: MlpParams, T: int):
    """Depth-T stack whose every layer applies 1/T of the base layer velocity; TooFewTimePoints unless
    T is an integer of at least 1, ProblemTooLarge when its T layer references exceed the address space."""
    T = _count(T, 1, TooFewTimePoints, "need a whole number of layers, got {}", "need a depth of at least one, got {}")
    if T * 8 > np.iinfo(np.intp).max:
        raise ProblemTooLarge(f"a stack of depth {T} exceeds the address space")
    layer = Layer(att, mlp_p, scale=1.0 / T)
    return LayerStack(tuple([layer] * T), att.dim)


def depth_limit_error(att: AttentionParams, mlp_p: MlpParams, mu0: DiscreteMeasure, T: int) -> float:
    """W1 gap between the depth-T scaled stack and the RK4 continuum reference.

    Both are built from one base layer (``att``, ``mlp_p``); the reference
    uses 4T RK4 steps of that layer's velocity.
    """
    stack = scaled_stack(att, mlp_p, T)
    stack_final = forward_measure(stack, mu0)
    ref_final = rk4_flow(VelocityField.from_layer(att, mlp_p), mu0, 4 * stack.depth).final
    return w1_matching(stack_final, ref_final).cost
