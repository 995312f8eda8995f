"""Extracting the pointwise map behind a black-box measure-to-measure map.

The probe is a difference quotient ``<psi, f(mu + eps * delta_x) - f(mu)> / eps``
evaluated with a test function ``psi`` patched to be locally constant around
every atom of ``f(mu)``.  The patches annihilate the contribution of the
existing atoms (their images move strictly inside the constant balls for small
enough eps), so the quotient isolates the value the map assigns to the probe
point.  Running the quotient against patched coordinate projections recovers
the full vector ``G(mu, x)`` of the in-context map with ``f = G(mu)_# mu``.

Test functions are C^1 with compact support: a base evaluator with gradient, a
Lipschitz bound, and an optional patch (anchor set, radius, C^1 ramp blending
the function to its anchor values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import InContextMap
from .deep_transformer import LayerStack, forward_measure
from .errors import AnchorsTooClose, DisplacementTooLarge, NonpositiveWeight
from .measures import Box, DiscreteMeasure, add_atom, canonicalize, push_forward

# Space constants: mass cap and Lipschitz cap for admissible probe triples.
MASS_CAP = 10.0
LIP_CAP = 10.0

DEFAULT_EPS = 1e-6
MAX_PATCH_RADIUS = 0.05
MIN_PATCH_RADIUS = 1e-8
MAX_HALVINGS = 12


def _smoothstep(u: np.ndarray | float) -> np.ndarray | float:
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1, 6u^5 - 15u^4 + 10u^3 between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _smoothstep_deriv(u: np.ndarray | float) -> np.ndarray | float:
    inside = (u > 0.0) & (u < 1.0) if isinstance(u, np.ndarray) else 0.0 < u < 1.0
    du = 30.0 * u * u * (u - 1.0) * (u - 1.0)
    return np.where(inside, du, 0.0) if isinstance(u, np.ndarray) else (du if inside else 0.0)


@dataclass(frozen=True)
class Patch:
    """Anchor points and radius: the function is constant on balls of radius r/2."""

    anchors: np.ndarray
    radius: float


@dataclass(frozen=True)
class TestFunction:
    """C^1 compactly supported scalar function with a Lipschitz bound.

    ``base_value``/``base_gradient`` evaluate the unpatched function; when a
    patch is present, evaluation blends to the anchor value inside each anchor
    ball through a C^1 radial ramp (identically the anchor value within half
    the patch radius).
    """

    base_value: Callable[[np.ndarray], float]
    base_gradient: Callable[[np.ndarray], np.ndarray]
    lip: float
    patch: Patch | None = None

    def _nearest_anchor(self, y: np.ndarray) -> tuple[int, float] | None:
        if self.patch is None:
            return None
        d = np.sqrt(np.sum((self.patch.anchors - y) ** 2, axis=1))
        j = int(np.argmin(d))
        if d[j] >= self.patch.radius:
            return None
        return j, float(d[j])

    def value(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float).reshape(-1)
        hit = self._nearest_anchor(y)
        if hit is None:
            return float(self.base_value(y))
        j, dist = hit
        r = self.patch.radius
        anchor_val = float(self.base_value(self.patch.anchors[j]))
        if dist <= r / 2.0:
            return anchor_val
        s = float(_smoothstep((dist - r / 2.0) / (r / 2.0)))
        return anchor_val + s * (float(self.base_value(y)) - anchor_val)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        hit = self._nearest_anchor(y)
        if hit is None:
            return np.asarray(self.base_gradient(y), dtype=float).reshape(-1)
        j, dist = hit
        r = self.patch.radius
        if dist <= r / 2.0:
            return np.zeros_like(y)
        u = (dist - r / 2.0) / (r / 2.0)
        s = float(_smoothstep(u))
        ds = float(_smoothstep_deriv(u)) / (r / 2.0)
        anchor = self.patch.anchors[j]
        anchor_val = float(self.base_value(anchor))
        grad = np.asarray(self.base_gradient(y), dtype=float).reshape(-1)
        radial = (y - anchor) / dist
        return s * grad + ds * (float(self.base_value(y)) - anchor_val) * radial

    def with_patch(self, anchors: np.ndarray, radius: float) -> "TestFunction":
        return TestFunction(self.base_value, self.base_gradient, self.lip, Patch(anchors, radius))


def coordinate_test(ell: int, box: Box, ramp_width: float = 1.0) -> TestFunction:
    """Smoothly truncated coordinate projection: equals y_ell on ``box``.

    A per-coordinate C^2 ramp takes the cutoff from one on the box to zero at
    distance ``ramp_width`` outside, giving a compactly supported C^1 function
    whose Lipschitz bound is recorded conservatively.
    """
    lo, hi = box.lo, box.hi

    def cutoff(y: np.ndarray) -> float:
        below = (lo - y) / ramp_width
        above = (y - hi) / ramp_width
        factors = (1.0 - _smoothstep(below)) * (1.0 - _smoothstep(above))
        return float(np.prod(factors))

    def cutoff_grad(y: np.ndarray) -> np.ndarray:
        below = (lo - y) / ramp_width
        above = (y - hi) / ramp_width
        f = (1.0 - _smoothstep(below)) * (1.0 - _smoothstep(above))
        df = (
            _smoothstep_deriv(below) / ramp_width * (1.0 - _smoothstep(above))
            - (1.0 - _smoothstep(below)) * _smoothstep_deriv(above) / ramp_width
        )
        grad = np.zeros_like(y)
        for i in range(y.shape[0]):
            others = np.prod(np.delete(f, i))
            grad[i] = df[i] * others
        return grad

    def val(y: np.ndarray) -> float:
        return float(y[ell]) * cutoff(y)

    def grad(y: np.ndarray) -> np.ndarray:
        g = cutoff_grad(y) * float(y[ell])
        g[ell] += cutoff(y)
        return g

    reach = float(np.max(np.abs(np.stack([lo, hi])))) + ramp_width
    lip = 1.0 + reach * (1.875 / ramp_width)
    return TestFunction(val, grad, lip)


def linear_combination(a: float, f1: TestFunction, b: float, f2: TestFunction) -> TestFunction:
    """Unpatched linear combination a*f1 + b*f2 of two test functions."""
    return TestFunction(
        lambda y: a * f1.base_value(y) + b * f2.base_value(y),
        lambda y: a * f1.base_gradient(y) + b * f2.base_gradient(y),
        abs(a) * f1.lip + abs(b) * f2.lip,
    )


def build_patched_test(base: TestFunction, anchors: np.ndarray, r: float) -> TestFunction:
    """Patch ``base`` to be constant near each anchor.

    Shrinks the radius internally when anchors are closer than 2r; raises
    AnchorsTooClose if the usable radius falls below 1e-8.  The patched
    function deviates from the base by at most Lip(base) * r.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if anchors.shape[0] == 0:
        return base
    if r <= 0.0:
        raise AnchorsTooClose("patch radius must be positive")
    if anchors.shape[0] > 1:
        diff = anchors[:, None, :] - anchors[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        dmin = float(np.min(dist[np.triu_indices(anchors.shape[0], k=1)]))
        if r >= dmin / 2.0:
            r = 0.49 * dmin
    if r < MIN_PATCH_RADIUS:
        raise AnchorsTooClose(f"usable patch radius {r:.3g} below {MIN_PATCH_RADIUS}")
    return base.with_patch(anchors, r)


@dataclass(eq=False)
class MeasureMap:
    """Black-box measure-to-measure map with a declared output dimension."""

    fn: Callable[[DiscreteMeasure], DiscreteMeasure]
    dim_out: int

    def __call__(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        return self.fn(mu)

    @staticmethod
    def identity(dim: int) -> "MeasureMap":
        return MeasureMap(lambda mu: canonicalize(mu), dim)

    @staticmethod
    def from_point_map(point_map: Callable[[np.ndarray], np.ndarray], dim_out: int) -> "MeasureMap":
        return MeasureMap(lambda mu: push_forward(mu, point_map), dim_out)

    @staticmethod
    def from_in_context(g: InContextMap) -> "MeasureMap":
        return MeasureMap(g.push, g.dim_out)

    @staticmethod
    def from_stack(stack: LayerStack) -> "MeasureMap":
        return MeasureMap(lambda mu: forward_measure(stack, mu), stack.dim)


def _paired_quotient(
    psi_p: TestFunction,
    f_mu: DiscreteMeasure,
    f_probe: DiscreteMeasure,
    eps: float,
    r: float,
) -> float:
    """<psi_p, f_probe - f_mu> / eps with matched atoms cancelled in place.

    Probe atoms inside an anchor's constant ball carry exactly the anchor's
    patched value, so grouping the signed sums by anchor removes the large
    common terms before any rounding can be amplified by 1/eps.
    """
    anchor_vals = np.array([psi_p.value(p) for p in f_mu.points])
    diff = f_probe.points[:, None, :] - f_mu.points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    nearest = np.argmin(dist, axis=1)
    near_dist = dist[np.arange(f_probe.n), nearest]
    matched_mass = np.zeros(f_mu.n)
    total = 0.0
    for k in range(f_probe.n):
        if near_dist[k] <= r / 2.0:
            matched_mass[nearest[k]] += f_probe.weights[k]
        else:
            total += f_probe.weights[k] * psi_p.value(f_probe.points[k])
    total += float(np.sum((matched_mass - f_mu.weights) * anchor_vals))
    return total / eps


def _patch_radius(f_mu: DiscreteMeasure) -> float:
    if f_mu.n < 2:
        return MAX_PATCH_RADIUS
    diff = f_mu.points[:, None, :] - f_mu.points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    dmin = float(np.min(dist[np.triu_indices(f_mu.n, k=1)]))
    return min(0.25 * dmin, MAX_PATCH_RADIUS)


def _image_distances(f_mu: DiscreteMeasure, f_probe: DiscreteMeasure) -> np.ndarray:
    """Distances (f_mu.n, f_probe.n) from each atom of f(mu) to each atom of the probe image."""
    diff = f_mu.points[:, None, :] - f_probe.points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _new_image_clearance(dist: np.ndarray) -> float | None:
    """Distance from the probe's own image atom to the nearest existing image.

    ``dist`` is :func:`_image_distances`.  Every atom of f(mu) picks its
    nearest atom of the probe image; the probe's own image is the one atom
    that none of them picks, whatever its weight.  None unless exactly one
    atom goes unpicked: the image merged into the existing support, or it
    cannot be told apart.
    """
    unpicked = np.ones(dist.shape[1], dtype=bool)
    unpicked[np.argmin(dist, axis=1)] = False
    new = np.flatnonzero(unpicked)
    if new.size != 1:
        return None
    return float(np.min(dist[:, new[0]]))


def _verified_probe(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    eps: float,
    r: float,
    f_mu: DiscreteMeasure,
) -> tuple[float, DiscreteMeasure, float]:
    """Settle on (eps, probe image, patch radius) passing the safety checks.

    eps is halved until every existing image moves less than a quarter of the
    working patch radius.  When the probe's own image lands inside the default
    patch ball of an existing image, the radius is shrunk below half their
    separation so the reading is never blended; an image that merges into the
    existing support keeps the full radius (the constant is the right value
    there).
    """
    if not 0.0 < eps < np.inf:
        raise NonpositiveWeight(f"eps must be positive and finite, got {eps!r}")
    for _ in range(MAX_HALVINGS + 1):
        probe = add_atom(mu, x, eps)
        f_probe = canonicalize(f(probe))
        r_eff = r
        dist = _image_distances(f_mu, f_probe)
        clearance = _new_image_clearance(dist)
        if clearance is not None and clearance < r:
            r_eff = max(clearance / 2.0, MIN_PATCH_RADIUS)
        if np.max(np.min(dist, axis=1)) < r_eff / 4.0:
            return eps, f_probe, r_eff
        eps /= 2.0
    raise DisplacementTooLarge(
        f"image support moves more than {r / 4.0:.3g} even at eps {eps * 2:.3g}"
    )


def regular_derivative(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    psi: TestFunction,
    eps: float = DEFAULT_EPS,
    patch_radius: float | None = None,
) -> float:
    """Patched difference quotient <psi_patched, f(mu + eps dx) - f(mu)> / eps.

    ``psi`` is patched at the support of f(mu) with radius min(quarter of the
    minimal image spacing, 0.05); eps is halved (up to 12 times) until the
    matched support displacement passes the r/4 safety check, else
    DisplacementTooLarge is raised.  ``patch_radius`` caps the automatic
    radius (useful for radius-robustness checks).
    """
    mu_c = canonicalize(mu)
    f_mu = canonicalize(f(mu_c))
    r = _patch_radius(f_mu)
    if patch_radius is not None:
        r = min(r, patch_radius)
    eps_used, f_probe, r_eff = _verified_probe(f, mu_c, x, eps, r, f_mu)
    psi_p = build_patched_test(psi, f_mu.points, r_eff)
    return _paired_quotient(psi_p, f_mu, f_probe, eps_used, psi_p.patch.radius)


def extract_g_detailed(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, float]:
    """Recover G(mu, x) componentwise along patched coordinate projections.

    Returns (vector, eps actually used).  The coordinate cutoffs are built on
    a box hulling both image supports, so they are exactly the coordinate
    projections wherever the images live.
    """
    mu_c = canonicalize(mu)
    f_mu = canonicalize(f(mu_c))
    r = _patch_radius(f_mu)
    eps_used, f_probe, r_eff = _verified_probe(f, mu_c, x, eps, r, f_mu)
    out_box = f_mu.box.hull(f_probe.points).enlarged(0.5)
    values = np.empty(f.dim_out)
    for ell in range(f.dim_out):
        psi = coordinate_test(ell, out_box)
        psi_p = build_patched_test(psi, f_mu.points, r_eff)
        values[ell] = _paired_quotient(psi_p, f_mu, f_probe, eps_used, psi_p.patch.radius)
    return values, eps_used


def extract_g(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """The in-context map value G(mu, x) recovered from the black box ``f``."""
    return extract_g_detailed(f, mu, x, eps)[0]


def split_reg_irreg(
    g: InContextMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    psi: TestFunction,
    eps: float = DEFAULT_EPS,
) -> tuple[float, float]:
    """Finite-eps regular and irregular parts of the derivative of f_g.

    Regular part: psi(g(mu + eps dx, x)).  Irregular part: the averaged drift
    of the existing atoms' images under the mass injection.  Their sum equals
    the raw unpatched difference quotient identically.
    """
    mu_c = canonicalize(mu)
    x = np.asarray(x, dtype=float).reshape(-1)
    probe = add_atom(mu_c, x, eps)
    reg = psi.value(g(probe, x))
    drift = np.array(
        [psi.value(g(probe, p)) - psi.value(g(mu_c, p)) for p in mu_c.points]
    )
    irreg = float(np.sum(mu_c.weights * drift)) / eps
    return reg, irreg
