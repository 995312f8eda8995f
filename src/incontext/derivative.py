"""Extracting the pointwise map behind a black-box measure-to-measure map.

The probe is a difference quotient ``<psi, f(mu + eps * delta_x) - f(mu)> / eps``
evaluated with a test function ``psi`` patched to be locally constant around
every atom of ``f(mu)``.  The patches annihilate the contribution of the
existing atoms (their images move strictly inside the constant balls for small
enough eps), so the quotient isolates the value the map assigns to the probe
point.  Running the quotient against patched coordinate projections (ramped
to zero over a width of 1 outside their box) recovers the full vector
``G(mu, x)`` of the in-context map with ``f = G(mu)_# mu``.  Each extraction
settles the probe and pairs its image with ``f(mu)`` once; every coordinate's
quotient is then a weighted sum of its patched test function.

Test functions are C^1 with compact support: a base evaluator with gradient, a
Lipschitz bound, and an optional patch (anchor set, radius, C^1 ramp blending
the function to its anchor values).  Like every point map of the package,
they evaluate points given as rows (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attention import InContextMap
from .deep_transformer import LayerStack, forward_measure
from .errors import AnchorsTooClose, DisplacementTooLarge, NonpositiveWeight, ProbeMassLost
from .measures import Box, DiscreteMeasure, _distances, add_atom, canonicalize, push_forward

DEFAULT_EPS = 1e-6
MAX_PATCH_RADIUS = 0.05
MIN_PATCH_RADIUS = 1e-8
MAX_HALVINGS = 12


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1, 6u^5 - 15u^4 + 10u^3 between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _smoothstep_deriv(u: np.ndarray) -> np.ndarray:
    return np.where((u > 0.0) & (u < 1.0), 30.0 * u * u * (u - 1.0) * (u - 1.0), 0.0)


def _blend(v: np.ndarray, a: np.ndarray, dist: np.ndarray, r: float) -> np.ndarray:
    """Values ``v`` at distance ``dist`` from anchors of value ``a``: ``a`` within
    r/2, ``v`` from r on, and a C^1 radial ramp from ``a`` to ``v`` between."""
    half = r / 2.0
    return np.where(dist >= r, v, np.where(dist <= half, a, a + _smoothstep((dist - half) / half) * (v - a)))


@dataclass(frozen=True)
class Patch:
    """Anchor points, their values and the radius: the function is constant
    on balls of radius r/2."""

    anchors: np.ndarray
    radius: float
    values: np.ndarray


@dataclass(frozen=True)
class TestFunction:
    """C^1 compactly supported scalar function with a Lipschitz bound.

    ``base_value``/``base_gradient`` map point rows (m, d) to the unpatched
    values (m,) and gradients (m, d); when a patch is present, evaluation
    blends to the anchor value inside each anchor ball through a C^1 radial
    ramp (identically the anchor value within half the patch radius).
    ``value``/``gradient`` take rows too, or one point (d,).
    """

    base_value: Callable[[np.ndarray], np.ndarray]
    base_gradient: Callable[[np.ndarray], np.ndarray]
    lip: float
    patch: Patch | None = None

    def _nearest_anchor(self, Y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per row: nearest anchor, its distance and value, and (dist - r/2) / (r/2)."""
        dist = _distances(Y, self.patch.anchors)
        j = np.argmin(dist, axis=1)
        dist = dist[np.arange(Y.shape[0]), j]
        half = self.patch.radius / 2.0
        return j, dist, self.patch.values[j], (dist - half) / half

    def value(self, y: np.ndarray) -> float | np.ndarray:
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        v = self.base_value(Y)
        if self.patch is not None:
            _, dist, a, _ = self._nearest_anchor(Y)
            v = _blend(v, a, dist, self.patch.radius)
        return float(v[0]) if y.ndim == 1 else v

    def gradient(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        g = np.asarray(self.base_gradient(Y), dtype=float)
        if self.patch is not None:
            j, dist, a, u = self._nearest_anchor(Y)
            r = self.patch.radius
            lift = _smoothstep_deriv(u) / (r / 2.0) * (self.base_value(Y) - a)
            # only rows beyond r/2 are blended; the floor keeps the others finite
            radial = (Y - self.patch.anchors[j]) / np.maximum(dist, r / 2.0)[:, None]
            blend = _smoothstep(u)[:, None] * g + lift[:, None] * radial
            g = np.where((dist >= r)[:, None], g, np.where((dist <= r / 2.0)[:, None], 0.0, blend))
        return g[0] if y.ndim == 1 else g


def coordinate_test(ell: int, box: Box) -> TestFunction:
    """Smoothly truncated coordinate projection: equals y_ell on ``box``.

    A per-coordinate C^2 ramp takes the cutoff from one on the box to zero at
    distance 1 outside, giving a compactly supported C^1 function whose
    Lipschitz bound is recorded conservatively.
    """
    lo, hi = box.lo, box.hi

    def cutoff(Y: np.ndarray) -> np.ndarray:
        return np.prod((1.0 - _smoothstep(lo - Y)) * (1.0 - _smoothstep(Y - hi)), axis=1)

    def cutoff_grad(Y: np.ndarray) -> np.ndarray:
        below, above = lo - Y, Y - hi
        f = (1.0 - _smoothstep(below)) * (1.0 - _smoothstep(above))
        df = (
            _smoothstep_deriv(below) * (1.0 - _smoothstep(above))
            - (1.0 - _smoothstep(below)) * _smoothstep_deriv(above)
        )
        grad = np.empty_like(Y)
        for i in range(Y.shape[1]):
            grad[:, i] = df[:, i] * np.prod(np.delete(f, i, axis=1), axis=1)
        return grad

    def val(Y: np.ndarray) -> np.ndarray:
        return Y[:, ell] * cutoff(Y)

    def grad(Y: np.ndarray) -> np.ndarray:
        g = cutoff_grad(Y) * Y[:, ell : ell + 1]
        g[:, ell] += cutoff(Y)
        return g

    reach = float(np.max(np.abs(np.stack([lo, hi])))) + 1.0
    return TestFunction(val, grad, 1.0 + reach * 1.875)


def linear_combination(a: float, f1: TestFunction, b: float, f2: TestFunction) -> TestFunction:
    """Unpatched linear combination a*f1 + b*f2 of two test functions."""
    return TestFunction(
        lambda y: a * f1.base_value(y) + b * f2.base_value(y),
        lambda y: a * f1.base_gradient(y) + b * f2.base_gradient(y),
        abs(a) * f1.lip + abs(b) * f2.lip,
    )


def _min_spacing(points: np.ndarray) -> float:
    """Smallest distance between two rows of ``points`` (inf for a single row)."""
    if points.shape[0] < 2:
        return np.inf
    return float(np.min(_distances(points, points)[np.triu_indices(points.shape[0], k=1)]))


def _usable_radius(r: float, spacing: float) -> float:
    """``r``, or 0.49 * spacing when that is below 2r; AnchorsTooClose if not positive or below 1e-8."""
    if r <= 0.0:
        raise AnchorsTooClose("patch radius must be positive")
    if r >= spacing / 2.0:
        r = 0.49 * spacing
    if r < MIN_PATCH_RADIUS:
        raise AnchorsTooClose(f"usable patch radius {r:.3g} below {MIN_PATCH_RADIUS}")
    return r


def build_patched_test(base: TestFunction, anchors: np.ndarray, r: float) -> TestFunction:
    """Patch ``base`` to be constant near each anchor.

    Shrinks the radius internally when anchors are closer than 2r; raises
    AnchorsTooClose if the usable radius falls below 1e-8.  The patched
    function deviates from the base by at most Lip(base) * r.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if anchors.shape[0] == 0:
        return base
    r = _usable_radius(r, _min_spacing(anchors))
    return replace(base, patch=Patch(anchors, r, base.base_value(anchors)))


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
    def from_point_map(rows_map: Callable[[np.ndarray], np.ndarray], dim_out: int) -> "MeasureMap":
        """Push-forward under ``rows_map``: atom rows (n, d) to images (n, dim_out)."""
        return MeasureMap(lambda mu: push_forward(mu, rows_map), dim_out)

    @staticmethod
    def from_in_context(g: InContextMap) -> "MeasureMap":
        return MeasureMap(g.push, g.dim_out)

    @staticmethod
    def from_stack(stack: LayerStack) -> "MeasureMap":
        return MeasureMap(lambda mu: forward_measure(stack, mu), stack.dim)


@dataclass(frozen=True)
class _PairedProbe:
    """A probe image paired with the atoms of f(mu), the patch ``anchors``: each
    image atom within ``radius`` / 2 of its nearest anchor is matched to it.
    ``excess`` is, per anchor, the mass matched to it minus its own weight;
    ``free_*`` are the unmatched image atoms, their weights, nearest anchors and
    distances to them; ``added`` is the mass added to mu at ``eps``; ``box``
    holds both image supports."""

    eps: float
    added: float
    anchors: np.ndarray
    radius: float
    excess: np.ndarray
    free_points: np.ndarray
    free_weights: np.ndarray
    free_anchor: np.ndarray
    free_dist: np.ndarray
    box: Box


def _paired_quotient(psi: TestFunction, probe: _PairedProbe) -> float:
    """<psi_p, f_probe - f_mu> / added, with ``psi_p`` the patched ``psi``.

    Matched probe atoms carry exactly their anchor's patched value, so each
    anchor's value weighted by its excess mass cancels the large common terms
    before any rounding can be amplified by 1/eps.
    """
    a = psi.base_value(probe.anchors)
    v = _blend(psi.base_value(probe.free_points), a[probe.free_anchor], probe.free_dist, probe.radius)
    unmatched = probe.free_weights * v
    anchored = np.sum(probe.excess * a)
    # summed left to right from 0.0 (np.sum would pair the terms)
    total = np.add.accumulate(np.concatenate(([0.0], unmatched, [anchored])))[-1]
    return float(total) / probe.added


def _new_image_clearance(dist: np.ndarray) -> float | None:
    """Distance from the probe's own image atom to the nearest existing image.

    ``dist`` holds the distances (f_mu.n, f_probe.n) from each atom of f(mu)
    to each atom of the probe image.  Every atom of f(mu) picks its nearest
    atom of the probe image; the probe's own image is the one atom that none
    of them picks, whatever its weight.  None unless exactly one atom goes
    unpicked: the image merged into the existing support, or it cannot be
    told apart.
    """
    unpicked = np.ones(dist.shape[1], dtype=bool)
    unpicked[np.argmin(dist, axis=1)] = False
    new = np.flatnonzero(unpicked)
    if new.size != 1:
        return None
    return float(np.min(dist[:, new[0]]))


def _verified_probe(
    f: MeasureMap, mu: DiscreteMeasure, x: np.ndarray, eps: float, patch_radius: float | None = None
) -> _PairedProbe:
    """Settle the probe and pair its image with f(mu), once per extraction.

    The radius starts at min(quarter of the minimal image spacing, 0.05,
    ``patch_radius``).  The added mass is eps at a new atom and fl(w + eps) - w
    at an atom of weight w; ProbeMassLost is raised when it is 0.  eps is
    halved until every existing image moves less than a quarter of the
    working patch radius.  When the probe's own image lands inside the default
    patch ball of an existing image, the radius is shrunk below half their
    separation so the reading is never blended; an image that merges into the
    existing support keeps the full radius (the constant is right there).  The
    accepted radius passes ``build_patched_test``'s spacing rule.
    """
    if patch_radius is not None and not patch_radius > 0.0:
        raise AnchorsTooClose("patch radius must be positive")
    mu = canonicalize(mu)
    f_mu = canonicalize(f(mu))
    spacing = _min_spacing(f_mu.points)
    r = min(0.25 * spacing, MAX_PATCH_RADIUS, np.inf if patch_radius is None else patch_radius)
    if not 0.0 < eps < np.inf:
        raise NonpositiveWeight(f"eps must be positive and finite, got {eps!r}")
    for _ in range(MAX_HALVINGS + 1):
        probe = add_atom(mu, x, eps)
        # at an existing atom, probe and mu list the same points in the same order
        added = eps if probe.n > mu.n else float(np.max(probe.weights - mu.weights))
        if added == 0.0:
            raise ProbeMassLost(f"probe mass {eps:.3g} at an atom of mu is lost to rounding")
        f_probe = canonicalize(f(probe))
        r_eff = r
        dist = _distances(f_mu.points, f_probe.points)
        clearance = _new_image_clearance(dist)
        if clearance is not None and clearance < r:
            r_eff = max(clearance / 2.0, MIN_PATCH_RADIUS)
        if np.max(np.min(dist, axis=1)) < r_eff / 4.0:
            break
        eps /= 2.0
    else:
        raise DisplacementTooLarge(f"image support moves more than {r / 4.0:.3g} even at eps {eps * 2:.3g}")
    radius = _usable_radius(r_eff, spacing)
    nearest = np.argmin(dist, axis=0)
    near_dist = dist[nearest, np.arange(f_probe.n)]
    matched = near_dist <= radius / 2.0
    matched_mass = np.zeros(f_mu.n)
    np.add.at(matched_mass, nearest[matched], f_probe.weights[matched])
    free = ~matched
    free_atoms = (f_probe.points[free], f_probe.weights[free], nearest[free], near_dist[free])
    excess = matched_mass - f_mu.weights
    box = f_mu.box.hull(f_probe.points)
    return _PairedProbe(eps, added, f_mu.points, radius, excess, *free_atoms, box)


def regular_derivative(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    psi: TestFunction,
    eps: float = DEFAULT_EPS,
    patch_radius: float | None = None,
) -> float:
    """Patched difference quotient <psi_patched, f(mu + eps dx) - f(mu)> / eps.

    The quotient divides by the mass actually added: at an atom of mu with
    weight w that is fl(w + eps) - w, not eps.  ``psi`` is patched at the
    support of f(mu) with radius min(quarter of the minimal image spacing,
    0.05); eps is halved (up to 12 times) until the matched support
    displacement passes the r/4 safety check, else DisplacementTooLarge is
    raised.  ``patch_radius`` caps the automatic radius (useful for
    radius-robustness checks); a cap that is not positive raises
    AnchorsTooClose before f is evaluated.
    """
    return _paired_quotient(psi, _verified_probe(f, mu, x, eps, patch_radius))


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
    probe = _verified_probe(f, mu, x, eps)
    out_box = probe.box.enlarged(0.5)
    values = [_paired_quotient(coordinate_test(ell, out_box), probe) for ell in range(f.dim_out)]
    return np.array(values, dtype=float), probe.eps


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
    drift = psi.value(g.fn(probe, mu_c.points)) - psi.value(g.fn(mu_c, mu_c.points))
    irreg = float(np.sum(mu_c.weights * drift)) / eps
    return reg, irreg
