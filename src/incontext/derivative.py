"""Extracting the pointwise map behind a black-box measure-to-measure map.

The probe is a difference quotient ``<psi, f(mu + eps * delta_x) - f(mu)> / eps``
evaluated with a test function ``psi`` patched to be locally constant around
every atom of ``f(mu)``.  The patches annihilate the contribution of the
existing atoms (their images move strictly inside the constant balls for small
enough eps), so the quotient isolates the value the map assigns to the probe
point.  Running the quotient against patched coordinate projections (ramped
to zero over a width of 1 outside their box) recovers the full vector
``G(mu, x)`` of the in-context map with ``f = G(mu)_# mu``.  Each extraction
settles the probe and pairs its image with ``f(mu)`` in one pairing walk per
eps (nearest atoms both ways, in bounded blocks of rows, so no (n, m) distance
matrix is built).  Each coordinate's quotient reads the paired atoms'
coordinates, which the patched projection takes there bit for bit, in one pass.

Test functions are C^1 with compact support: a base evaluator with gradient, a
Lipschitz bound, and an optional patch (anchor set, radius, C^1 ramp blending
the function to its anchor values).  Like every point map of the package,
they evaluate points given as rows (m, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attention import InContextMap
from .deep_transformer import LayerStack, forward_measure
from .errors import AnchorsTooClose, DimensionMismatch, DisplacementTooLarge, MapUndefinedAtAtom, OutOfDomain
from .errors import ProbeMassLost
from .measures import Box, DiscreteMeasure, _amount, _call, _count, _distances, _floats, _held_to, _real
from .measures import _squared_distances, add_atom, canonicalize, push_forward

DEFAULT_EPS = 1e-6
MAX_PATCH_RADIUS = 0.05
MIN_PATCH_RADIUS = 1e-8
MAX_HALVINGS = 12
# The most (row, column) entries of one block of distances.  The kernel sums
# squares over (n, m) planes, so a block holds at most 9 such planes up to 128
# coordinates (one more per halving beyond), never an (n, m, d) cube.
SPACING_BLOCK_ENTRIES = 2**16


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1, 6u^5 - 15u^4 + 10u^3 between."""
    u = u.clip(0.0, 1.0)
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
    real values (m,) and gradients (m, d), else DimensionMismatch; both are
    caller code, called by the one rule of ``measures._call``.  With a patch,
    evaluation blends to the anchor value inside each anchor ball through a C^1
    radial ramp (identically the anchor value within half the patch radius).
    ``value``/``gradient`` take rows too, or one point (d,).
    """

    base_value: Callable[[np.ndarray], np.ndarray]
    base_gradient: Callable[[np.ndarray], np.ndarray]
    lip: float
    patch: Patch | None = None

    def _base_values(self, Y: np.ndarray) -> np.ndarray:
        v = _floats(_call(self.base_value, Y), DimensionMismatch, "test function values must be real numbers")
        if v.shape != Y.shape[:1]:
            raise DimensionMismatch(f"test function returned shape {v.shape} for {Y.shape[0]} rows")
        return v

    def _nearest_anchor(self, Y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per row: nearest anchor, its distance and value, and (dist - r/2) / (r/2)."""
        j, dist = _nearest(Y, self.patch.anchors)
        half = self.patch.radius / 2.0
        return j, dist, self.patch.values[j], (dist - half) / half

    def value(self, y: np.ndarray) -> float | np.ndarray:
        y = _floats(y)
        Y = np.atleast_2d(y)
        v = self._base_values(Y)
        if self.patch is not None:
            _, dist, a, _ = self._nearest_anchor(Y)
            v = _blend(v, a, dist, self.patch.radius)
        return float(v[0]) if y.ndim == 1 else v

    def gradient(self, y: np.ndarray) -> np.ndarray:
        y = _floats(y)
        Y = np.atleast_2d(y)
        g = _held_to(_call(self.base_gradient, Y), Y, DimensionMismatch)
        if self.patch is not None:
            j, dist, a, u = self._nearest_anchor(Y)
            r = self.patch.radius
            lift = _smoothstep_deriv(u) / (r / 2.0) * (self._base_values(Y) - a)
            # only rows beyond r/2 are blended; the floor keeps the others finite
            radial = (Y - self.patch.anchors[j]) / np.maximum(dist, r / 2.0)[:, None]
            blend = _smoothstep(u)[:, None] * g + lift[:, None] * radial
            g = np.where((dist >= r)[:, None], g, np.where((dist <= r / 2.0)[:, None], 0.0, blend))
        return g[0] if y.ndim == 1 else g


def coordinate_test(ell: int, box: Box) -> TestFunction:
    """Smoothly truncated coordinate projection: equals y_ell on ``box``.

    A per-coordinate C^2 ramp takes the cutoff from one on the box to zero at
    distance 1 outside, giving a compactly supported C^1 function whose
    Lipschitz bound is recorded conservatively.  An ``ell`` that is not a
    Python or numpy integer in [0, d) raises OutOfDomain.
    """
    out_of_range = f"coordinate index must be an integer in [0, {box.dim}), got {{!r}}"
    ell = _count(ell, 0, OutOfDomain, out_of_range)
    if ell >= box.dim:
        raise OutOfDomain(out_of_range.format(ell))
    lo, hi = box.lo, box.hi

    def cutoff(Y: np.ndarray) -> np.ndarray:
        return np.multiply.reduce((1.0 - _smoothstep(lo - Y)) * (1.0 - _smoothstep(Y - hi)), axis=1)

    def cutoff_grad(Y: np.ndarray) -> np.ndarray:
        below, above = lo - Y, Y - hi
        f = (1.0 - _smoothstep(below)) * (1.0 - _smoothstep(above))
        df = (
            _smoothstep_deriv(below) * (1.0 - _smoothstep(above))
            - (1.0 - _smoothstep(below)) * _smoothstep_deriv(above)
        )
        grad = np.empty_like(Y)
        for i in range(Y.shape[1]):
            grad[:, i] = df[:, i] * np.multiply.reduce(np.delete(f, i, axis=1), axis=1)
        return grad

    def val(Y: np.ndarray) -> np.ndarray:
        return Y[:, ell] * cutoff(Y)

    def grad(Y: np.ndarray) -> np.ndarray:
        g = cutoff_grad(Y) * Y[:, ell : ell + 1]
        g[:, ell] += cutoff(Y)
        return g

    reach = float(np.maximum.reduce(np.abs(np.concatenate((lo, hi))))) + 1.0
    return TestFunction(val, grad, 1.0 + reach * 1.875)


def linear_combination(a: float, f1: TestFunction, b: float, f2: TestFunction) -> TestFunction:
    """Unpatched linear combination a*f1 + b*f2 of two test functions."""
    return TestFunction(
        lambda y: a * f1.base_value(y) + b * f2.base_value(y),
        lambda y: a * f1.base_gradient(y) + b * f2.base_gradient(y),
        abs(a) * f1.lip + abs(b) * f2.lip,
    )


def _pairing(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest rows both ways, from one walk over blocks of rows of ``A`` of at
    most SPACING_BLOCK_ENTRIES distances each: per row of ``A`` the index of its
    nearest row of ``B`` and the distance to it, then the same per row of ``B``
    towards ``A`` (index 0 at +inf when ``A`` has no rows).  The kernel is
    exactly symmetric, so each is bitwise the dense ``argmin`` (the lowest index
    on a tie, the first NaN if any) and minimum: a column keeps its index unless
    a later block holds a smaller distance, or the first NaN."""
    rows = max(1, SPACING_BLOCK_ENTRIES // B.shape[0])
    index = np.empty(A.shape[0], dtype=np.intp)
    dist = np.empty(A.shape[0])
    cols = np.arange(B.shape[0])
    col_index, col_dist = np.zeros(B.shape[0], dtype=np.intp), np.full(B.shape[0], np.inf)
    for lo in range(0, A.shape[0], rows):
        block = _distances(A[lo : lo + rows], B)  # an overflowing distance reads +inf: far
        at = block.argmin(axis=1, out=index[lo : lo + rows])
        dist[lo : lo + rows] = block[np.arange(len(at)), at]
        up = block.argmin(axis=0)
        near = block[up, cols]
        later = (near < col_dist) | np.isnan(near) & ~np.isnan(col_dist)
        col_index[later] = up[later] + lo
        col_dist[later] = near[later]
    return index, dist, col_index, col_dist


def _nearest(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row half of :func:`_pairing`: per row of ``A``, its nearest row of ``B`` and the distance."""
    return _pairing(A, B)[:2]


def _min_spacing(points: np.ndarray) -> float:
    """Smallest distance between two rows of ``points`` (inf for a single row).

    Walks the rows in blocks of ``max(1, SPACING_BLOCK_ENTRIES // n)``, taking
    each block's squared distances to every row but itself.  The kernel
    computes each entry alone and is exactly symmetric, and sqrt is monotone,
    so the root of the least square is bitwise the minimum of
    ``measures._distances`` over the pairs i < j, in memory that does not grow
    with n**2.
    """
    n = points.shape[0]
    if n < 2:
        return np.inf
    rows = max(1, SPACING_BLOCK_ENTRIES // n)
    least = np.inf
    for lo in range(0, n, rows):
        sq = _squared_distances(points[lo : lo + rows], points)  # an overflowing square reads +inf: far
        np.fill_diagonal(sq[:, lo:], np.inf)
        least = np.minimum(least, np.minimum.reduce(sq, axis=None))  # a NaN propagates
    return math.sqrt(least)


def _usable_radius(r: float, spacing: float) -> float:
    """The patch radius rule: min(r, spacing / 4), AnchorsTooClose if ``r`` is
    not positive or the result is below 1e-8."""
    if not _real(r) > 0.0:
        raise AnchorsTooClose("patch radius must be positive")
    r = min(r, spacing / 4.0)
    if r < MIN_PATCH_RADIUS:
        raise AnchorsTooClose(f"usable patch radius {r:.3g} below {MIN_PATCH_RADIUS}")
    return r


def build_patched_test(base: TestFunction, anchors: np.ndarray, r: float) -> TestFunction:
    """Patch ``base`` to be constant near each anchor.

    The radius is min(r, a quarter of the minimal anchor spacing); raises
    AnchorsTooClose if r is not positive or that radius is below 1e-8.  The
    patched function deviates from the base by at most Lip(base) * r.
    """
    anchors = np.atleast_2d(_floats(anchors))
    if anchors.shape[0] == 0:
        return base
    r = _usable_radius(r, _min_spacing(anchors))
    return replace(base, patch=Patch(anchors, r, base._base_values(anchors)))


@dataclass(eq=False)
class MeasureMap:
    """Black-box measure-to-measure map; extraction reads the output dimension off its images.
    ``fn`` is caller code, called by the one rule of ``measures._call``; a result that is not a
    DiscreteMeasure raises MapUndefinedAtAtom naming its type."""

    fn: Callable[[DiscreteMeasure], DiscreteMeasure]

    def __call__(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        nu = _call(self.fn, mu)
        if not isinstance(nu, DiscreteMeasure):
            raise MapUndefinedAtAtom(f"measure map must return a DiscreteMeasure, got {type(nu).__name__}")
        return nu

    @staticmethod
    def identity() -> "MeasureMap":
        return MeasureMap(lambda mu: canonicalize(mu))

    @staticmethod
    def from_point_map(rows_map: Callable[[np.ndarray], np.ndarray]) -> "MeasureMap":
        """Push-forward under ``rows_map``: atom rows (n, d) to their images (n, d')."""
        return MeasureMap(lambda mu: push_forward(mu, rows_map))

    @staticmethod
    def from_in_context(g: InContextMap) -> "MeasureMap":
        return MeasureMap(g.push)

    @staticmethod
    def from_stack(stack: LayerStack) -> "MeasureMap":
        return MeasureMap(lambda mu: forward_measure(stack, mu))


@dataclass(frozen=True)
class _PairedProbe:
    """A probe image paired with the atoms of f(mu), the patch anchors: each
    image atom within ``radius`` / 2 of its nearest anchor is matched to it.
    ``points`` are the anchors, then the unmatched image atoms; ``excess`` is,
    per anchor, the mass matched to it minus its own weight; ``free_*`` are the
    unmatched atoms' weights, nearest anchors and distances to them; ``added``
    is the mass added to mu at ``eps``."""

    eps: float
    added: float
    radius: float
    excess: np.ndarray
    points: np.ndarray
    free_weights: np.ndarray
    free_anchor: np.ndarray
    free_dist: np.ndarray


def _paired_quotient(values: np.ndarray, probe: _PairedProbe) -> np.ndarray:
    """<psi_p, f_probe - f_mu> / added for each row of ``values``, the values
    of one test function psi at ``probe.points``, with ``psi_p`` the patched psi.

    Matched probe atoms carry exactly their anchor's patched value, so each
    anchor's value weighted by its excess mass cancels the large common terms
    before any rounding can be amplified by 1/eps.  Every row is reduced along
    a contiguous row, so each quotient is bitwise the one of its row alone.
    """
    n = probe.excess.size
    a = values[:, :n]
    v = _blend(values[:, n:], a[:, probe.free_anchor], probe.free_dist, probe.radius)
    unmatched = probe.free_weights * v
    anchored = np.add.reduce(np.multiply(probe.excess, a, order="C"), axis=1)
    # summed left to right from 0.0 (np.sum would pair the terms)
    terms = np.concatenate((np.zeros((len(values), 1)), unmatched, anchored[:, None]), axis=1)
    return np.add.accumulate(terms, axis=1)[:, -1] / probe.added


def _verified_probe(
    f: MeasureMap, mu: DiscreteMeasure, x: np.ndarray, eps: float, patch_radius: float | None = None
) -> _PairedProbe:
    """Settle the probe and pair its image with f(mu), once per extraction.

    ``eps``, and the cap ``patch_radius`` under the radius rule on its own,
    are checked before f is evaluated.  The radius r is the rule
    (``_usable_radius``) applied to min(0.05, cap) and the minimal spacing of
    f(mu), before the first probe.  The added mass is eps at a new atom and
    fl(w + eps) - w at an atom of weight w; ProbeMassLost is raised when it is
    0, DimensionMismatch when f(probe) and f(mu) differ in dimension.  When
    the probe's own image lands within r of an existing image, the working
    radius r_eff is half their separation, checked by the same rule, so the
    reading is never blended; an image that merges into the existing support
    keeps r (the constant is right there).  eps is halved until every existing
    image moves less than r_eff / 4.
    """
    _amount(eps, "eps")
    cap = MAX_PATCH_RADIUS if patch_radius is None else min(_usable_radius(patch_radius, np.inf), MAX_PATCH_RADIUS)
    mu = canonicalize(mu)
    f_mu = canonicalize(f(mu))
    spacing = _min_spacing(f_mu.points)
    r = _usable_radius(cap, spacing)
    for _ in range(MAX_HALVINGS + 1):
        probe = add_atom(mu, x, eps)
        # at an existing atom, probe and mu list the same points in the same order
        added = eps if probe.n > mu.n else float(np.maximum.reduce(probe.weights - mu.weights))
        if added == 0.0:
            raise ProbeMassLost(f"probe mass {eps:.3g} at an atom of mu is lost to rounding")
        f_probe = canonicalize(f(probe))
        if f_probe.dim != f_mu.dim:
            raise DimensionMismatch(f"f maps the probe to dimension {f_probe.dim} and mu to {f_mu.dim}")
        picks, moved, nearest, near_dist = _pairing(f_mu.points, f_probe.points)
        # the probe's own image is the one atom no atom of f(mu) picks, whatever its weight
        unpicked = np.ones(f_probe.n, dtype=bool)
        unpicked[picks] = False
        clearance = near_dist[unpicked]
        r_eff = r
        if clearance.size == 1 and clearance[0] < r:
            r_eff = _usable_radius(clearance[0] / 2.0, spacing)
        if np.maximum.reduce(moved) < r_eff / 4.0:
            break
        eps /= 2.0
    else:
        raise DisplacementTooLarge(f"image support moves more than {r_eff / 4.0:.3g} even at eps {eps * 2:.3g}")
    matched = near_dist <= r_eff / 2.0
    # summed in probe atom order from 0.0, as np.add.at would
    matched_mass = np.bincount(nearest[matched], weights=f_probe.weights[matched], minlength=f_mu.n)
    free = ~matched
    points = np.concatenate((f_mu.points, f_probe.points[free]))
    excess = matched_mass - f_mu.weights
    return _PairedProbe(eps, added, r_eff, excess, points, f_probe.weights[free], nearest[free], near_dist[free])


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
    support of f(mu) with radius r = min(quarter of the minimal image spacing,
    0.05, ``patch_radius``), or half the probe image's distance to f(mu) when
    that is below r; a radius below 1e-8 raises AnchorsTooClose.  eps is
    halved (up to 12 times) until the matched support displacement passes the
    r/4 safety check, else DisplacementTooLarge is raised.  A bad eps or cap
    raises (NonpositiveWeight, AnchorsTooClose) before f is evaluated.
    """
    probe = _verified_probe(f, mu, x, eps, patch_radius)
    return float(_paired_quotient(psi._base_values(probe.points)[None], probe)[0])


def extract_g_detailed(
    f: MeasureMap,
    mu: DiscreteMeasure,
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, float]:
    """Recover G(mu, x) componentwise along patched coordinate projections.

    Returns (vector, eps actually used), one value per coordinate of f(mu),
    from one pairing walk per eps.  Each coordinate's quotient reads the paired
    atoms' coordinates, which ``coordinate_test(ell, box)`` takes there bit for
    bit on any box that holds both image supports (its cutoff is 1.0 there).
    """
    probe = _verified_probe(f, mu, x, eps)
    return _paired_quotient(probe.points.T, probe), probe.eps


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
    probe = add_atom(mu_c, x, eps)
    reg = psi.value(g(probe, x))
    drift = psi.value(g.rows(probe, mu_c.points)) - psi.value(g.rows(mu_c, mu_c.points))
    irreg = float(np.sum(mu_c.weights * drift)) / eps
    return reg, irreg
