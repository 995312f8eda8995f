"""Discrete positive measures on a compact box.

The carrier type is :class:`DiscreteMeasure`, a finite weighted sum of point
masses ``sum_i a_i * delta(x_i)`` with strictly positive weights, living inside
a declared ambient box.  Canonical form (identical atoms merged, atoms sorted
lexicographically) gives every measure a unique representative, which is what
makes reductions over atoms reproducible bit for bit.  Only exact duplicates
merge, so canonical form keeps the cardinality of the support: atoms that are
merely close stay apart.

Alongside the carrier live the push-forward of a measure under a rows map
(all atoms as rows (n, d) to their images (n, d'), in one call), the minimal
subset-sum gap of the weight vector, and the identification between token
sequences and uniform empirical measures.

Carriers own their arrays: ``Box``, ``new_discrete`` and ``new_tokens`` copy
the caller's input once, and ``_freeze`` stores every array as a read-only view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyMeasure,
    EmptySequence,
    LengthMismatch,
    MapUndefinedAtAtom,
    NonpositiveWeight,
    NotRationalGrid,
    PointOutsideBox,
    SupportTooLarge,
)

# Exhaustive subset-sum enumeration refuses beyond this support size.
GAP_SUPPORT_CAP = 20

# iota_inv accepts a multiplicity n * weight this close to an integer.
MULTIPLICITY_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned compact box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise LengthMismatch("box corners must be 1-d vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise PointOutsideBox("box corners must be finite")
        if np.any(lo > hi):
            raise PointOutsideBox("box lower corner exceeds upper corner")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, points: np.ndarray) -> bool:
        pts = np.atleast_2d(points)
        return bool((pts >= self.lo).all() and (pts <= self.hi).all())

    def hull(self, points: np.ndarray) -> "Box":
        """Smallest box containing both self and the given points (self when
        it already contains them)."""
        if self.contains(points):
            return self
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return Box(np.minimum(self.lo, pts.min(axis=0)), np.maximum(self.hi, pts.max(axis=0)))

    def enlarged(self, margin: float) -> "Box":
        return Box(self.lo - margin, self.hi + margin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)


def default_box(dim: int) -> Box:
    """The default ambient box [-3, 3]^d."""
    return Box(np.full(dim, -3.0), np.full(dim, 3.0))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite positive measure sum_i weights[i] * delta(points[i]).

    ``points`` has shape (n, d), ``weights`` shape (n,) with all entries > 0,
    and every point lies componentwise inside ``box``.  Instances are
    immutable; arrays are stored read-only.
    """

    points: np.ndarray
    weights: np.ndarray
    box: Box
    is_canonical: bool = field(default=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def normalized(self) -> "DiscreteMeasure":
        """Same atoms with weights scaled to total mass one."""
        w = self.weights / self.total_mass
        return _raw_measure(self.points, w, self.box, self.is_canonical)

    def scaled(self, s: float) -> "DiscreteMeasure":
        if not 0.0 < s < np.inf:
            raise NonpositiveWeight(f"scale factor must be positive and finite, got {s!r}")
        return _raw_measure(self.points, self.weights * s, self.box, self.is_canonical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
            and self.box == other.box
        )

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n={self.n}, dim={self.dim}, mass={self.total_mass:.6g})"


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Ordered sequence of d-dimensional tokens (repeats allowed)."""

    tokens: np.ndarray
    box: Box

    @property
    def n(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSequence):
            return NotImplemented
        return np.array_equal(self.tokens, other.tokens) and self.box == other.box

    def __repr__(self) -> str:
        return f"TokenSequence(n={self.n}, dim={self.dim})"


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Read-only view of ``arr``; the caller's own array keeps its flags."""
    out = arr.view()
    out.flags.writeable = False
    return out


def _raw_measure(points: np.ndarray, weights: np.ndarray, box: Box, canonical: bool) -> DiscreteMeasure:
    """Internal constructor that skips validation (inputs already checked)."""
    return DiscreteMeasure(_freeze(points), _freeze(weights), box, canonical)


def new_discrete(
    points: Sequence[Sequence[float]] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
    box: Box | None = None,
) -> DiscreteMeasure:
    """Validate and build a discrete measure.

    Raises LengthMismatch, NonpositiveWeight, PointOutsideBox or EmptyMeasure
    when the inputs violate the carrier invariants.  ``box`` defaults to
    [-3, 3]^d.
    """
    pts = np.atleast_2d(np.array(points, dtype=float))
    w = np.array(weights, dtype=float).reshape(-1)
    # an empty point list becomes shape (1, 0) under atleast_2d
    if pts.size == 0:
        raise EmptyMeasure("a measure needs at least one atom")
    if pts.shape[0] != w.shape[0]:
        raise LengthMismatch(f"{pts.shape[0]} points vs {w.shape[0]} weights")
    if not np.isfinite(w).all() or np.any(w <= 0.0):
        raise NonpositiveWeight("weights must be finite and strictly positive")
    if not np.isfinite(pts).all():
        raise PointOutsideBox("points must be finite")
    if box is None:
        box = default_box(pts.shape[1])
    if box.dim != pts.shape[1]:
        raise LengthMismatch(f"box dimension {box.dim} vs point dimension {pts.shape[1]}")
    if not box.contains(pts):
        raise PointOutsideBox("some point lies outside the ambient box")
    return _raw_measure(pts, w, box, False)


def dirac(point: Sequence[float] | np.ndarray, mass: float = 1.0, box: Box | None = None) -> DiscreteMeasure:
    """Single point mass ``mass * delta(point)``."""
    return new_discrete(np.atleast_2d(np.asarray(point, dtype=float)), [mass], box)


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances (len(A), len(B)) from each row of A to each row of B."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _lex_order(points: np.ndarray) -> np.ndarray:
    # lexicographic by coordinate 0, then 1, ... ; np.lexsort keys are last-major
    return np.lexsort(points.T[::-1])


def canonicalize(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Merge identical atoms and sort the atoms lexicographically.

    Atoms merge exactly when their points are equal in every coordinate, with
    -0.0 taken as +0.0, so the atom count is the number of distinct points.
    A merged weight is the sum of its group's weights in ascending order, so
    the result does not depend on the input atom order, bit for bit.
    Idempotent.
    """
    if mu.is_canonical:
        return mu
    pts = mu.points + 0.0  # -0.0 + 0.0 is +0.0
    order = _lex_order(pts)
    pts, w = pts[order], mu.weights[order]
    # a group starts wherever a row differs from the row before it
    bounds = np.flatnonzero(np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1), [True])))
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    weights = w[first]
    # np.sum along a row of a (g, k) block gives, bit for bit, np.sum of that
    # group alone; np.add.reduceat sums in another order
    for k in set(sizes[sizes > 1].tolist()):
        of_size_k = sizes == k
        block = w[first[of_size_k, None] + np.arange(k)]
        weights[of_size_k] = np.sum(np.sort(block, axis=1), axis=1)
    return _raw_measure(pts[first], weights, mu.box, True)


def push_forward(mu: DiscreteMeasure, rows_map: Callable[[np.ndarray], np.ndarray]) -> DiscreteMeasure:
    """Relocate every atom through ``rows_map`` and canonicalize.

    ``rows_map`` takes all atoms as rows (n, d) to their images (n, d'); a
    map that raises or returns another row count raises MapUndefinedAtAtom.
    See :func:`relocate` for the output box and the finiteness check.
    """
    try:
        images = np.asarray(rows_map(mu.points), dtype=float)
    except Exception as exc:  # noqa: BLE001 - map failure is a domain error
        raise MapUndefinedAtAtom(f"map failed: {exc}") from exc
    if images.shape[:1] != (mu.n,):
        raise MapUndefinedAtAtom(f"map returned shape {images.shape} for {mu.n} atoms")
    return relocate(mu, images.reshape(mu.n, -1))


def relocate(mu: DiscreteMeasure, images: np.ndarray) -> DiscreteMeasure:
    """Canonical measure with atom i of ``mu`` moved to row i of ``images``.

    Raises MapUndefinedAtAtom naming the first atom whose image is not
    finite.  The output box is the input box when the images stay inside it
    (and the dimension is unchanged); otherwise the smallest box containing
    the images (hulled with the input box when dimensions match).  Images
    that coincide exactly merge; total mass is preserved up to the rounding
    of those merged sums.
    """
    bad = np.flatnonzero(~np.isfinite(images).all(axis=1))
    if bad.size:
        raise MapUndefinedAtAtom(f"map returned a non-finite value at atom {bad[0]}")
    if images.shape[1] == mu.dim:
        box = mu.box.hull(images)
    else:
        box = Box(images.min(axis=0), images.max(axis=0))
    return canonicalize(_raw_measure(images, mu.weights, box, False))


def add_atom(mu: DiscreteMeasure, x: np.ndarray, mass: float) -> DiscreteMeasure:
    """Canonical form of ``mu + mass * delta(x)`` (merges with an existing atom
    only when x equals it exactly)."""
    if not 0.0 < mass < np.inf:
        raise NonpositiveWeight(f"added mass must be positive and finite, got {mass!r}")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != mu.dim:
        raise LengthMismatch("atom dimension does not match the measure")
    box = mu.box.hull(x)
    pts = np.vstack([mu.points, x])
    w = np.concatenate([mu.weights, [mass]])
    return canonicalize(_raw_measure(pts, w, box, False))


# -- subset-sum gap -------------------------------------------------------------


def _half_signed_sums(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All signed subset sums of one index half.

    Returns (sums, has_pos, has_neg); entry 0 is the all-skip combination.
    """
    sums = np.zeros(1)
    has_pos = np.zeros(1, dtype=bool)
    has_neg = np.zeros(1, dtype=bool)
    for w in weights:
        sums = np.concatenate([sums, sums + w, sums - w])
        has_pos = np.concatenate([has_pos, np.ones_like(has_pos), has_pos])
        has_neg = np.concatenate([has_neg, has_neg, np.ones_like(has_neg)])
    return sums, has_pos, has_neg


def _min_abs_pair_sum(a: np.ndarray, b_sorted: np.ndarray) -> float:
    """min over (x, y) in a x b_sorted of |x + y| (either array may be empty)."""
    if a.size == 0 or b_sorted.size == 0:
        return np.inf
    idx = np.searchsorted(b_sorted, -a)
    best = np.inf
    for shift in (0, -1):
        j = idx + shift
        ok = (j >= 0) & (j < b_sorted.size)
        if np.any(ok):
            best = min(best, float(np.min(np.abs(a[ok] + b_sorted[j[ok]]))))
    return best


def gap_strict(mu: DiscreteMeasure) -> float:
    """Minimal |sum_J a_j - sum_K a_k| over disjoint nonempty index sets.

    Meet-in-the-middle over signed subset sums; +inf when no such pair exists
    (n = 1).  Raises SupportTooLarge beyond GAP_SUPPORT_CAP atoms.
    """
    w = np.asarray(mu.weights, dtype=float)
    n = w.shape[0]
    if n > GAP_SUPPORT_CAP:
        raise SupportTooLarge(f"support size {n} exceeds enumeration cap {GAP_SUPPORT_CAP}")
    half = n // 2
    sa, pa, na = _half_signed_sums(w[:half])
    sb, pb, nb = _half_signed_sums(w[half:])
    a_zero_vec = np.zeros(sa.size, dtype=bool)
    a_zero_vec[0] = True
    # both signs present in the union
    return min(
        _min_abs_pair_sum(sa[pa & na], np.sort(sb)),
        _min_abs_pair_sum(sa[pa & ~na], np.sort(sb[nb])),
        _min_abs_pair_sum(sa[~pa & na], np.sort(sb[pb])),
        _min_abs_pair_sum(sa[a_zero_vec], np.sort(sb[pb & nb])),
    )


def gap(mu: DiscreteMeasure) -> float:
    """Minimal |sum_J a_j - sum_K a_k| over disjoint index sets, J nonempty.

    K may be empty, so single-atom measures report their own weight.  Equals
    min(min weight, gap_strict) bitwise: with K empty every sum is at least
    its smallest term, and one term gives that weight exactly.  Raises
    SupportTooLarge beyond GAP_SUPPORT_CAP atoms.
    """
    return min(float(np.min(mu.weights)), gap_strict(mu))


def is_dif(mu: DiscreteMeasure) -> bool:
    """Whether all sums over disjoint nonempty index subsets are distinct."""
    return gap_strict(mu) > 0.0


# -- token sequences ---------------------------------------------------------------


def new_tokens(tokens: Sequence[Sequence[float]] | np.ndarray, box: Box | None = None) -> TokenSequence:
    toks = np.atleast_2d(np.array(tokens, dtype=float))
    # an empty token list becomes shape (1, 0) under atleast_2d
    if toks.size == 0:
        raise EmptySequence("a token sequence needs at least one token")
    if not np.isfinite(toks).all():
        raise PointOutsideBox("tokens must be finite")
    if box is None:
        box = default_box(toks.shape[1])
    if not box.contains(toks):
        raise PointOutsideBox("some token lies outside the declared box")
    return TokenSequence(_freeze(toks), box)


def iota(seq: TokenSequence) -> DiscreteMeasure:
    """Uniform empirical measure (1/n) sum_i delta(token_i), canonicalized.

    Repeated tokens merge into atoms of weight k/n.
    """
    if seq.n == 0:
        raise EmptySequence("cannot identify an empty sequence with a measure")
    w = np.full(seq.n, 1.0 / seq.n)
    return canonicalize(_raw_measure(seq.tokens, w, seq.box, False))


def iota_inv(mu: DiscreteMeasure, n: int) -> TokenSequence:
    """Canonical token sequence of length n identified with ``mu``.

    Requires every weight to be an integer multiple of 1/n (within
    MULTIPLICITY_TOL on the multiplicity) with multiplicities summing to n;
    otherwise raises NotRationalGrid.  Output tokens are sorted
    lexicographically.
    """
    mu_c = canonicalize(mu)
    counts = mu_c.weights * n
    rounded = np.rint(counts)
    if np.any(np.abs(counts - rounded) > MULTIPLICITY_TOL) or np.any(rounded < 1):
        raise NotRationalGrid(f"weights are not multiples of 1/{n}")
    ks = rounded.astype(int)
    if int(ks.sum()) != n:
        raise NotRationalGrid(f"multiplicities sum to {int(ks.sum())}, expected {n}")
    tokens = np.repeat(mu_c.points, ks, axis=0)
    return TokenSequence(_freeze(tokens), mu_c.box)
