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

import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
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
        lo = np.array(_floats(self.lo, LengthMismatch, "box corners must be real numbers"))
        hi = np.array(_floats(self.hi, LengthMismatch, "box corners must be real numbers"))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise LengthMismatch("box corners must be 1-d vectors of equal length")
        if not np.isfinite(np.concatenate((lo, hi))).all():
            raise PointOutsideBox("box corners must be finite")
        if not (lo <= hi).all():
            raise PointOutsideBox("box lower corner exceeds upper corner")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, points: np.ndarray) -> bool:
        return bool(((points >= self.lo) & (points <= self.hi)).all())

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
        return float(np.add.reduce(self.weights))

    def normalized(self) -> "DiscreteMeasure":
        """Same atoms with weights scaled to total mass one; NonpositiveWeight
        when a weight rounds to 0 (``[5e-324, 2.0]`` would give ``[0.0, 1.0]``)."""
        w = self.weights / self.total_mass
        if not _valid_weights(w):
            raise NonpositiveWeight("a weight divided by the total mass rounds to 0")
        return _raw_measure(self.points, w, self.box, self.is_canonical)

    def scaled(self, s: float) -> "DiscreteMeasure":
        """Weights times ``s``; NonpositiveWeight when a scaled weight rounds
        to 0 or the scaled total is not finite."""
        _amount(s, "scale factor")
        with np.errstate(over="ignore"):
            w = self.weights * s
            if not _valid_weights(w):
                raise NonpositiveWeight(f"weights scaled by {s!r} must stay positive with a finite total")
        return _raw_measure(self.points, w, self.box, self.is_canonical)

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


def _floats(
    x, error: type = DimensionMismatch, message: str = "query rows must be numbers in rows of one length"
) -> np.ndarray:
    """``x`` as a float array, not copied if it already is one; ``error(message)``
    unless numpy reads it as a rectangular array of bool, integer or float
    numbers.  A list is checked as numpy reads it, so complex, object and
    string entries are refused, never cast.  Query points and rows take the
    default; each constructor passes the error it raises for a malformed array."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged rows
        raise error(message) from None
    if a.dtype.kind not in "biuf":
        raise error(message)
    return a.astype(float, copy=False)


def _count(value, least: int, error: type, whole: str, below: str | None = None) -> int:
    """``value`` as a Python int if it is a Python or numpy integer, else ``error(whole)``;
    ``error(below or whole)`` below ``least``.  Callers rebind their count to it, so no
    arithmetic on the count wraps in a narrow numpy dtype."""
    if not isinstance(value, (int, numbers.Integral)):  # int first: no slow ABC registry lookup
        raise error(whole.format(value))
    if value < least:
        raise error((below or whole).format(value))
    return int(value)


def _real(x):
    """``x`` as a float if it is a Python or numpy real number, an integer beyond
    the float range as an infinity, else NaN, which a range test written ``not lo < x`` refuses."""
    if not isinstance(x, (float, numbers.Real)):  # float first, as in _count
        return np.nan
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def _amount(x, what: str) -> None:
    """NonpositiveWeight unless ``x`` is a real number in (0, inf)."""
    if not 0.0 < _real(x) < np.inf:
        raise NonpositiveWeight(f"{what} must be positive and finite, got {x!r}")


def _raw_measure(points: np.ndarray, weights: np.ndarray, box: Box, canonical: bool) -> DiscreteMeasure:
    """Internal constructor that skips validation (inputs already checked)."""
    return DiscreteMeasure(_freeze(points), _freeze(weights), box, canonical)


def _valid_weights(w: np.ndarray) -> bool:
    """Whether every weight is positive and their total (as ``total_mass``
    sums it) is finite, which bounds every weight too.  Positive terms can
    only overflow, and callers hold ``np.errstate(over="ignore")`` and raise
    NonpositiveWeight, so a bad weight ends as that error, never a warning."""
    return bool((w > 0.0).all() and np.add.reduce(w) < np.inf)


def new_discrete(
    points: Sequence[Sequence[float]] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
    box: Box | None = None,
) -> DiscreteMeasure:
    """Validate and build a discrete measure.

    Raises LengthMismatch (also for weights that are not one row, and for
    points or weights that are not real numbers), NonpositiveWeight (a weight
    that is not positive, or a total mass that is not finite), PointOutsideBox
    or EmptyMeasure when the inputs violate the carrier invariants.  ``box``
    defaults to [-3, 3]^d.
    """
    pts = np.atleast_2d(np.array(_floats(points, LengthMismatch, "points must be real numbers in rows of one length")))
    w = np.atleast_1d(np.array(_floats(weights, LengthMismatch, "weights must be real numbers in one row")))
    if w.ndim > 1:
        raise LengthMismatch(f"weights must form an (n,) array, got shape {w.shape}")
    # an empty point list becomes shape (1, 0) under atleast_2d
    if pts.size == 0:
        raise EmptyMeasure("a measure needs at least one atom")
    if pts.ndim != 2:
        raise LengthMismatch(f"points must form an (n, d) array, got shape {pts.shape}")
    if pts.shape[0] != w.shape[0]:
        raise LengthMismatch(f"{pts.shape[0]} points vs {w.shape[0]} weights")
    with np.errstate(over="ignore"):
        if not _valid_weights(w):
            raise NonpositiveWeight("weights must be strictly positive with a finite total")
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
    """Single point mass ``mass * delta(point)``; a mass that is not a real
    number is refused as a nonpositive one is (NonpositiveWeight)."""
    pts = np.atleast_2d(_floats(point, LengthMismatch, "a point must be real numbers"))
    return new_discrete(pts, [_real(mass)], box)


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances (len(A), len(B)) from each row of A to each row of
    B, bitwise ``np.sqrt(np.add.reduce(diff * diff, axis=2))`` on the cube of
    coordinate differences: the square roots of :func:`_squared_distances`,
    which sums in numpy's pairwise order over at most 9 (n, m) planes up to
    128 coordinates, taken in place."""
    total = _squared_distances(A, B)
    return np.sqrt(total, out=total)


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (len(A), len(B)) from each row of A to each
    row of B.

    Bitwise ``np.add.reduce(diff * diff, axis=2)`` on the (n, m, d) cube of
    coordinate differences, but summed over contiguous (n, m) planes, one
    coordinate at a time, in the order numpy's reduction adds a row of d terms:
    left to right below 8 coordinates; up to 128, eight interleaved partial
    sums r0..r7 combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest
    left to right; beyond 128, the sums of two halves split at d // 2 rounded
    down to a multiple of 8.  It holds at most 9 planes up to 128 coordinates,
    and one more per halving beyond, never the cube.  A square or sum that
    overflows reads +inf, without a warning.
    """
    with np.errstate(over="ignore"):
        d = A.shape[1]
        if d > 128:
            half = d // 2 - d // 2 % 8
            total = _squared_distances(A[:, :half], B[:, :half])
            total += _squared_distances(A[:, half:], B[:, half:])
            return total
        # plane k is column k of A, as (n, 1), against a contiguous row k of B.T
        A, B = A.T[:, :, None], B.T.copy()
        if d < 8:
            total, rest = _square(A[0], B[0]), 1
        else:
            rest = d - d % 8
            r = [_square(A[k], B[k]) for k in range(8)]
            for k in range(8, rest):
                r[k % 8] += _square(A[k], B[k])
            # in place: r0 ends as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
            for j in (0, 2, 4, 6):
                r[j] += r[j + 1]
            r[0] += r[2]
            r[4] += r[6]
            r[0] += r[4]
            total = r[0]
        for k in range(rest, d):
            total += _square(A[k], B[k])
        return total


def _square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = a - b
    t *= t
    return t


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
    return mu if mu.is_canonical else _canonical(mu.points, mu.weights, mu.box)[0]


def _canonical(points: np.ndarray, weights: np.ndarray, box: Box) -> tuple[DiscreteMeasure, np.ndarray, np.ndarray]:
    """The canonical measure with atoms ``points`` of ``weights`` in ``box``, the
    sort order of the rows, and the sorted positions after which a new atom
    starts: what :func:`_with_atoms` reads, so that callers that need no atom
    index pay nothing for it."""
    pts = points + 0.0  # -0.0 + 0.0 is +0.0
    order = _lex_order(pts)
    pts, w = pts[order], weights[order]
    # a group starts wherever a row differs from the row before it
    steps = np.logical_or.reduce(pts[1:] != pts[:-1], axis=1).nonzero()[0]
    if steps.size == w.size - 1:  # no two atoms share a point
        return _raw_measure(pts, w, box, True), order, steps
    bounds = np.concatenate(([0], steps + 1, [w.size]))
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    merged = w[first]
    # np.add.reduce along a row of a (g, k) block gives, bit for bit, np.add.reduce
    # of that group alone; np.add.reduceat sums in another order
    for k in set(sizes[sizes > 1].tolist()):
        of_size_k = sizes == k
        block = w[first[of_size_k, None] + np.arange(k)]
        block.sort(axis=1)
        merged[of_size_k] = np.add.reduce(block, axis=1)
    return _raw_measure(pts[first], merged, box, True), order, steps


def _with_atoms(canonical: tuple[DiscreteMeasure, np.ndarray, np.ndarray]) -> tuple[DiscreteMeasure, np.ndarray]:
    """The measure of :func:`_canonical`, and for each row it was given the index
    of its atom: the number of atoms that start before the row's sorted position."""
    mu, order, steps = canonical
    atom = np.empty(order.size, np.intp)
    atom[order] = np.searchsorted(steps, np.arange(order.size))
    return mu, atom


def push_forward(mu: DiscreteMeasure, rows_map: Callable[[np.ndarray], np.ndarray]) -> DiscreteMeasure:
    """:func:`relocate` each atom to its row of ``rows_map(points)``, the map taking
    all atoms as rows (n, d) at once; a map that raises raises MapUndefinedAtAtom."""
    try:
        images = np.asarray(rows_map(mu.points), dtype=float)
    except Exception as exc:  # noqa: BLE001 - map failure is a domain error
        raise MapUndefinedAtAtom(f"map failed: {exc}") from exc
    return relocate(mu, images)


def _finite_rows(images: np.ndarray) -> np.ndarray:
    """``images`` itself; MapUndefinedAtAtom naming the first row that is not finite as its atom."""
    finite = np.isfinite(images)
    if not finite.all():
        raise MapUndefinedAtAtom(f"map returned a non-finite value at atom {np.flatnonzero(~finite.all(axis=1))[0]}")
    return images


def relocate(mu: DiscreteMeasure, images: np.ndarray) -> DiscreteMeasure:
    """Canonical measure with atom i of ``mu`` moved to row i of ``images``.

    A push needs exactly one finite row per atom: other images than (n, d'),
    d' >= 1, raise MapUndefinedAtAtom, as does a row that is not finite,
    naming its atom.  The output box is the input box hulled with the images when d' is
    its dimension, else the images' own bounding box.  Images that coincide
    exactly merge; total mass is preserved up to the rounding of those sums.
    """
    return _relocated(mu, images)[0]


def _relocated(mu: DiscreteMeasure, images: np.ndarray) -> tuple[DiscreteMeasure, np.ndarray, np.ndarray]:
    """``relocate(mu, images)`` as :func:`_canonical` returns it, the atoms of ``mu`` as its rows."""
    if images.ndim != 2 or images.shape[0] != mu.n or not images.shape[1]:
        raise MapUndefinedAtAtom(f"map returned shape {images.shape} for {mu.n} atoms")
    _finite_rows(images)
    same_dim = images.shape[1] == mu.dim
    box = mu.box.hull(images) if same_dim else Box(images.min(axis=0), images.max(axis=0))
    return _canonical(images, mu.weights, box)


def add_atom(mu: DiscreteMeasure, x: np.ndarray, mass: float) -> DiscreteMeasure:
    """Canonical form of ``mu + mass * delta(x)`` (merges with an existing atom
    only when x equals it exactly).  Raises PointOutsideBox, naming x, when x
    is not finite, and NonpositiveWeight when the total mass is not."""
    _amount(mass, "added mass")
    x = _floats(x).reshape(1, -1)
    if x.shape[1] != mu.dim:
        raise LengthMismatch("atom dimension does not match the measure")
    if not np.isfinite(x).all():
        raise PointOutsideBox(f"added atom {x[0].tolist()} must be finite")
    box = mu.box.hull(x)
    pts = np.concatenate((mu.points, x))
    w = np.concatenate((mu.weights, [mass]))
    with np.errstate(over="ignore"):
        out = _canonical(pts, w, box)[0]
        if not _valid_weights(out.weights):
            raise NonpositiveWeight(f"adding mass {mass!r} leaves a total that is not finite")
    return out


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
    # both signs in the union; A's negative-only sums would mirror the second term bit for bit
    return min(
        _min_abs_pair_sum(sa[pa & na], np.sort(sb)),
        _min_abs_pair_sum(sa[pa & ~na], np.sort(sb[nb])),
        _min_abs_pair_sum(sa[:1], np.sort(sb[pb & nb])),
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
    toks = np.atleast_2d(np.array(_floats(tokens, LengthMismatch, "tokens must be real numbers in rows of one length")))
    # an empty token list becomes shape (1, 0) under atleast_2d
    if toks.size == 0:
        raise EmptySequence("a token sequence needs at least one token")
    if not np.isfinite(toks).all():
        raise PointOutsideBox("tokens must be finite")
    if box is None:
        box = default_box(toks.shape[1])
    if toks.ndim != 2 or box.dim != toks.shape[1]:
        raise LengthMismatch(f"box dimension {box.dim} vs tokens of shape {toks.shape}")
    if not box.contains(toks):
        raise PointOutsideBox("some token lies outside the declared box")
    return TokenSequence(_freeze(toks), box)


def iota(seq: TokenSequence) -> DiscreteMeasure:
    """Uniform empirical measure (1/n) sum_i delta(token_i), canonicalized.

    Repeated tokens merge into atoms of weight k/n.
    """
    if seq.n == 0:
        raise EmptySequence("cannot identify an empty sequence with a measure")
    return canonicalize(_empirical(seq))


def _empirical(seq: TokenSequence) -> DiscreteMeasure:
    """(1/n) sum_i delta(token_i) with atom i at token i, before canonical form."""
    return _raw_measure(seq.tokens, np.full(seq.n, 1.0 / seq.n), seq.box, False)


def iota_inv(mu: DiscreteMeasure, n: int) -> TokenSequence:
    """Canonical token sequence of length n identified with ``mu``.

    Requires every weight to be an integer multiple of 1/n (within
    MULTIPLICITY_TOL on the multiplicity) with multiplicities summing to n;
    otherwise raises NotRationalGrid, as it does for an n that is not a
    Python or numpy integer of at least 1.  Output tokens are sorted
    lexicographically.
    """
    _count(n, 1, NotRationalGrid, "need a whole number of tokens, got {!r}", "weights are not multiples of 1/{}")
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
