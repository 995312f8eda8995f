"""A W1-continuous, support-preserving measure map with no continuous pointwise form.

On [-3, 3] the map pushes a probability measure through a bump perturbation of
the identity whose oscillation frequency is the reciprocal of the mass the
measure places near the origin.  Two families of two-atom measures converging
to the same point mass then force pointwise values near +1/10 and -1/10 at
vanishing W1 distance, so no continuous in-context representation exists.  The
scanner tabulates this numerically, extracting the pointwise values from the
black-box map via the patched difference quotient.  The bump map acts on all
atoms at once, elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivative import MeasureMap, extract_g_detailed
from .errors import NotProbability, OutOfDomain
from .measures import Box, DiscreteMeasure, _count, _floats, _raw_measure, _real, new_discrete, push_forward
from .transport import w1_1d

DOMAIN_HALF_WIDTH = 3.0
BUMP_AMPLITUDE = 0.1
KAPPA_FLOOR = 1e-14
PROBABILITY_TOL = 1e-10
# Boxes are immutable, so every measure on the domain shares this one.
DOMAIN_BOX = Box(np.array([-DOMAIN_HALF_WIDTH]), np.array([DOMAIN_HALF_WIDTH]))


def domain_box() -> Box:
    return DOMAIN_BOX


def r_map(a: float, x: float | np.ndarray) -> float | np.ndarray:
    """Identity outside (-1, 1); inside, add the oscillating bump.

    ``r_map(a, x) = x + (1/10) cos^2(pi x / 2) cos(a x)`` for |x| < 1.  The
    bump vanishes with its derivative at x = +-1, so the map is C^1 on the
    whole interval and fixes everything with |x| >= 1.  Acts elementwise on
    real numbers (else DimensionMismatch); a float gives a float.  An ``a``
    that is not a finite real number of at least 0 raises OutOfDomain.
    """
    if not 0.0 <= _real(a) < np.inf:
        raise OutOfDomain(f"frequency parameter must be nonnegative, got {a}")
    x = _floats(x)
    size = np.abs(x)
    outside = x[size > DOMAIN_HALF_WIDTH]
    if outside.size:
        raise OutOfDomain(f"point {outside[0]} outside [-3, 3]")
    c = np.cos(0.5 * math.pi * x)
    y = np.where(size < 1.0, x + BUMP_AMPLITUDE * c * c * np.cos(a * x), x)
    return float(y) if y.ndim == 0 else y


def kappa(mu: DiscreteMeasure) -> float:
    """Mass near the origin: atoms weighted 1 inside (-1, 1), tapering to 0 at |x| = 2."""
    if mu.dim != 1:
        raise OutOfDomain(f"defined in dimension one, got {mu.dim}")
    size = np.abs(mu.points[:, 0])
    if np.logical_or.reduce(size > DOMAIN_HALF_WIDTH):
        raise OutOfDomain("support leaves [-3, 3]")
    return float(np.add.reduce(mu.weights * (2.0 - size).clip(0.0, 1.0)))


def frequency(mu: DiscreteMeasure) -> float:
    """1/kappa(mu) when the near-origin mass is positive, else 0."""
    k = kappa(mu)
    return 1.0 / k if k > KAPPA_FLOOR else 0.0


def f_counter(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Push the probability measure through the bump map at its own frequency."""
    if abs(mu.total_mass - 1.0) > PROBABILITY_TOL:
        raise NotProbability(f"total mass {mu.total_mass!r} is not 1")
    a = frequency(mu)
    return push_forward(mu, lambda X: r_map(a, X))


def f_counter_extended(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Mass-homogeneous extension to positive measures.

    The frequency is read off the normalized measure and the weights are
    carried through unchanged, so the extension restricts to the probability
    map and stays support preserving.  Derivative probes, which inject a small
    extra mass, evaluate through this extension.
    """
    a = frequency(mu.normalized())
    return push_forward(mu, lambda X: r_map(a, X))


def counter_map() -> MeasureMap:
    """The counterexample as a black-box measure map."""
    return MeasureMap(f_counter_extended)


def two_atom_measure(eps: float) -> DiscreteMeasure:
    """(1 - eps) delta_2 + eps delta_sqrt(eps) on [-3, 3]."""
    if not 0.0 < _real(eps) < 1.0:
        raise OutOfDomain(f"eps must lie in (0, 1), got {eps}")
    # already canonical: sqrt(eps) < 1 < 2, and both weights are positive
    return _raw_measure(np.array([[math.sqrt(eps)], [2.0]]), np.array([eps, 1.0 - eps]), DOMAIN_BOX, True)


@dataclass(frozen=True)
class ScanRow:
    """One scanned eps: W1 distance to the limit plus closed-form and extracted values."""

    family: str
    m: int
    eps: float
    w1_to_limit: float
    g_closed_form: float
    g_extracted: float


def _family_eps(family: str, m: int) -> float:
    if family == "limsup":
        return 1.0 / (2.0 * math.pi * m) ** 2
    return 1.0 / ((2.0 * m + 1.0) * math.pi) ** 2  # liminf


def discontinuity_scan(m_max: int) -> list[ScanRow]:
    """Tabulate the two eps-families for m = 2..m_max.

    For each eps: the W1 distance from the two-atom measure to delta_2, the
    closed-form pointwise value at sqrt(eps), and the value recovered from the
    black box by the difference-quotient extractor.  The limsup family picks
    eps with cos(1/sqrt(eps)) = +1, the liminf family -1; the finite-difference
    mass is min(1e-6, eps^{3/2}/20) so the probe never detunes the oscillation
    past the patch check.
    """
    _count(m_max, 2, OutOfDomain, "scan needs an integer m_max, got {}", "scan needs m_max >= 2")
    f = counter_map()
    delta2 = new_discrete([[2.0]], [1.0], DOMAIN_BOX)
    rows = []
    for family in ("limsup", "liminf"):
        for m in range(2, m_max + 1):
            eps = _family_eps(family, m)
            mu_eps = two_atom_measure(eps)
            x = math.sqrt(eps)
            extracted, _ = extract_g_detailed(f, mu_eps, np.array([x]), min(1e-6, eps**1.5 / 20.0))
            rows.append(
                ScanRow(
                    family=family,
                    m=m,
                    eps=eps,
                    w1_to_limit=w1_1d(mu_eps, delta2),
                    g_closed_form=r_map(1.0 / eps, x),
                    g_extracted=float(extracted[0]),
                )
            )
    return rows
