"""Domain error types.

Every contract violation raises a named subclass of :class:`DomainError` so
callers (and the CLI) can distinguish bad inputs from genuine bugs.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all contract violations raised by this package."""


# -- measures -----------------------------------------------------------------
class LengthMismatch(DomainError):
    pass


class NonpositiveWeight(DomainError):
    pass


class PointOutsideBox(DomainError):
    pass


class EmptyMeasure(DomainError):
    pass


class MapUndefinedAtAtom(DomainError):
    pass


class SupportTooLarge(DomainError):
    pass


class ExhaustedRetries(DomainError):
    pass


class EmptySequence(DomainError):
    pass


class NotRationalGrid(DomainError):
    pass


# -- transport ----------------------------------------------------------------
class DimensionNotOne(DomainError):
    pass


class MassMismatch(DomainError):
    pass


class ProblemTooLarge(DomainError):
    pass


class DualityGap(DomainError):
    pass


# -- attention / stacks ---------------------------------------------------------
class SkipNotUnit(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


# -- flows ----------------------------------------------------------------------
class NonFiniteState(DomainError):
    pass


class TooFewTimePoints(DomainError):
    pass


# -- derivative extraction --------------------------------------------------------
class AnchorsTooClose(DomainError):
    pass


class DisplacementTooLarge(DomainError):
    pass


class ProbeMassLost(DomainError):
    pass


# -- counterexample ----------------------------------------------------------------
class OutOfDomain(DomainError):
    pass


class NotProbability(DomainError):
    pass
