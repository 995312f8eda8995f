"""Domain error types.

Every contract violation, a malformed input document included, raises a named
subclass of :class:`DomainError` so callers (and the CLI) can distinguish bad
inputs from genuine bugs: any other exception is a bug.
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


# -- input documents ---------------------------------------------------------------
class BadInputFile(DomainError):
    """A document that is not UTF-8 JSON, nests too deeply, lacks a key or has a
    value of the wrong JSON type; raised by ``serialize`` alone."""


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
