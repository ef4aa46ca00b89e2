"""Exception hierarchy."""

from __future__ import annotations


class KeeptreeError(Exception):
    """Base class for all keeptree-specific errors.

    ``find_keeping_tree`` sets ``report`` to the run's hypothesis report on
    each ``HypothesisFailure``, ``SearchExhausted`` and ``TheoremViolation``
    it raises.
    """

    report = None


class ParseError(KeeptreeError):
    """Malformed input: edge list, GraphML, certificate, or manifest."""


class GuardExceeded(KeeptreeError):
    """A brute-force routine was invoked above its size guard."""


class PreconditionError(KeeptreeError):
    """A documented operation precondition does not hold for the inputs."""


class SearchExhausted(KeeptreeError):
    """A complete or guarded search finished without finding a witness."""


class HypothesisFailure(KeeptreeError):
    """Pipeline invoked without force on an instance failing its hypotheses."""


class TheoremViolation(KeeptreeError):
    """A guarantee that must hold for valid inputs failed at runtime.

    Prime suspects are invalid inputs or an implementation bug; this is
    surfaced loudly rather than silently swallowed.
    """
