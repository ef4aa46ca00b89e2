"""Exception hierarchy and brute-force size-guard resolution."""

from __future__ import annotations

import os

#: Default vertex-count guard for exhaustive (exponential) routines.
DEFAULT_BRUTE_GUARD = 12
#: Default vertex-count guard for triple enumeration.
DEFAULT_ENUM_GUARD = 10
#: Default order guard for exhaustive tree enumeration.
DEFAULT_TREE_GUARD = 7

_ENV_GUARD = "KEEPTREE_GUARD"


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


def resolve_guard(explicit: int | None, default: int) -> int:
    """Pick a size guard: explicit argument, else KEEPTREE_GUARD, else default.

    A negative guard is an input error, not a guard every size exceeds.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"guard must be nonnegative, got {explicit}")
        return explicit
    env = os.environ.get(_ENV_GUARD)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ParseError(f"{_ENV_GUARD} must be an integer, got {env!r}") from exc
        if value < 0:
            raise ParseError(f"{_ENV_GUARD} must be nonnegative, got {value}")
        return value
    return default
