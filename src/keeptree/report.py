"""Shared pass/fail check report used by validators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    """Ordered list of named checks, each with a pass flag and a detail string.

    The detail carries the first witness of a failure (offending vertex,
    low-connectivity pair, ...) or a short confirmation for passing checks.
    """

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def first_failure(self) -> str | None:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def get(self, name: str) -> bool:
        for check_name, ok, _ in self.checks:
            if check_name == name:
                return ok
        raise KeyError(name)
