"""Exception hierarchy. ``InputError`` and its subclasses are bad input, and
``InfeasibleError`` capacities that cannot hold the population; the CLI
treats every other exception as a bug. A message starts with a stable
machine-readable code where the class has one, as in ``empty-group: …``."""

from __future__ import annotations


class FairallocError(Exception):
    """Base class for all fairalloc errors."""


class InputError(FairallocError, ValueError):
    """Invalid input: a file, a parameter or an option. It is a
    ``ValueError`` too, so callers that catch that keep working."""


class InfeasibleError(FairallocError):
    """Capacities cannot accommodate the population."""


class EmptyGroupError(InputError):
    """A group selected by (attribute, value) contains no individuals."""


class NoHeterogeneityError(InputError):
    """Sign-flip search precondition failed: groups do not differ in mean max gain."""


class EmptySampleError(InputError):
    """A statistic was requested on an empty sample."""


class DegenerateVarianceError(InputError):
    """Welch's t-test requires at least two samples and positive variance per group."""


class SchemaMismatchError(InputError):
    """CSV header does not match the configured schema."""


class DataValidationError(InputError):
    """One or more rows failed validation; ``row_errors`` lists them with line numbers."""

    def __init__(self, row_errors: list[str]):
        self.row_errors = list(row_errors)
        preview = "; ".join(self.row_errors[:5])
        more = "" if len(self.row_errors) <= 5 else f" (+{len(self.row_errors) - 5} more)"
        super().__init__(f"{len(self.row_errors)} invalid row(s): {preview}{more}")
