"""Exception hierarchy. Every error carries a stable machine-readable code."""

from __future__ import annotations


class FairallocError(Exception):
    """Base class for all fairalloc errors."""

    code = "error"


class EmptyGroupError(FairallocError):
    """A group selected by (attribute, value) contains no individuals."""

    code = "empty-group"


class InfeasibleError(FairallocError):
    """Capacities cannot accommodate the population."""

    code = "infeasible"


class NoHeterogeneityError(FairallocError):
    """Sign-flip search precondition failed: groups do not differ in mean max gain."""

    code = "no-heterogeneity"


class EmptySampleError(FairallocError):
    """A statistic was requested on an empty sample."""

    code = "empty-sample"


class DegenerateVarianceError(FairallocError):
    """Welch's t-test requires at least two samples and positive variance per group."""

    code = "degenerate-variance"


class SchemaMismatchError(FairallocError):
    """CSV header does not match the configured schema."""

    code = "schema-mismatch"


class DataValidationError(FairallocError):
    """One or more rows failed validation; ``row_errors`` lists them with line numbers."""

    code = "data-validation"

    def __init__(self, row_errors: list[str]):
        self.row_errors = list(row_errors)
        preview = "; ".join(self.row_errors[:5])
        more = "" if len(self.row_errors) <= 5 else f" (+{len(self.row_errors) - 5} more)"
        super().__init__(f"{len(self.row_errors)} invalid row(s): {preview}{more}")
