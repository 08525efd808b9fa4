"""Shared exception types."""


class ModelError(ValueError):
    """Invalid model data: parse failure, dimension mismatch, or a probability
    invariant violation (bad row sum, negative entry, non-finite cost)."""


class GuardError(RuntimeError):
    """A guard was exceeded (policy enumeration too large, or a grid
    resolution past exact dyadic rows)."""
