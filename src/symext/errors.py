"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant (bad state, bad parameters)."""


class LayoutError(ValidationError):
    """A subsystem index or tensor-factor layout is inconsistent with the data."""


class ResourceLimitError(RuntimeError):
    """A requested construction exceeds a work budget or a size limit."""


class MarginalMismatchError(ValidationError):
    """Marginals that must share a common reduction do not agree."""

    def __init__(self, message: str, trace_distance: float):
        super().__init__(message)
        self.trace_distance = float(trace_distance)
