"""Exception hierarchy shared across the toolkit."""


class RiceMeleError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(RiceMeleError, ValueError):
    """Invalid model parameter or malformed function input."""


class DataFormatError(RiceMeleError, ValueError):
    """Malformed external data (config or CSV). Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(RiceMeleError, RuntimeError):
    """Solver failure (non-convergence, singular matrix, Bloch vector off the sphere)."""


class NotFoundError(RiceMeleError, LookupError):
    """A required feature (in-gap mode, working point, bracketing root) was not found."""
