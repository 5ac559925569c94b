"""Exception types shared across the package."""


class SylvcertError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SylvcertError):
    """Matrix shapes are incompatible with the requested operation."""


class NumericError(SylvcertError):
    """Non-finite data or a failed numerical iteration."""


class ParameterError(SylvcertError):
    """A scalar parameter is outside its admissible range."""


class BranchCutError(SylvcertError):
    """An eigenvalue sits on the principal branch cut (closed negative real axis)."""


class GateError(SylvcertError):
    """A spectral precondition (half-plane or sector membership) is violated."""


class PreconditionError(SylvcertError):
    """A structural precondition on the input data is violated."""


class InversionError(SylvcertError):
    """A matrix that must be invertible is singular to working precision."""


class ConvergenceError(SylvcertError):
    """An iterative scheme exhausted its budget before reaching the tolerance."""


class WitnessError(SylvcertError):
    """A solvability witness failed its internal consistency checks;
    ``gate`` names the failed check when one is known."""

    def __init__(self, message: str, gate: str | None = None):
        super().__init__(message)
        self.gate = gate


class SchemaError(SylvcertError):
    """A problem or report file does not conform to the expected schema."""
