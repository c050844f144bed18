"""Exception types shared across the package."""

__all__ = [
    "NotPrimeError",
    "SizeCapError",
    "FieldMismatchError",
    "NotInvertibleError",
    "NoSuchOrderError",
    "EmptySupportError",
    "InvalidSpecError",
    "EnumerationCapError",
    "RejectionCapError",
    "InternalConsistencyError",
    "TrialError",
]


class NotPrimeError(ValueError):
    """The base field order must be a prime number."""


class SizeCapError(ValueError):
    """The requested field exceeds the fixed size cap ``DEFAULT_SIZE_CAP``."""


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class NotInvertibleError(ValueError):
    """The polynomial has no inverse modulo the given modulus."""


class NoSuchOrderError(ValueError):
    """No affine map of the requested order exists over the field."""


class EmptySupportError(ValueError):
    """The support construction excluded every orbit."""


class InvalidSpecError(ValueError):
    """Code parameters violate the construction's preconditions."""


class EnumerationCapError(ValueError):
    """Brute-force enumeration would exceed the configured cap."""


class RejectionCapError(RuntimeError):
    """Rejection sampling hit its attempt cap without an admissible draw."""


class InternalConsistencyError(RuntimeError):
    """Two computations that must agree produced different answers.

    Never caught and rounded away: it signals an arithmetic bug.
    """


class TrialError(RuntimeError):
    """A randomized trial failed; ``index`` records which one."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index
