"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An input violates a documented precondition (non-Hermitian, non-unitary, ...)."""


class DimensionMismatchError(ContractViolationError):
    """Operands have incompatible shapes or qubit counts."""


class DegenerateInputError(ValueError):
    """The requested operation is undefined for this input (e.g. exact excited eigenstate)."""
