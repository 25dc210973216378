"""Shared exception types."""


class DeltasiteError(Exception):
    """Base class for all library errors."""


class StructuralError(DeltasiteError):
    """Malformed simplicial data or a map that does not commute."""


class PreconditionError(DeltasiteError):
    """An operation was called outside its stated contract."""


class ClosureError(DeltasiteError):
    """A required composite is absent from the morphism table."""


class ModelError(DeltasiteError):
    """Model description failed to parse or validate.

    `errors` holds (path, message) pairs locating each problem.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))
