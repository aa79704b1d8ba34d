"""Exception types shared across the package.

Everything derives from ValueError so callers who don't care about the
distinction can catch one thing.
"""


class DimensionError(ValueError):
    """Matrix or register dimensions are inconsistent."""


class NonHermitianError(ValueError):
    """An operation requiring a Hermitian matrix got a non-Hermitian one."""


class NotPositiveError(ValueError):
    """A matrix has an eigenvalue below the negativity tolerance."""


class CommutingInputError(ValueError):
    """The operation needs a noncommuting pair of density matrices."""

    def __init__(self, message: str, commutator_norm: float):
        super().__init__(message)
        self.commutator_norm = commutator_norm


class DegenerateChordError(ValueError):
    """Two qubit states lie too close for their chord to fix a decomposition."""


class IncompleteProtocolError(ValueError):
    """Kraus pairs do not resolve the identity within tolerance."""
