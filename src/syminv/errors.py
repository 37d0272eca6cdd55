"""Exception types shared across the package."""


class LinAlgError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LinAlgError):
    """Operands have incompatible or non-square shapes."""


class InvalidArgument(LinAlgError):
    """A parameter is outside its documented domain."""


class IndexOutOfRange(LinAlgError):
    """A required-component index falls outside [1, n]."""


class NotSymmetric(LinAlgError):
    """Input matrix failed the symmetry check."""


class SingularMatrix(LinAlgError):
    """Elimination found no usable pivot in any remaining row."""


class ZeroPivot(LinAlgError):
    """A pivot product vanished on a path that does not permute rows.

    Attributes:
        step: 0-based elimination step at which the pivot product was
            below tolerance (equivalently, the leading principal minor of
            order ``step + 1`` is numerically zero).
    """

    def __init__(self, step):
        self.step = int(step)
        super().__init__(f"zero pivot at elimination step {self.step}")


class NotPositiveDefinite(LinAlgError):
    """A quantity under a square root was not positive.

    Attributes:
        step: 0-based column index of the offending Cholesky pivot.
    """

    def __init__(self, step):
        self.step = int(step)
        super().__init__(f"non-positive pivot at column {self.step}")


class GenerationFailed(LinAlgError):
    """A random matrix family exhausted its reseed attempts."""
