"""Exception types raised across the package."""


class ModelReductionError(Exception):
    """Base class for all errors raised by h2mor."""


class DimensionMismatch(ModelReductionError):
    """Matrix dimensions are inconsistent with each other or with declared sizes."""


class StructurallySingularE(ModelReductionError):
    """The descriptor matrix E has a zero row/column or is numerically singular."""


class SingularShift(ModelReductionError):
    """A - sigma*E (or sE - A) is singular at the requested shift."""

    def __init__(self, message, sigma=None):
        super().__init__(message)
        self.sigma = sigma


class RankDeficientProjection(ModelReductionError):
    """W^T E V is numerically singular, so the Petrov-Galerkin projection fails."""


class RankCollapse(ModelReductionError):
    """A basis lost all of its numerical rank during orthonormalization."""


class NotConjugateClosed(ModelReductionError):
    """Interpolation data is not closed under complex conjugation."""


class DefectiveSpectrum(ModelReductionError):
    """Eigenvector matrix too ill-conditioned to trust the eigendecomposition."""


class NonFiniteMatrix(ModelReductionError):
    """A dense kernel was given a matrix with infinite or NaN entries."""


class SingularEr(ModelReductionError):
    """The reduced descriptor matrix is singular in a dense eigenproblem."""


class OrderTooLarge(ModelReductionError):
    """Model order exceeds the dense-kernel threshold for this operation."""


class UnstablePencil(ModelReductionError):
    """The pencil (A, E) has eigenvalues outside the open left half-plane."""


class UnstableRom(ModelReductionError):
    """Reduced model is unstable where a stable one is required."""


class FeedthroughMismatch(ModelReductionError):
    """Two models disagree in D, so their error system is not strictly proper."""


class CardinalityMismatch(ModelReductionError):
    """Two interpolation data sets have different numbers of columns."""


class ModelOrderExceeded(ModelReductionError):
    """A model-function update would exceed the maximum allowed surrogate order."""


class NegativeInput(ModelReductionError):
    """A nonnegative quantity was given a negative value."""


class ParseError(ModelReductionError):
    """A file could not be parsed; the message names the offending line."""


class UnsupportedField(ModelReductionError):
    """Matrix Market field/symmetry that this loader does not support."""


class IoError(ModelReductionError):
    """File could not be read or written."""
