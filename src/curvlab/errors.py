"""Exception hierarchy for the package.

Two families matter to callers.  ``InputFormatError`` covers data that
cannot be used at all: unparseable files, schema mismatches, component
arrays that fail their own symmetries.  ``MathematicalRejection`` covers
inputs that are well formed but fail a structural requirement, such as a
tensor that is not almost isotropic or not Kahler.  ``NumericalFailure``
reports a numpy routine that failed on well-formed input.  The command
line maps the first family to exit code 1 and every other package error
to exit code 2.  Every tolerance reject reads ``<what> <value> exceeds
<threshold>``.  A bad sample entry raises ``DimensionMismatch``, ``NotUnit``,
``NotOrthonormal`` or ``PreconditionViolated`` (``sphere`` says which), and
``io.load_samples`` re-raises it as ``ParseError`` (exit 1).
"""


class CurvlabError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(CurvlabError):
    """Input data cannot be parsed or violates its file schema."""


class MathematicalRejection(CurvlabError):
    """Well-formed input fails a structural requirement."""


class NumericalFailure(CurvlabError):
    """A numpy spectral or SVD routine failed to converge on the given input."""


# --- input / format -------------------------------------------------------

class ParseError(InputFormatError):
    """File contents do not match the expected layout or value types."""


class SchemaVersionUnsupported(InputFormatError):
    """File declares a schema version this build does not understand."""


class SymmetryViolation(InputFormatError):
    """Component array fails a curvature symmetry; the message names it."""


class NonFiniteComponents(InputFormatError):
    """Component array contains NaN or infinite entries."""


class EmptySamples(InputFormatError):
    """Sample set contains no tangent vectors to fit against."""


# --- mathematical rejection ----------------------------------------------

class NotAlmostIsotropic(MathematicalRejection):
    """Some Jacobi operator deviates from kappa*Id by rank above one."""


class InconsistentKappa(MathematicalRejection):
    """Per-sample isotropy constants disagree beyond tolerance."""


class InconsistentTau(MathematicalRejection):
    """Rank-one Jacobi deviations carry mixed signs across basis vectors."""


class SignResolutionFailure(MathematicalRejection):
    """The recovered (kappa, tau, A) does not reproduce the tensor within tolerance."""


class NotKahler(MathematicalRejection):
    """Tensor violates the Kahler symmetry R(x,y)z = R(Jx,Jy)z."""


class StructureViolation(MathematicalRejection):
    """A structural consequence of the classification fails beyond tolerance."""


class ConventionViolation(MathematicalRejection):
    """The tau/A pairing breaks the normalization tau = 0 iff A = 0."""


# --- argument contract errors --------------------------------------------

class OddDimension(CurvlabError):
    """Operation requires an even ambient dimension."""


class DimensionMismatch(CurvlabError):
    """Operands live in different ambient dimensions."""


class NonOrthonormalBasis(CurvlabError):
    """Subspace basis fails the orthonormality check."""


class NonPositiveTolerance(CurvlabError):
    """Tolerance arguments must be finite and strictly positive."""


class NotUnit(CurvlabError):
    """Vector argument must have unit norm."""


class NotOrthonormal(CurvlabError):
    """Vector tuple argument must be orthonormal."""


class NotSkew(CurvlabError):
    """Operator argument must be skew symmetric."""


class ZeroOperator(CurvlabError):
    """Operator argument must be nonzero."""


class PreconditionViolated(CurvlabError):
    """Geometric precondition on the arguments does not hold."""
