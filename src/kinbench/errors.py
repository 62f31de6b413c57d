"""Exception types shared across the package: the CLI exits 2 on an InputError, else 1."""


class KinbenchError(Exception):
    """Base class for all package errors."""


class InputError(KinbenchError):
    """Caller-supplied input is malformed or out of range (CLI exit code 2)."""


class DomainError(InputError):
    """Point lies outside the declared domain."""


class InsufficientSmoothness(KinbenchError):
    """Derivative data missing and finite differencing is not possible."""


class MissingGibbsForm(KinbenchError):
    """Operation needs (beta, H) data and none can be recovered."""


class UnknownExample(InputError):
    """Catalog name not recognized."""


class ParameterOutOfRange(InputError):
    """Parameter outside the admissible range."""


class ShapeError(InputError):
    """Matrix or vector has the wrong shape."""


class NoViolationAtPoint(KinbenchError):
    """Leading coefficient vanishes here; no counterexample at this point."""


class OrderTooLow(InputError):
    """Operator order is <= 2; nothing to violate."""


class PreconditionViolated(InputError):
    """Caller-supplied data breaks a stated precondition."""


class NonEllipticCoefficient(InputError):
    """Diffusion coefficient has a negative eigenvalue."""


class UnsupportedTensor(KinbenchError):
    """Off-diagonal diffusion tensors are not supported in v1."""


class TimeError(InputError):
    """Negative evolution time."""


class TruncationBudgetExceeded(KinbenchError):
    """Horizon split cap or dense kernel size cap exceeded; shorten the horizon or coarsen the grid."""


class SpectrumError(InputError):
    """Resolvent parameter outside the guaranteed resolvent set."""


class NoInvariantDensity(KinbenchError):
    """Chain has transient states; no strictly positive invariant density."""


class SupportViolation(KinbenchError):
    """State puts mass where the reference density vanishes."""


class NonSmoothH(KinbenchError):
    """Convex functional lacks the second derivative needed here."""


class EmptyEnsemble(KinbenchError):
    """No live particles to histogram."""


class ExpressionError(InputError):
    """Coefficient expression failed to parse."""


class ScenarioError(InputError):
    """Scenario or operator document is malformed; a bad field is named by its dotted path."""


class MomentBiasWarning(UserWarning):
    """Moment-recovery window too long; O(t) bias may be visible."""
