"""Exception types shared across the package."""


class GluingError(ValueError):
    """A gluing violates one of its structural invariants."""


class BadLengthError(GluingError):
    """Partner table has odd length or does not match the declared size."""


class NotInvolutionError(GluingError):
    """partner[partner[i]] != i for some label, or a label is out of range."""


class FixedPointError(GluingError):
    """Some label is glued to itself."""


class OutOfRangeError(ValueError):
    """Argument lies outside the documented domain."""


class TooLargeError(ValueError):
    """Exhaustive enumeration requested beyond the guard size."""


class BudgetExhaustedError(RuntimeError):
    """Rejection sampling ran out of attempts.

    Carries the maps found so far in ``gluings`` and the number of draws
    spent in ``attempts``.
    """

    def __init__(self, message: str, gluings=None, attempts: int = 0):
        super().__init__(message)
        self.gluings = list(gluings) if gluings is not None else []
        self.attempts = attempts


class NoConvergenceError(RuntimeError):
    """Eigensolver hit its iteration cap on a symmetric input."""


class EmptyEnsembleError(ValueError):
    """Statistic requested over an empty collection of spectra."""


class DegenerateSpectrumError(ValueError):
    """All bulk spacings are zero; cannot scale to mean one."""


class MixedSizesError(ValueError):
    """Ensemble mixes spectra of different lengths."""


class EmptySampleError(ValueError):
    """Distance requested for an empty sample."""


class ParseError(ValueError):
    """Ensemble file line could not be parsed."""
