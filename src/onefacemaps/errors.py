"""The two exceptions that change what a caller does.

Every rejected input, anywhere in the package, raises ``ValueError`` with a
message that names the fault; the message, not a subclass, tells faults
apart.  Only two failures are not rejected input, and each has a class:

* ``BudgetExhaustedError``: the input was valid but rejection sampling ran
  out of draws; it carries the partial sample, and the CLI exits 3 on it.
* ``NoConvergenceError``: LAPACK failed on a valid matrix.  numpy's
  ``LinAlgError`` subclasses ``ValueError``, so unwrapped it would read as
  rejected input (CLI exit 2).
"""


class BudgetExhaustedError(RuntimeError):
    """Rejection sampling ran out of attempts.

    Carries the maps found so far in ``gluings`` and the number of draws
    spent in ``attempts``.
    """

    def __init__(self, message: str, gluings, attempts: int):
        super().__init__(message)
        self.gluings = list(gluings)
        self.attempts = attempts


class NoConvergenceError(RuntimeError):
    """Eigensolver hit its iteration cap on a symmetric input."""
