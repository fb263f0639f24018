"""Exception hierarchy.

Three branches map onto the CLI exit codes: InputError (1, bad input or
schema), PreconditionError (2, a structural precondition such as a
monotonicity requirement fails), NumericalError (3, a numerical procedure
broke down).
"""


class MobiusDualError(Exception):
    """Base class for every error raised by this package."""


class InputError(MobiusDualError):
    """Invalid input data or spec file (CLI exit code 1)."""


class PreconditionError(MobiusDualError):
    """A structural precondition does not hold (CLI exit code 2)."""


class NumericalError(MobiusDualError):
    """A numerical procedure failed or lost accuracy (CLI exit code 3)."""


# --- input / validation -----------------------------------------------------

class DuplicateLabel(InputError):
    pass


class UnknownState(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class DimensionTooLarge(InputError):
    """A size above what the code admits; ``line`` is the spec line that
    set it, when one did."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NotStochastic(InputError):
    """Kernel rows fail non-negativity or row-sum checks.

    Carries ``violations``: a list of (row_index, description) pairs covering
    every offending row/entry.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class InexactSum(InputError):
    """An exact run's kernel row or nu does not sum to exactly 1; ``row``
    names it and ``exact_sum`` is its rational sum."""

    def __init__(self, message, row=None, exact_sum=None):
        super().__init__(message)
        self.row = row
        self.exact_sum = exact_sum


class NegativeHoldingProbability(InputError):
    pass


class MissingSubsetValue(InputError):
    pass


class ZeroGenerator(InputError):
    pass


class HorizonTooLarge(InputError):
    pass


class SchemaError(InputError):
    """Spec-file parse failure; carries the offending line number and field."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


# --- structural preconditions ------------------------------------------------

class CycleError(PreconditionError):
    """Antisymmetry violation; ``witness`` is a pair of mutually related labels."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotIrreducible(PreconditionError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotAperiodic(PreconditionError):
    def __init__(self, message, period=None):
        super().__init__(message)
        self.period = period


class UpSetExplosion(PreconditionError):
    pass


class PreconditionFailed(PreconditionError):
    """A duality precondition fails; carries the offending MonotonicityReport."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoUniqueExtremalState(PreconditionError):
    pass


class NotLattice(PreconditionError):
    pass


class IncomparableRequired(PreconditionError):
    pass


class InsufficientMass(PreconditionError):
    pass


# --- numerical ----------------------------------------------------------------

class SingularFundamentalMatrix(NumericalError):
    pass


class NumericalFailure(NumericalError):
    pass


def exit_code(exc):
    """CLI exit code for an exception (0 is success, never returned here)."""
    if isinstance(exc, NumericalError):
        return 3
    if isinstance(exc, PreconditionError):
        return 2
    return 1
