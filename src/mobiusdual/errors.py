"""Exception hierarchy.

Three branches map onto the CLI exit codes: InputError (1, bad input or
schema), PreconditionError (2, a structural precondition such as a
monotonicity requirement fails), NumericalError (3, a numerical procedure
broke down).
"""


class MobiusDualError(Exception):
    """Base class for every error raised by this package.

    ``fields`` names the keywords a class keeps as attributes (None when not
    given), which the CLI's JSON error block writes; any other is a TypeError.
    """

    fields = ()

    def __init__(self, message, **fields):
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, fields.pop(name, None))
        if fields:
            raise TypeError(f"{type(self).__name__} takes no keyword {min(fields)!r}")


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

    fields = ("line",)


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

    fields = ("row", "exact_sum")


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

    fields = ("line", "field")


# --- structural preconditions ------------------------------------------------

class CycleError(PreconditionError):
    """Antisymmetry violation; ``witness`` is a pair of mutually related labels."""

    fields = ("witness",)


class NotIrreducible(PreconditionError):
    fields = ("pair",)


class NotAperiodic(PreconditionError):
    fields = ("period",)


class UpSetExplosion(PreconditionError):
    pass


class PreconditionFailed(PreconditionError):
    """A duality precondition fails; carries the offending MonotonicityReport."""

    fields = ("report",)


class NoUniqueExtremalState(PreconditionError):
    pass


class AbsorbingStateUnreachable(PreconditionError):
    """A state the dual reaches from supp nu* cannot reach its absorbing
    state; ``pair`` is (that state, the absorbing state)."""

    fields = ("pair",)


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
