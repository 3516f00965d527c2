"""Exception hierarchy.

Three broad families matter to callers (and fix the CLI exit codes):
``ValidationError`` for malformed input, ``NumericError`` for numeric
breakdown, ``InfeasibleError`` for well-formed but unsatisfiable requests.

The rule: each subclass below the families names one input rule and is
raised only in ``core``, which checks that rule; every other module raises
a family, with a message that tells its cases apart. Every count, the
particle count N included, follows one rule and raises ``InvalidCount``.
"""


class BoltzkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BoltzkitError, ValueError):
    """Input fails a structural precondition."""


class NumericError(BoltzkitError, ArithmeticError):
    """A computation cannot be carried out at the requested precision."""


class InfeasibleError(BoltzkitError):
    """The request is well-formed but has no solution."""


# -- core's input rules ----------------------------------------------------

class LengthMismatch(ValidationError):
    """Priors and energy levels have different lengths."""


class NegativePrior(ValidationError):
    """A prior probability entry is negative."""


class PriorSumMismatch(ValidationError):
    """Prior probabilities do not sum to 1 within tolerance."""


class NonFiniteEnergy(ValidationError):
    """An energy level is NaN or infinite."""


class ZeroLevels(ValidationError):
    """At least one energy level is required."""


class InvalidCount(ZeroLevels):
    """A particle, level, part or truncation count, or a composition's total
    or occupation, is not an integer at or above its least value (1, or 0
    for a total or occupation). It is a ZeroLevels only because
    ``uniform_prior(0)`` has always raised that.
    """

