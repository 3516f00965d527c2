"""Exception hierarchy.

Three broad families matter to callers (and fix the CLI exit codes):
``ValidationError`` for malformed input, ``NumericError`` for numeric
breakdown, ``InfeasibleError`` for well-formed but unsatisfiable requests.
"""


class BoltzkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BoltzkitError, ValueError):
    """Input fails a structural precondition."""


class NumericError(BoltzkitError, ArithmeticError):
    """A computation cannot be carried out at the requested precision."""


class InfeasibleError(BoltzkitError):
    """The request is well-formed but has no solution."""


# -- validation ------------------------------------------------------------

class LengthMismatch(ValidationError):
    """Priors and energy levels have different lengths."""


class NegativePrior(ValidationError):
    """A prior probability entry is negative."""


class PriorSumMismatch(ValidationError):
    """Prior probabilities do not sum to 1 within tolerance."""


class NonPositiveN(ValidationError):
    """Particle count must be a positive integer."""


class NonFiniteEnergy(ValidationError):
    """An energy level is NaN or infinite."""


class ZeroLevels(ValidationError):
    """At least one energy level is required."""


class InvalidCount(ZeroLevels):
    """A level, part or truncation count, or a composition's particle total,
    is not an integer at or above its least value (1, or 0 for a total).

    It is a ZeroLevels only because ``uniform_prior(0)`` has always raised
    that; its own class gives the count rule one raise site, apart from the
    empty-sequence checks that raise ZeroLevels itself.
    """


class SupportViolation(ValidationError):
    """Mass sits where the reference distribution has none."""


class MeanSumMismatch(ValidationError):
    """Mean occupations do not sum to the particle count."""


class KMismatch(ValidationError):
    """Entropies measured with different Boltzmann constants."""


class ExceedsReference(ValidationError):
    """Entropy exceeds its reference maximum beyond tolerance."""


class ZeroPriorEntry(ValidationError):
    """Operation requires strictly positive priors."""


class NonPositiveBeta(ValidationError):
    """Inverse temperature must be positive here."""


class SizeGuardExceeded(ValidationError):
    """Requested enumeration is larger than ``DEFAULT_SIZE_CAP``."""


# -- numeric ---------------------------------------------------------------

class DegeneratePrior(NumericError):
    """ln Z_w, the log of the prior-weighted partition sum, is beyond float
    range (levels [1e308, 1e308] at beta = 10 give ln Z_w = -1e309)."""


class TruncationInsufficient(NumericError):
    """Series truncation cannot reach the requested tolerance."""


# -- infeasible ------------------------------------------------------------

class TargetOutOfRange(InfeasibleError):
    """Target mean energy lies outside the attainable open interval."""


class NoVariation(InfeasibleError):
    """All supported levels share one energy; only that energy is attainable."""
