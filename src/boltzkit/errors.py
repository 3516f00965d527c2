"""Exception hierarchy.

Three families matter to callers (and fix the CLI exit codes):
``ValidationError`` for malformed input, ``NumericError`` for numeric
breakdown, ``InfeasibleError`` for well-formed but unsatisfiable requests.
Every module raises a family, with a message that names the case.
"""


class BoltzkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BoltzkitError, ValueError):
    """Input fails a structural precondition."""


class NumericError(BoltzkitError, ArithmeticError):
    """A computation cannot be carried out at the requested precision."""


class InfeasibleError(BoltzkitError):
    """The request is well-formed but has no solution."""
