"""Exception hierarchy shared by all grossone modules.

Everything raised on purpose derives from GrossoneError so callers (and the
CLI) can separate domain errors from genuine bugs.
"""

from __future__ import annotations


class GrossoneError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- arithmetic


class DivisionByZero(GrossoneError, ZeroDivisionError):
    pass


class InexactDivision(GrossoneError):
    """Exact division was requested but a nonzero remainder survived the
    term budget."""


class NegativePowerOfNonMonomial(GrossoneError):
    """Negative integer powers are only defined for single-term numbers;
    everything else must go through division."""


class ZeroToNonpositivePower(GrossoneError):
    pass


class UnsupportedExponentiation(GrossoneError):
    """The base/exponent combination has no representation in the numeral
    system (for example a finite base other than 0 or 1 raised to an
    infinite power)."""


class ParityUndefined(GrossoneError):
    """Raised for numbers with infinitesimal parts or a non-integer finite
    part, which have no even/odd classification."""


class LimitExceeded(GrossoneError):
    """An explicit limit was reached: a value whose numeral would nest
    deeper than ``core.MAX_NESTING`` braces, a coefficient with more digits
    than Python converts to text, function calls nested deeper than
    ``evaluator.MAX_CALL_LEVELS`` levels, a quotient that would need more
    than ``core.MAX_DIV_TERMS`` terms under a budget above that cap, a
    term-by-term sum of more than ``summation.MAX_SUM_ITEMS`` items, or a
    polynomial summand, or a power sum ``summation.faulhaber(j, k)``, of
    degree above ``summation.MAX_SUMMAND_DEGREE``."""


# ------------------------------------------------------------------- parsing


class ParseError(GrossoneError):
    """Malformed input text; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnknownCharacter(ParseError):
    pass


class DepthLimitExceeded(ParseError):
    """Input nested deeper than ``core.MAX_NESTING`` levels; the position
    is that of the token that opens the level one too deep."""


# ---------------------------------------------------------------- evaluation


class EvalError(GrossoneError):
    pass


class UnboundName(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound name {name}")


class NoBranchMatched(EvalError):
    pass


# ----------------------------------------------------------------- summation


class UnsupportedSummand(GrossoneError):
    """The summand has no polynomial closed form in the index variable, so
    it cannot be summed up to an infinite item count."""


# ------------------------------------------------------------------ set calc


class InvalidProgression(GrossoneError):
    pass


class InvalidModel(GrossoneError):
    pass
