"""Exact arithmetic and a calculator for gross-numbers: values with finite,
infinite and infinitesimal parts written positionally in base G1 (①), the
infinite unit defined as the number of elements of the set of natural
numbers."""

import types as _types

from .core import (
    DEFAULT_DIV_TERMS,
    DivResult,
    GROSSONE,
    GrossNumber,
    GrossTerm,
    NumClass,
    ONE,
    Parity,
    ZERO,
    add,
    as_gross,
    as_int,
    as_rational,
    classify,
    compare,
    divide,
    exact_divide,
    finite_part,
    from_int,
    from_rational,
    has_infinitesimal_part,
    is_integer_like,
    monomial,
    multiply,
    negate,
    normalize,
    parity,
    power_gross,
    power_int,
    scalar_mul,
    sign,
    subtract,
)
from .errors import GrossoneError
from .numio import parse_expression, parse_number, parse_statement, print_canonical

# Every public name imported above is re-exported; the submodules are not.
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]

__version__ = "0.1.0"
