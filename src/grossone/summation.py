"""Closed-form summation with an explicit number of items.

A sum is only defined once its item count is stated, and the count may be
infinite: the sum of i for i = 1..G1 is 0.5*G1^{2} + 0.5*G1, exactly.
Polynomial summands are summed through power-sum closed forms; alternating
sums split into the odd- and even-indexed subsums, which needs the parity
of the item count (numbers without a parity are rejected rather than
averaged, because an average is not a sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import Iterable, Tuple, Union

from . import core
from .core import GrossNumber, ONE, Parity, ZERO, as_gross, from_int, scalar_mul
from .errors import LimitExceeded, UnsupportedSummand
from .evaluator import Env, evaluate
from .numio import Ast, Binary, Call, Compare, Unary, Var, operator_chain

#: Most items ``sum_finite_generic`` adds one by one; the 10,000 items of
#: ``2^i - 2^i`` take about 0.7 s on a 2-core host, and a larger count is
#: refused before the first item.
MAX_SUM_ITEMS = 10_000

_bernoulli_cache: list[Fraction] = []


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n with the B_1 = +1/2 convention.

    Computed by the Akiyama-Tanigawa triangle, which yields this convention
    directly; values are cached per degree.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_bernoulli_cache):
        row = [Fraction(0)] * (n + 1)
        values: list[Fraction] = []
        for m in range(n + 1):
            row[m] = Fraction(1, m + 1)
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
            values.append(row[0])
        _bernoulli_cache[:] = values
    return _bernoulli_cache[n]


def faulhaber(j: int, k: GrossNumber) -> GrossNumber:
    """Power sum 1^j + 2^j + ... + k^j as an exact polynomial in k.

    >>> faulhaber(1, from_int(100)) == 5050
    True
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    k = as_gross(k)
    if not k.terms:
        return ZERO
    return _power_sum(j, _count_powers(k, j + 1))


def _count_powers(k: GrossNumber, n: int) -> list[GrossNumber]:
    """``[k, k^2, ..., k^n]``, each power computed once."""
    return [core.power_int(k, e) for e in range(1, n + 1)]


def _power_sum(j: int, powers: list[GrossNumber]) -> GrossNumber:
    """Faulhaber's formula for 1^j + ... + k^j from ``powers[e-1] = k^e``,
    e = 1..j+1."""
    total = ZERO
    for m in range(j + 1):
        coefficient = Fraction(comb(j + 1, m)) * bernoulli(m) / (j + 1)
        total = total + scalar_mul(coefficient, powers[j - m])
    return total


CoefficientLike = Union[GrossNumber, int, Fraction]


@dataclass(frozen=True)
class PolynomialSummand:
    """Summand c_0 + c_1*i + ... + c_d*i^d; coefficients are gross-numbers."""

    coefficients: Tuple[GrossNumber, ...]

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[CoefficientLike]) -> "PolynomialSummand":
        coeffs = [as_gross(c) for c in coefficients]
        while coeffs and not coeffs[-1].terms:
            coeffs.pop()
        return cls(tuple(coeffs))

    def compose_affine(self, a: Fraction, b: Fraction) -> "PolynomialSummand":
        """The summand as a polynomial in t where i = a*t + b."""
        size = len(self.coefficients)
        out = [ZERO] * size
        for j, cj in enumerate(self.coefficients):
            for m in range(j + 1):
                factor = Fraction(comb(j, m)) * a**m * b ** (j - m)
                out[m] = out[m] + scalar_mul(factor, cj)
        return PolynomialSummand.from_coefficients(out)


def sum_polynomial(p: PolynomialSummand, k: GrossNumber) -> GrossNumber:
    """Sum of p(i) for i = 1..k, exact for any gross-number count k."""
    powers = _count_powers(as_gross(k), len(p.coefficients))
    total = ZERO
    for j, coefficient in enumerate(p.coefficients):
        total = total + coefficient * _power_sum(j, powers)
    return total


def sum_alternating_unit(k: GrossNumber) -> GrossNumber:
    """Sum of k items +1 -1 +1 -1 ...: 0 when k is even, 1 when odd."""
    return ZERO if core.parity(as_gross(k)) is Parity.EVEN else ONE


def sum_alternating_polynomial(p: PolynomialSummand, k: GrossNumber) -> GrossNumber:
    """Sum of (-1)^(i+1) * p(i) for i = 1..k.

    Splits into the odd-indexed items p(1), p(3), ... minus the
    even-indexed items p(2), p(4), ...; each half is a polynomial sum over
    a half-scale count, so the item count k must have a parity.
    """
    k = as_gross(k)
    par = core.parity(k)
    if par is Parity.EVEN:
        positives = scalar_mul(Fraction(1, 2), k)
        negatives = positives
    else:
        positives = scalar_mul(Fraction(1, 2), k + 1)
        negatives = scalar_mul(Fraction(1, 2), k - 1)
    odd_part = sum_polynomial(p.compose_affine(Fraction(2), Fraction(-1)), positives)
    even_part = sum_polynomial(p.compose_affine(Fraction(2), Fraction(0)), negatives)
    return odd_part - even_part


def sum_finite_generic(
    expr: Ast,
    k: int,
    env: Env | None = None,
    *,
    var: str = "i",
    alternating: bool = False,
) -> GrossNumber:
    """Direct iteration of an arbitrary summand for a machine-size count.

    This is the brute-force cross-check for every closed form above, and
    the fallback for summands with no polynomial closed form.  With
    ``alternating`` the even-indexed items are subtracted; division follows
    ``env.divide``.  A count above ``MAX_SUM_ITEMS`` raises LimitExceeded
    before the first item.
    """
    if k < 0:
        raise ValueError("item count must be >= 0")
    if k > MAX_SUM_ITEMS:
        raise LimitExceeded(f"a sum without a closed form adds at most {MAX_SUM_ITEMS} items, not {k}")
    env = env or Env()
    total = ZERO
    for i in range(1, k + 1):
        item = evaluate(expr, env.bind(var, from_int(i)))
        total = total - item if alternating and i % 2 == 0 else total + item
    return total


def sum_expression(
    expr: Ast,
    k: GrossNumber,
    env: Env | None = None,
    *,
    var: str = "i",
    alternating: bool = False,
) -> GrossNumber:
    """Sum of the summand ``expr`` for ``var`` = 1..k.

    A summand polynomial in ``var`` is summed in closed form for any count;
    any other summand is iterated when k is a finite non-negative integer
    and raises UnsupportedSummand otherwise.
    """
    env = env or Env()
    try:
        poly = summand_polynomial(expr, var, env)
    except UnsupportedSummand:
        count = core.as_int(k)
        if count is None or count < 0:
            raise
        return sum_finite_generic(expr, count, env, var=var, alternating=alternating)
    if alternating:
        return sum_alternating_polynomial(poly, k)
    return sum_polynomial(poly, k)


# ----------------------------------------------- summand classification


def summand_polynomial(expr: Ast, var: str, env: Env | None = None) -> PolynomialSummand:
    """Interpret an expression as a polynomial in ``var``.

    Raises UnsupportedSummand when the variable reaches an exponent, a
    divisor, or a function argument; such summands (2^i, 1/i, f(i), ...)
    have no polynomial closed form and cannot be summed to an infinite
    count.
    """
    env = env or Env()
    return PolynomialSummand.from_coefficients(_poly_coefficients(expr, var, env))


def _poly_coefficients(expr: Ast, var: str, env: Env) -> list[GrossNumber]:
    if not _mentions(expr, var):
        return [evaluate(expr, env)]
    if isinstance(expr, Var) and expr.name == var:
        return [ZERO, ONE]
    if isinstance(expr, Unary):
        return [core.negate(c) for c in _poly_coefficients(expr.operand, var, env)]
    if isinstance(expr, Binary):
        if expr.op in ("+", "-", "*", "/"):
            return _chain_coefficients(expr, var, env)
        if expr.op == "^":
            if _mentions(expr.right, var):
                raise UnsupportedSummand(
                    f"the index variable {var!r} occurs in an exponent "
                    "(geometric-type summand); no polynomial closed form exists"
                )
            exponent = core.as_int(evaluate(expr.right, env))
            if exponent is None or exponent < 0:
                raise UnsupportedSummand(
                    "polynomial summands need finite non-negative integer exponents"
                )
            out = [ONE]
            base = _poly_coefficients(expr.left, var, env)
            for _ in range(exponent):
                out = _poly_product(out, base)
            return out
    if isinstance(expr, Call):
        raise UnsupportedSummand(
            f"the index variable {var!r} occurs inside a function call; "
            "no polynomial closed form exists"
        )
    raise UnsupportedSummand(f"summand is not polynomial in {var!r}")


def _chain_coefficients(expr: Binary, var: str, env: Env) -> list[GrossNumber]:
    first, rest = operator_chain(expr)
    out = _poly_coefficients(first, var, env)
    for op, operand in rest:
        if op == "/":
            if _mentions(operand, var):
                raise UnsupportedSummand(
                    f"the index variable {var!r} occurs in a divisor; "
                    "no polynomial closed form exists"
                )
            divisor = evaluate(operand, env)
            out = [env.divide(c, divisor) for c in out]
        elif op == "*":
            out = _poly_product(out, _poly_coefficients(operand, var, env))
        else:
            right = _poly_coefficients(operand, var, env)
            combine = core.add if op == "+" else core.subtract
            out = [combine(a, b) for a, b in zip_longest(out, right, fillvalue=ZERO)]
    return out


def _poly_product(left: list[GrossNumber], right: list[GrossNumber]) -> list[GrossNumber]:
    out = [ZERO] * (len(left) + len(right) - 1)
    for a, ca in enumerate(left):
        for b, cb in enumerate(right):
            out[a + b] = out[a + b] + ca * cb
    return out


def _mentions(expr: Ast, var: str) -> bool:
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, Var):
            if node.name == var:
                return True
        elif isinstance(node, Unary):
            pending.append(node.operand)
        elif isinstance(node, (Binary, Compare)):
            pending += (node.left, node.right)
        elif isinstance(node, Call):
            pending += node.args
    return False
