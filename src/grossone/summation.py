"""Closed-form summation with an explicit number of items.

A sum is only defined once its item count is stated, and the count may be
infinite: the sum of i for i = 1..G1 is 0.5*G1^{2} + 0.5*G1, exactly.
Polynomial summands are summed through power-sum closed forms.  An
alternating sum is the plain sum less twice its even-indexed items, which
needs the parity of the item count (numbers without a parity are rejected
rather than averaged, because an average is not a sum).

Both steps run on ``core``'s integer kernel.  ``core._polynomial_product``
expands a summand into gross-number coefficients c_j of the index's
powers.  Its sum is ``sum_j c_j * F_j(k)``, with F_j the power sum
1^j + ... + k^j as a cached integer row (each built in integers from the
row below, by F_j = j * (integral of F_{j-1}) + B_j*t), and
``core._polynomial_at`` substitutes the count, a gross-number, into all of
it at once.  These rows are the only ones:
the even-indexed items p(2), ..., p(2m) sum to ``sum_j c_j * 2^j * F_j(m)``,
so twice them is the same rows shifted left by j + 1 bits, at m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, NamedTuple, Tuple

from . import core
from .core import GrossNumber, ONE, Parity, ZERO, as_gross, from_int, scalar_mul
from .errors import EvalError, LimitExceeded, ParityUndefined, UnsupportedSummand
from .evaluator import Env, evaluate
from .numio import Ast, Binary, Call, Compare, Unary, Var, operator_chain

#: Most items ``sum_finite_generic`` adds one by one; the 10,000 items of
#: ``2^i - 2^i`` take about 0.7 s on a 2-core host, and a larger count is
#: refused before the first item.
MAX_SUM_ITEMS = 10_000

#: Highest degree of a polynomial summand, checked before each product or
#: power that builds one and before a Faulhaber row is made, so
#: ``i^100000`` and ``faulhaber(100000, k)`` stop at once.  On a 2-core host,
#: ``sum --summand "(i+G1+G1^{-1})^100" --upper "2*G1-1" --alternating``
#: takes about 0.3 s end to end.
MAX_SUMMAND_DEGREE = 100


@lru_cache(maxsize=MAX_SUMMAND_DEGREE + 1)
def _row(j: int) -> tuple[int, tuple[int, ...]]:
    """``(D, (n_0, ..., n_{j+1}))``: the coefficients n_e/D in t of
    S_j(t) = 1^j + 2^j + ... + t^j, in lowest terms.

    Built from the row below by S_0 = t and S_j = j * (integral of S_{j-1}
    from 0 to t) + c*t, with c set so that S_j(1) = 1 (c is the Bernoulli
    number B_j).  Over D*L, with L = lcm(1, ..., j+1), all of it is in
    integers.  A j above ``MAX_SUMMAND_DEGREE`` raises LimitExceeded
    before any work, so the cache holds every row that can be built."""
    if j > MAX_SUMMAND_DEGREE:
        raise LimitExceeded(f"a polynomial summand has degree at most {MAX_SUMMAND_DEGREE}, not {j}")
    if j == 0:
        return 1, (0, 1)
    d, numerators = _row(j - 1)
    scale = lcm(*range(1, j + 2))
    integral = [j * n * scale // (e + 1) for e, n in enumerate(numerators)]
    row = (0, d * scale - sum(integral), *integral[1:])
    common = gcd(d * scale, *row)
    return d * scale // common, tuple(n // common for n in row)


def faulhaber(j: int, k: GrossNumber) -> GrossNumber:
    """Power sum 1^j + 2^j + ... + k^j as an exact polynomial in k, for
    j up to ``MAX_SUMMAND_DEGREE``.

    >>> faulhaber(1, from_int(100)) == 5050
    True
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    return core._polynomial_at([ONE], [_row(j)], as_gross(k))


class PolynomialSummand(NamedTuple):
    """Summand c_0 + c_1*i + ... + c_d*i^d; coefficients are gross-numbers."""

    coefficients: Tuple[GrossNumber, ...]

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[core.GrossLike]) -> "PolynomialSummand":
        coeffs = [as_gross(c) for c in coefficients]
        while coeffs and not coeffs[-1].terms:
            coeffs.pop()
        return cls(tuple(coeffs))


def sum_polynomial(p: PolynomialSummand, k: GrossNumber) -> GrossNumber:
    """Sum of p(i) for i = 1..k, exact for any gross-number count k."""
    return core._polynomial_at(p.coefficients, [_row(j) for j in range(len(p.coefficients))], as_gross(k))


def sum_alternating_polynomial(p: PolynomialSummand, k: GrossNumber) -> GrossNumber:
    """Sum of (-1)^(i+1) * p(i) for i = 1..k.

    That is the plain sum less twice the even-indexed items p(2), ...,
    p(2m), with m = (k - odd)/2, so the item count k must have a parity.
    As p(2s) is ``sum_j c_j * 2^j * s^j``, the even half's rows are the
    plain sum's rows with their integers shifted left by j + 1.
    """
    k = as_gross(k)
    odd = 0 if core.parity(k) is Parity.EVEN else 1
    rows = [_row(j) for j in range(len(p.coefficients))]
    evens = [(d, tuple(n << j + 1 for n in numerators)) for j, (d, numerators) in enumerate(rows)]
    half = scalar_mul(Fraction(1, 2), k - odd)
    return core._polynomial_at(p.coefficients, rows, k) - core._polynomial_at(p.coefficients, evens, half)


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

    The count k arrives from outside and must be a non-negative integer,
    such as 3, G1 or G1/2: the closed forms are identities for any k, and
    would sum -1 or 1/2 items without a word.  A negative k raises
    EvalError and one without a parity ParityUndefined, each naming k.  A
    summand polynomial in ``var`` is summed in closed form for any count;
    any other summand is iterated when k is finite and raises
    UnsupportedSummand otherwise.
    """
    if core.sign(k) < 0:
        raise EvalError(f"an item count is a non-negative integer, not {k}")
    try:
        core.parity(k)
    except ParityUndefined as exc:
        raise ParityUndefined(f"an item count is a non-negative integer, but {exc}") from None
    env = env or Env()
    try:
        poly = summand_polynomial(expr, var, env)
    except UnsupportedSummand:
        count = core.as_int(k)
        if count is None:
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
            return _poly_product([ONE], _poly_coefficients(expr.left, var, env), exponent)
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


def _poly_product(left: list[GrossNumber], right: list[GrossNumber], times: int = 1) -> list[GrossNumber]:
    """left * right^times, refused before the first product when its degree
    would exceed ``MAX_SUMMAND_DEGREE``."""
    degree = len(left) - 1 + times * (len(right) - 1)
    if degree > MAX_SUMMAND_DEGREE:
        raise LimitExceeded(f"a polynomial summand has degree at most {MAX_SUMMAND_DEGREE}, not {degree}")
    return core._polynomial_product(left, right, times)


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
