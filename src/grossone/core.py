"""Exact arithmetic for gross-numbers.

A gross-number is a finite sum of terms ``c * G1^p`` where G1 (written ① in
print) is the infinite unit: the number of elements of the set of natural
numbers.  Coefficients (grossdigits) are exact rationals; exponents
(grosspowers) are themselves gross-numbers, so values such as
``17.21*G1^{52.4*G1 - 72.1}`` are first-class.  The canonical form keeps
exponents strictly decreasing, drops zero coefficients, and represents zero
as the empty sum; structural equality of canonical forms is numeric
equality.

The ordering is dominance order: the term with the largest grosspower
decides the sign, so every infinite number exceeds every finite one, which
in turn exceeds every infinitesimal, which is still strictly positive when
its leading coefficient is.

Inside ``multiply``, ``divide``, ``power_int`` and the two polynomial
kernels grosspowers and grossdigits run as integers: ``_keyed`` packs the
grosspowers of its parts, one integer key each, whose sum and order are
those of the grosspowers, and hands each part back over its own scale.  So
their loops do only integer arithmetic, and ``_ratio`` is the one way
their integers become coefficients, in the loops and in ``_from_keyed``:
one gcd, without ``Fraction.__new__``.  Long division keeps its
remainder as a dict from key to integer; a one-term divisor is a shift
through ``multiply``, exact whatever the dividend's length.  Every power
of a longer base runs on the keys in ``_raised``: n - 1 products up to
n = 4, Miller's recurrence above.  For ``summation``, ``_polynomial_product`` expands a
summand with its index as the top digit, and ``_polynomial_at`` substitutes
a closed form's count into the sum of the summand's coefficients times
integer rows: one packing, one Horner pass, one ``_from_keyed``.
When every grosspower is finite, a result term takes its grosspower from
``_decoded``, a bounded table shared across calls, so the same few finite
grosspowers are made once and shared by every value that has them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from heapq import heappop, heappush
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Tuple, Union

from .errors import (
    DivisionByZero,
    InexactDivision,
    LimitExceeded,
    NegativePowerOfNonMonomial,
    ParityUndefined,
    UnsupportedExponentiation,
    ZeroToNonpositivePower,
)

RationalLike = Union[int, Fraction]
GrossLike = Union["GrossNumber", int, Fraction]

#: Quotient terms ``divide`` emits when given no budget, and so the terms
#: ``exact_divide`` and ``/`` try before they call a division inexact.
DEFAULT_DIV_TERMS = 20

#: Deepest brace nesting of a numeral, parsed or made.  Ring operations nest
#: no deeper than max(operands, 1), as they reuse grosspowers below level 1,
#: so only ``monomial`` (also for (G1^p)^k) checks it, and values re-parse.
MAX_NESTING = 100

#: Most quotient terms ``divide`` emits, whatever its budget; a quotient that
#: needs more is refused once it has this many.  Sized on growing
#: coefficients: on a 2-core host, ``eval "1/(2+3*G1^{-1})"`` to 1,000 terms
#: takes about 0.4 s end to end; to 10,000 terms it divides for 2 s and runs
#: over 10 s before the printer refuses its coefficients.
MAX_DIV_TERMS = 1_000

#: How many finite grosspowers ``_from_keyed`` keeps decoded across calls.
_DECODED_POWERS = 4096


class NumClass(Enum):
    ZERO = "Zero"
    INFINITESIMAL = "Infinitesimal"
    FINITE_NONZERO = "FiniteNonzero"
    INFINITE = "Infinite"


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"


_ZERO_FRACTION = Fraction(0)
_new_object = object.__new__
# A NamedTuple's generated __new__ is a Python function; this builds the
# same tuple without calling it.
_new_tuple = tuple.__new__


def _ratio(n: int, d: int) -> Fraction:
    """The Fraction n/d, d nonzero, in lowest terms over a positive
    denominator, written into its two slots.  ``Fraction(n, d)`` also tests
    its arguments' types, and on CPython 3.10 to 3.13 (x86-64) it takes 2 to
    2.5 times as long; ``tests/test_core.py`` pins the slots.

    >>> _ratio(6, -4)
    Fraction(-3, 2)
    """
    g = gcd(n, d)
    if d < 0:
        g = -g
    q = _new_object(Fraction)
    q._numerator = n // g
    q._denominator = d // g
    return q


class GrossTerm(NamedTuple):
    """One addend ``coefficient * G1^exponent``; the coefficient is never 0."""

    coefficient: Fraction
    exponent: "GrossNumber"


@dataclass(frozen=True, eq=False)
class GrossNumber:
    """Canonical gross-number: terms sorted by strictly decreasing exponent."""

    terms: Tuple[GrossTerm, ...] = ()

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GrossNumber):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == as_gross(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        # Cached: values are immutable and get hashed heavily as exponent
        # keys.  Purely finite values hash like their rational value so
        # that x == 5 implies hash(x) == hash(5).
        h = getattr(self, "_hash", None)
        if h is not None:
            return h
        q = as_rational(self)
        h = hash(self.terms) if q is None else hash(q)
        object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other: GrossLike) -> bool:
        return compare(self, as_gross(other)) < 0

    def __le__(self, other: GrossLike) -> bool:
        return compare(self, as_gross(other)) <= 0

    def __gt__(self, other: GrossLike) -> bool:
        return compare(self, as_gross(other)) > 0

    def __ge__(self, other: GrossLike) -> bool:
        return compare(self, as_gross(other)) >= 0

    # -- ring operations --------------------------------------------------

    def __add__(self, other: GrossLike) -> "GrossNumber":
        return add(self, as_gross(other))

    __radd__ = __add__

    def __sub__(self, other: GrossLike) -> "GrossNumber":
        return subtract(self, as_gross(other))

    def __rsub__(self, other: GrossLike) -> "GrossNumber":
        return subtract(as_gross(other), self)

    def __neg__(self) -> "GrossNumber":
        return negate(self)

    def __pos__(self) -> "GrossNumber":
        return self

    def __mul__(self, other: GrossLike) -> "GrossNumber":
        return multiply(self, as_gross(other))

    __rmul__ = __mul__

    def __truediv__(self, other: GrossLike) -> "GrossNumber":
        return exact_divide(self, as_gross(other))

    def __rtruediv__(self, other: GrossLike) -> "GrossNumber":
        return exact_divide(as_gross(other), self)

    def __pow__(self, exponent: GrossLike) -> "GrossNumber":
        return power_gross(self, as_gross(exponent))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        """The canonical text, or a fixed placeholder when a coefficient is
        too long to print, so that an error message never fails to build;
        ``numio.print_canonical`` raises instead."""
        from .numio import print_canonical  # deferred: numio imports core

        try:
            return print_canonical(self)
        except LimitExceeded:
            return "<a value too long to print>"

    __str__ = __repr__


ZERO = GrossNumber()
ONE = GrossNumber((GrossTerm(Fraction(1), ZERO),))
GROSSONE = GrossNumber((GrossTerm(Fraction(1), ONE),))


def from_rational(value: RationalLike) -> GrossNumber:
    """Embed a rational as a purely finite gross-number (a single G1^0 term)."""
    q = Fraction(value)
    if q == 0:
        return ZERO
    return GrossNumber((GrossTerm(q, ZERO),))


def from_int(value: int) -> GrossNumber:
    return from_rational(Fraction(value))


def as_gross(value: GrossLike) -> GrossNumber:
    if isinstance(value, GrossNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a gross-number")


def monomial(coefficient: RationalLike, exponent: GrossLike) -> GrossNumber:
    """Single-term gross-number ``coefficient * G1^exponent``; LimitExceeded
    if it would print nested deeper than ``MAX_NESTING`` braces."""
    c = Fraction(coefficient)
    if c == 0:
        return ZERO
    exponent = as_gross(exponent)
    if _brace_depth(exponent) >= MAX_NESTING:
        raise LimitExceeded(f"the result would print nested deeper than {MAX_NESTING} braces")
    return GrossNumber((GrossTerm(c, exponent),))


def _brace_depth(x: GrossNumber) -> int:
    """How deeply ``numio.print_canonical`` nests braces for x.  Each level
    of nonzero grosspowers below x but the last holds one that leads deeper,
    so is not 0 or 1 and opens a brace; the last opens one unless all are 1.
    Read per grosspower of x: a finite one opens a brace unless it is 1, and
    any other opens one around its own depth.  Cached on x, as ``__hash__``
    caches its hash, so grosspowers shared between values are walked once.

    >>> _brace_depth(GROSSONE ** GROSSONE + GROSSONE)
    1
    """
    # getattr with a default: a raised AttributeError on every fresh value
    # cost (G1^p)^k about 6% in the nested benchmark
    depth = getattr(x, "_depth", None)
    if depth is not None:
        return depth
    depth = 0
    for _, p in x.terms:
        if len(p.terms) == 1 and not p.terms[0].exponent.terms:
            depth = max(depth, p.terms[0].coefficient != 1)
        elif p.terms:
            depth = max(depth, 1 + _brace_depth(p))
    object.__setattr__(x, "_depth", depth)
    return depth


# --------------------------------------------------------------- structure


def normalize(terms: Iterable[Tuple[RationalLike, GrossNumber]]) -> GrossNumber:
    """Canonicalize ``(coefficient, exponent)`` pairs.

    Merges equal exponents by summing coefficients, drops zeros and sorts
    exponents strictly decreasing.  Idempotent; exponents must already be
    canonical.
    """
    merged: dict[GrossNumber, Fraction] = {}
    for coefficient, exponent in terms:
        c = coefficient if type(coefficient) is Fraction else Fraction(coefficient)
        previous = merged.get(exponent)
        merged[exponent] = c if previous is None else previous + c
    return GrossNumber(tuple(GrossTerm(c, k) for k, c in _decreasing(merged)))


def sign(x: GrossNumber) -> int:
    """Sign of the leading (largest-exponent) coefficient; 0 for zero."""
    if not x.terms:
        return 0
    return 1 if x.terms[0].coefficient.numerator > 0 else -1


def compare(x: GrossNumber, y: GrossNumber) -> int:
    """Dominance-order comparison; equals sign(x - y).

    Coefficient comparisons run on the Fractions' slots (the denominator
    is always positive), which skips both the generic rational comparison
    and the ``numerator``/``denominator`` properties.
    """
    if x is y:
        return 0
    xt, yt = x.terms, y.terms
    # fast path: both sides purely finite (the common case for exponents)
    if (not xt or (len(xt) == 1 and not xt[0].exponent.terms)) and (
        not yt or (len(yt) == 1 and not yt[0].exponent.terms)
    ):
        a = xt[0].coefficient if xt else _ZERO_FRACTION
        b = yt[0].coefficient if yt else _ZERO_FRACTION
        lhs = a._numerator * b._denominator
        rhs = b._numerator * a._denominator
        return 0 if lhs == rhs else (1 if lhs > rhs else -1)
    i, j = 0, 0
    nx, ny = len(xt), len(yt)
    while True:
        if i >= nx and j >= ny:
            return 0
        if i >= nx:
            return -1 if yt[j].coefficient._numerator > 0 else 1
        if j >= ny:
            return 1 if xt[i].coefficient._numerator > 0 else -1
        tx, ty = xt[i], yt[j]
        c = compare(tx.exponent, ty.exponent)
        if c > 0:
            return 1 if tx.coefficient._numerator > 0 else -1
        if c < 0:
            return -1 if ty.coefficient._numerator > 0 else 1
        a, b = tx.coefficient, ty.coefficient
        if a._numerator != b._numerator or a._denominator != b._denominator:
            lhs = a._numerator * b._denominator
            rhs = b._numerator * a._denominator
            return 1 if lhs > rhs else -1
        i += 1
        j += 1


# --------------------------------------------------------------- arithmetic


def add(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact termwise merge of two canonical operands."""
    xt, yt = x.terms, y.terms
    if not xt:
        return y
    if not yt:
        return x
    out: list[GrossTerm] = []
    i, j = 0, 0
    nx, ny = len(xt), len(yt)
    while i < nx and j < ny:
        tx, ty = xt[i], yt[j]
        c = compare(tx.exponent, ty.exponent)
        if c > 0:
            out.append(tx)
            i += 1
        elif c < 0:
            out.append(ty)
            j += 1
        else:
            a, b = tx.coefficient, ty.coefficient
            n = a._numerator * b._denominator + b._numerator * a._denominator
            if n:
                out.append(_new_tuple(GrossTerm, (_ratio(n, a._denominator * b._denominator), tx.exponent)))
            i += 1
            j += 1
    out.extend(xt[i:])
    out.extend(yt[j:])
    return GrossNumber(tuple(out))


def negate(x: GrossNumber) -> GrossNumber:
    return GrossNumber(tuple(_new_tuple(GrossTerm, (_negated(c), p)) for c, p in x.terms))


def _negated(c: Fraction) -> Fraction:
    """-c, already in lowest terms, so with no gcd."""
    q = _new_object(Fraction)
    q._numerator = -c._numerator
    q._denominator = c._denominator
    return q


def subtract(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    return add(x, negate(y))


def multiply(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact convolution: every term pair multiplies coefficients and adds
    exponents, then like exponents merge.

    When one operand has a single term this is a monomial shift: adding a
    fixed grosspower keeps the other operand's exponents strictly
    decreasing (the exponents form an ordered group), so its terms, scaled
    and shifted, are already canonical and need no merge or sort.
    Otherwise ``_keyed`` packs the operands as two parts of reach 1, each
    grosspower one integer (adding two is ``+``) and each coefficient an
    integer over its operand's scale, and ``_convolve`` multiplies them.
    Each nonzero sum becomes one Fraction over the product of the scales.
    """
    if not x.terms or not y.terms:
        return ZERO
    if len(x.terms) == 1:
        x, y = y, x
    if len(y.terms) == 1:
        cy, py = y.terms[0]
        n, d = cy._numerator, cy._denominator
        terms = [_new_tuple(GrossTerm, (_ratio(cx._numerator * n, cx._denominator * d), add(px, py)))
                 for cx, px in x.terms]
        return GrossNumber(tuple(terms))
    codec, [(dx, xs), (dy, ys)] = _keyed((x.terms, 1), (y.terms, 1))
    scale = dx * dy
    return _from_keyed(codec, [(k, _ratio(c, scale)) for k, c in _decreasing(_convolve(xs, ys, {}))])


def _convolve(xs: Iterable, ys: list, products: dict) -> dict:
    """``products``, a ``{key: int}`` dict, with the product of two lists of
    ``(key, int)`` pairs added in: keys add, coefficients multiply, like
    keys merge.  ``_decreasing`` orders it once the caller is done."""
    for kx, cx in xs:
        for ky, cy in ys:
            key = kx + ky
            products[key] = products.get(key, 0) + cx * cy
    return products


def _keyed(*parts):
    """``(codec, [(scale, pairs), ...])``: for each part ``(terms, reach)``,
    its ``(coefficient, grosspower)`` terms in order as ``(key, int)`` pairs,
    each int the coefficient times the lcm of the part's denominators,
    ``scale``.  ``codec`` is what ``_from_keyed`` needs to unpack keys; its
    first place, ``R^m`` over m basis elements, is free for a top digit.

    A grosspower ``sum c_j*G1^{e_j}`` is a vector of digits over its inner
    exponents, and dominance order compares such vectors lexicographically,
    largest inner exponent first.  The basis is the distinct inner exponents
    of every part, decreasing (sorted only when it has two or more); with L
    the lcm of the inner coefficients' denominators, each digit ``c_j*L`` is
    an integer.  The key packs the digits in balanced radix ``R = 2B + 1``
    (Kronecker substitution; Monagan and Pearce, "Sparse polynomial division
    using a heap", JSC 2011).  While every digit lies in ``[-B, B]``, adding
    keys adds grosspowers and ``<`` on keys is their order.  B, the sum of
    reach times largest digit over the parts, covers every digit the
    caller's loop reaches: 1 per factor of a product, n for an n-th power's
    base, 1 for a dividend and 2T for a divisor over T steps.  Over one
    basis element, as when all grosspowers are finite, key = digit.
    """
    inner: dict = {}
    denominators = []
    for terms, _ in parts:
        for _, p in terms:
            for q, e in p.terms:
                inner[e] = None
                denominators.append(q._denominator)
    basis = sorted(inner, key=cmp_to_key(compare), reverse=True) if len(inner) > 1 else list(inner)
    scale = lcm(*denominators)
    bound = sum(reach * max([abs(q._numerator) * (scale // q._denominator) for _, p in terms for q, _ in p.terms],
                            default=0) for terms, reach in parts)
    places = [(2 * bound + 1) ** i for i in range(len(basis), -1, -1)]
    place = dict(zip(basis, places[1:]))
    packed = []
    for terms, _ in parts:
        s = lcm(*[c._denominator for c, _ in terms])
        pairs = []
        for c, p in terms:
            key = 0
            for q, e in p.terms:
                key += q._numerator * (scale // q._denominator) * place[e]
            pairs.append((key, c._numerator * (s // c._denominator)))
        packed.append((s, pairs))
    return (basis, scale, places), packed


def _decreasing(merged: dict) -> list:
    """The ``(key, coefficient)`` pairs of a merge dict with a nonzero
    coefficient, keys decreasing.  Sorting on the key alone keeps a tuple
    sort from testing coefficients or grosspowers for equality."""
    return sorted(((k, c) for k, c in merged.items() if c), key=itemgetter(0), reverse=True)


def _from_keyed(codec: tuple, keyed: list) -> GrossNumber:
    """The gross-number of ``(key, coefficient)`` pairs packed by
    ``_keyed``, keys strictly decreasing and coefficients nonzero.

    Each key is read back as balanced digits below its first place,
    largest basis element first: ``d = round(key / place)``, as the lower
    digits add up to less than half a place, then ``key -= d * place``.
    Within one call each ``(digit, basis element)`` becomes one shared
    inner GrossTerm.  Key 0
    maps to the shared ZERO exponent, so finite results hash like their
    rational value.  Over one basis element, as for every product, power
    and quotient whose grosspowers are all finite, the key is the digit:
    ``_decoded`` reads it without the loop and shares the grosspower across
    calls.  Over more, a key's meaning also depends on the radix, so keys
    rarely repeat across calls and each call decodes its own.
    """
    basis, scale, places = codec
    if len(basis) == 1:
        unit = basis[0]
        terms = [_new_tuple(GrossTerm, (c, _decoded(k, scale, unit) if k else ZERO)) for k, c in keyed]
        return GrossNumber(tuple(terms))
    made: dict = {}
    out = []
    for key, c in keyed:
        inner = []
        for j, place in enumerate(places[1:]):
            if not key:
                break
            d = (key + (place >> 1)) // place
            if d:
                key -= d * place
                term = made.get((d, j))
                if term is None:
                    term = made[d, j] = _new_tuple(GrossTerm, (_ratio(d, scale), basis[j]))
                inner.append(term)
        out.append(_new_tuple(GrossTerm, (c, GrossNumber(tuple(inner)) if inner else ZERO)))
    return GrossNumber(tuple(out))


@lru_cache(maxsize=_DECODED_POWERS)
def _decoded(key: int, scale: int, unit: GrossNumber) -> GrossNumber:
    """The grosspower ``(key/scale)*G1^unit``, one shared value per
    ``(key, scale, unit)`` among the last ``_DECODED_POWERS`` decoded."""
    return GrossNumber((_new_tuple(GrossTerm, (_ratio(key, scale), unit)),))


def scalar_mul(q: RationalLike, x: GrossNumber) -> GrossNumber:
    c = Fraction(q)
    if c == 0:
        return ZERO
    return GrossNumber(tuple(GrossTerm(c * t.coefficient, t.exponent) for t in x.terms))


def power_int(x: GrossNumber, n: int) -> GrossNumber:
    """Integer power; ``n < 0`` only for single-term numbers.

    A single term ``c*G1^p`` becomes ``c^n*G1^{n*p}`` directly.  A longer
    base is packed once by ``_keyed`` with reach n, raised on its keys by
    ``_raised`` (n - 1 products up to n = 4, Miller's recurrence above) and
    unpacked once.

    >>> power_int(GROSSONE + 1, 3)
    G1^{3} + 3*G1^{2} + 3*G1 + 1
    """
    if not x.terms:
        if n <= 0:
            raise ZeroToNonpositivePower("0 cannot be raised to " + ("a negative power" if n else "the power 0"))
        return ZERO
    if n == 0:
        return ONE
    if len(x.terms) == 1:
        c, p = x.terms[0]
        return GrossNumber((GrossTerm(c**n, scalar_mul(n, p) if p.terms else ZERO),))
    if n < 0:
        raise NegativePowerOfNonMonomial(
            "negative powers need a single-term number; use division instead"
        )
    codec, [(scale, xs)] = _keyed((x.terms, n))
    scale **= n
    return _from_keyed(codec, [(k, _ratio(c, scale)) for k, c in _raised(xs, n)])


def _raised(xs: list, n: int) -> list:
    """x^n, n >= 1, as ``(key, int)`` pairs from x's, keys decreasing: n - 1
    products by x up to n = 4, else J. C. P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7).  Over any basis the keys are a Kronecker image: x is
    ``T^{K_0} * sum a_i t^i`` in the offsets ``i = K_0 - K_j``, and x^n's
    coefficients are ``b_0 = a_0^n`` and, by an exact division,
    ``b_k = sum ((n+1)*i - k)*a_i*b_{k-i} / (k*a_0)``.  A nonzero b_k needs
    a nonzero b_{k-i}, so a heap (Monagan and Pearce, "Sparse polynomial
    powering using heaps", CASC 2012) visits, least first and once each,
    only the positions that a nonzero b_j reaches.  On a 2-core x86-64 host
    the ``nested`` benchmark's 5-term 4th powers took 2.7 ms by products and
    7.9 ms by the recurrence; ``(G1^{G1}+G1^{G1^{2}}+G1+2)^60`` took 0.45 s
    by it and 8.8 s by repeated squaring.
    """
    if n <= 4 or not xs:
        keyed = xs
        for _ in range(n - 1):
            keyed = _decreasing(_convolve(keyed, xs, {}))
        return keyed
    (top, a0), *rest = xs
    tail = [(top - k, a) for k, a in rest]
    b, out, heap = {0: a0**n}, [], [0]  # b holds 0 for a position on the heap
    while heap:
        k = heappop(heap)
        total = 0
        for i, a in tail:
            c = b.get(k - i)
            if c:
                total += ((n + 1) * i - k) * a * c
        c = b[k] = total // (k * a0) if k else b[0]
        if c:
            out.append((n * top - k, c))
            for i, _ in tail:
                if k + i not in b:
                    b[k + i] = 0
                    heappush(heap, k + i)
    return out


def _polynomial_at(coefficients: list, rows: list, k: GrossNumber) -> GrossNumber:
    """``sum_j c_j * (n_0 + n_1*k + ...) / D_j``, the gross-numbers
    ``coefficients`` each over its integer row ``(D_j, (n_0, n_1, ...))``,
    rows of any length, as ``summation`` builds its closed forms.

    With L the lcm of the D's and d the highest degree, ``_keyed`` packs
    k's terms, of reach d, to pairs over a scale s, and every coefficient's
    terms, of reach 1.  Column e gets ``a*(L/D_j)*n_e*s^(d-e)`` at the key
    of each term a of c_j.  Horner's rule (Knuth, TAOCP vol. 2, 4.6.4) on
    the pairs of s*k adds one column per step, so the terms shift and merge
    on integer keys, and the keys are sorted and unpacked once.

    >>> _polynomial_at([ONE, GROSSONE], [(2, (0, 1, 1)), (1, (1,))], GROSSONE)
    0.5*G1^{2} + 1.5*G1
    """
    degree = max([len(n) for _, n in rows], default=1) - 1
    common = lcm(*[d for d, _ in rows])
    codec, [(s, ks), (sc, cs)] = _keyed((k.terms, degree), ([t for c in coefficients for t in c.terms], 1))
    powers = [s**i for i in range(degree + 1)]
    columns = [{} for _ in powers]  # columns[e] is that of k^e
    pairs = iter(cs)
    for c, (d, numerators) in zip(coefficients, rows):
        scaled = [(column, (common // d) * n * power)
                  for column, n, power in zip(columns, numerators, reversed(powers)) if n]
        for _, (key, a) in zip(c.terms, pairs):
            for column, m in scaled:
                column[key] = column.get(key, 0) + a * m
    value = columns.pop()
    for column in reversed(columns):
        value = _convolve(value.items(), ks, column)
    scale = common * sc * powers[degree]
    return _from_keyed(codec, [(key, _ratio(c, scale)) for key, c in _decreasing(value)])


def _polynomial_product(left: list, right: list, n: int = 1) -> list:
    """The coefficients of ``left * right^n``, each list holding those of an
    index i's powers 0, 1, ...  As in ``power_int``, an all-zero ``right``
    to the power 0 raises and a one-term factor ``c*i^j`` is a shift.
    Otherwise ``_keyed`` packs the two lists as parts of reach 1 and n, and
    a term of ``i^j`` gets ``j*R^m``, the first place, added to its key.
    ``_raised`` (n - 1 products up to n = 4, Miller's recurrence above) and
    ``_convolve`` run on the keys, sorted once; balanced rounding takes j
    back off each, one ``_from_keyed`` per power of i.

    >>> _polynomial_product([ONE], [GROSSONE, ONE], 2)
    [G1^{2}, 2*G1, 1]
    """
    if n == 0:
        if not any(right):
            raise ZeroToNonpositivePower("0 cannot be raised to the power 0")
        return left
    if n == 1 and sum(map(bool, left)) == 1:
        left, right = right, left
    nonzero = [j for j, c in enumerate(right) if c]
    if len(nonzero) == 1:
        j = nonzero[0]
        c = power_int(right[j], n)
        return [ZERO] * (j * n) + [multiply(a, c) for a in left] + [ZERO] * ((len(right) - 1 - j) * n)
    codec, [(sl, ls), (sr, rs)] = _keyed(([t for c in left for t in c.terms], 1),
                                         ([t for c in right for t in c.terms], n))
    top = codec[2][0]
    ls, rs = [[(key + j * top, c) for j, x in enumerate(cs) for _, (key, c) in zip(x.terms, pairs)]
              for cs, pairs in ((left, iter(ls)), (right, iter(rs)))]
    if n > 1:
        rs = _raised(sorted(rs, key=itemgetter(0), reverse=True), n)
    out = [[] for _ in range(len(left) + n * (len(right) - 1))]
    scale = sl * sr**n
    for key, c in _decreasing(_convolve(ls, rs, {})):
        j = (key + (top >> 1)) // top
        out[j].append((key - j * top, _ratio(c, scale)))
    return [_from_keyed(codec, pairs) if pairs else ZERO for pairs in out]


def as_int(x: GrossNumber) -> int | None:
    """The value as a machine integer when x is purely finite and integral."""
    q = as_rational(x)
    return q.numerator if q is not None and q.denominator == 1 else None


def as_rational(x: GrossNumber) -> Fraction | None:
    """The value as a Fraction when x is purely finite, else None."""
    if not x.terms:
        return _ZERO_FRACTION
    if len(x.terms) == 1 and not x.terms[0].exponent.terms:
        return x.terms[0].coefficient
    return None


def power_gross(x: GrossNumber, k: GrossNumber) -> GrossNumber:
    """Raise x to a gross-number power.

    Supported: any x with a finite integer k (delegates to power_int);
    0^k for k > 0; and (G1^p)^k = G1^{p*k} for coefficient-1 single-term
    bases, 1 = G1^0 among them.  Anything else (such as 2^G1) has no
    representation here and raises UnsupportedExponentiation.
    """
    n = as_int(k)
    if n is not None:
        return power_int(x, n)
    if not x.terms:
        if sign(k) > 0:
            return ZERO
        raise ZeroToNonpositivePower("0 cannot be raised to a non-positive power")
    if len(x.terms) == 1 and x.terms[0].coefficient == 1:
        return monomial(1, multiply(x.terms[0].exponent, k))
    raise UnsupportedExponentiation(f"cannot represent ({x})^({k}) as a finite positional numeral")


# ----------------------------------------------------------------- division


@dataclass(frozen=True)
class DivResult:
    """Outcome of truncated long division: dividend = quotient*divisor + remainder.
    Each step emits one quotient term, so ``terms_emitted`` is its length.

    >>> result = divide(GROSSONE + 1, GROSSONE, 1)
    >>> result.quotient, result.remainder, result.exact, result.terms_emitted
    (1, 1, False, 1)
    """

    quotient: GrossNumber
    remainder: GrossNumber

    @property
    def exact(self) -> bool:
        return not self.remainder.terms

    @property
    def terms_emitted(self) -> int:
        return len(self.quotient.terms)


def divide(x: GrossNumber, y: GrossNumber, max_terms: int = DEFAULT_DIV_TERMS) -> DivResult:
    """Leading-term long division with an explicit term budget.

    Quotient terms come out in strictly decreasing exponent order until the
    remainder vanishes or ``max_terms`` terms have been emitted.  The
    identity ``x == quotient * y + remainder`` always holds exactly.  A
    budget above ``MAX_DIV_TERMS`` is honoured up to that cap: one check,
    on the result of either branch below, raises LimitExceeded when the
    quotient needs more terms than the cap, and any other finishes.

    A single-term divisor is a monomial shift: the quotient is the first
    ``max_terms`` terms of x times ``y^-1``, through ``multiply``, and the
    remainder is the rest of x.  Otherwise one loop runs on the integer
    keys and coefficients of ``_keyed``, packed for the steps it may take,
    and does fraction-free (pseudo-)division (Knuth, TAOCP vol. 2, 4.6.1).
    The remainder is a dict ``R`` of integers by key over one running
    denominator ``d``, and the divisor's integer lead is ``a0``.  A step
    pops the leading key, ``max(R)``, with its coefficient ``c``; with
    ``g = gcd(c, a0)`` it emits one Fraction for its quotient term, sets
    ``R = (a0/g)*R - (c/g)*tail`` and ``d = d*a0/g``, where ``tail`` is the
    divisor's tail shifted by the step, and deletes each key that cancels
    to 0.  So a step touches only the tail's keys, plus every key when
    ``a0/g`` is not 1.  The remainder is sorted and becomes Fractions once,
    at the end.
    """
    if not y.terms:
        raise DivisionByZero("division by zero")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    steps = min(max_terms, MAX_DIV_TERMS)
    if len(y.terms) == 1:
        result = DivResult(multiply(GrossNumber(x.terms[:steps]), power_int(y, -1)), GrossNumber(x.terms[steps:]))
    else:
        codec, [(delta, xs), (dy, ys)] = _keyed((x.terms, 1), (y.terms, 2 * steps))
        (lead_key, a0), *tail = ys
        remainder = dict(xs)
        quotient = []
        while remainder and len(quotient) < steps:
            key = max(remainder)
            c = remainder.pop(key)
            shift = key - lead_key
            quotient.append((shift, _ratio(c * dy, delta * a0)))
            g = gcd(c, a0)
            s, t = a0 // g, c // g
            if s != 1:
                remainder = {k: s * r for k, r in remainder.items()}
                delta *= s
            for k, a in tail:
                k += shift
                r = remainder.get(k, 0) - t * a
                if r:
                    remainder[k] = r
                else:
                    del remainder[k]  # t*a is not 0, so k was there
        result = DivResult(
            _from_keyed(codec, quotient),
            _from_keyed(codec, [(k, _ratio(r, delta)) for k, r in _decreasing(remainder)]),
        )
    if steps < max_terms and not result.exact:
        raise LimitExceeded(f"a division may emit at most {MAX_DIV_TERMS} quotient terms, not {max_terms}")
    return result


def exact_divide(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """x / y, or InexactDivision when ``divide`` leaves a remainder within
    ``DEFAULT_DIV_TERMS`` quotient terms.  A single-term divisor always
    divides exactly, whatever the length of x: the quotient is x times
    ``y^-1``, through ``multiply``, with no budget.

    An exact quotient q of a nonzero x has top(x) = top(q) + top(y) and
    low(x) = low(q) + low(y), top and low being the largest and smallest
    grosspowers, so ``top(x) - top(y) >= low(x) - low(y)``.  When that
    fails there is none, and one quotient term shows the remainder.
    """
    if len(y.terms) == 1:
        return multiply(x, power_int(y, -1))
    budget = DEFAULT_DIV_TERMS
    if x.terms and y.terms:
        (_, top), (_, low) = x.terms[0], x.terms[-1]
        if compare(add(top, y.terms[-1].exponent), add(low, y.terms[0].exponent)) < 0:
            budget = 1
    result = divide(x, y, budget)
    if not result.exact:
        raise InexactDivision(
            f"({x}) / ({y}) leaves remainder {result.remainder} "
            f"after {result.terms_emitted} quotient terms"
        )
    return result.quotient


# ----------------------------------------------------------- classification


def classify(x: GrossNumber) -> NumClass:
    """Class of the leading exponent: empty sum is ZERO, negative leading
    exponent INFINITESIMAL, zero FINITE_NONZERO, positive INFINITE."""
    if not x.terms:
        return NumClass.ZERO
    s = sign(x.terms[0].exponent)
    if s < 0:
        return NumClass.INFINITESIMAL
    if s == 0:
        return NumClass.FINITE_NONZERO
    return NumClass.INFINITE


def finite_part(x: GrossNumber) -> GrossNumber:
    """The G1^0 term as a pure finite number, or 0 when absent."""
    for term in x.terms:
        if not term.exponent.terms:
            return from_rational(term.coefficient)
    return ZERO


def has_infinitesimal_part(x: GrossNumber) -> bool:
    return bool(x.terms) and sign(x.terms[-1].exponent) < 0


def is_integer_like(x: GrossNumber) -> bool:
    """True when x has a parity, i.e. behaves as an integer.

    Requires an integer finite part and no infinitesimal part.  Terms with
    positive grosspowers count as integers whatever their rational
    coefficient: G1 is divisible by every finite natural, so G1/2, 2*G1/3
    and so on are integers of the extended system.
    """
    return as_rational(finite_part(x)).denominator == 1 and not has_infinitesimal_part(x)


def parity(x: GrossNumber) -> Parity:
    """Even/odd classification of an integer-like gross-number.

    Every term with a positive grosspower is even (such terms are integer
    multiples of all finite naturals), so parity is decided by the integer
    finite part alone.
    """
    finite = as_rational(finite_part(x))
    if finite.denominator != 1:
        raise ParityUndefined(f"{x} has a non-integer finite part")
    if has_infinitesimal_part(x):
        raise ParityUndefined(f"{x} has an infinitesimal part")
    return Parity.EVEN if finite % 2 == 0 else Parity.ODD
