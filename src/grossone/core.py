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

Inside ``multiply``, ``divide`` and ``power_int`` grosspowers and grossdigits
run as integers: ``_keyed`` packs each grosspower into one integer key, whose
sum and order are those of the grosspowers, and ``_scaled`` puts an operand's
grossdigits over one common denominator.  So their loops do only integer
arithmetic, and ``_from_keyed`` builds a grosspower and a Fraction once per
result term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import comb, gcd, lcm
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

# Grossdigits are exact arbitrary-precision rationals; the stdlib Fraction
# already maintains gcd(|num|, den) = 1, den > 0 and zero as 0/1.
Rational = Fraction

RationalLike = Union[int, Fraction]
GrossLike = Union["GrossNumber", int, Fraction]

#: Term budget used by exact_divide / ``/`` when none is given explicitly.
DEFAULT_DIV_TERMS = 20


class NumClass(Enum):
    ZERO = "Zero"
    INFINITESIMAL = "Infinitesimal"
    FINITE_NONZERO = "FiniteNonzero"
    INFINITE = "Infinite"


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"


_ZERO_FRACTION = Fraction(0)


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
        try:
            return self._hash
        except AttributeError:
            pass
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
        if isinstance(exponent, int):
            return power_int(self, exponent)
        return power_gross(self, as_gross(exponent))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        from .numio import print_canonical  # deferred: numio imports core

        return print_canonical(self)

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
    """Single-term gross-number ``coefficient * G1^exponent``."""
    c = Fraction(coefficient)
    if c == 0:
        return ZERO
    return GrossNumber((GrossTerm(c, as_gross(exponent)),))


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

    Coefficient comparisons run on raw numerators/denominators (the
    denominator is always positive) to stay off the slow generic
    rational-comparison path.
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
        lhs = a.numerator * b.denominator
        rhs = b.numerator * a.denominator
        return 0 if lhs == rhs else (1 if lhs > rhs else -1)
    i, j = 0, 0
    nx, ny = len(xt), len(yt)
    while True:
        if i >= nx and j >= ny:
            return 0
        if i >= nx:
            return -1 if yt[j].coefficient.numerator > 0 else 1
        if j >= ny:
            return 1 if xt[i].coefficient.numerator > 0 else -1
        tx, ty = xt[i], yt[j]
        c = compare(tx.exponent, ty.exponent)
        if c > 0:
            return 1 if tx.coefficient.numerator > 0 else -1
        if c < 0:
            return -1 if ty.coefficient.numerator > 0 else 1
        a, b = tx.coefficient, ty.coefficient
        if a.numerator != b.numerator or a.denominator != b.denominator:
            lhs = a.numerator * b.denominator
            rhs = b.numerator * a.denominator
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
            merged = tx.coefficient + ty.coefficient
            if merged:
                out.append(GrossTerm(merged, tx.exponent))
            i += 1
            j += 1
    out.extend(xt[i:])
    out.extend(yt[j:])
    return GrossNumber(tuple(out))


def negate(x: GrossNumber) -> GrossNumber:
    return GrossNumber(tuple(GrossTerm(-t.coefficient, t.exponent) for t in x.terms))


def subtract(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    return add(x, negate(y))


def multiply(x: GrossNumber, y: GrossNumber) -> GrossNumber:
    """Exact convolution: every term pair multiplies coefficients and adds
    exponents, then like exponents merge.

    When one operand has a single term this is a monomial shift: adding a
    fixed grosspower keeps the other operand's exponents strictly
    decreasing (the exponents form an ordered group), so its terms, scaled
    and shifted, are already canonical and need no merge or sort.
    Otherwise both operands are packed by ``_keyed``, where a grosspower
    is one integer and adding two is ``+``, and ``_convolve`` multiplies
    their integer coefficients from ``_scaled``.  Each nonzero sum becomes
    one Fraction over the product of the two scales.
    """
    if not x.terms or not y.terms:
        return ZERO
    if len(x.terms) == 1:
        x, y = y, x
    if len(y.terms) == 1:
        cy, py = y.terms[0]
        return GrossNumber(tuple(GrossTerm(cx * cy, add(px, py)) for cx, px in x.terms))
    codec, xs, ys = _keyed(x, y)
    dx, xs = _scaled(xs)
    dy, ys = _scaled(ys)
    return _from_keyed(codec, [(k, Fraction(c, dx * dy)) for k, c in _convolve(xs, ys)])


def _convolve(xs: list, ys: list) -> list:
    """The ``(key, int)`` pairs of the product of two lists of them: keys
    add, coefficients multiply, like keys merge; nonzero, keys decreasing."""
    products: dict = {}
    for kx, cx in xs:
        for ky, cy in ys:
            key = kx + ky
            products[key] = products.get(key, 0) + cx * cy
    return _decreasing(products)


def _keyed(x: GrossNumber, y: GrossNumber, x_reach: int = 1, y_reach: int = 1):
    """Both operands packed: ``(codec, xs, ys)``; ``xs`` and ``ys`` list each
    operand's terms as ``(key, coefficient)``, keys strictly decreasing, and
    ``codec`` is what ``_from_keyed`` needs to unpack them.

    A grosspower ``sum c_j*G1^{e_j}`` is a vector of digits over its inner
    exponents, and dominance order compares such vectors lexicographically,
    largest inner exponent first.  The basis is the distinct inner exponents
    of every grosspower of x and y, decreasing; with L the lcm of the inner
    coefficients' denominators, each digit ``c_j*L`` is an integer.  The key
    packs the digits in balanced radix ``R = 2B + 1`` (Kronecker
    substitution; Monagan and Pearce, "Sparse polynomial division using a
    heap", JSC 2011).  While every digit lies in ``[-B, B]``, adding keys
    adds grosspowers and ``<`` on keys is their order.  The digit bound
    ``B = x_reach*mx + y_reach*my`` (mx, my the largest digits of x and y)
    covers every digit the caller's loop can reach: reaches 1 and 1 for a
    product, n and 0 for an n-th power, 1 and 2T for T division steps.
    Over one basis element, as when all grosspowers are finite, key = digit.
    """
    terms = x.terms + y.terms
    inner: dict = {}
    denominators = []
    for _, p in terms:
        for q, e in p.terms:
            inner[e] = None
            denominators.append(q.denominator)
    basis = sorted(inner, key=cmp_to_key(compare), reverse=True)
    scale = lcm(*denominators)
    split = len(x.terms)
    at = {e: i for i, e in enumerate(basis)}
    digits = [[(c.numerator * (scale // c.denominator), at[e]) for c, e in p.terms] for _, p in terms]
    mx, my = (max([abs(d) for v in part for d, _ in v], default=0) for part in (digits[:split], digits[split:]))
    radix = 2 * (x_reach * mx + y_reach * my) + 1
    places = [radix**i for i in range(len(basis) - 1, -1, -1)]
    keyed = []
    for v, (c, _) in zip(digits, terms):
        key = 0
        for d, i in v:
            key += d * places[i]
        keyed.append((key, c))
    return (basis, scale, places), keyed[:split], keyed[split:]


def _scaled(pairs: list) -> tuple[int, list]:
    """``(scale, [(key, int)])`` for ``(key, Fraction)`` pairs: scale is the
    lcm of the coefficient denominators, and each int is its coefficient
    times scale."""
    scale = lcm(*[c.denominator for _, c in pairs])
    return scale, [(k, c.numerator * (scale // c.denominator)) for k, c in pairs]


def _decreasing(merged: dict) -> list:
    """The ``(key, coefficient)`` pairs of a merge dict with a nonzero
    coefficient, keys decreasing.  Sorting on the key alone keeps a tuple
    sort from testing coefficients or grosspowers for equality."""
    return sorted(((k, c) for k, c in merged.items() if c), key=itemgetter(0), reverse=True)


def _from_keyed(codec: tuple, keyed: list) -> GrossNumber:
    """The gross-number of ``(key, coefficient)`` pairs packed by
    ``_keyed``, keys strictly decreasing and coefficients nonzero.

    Each key is read back as balanced digits, largest basis element
    first: ``d = round(key / place)``, as the lower digits add up to less
    than half a place, then ``key -= d * place``.  Within one call each
    ``(digit, basis element)`` becomes one shared inner GrossTerm.  Key 0
    maps to the shared ZERO exponent, so finite results hash like their
    rational value.  Over one basis element the key is the digit, read
    without the loop, which costs the ``series`` benchmark 7%.
    """
    basis, scale, places = codec
    if len(basis) == 1:
        unit = basis[0]
        return GrossNumber(tuple(
            GrossTerm(c, GrossNumber((GrossTerm(Fraction(k, scale), unit),)) if k else ZERO)
            for k, c in keyed
        ))
    made: dict = {}
    out = []
    for key, c in keyed:
        inner = []
        for j, place in enumerate(places):
            if not key:
                break
            d = (key + (place >> 1)) // place
            if d:
                key -= d * place
                term = made.get((d, j))
                if term is None:
                    term = made[d, j] = GrossTerm(Fraction(d, scale), basis[j])
                inner.append(term)
        out.append(GrossTerm(c, GrossNumber(tuple(inner)) if inner else ZERO))
    return GrossNumber(tuple(out))


def scalar_mul(q: RationalLike, x: GrossNumber) -> GrossNumber:
    c = Fraction(q)
    if c == 0:
        return ZERO
    return GrossNumber(tuple(GrossTerm(c * t.coefficient, t.exponent) for t in x.terms))


def power_int(x: GrossNumber, n: int) -> GrossNumber:
    """Integer power; ``n < 0`` only for single-term numbers.

    A single term ``c*G1^p`` becomes ``c^n*G1^{n*p}`` directly.  A longer
    base is packed once by ``_keyed``, with digits reaching n times the
    base's, raised on integer keys and coefficients, and unpacked once.
    Over one basis element it is a polynomial in a power of G1, which
    ``_dense_power`` expands coefficient by coefficient; over more, or when
    its terms lie too far apart for their count (the guard of
    ``_dense_power``), ``_convolve`` squares it repeatedly.

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
    codec, xs, _ = _keyed(x, ZERO, n)
    scale, xs = _scaled(xs)
    scale **= n
    keyed = _dense_power(xs, n) if len(codec[0]) == 1 else None
    if keyed is None:
        keyed, base = [(0, 1)], xs
        while n:
            if n & 1:
                keyed = _convolve(keyed, base)
            if n > 1:
                base = _convolve(base, base)
            n >>= 1
    return _from_keyed(codec, [(k, Fraction(c, scale)) for k, c in keyed])


def _dense_power(xs: list, n: int) -> list | None:
    """The ``(key, int)`` pairs of x^n by J. C. P. Miller's recurrence for
    powers of power series (Knuth, TAOCP vol. 2, 4.7), or None to leave it
    to squaring.  ``xs`` are x's ``(key, int)`` pairs over a one-element
    basis, so a key is a multiple of one grosspower.

    With keys ``K_0 > ... > K_{m-1}`` and g the gcd of the offsets
    ``K_0 - K_j``, x is ``G1^{K_0}`` times the polynomial ``sum a_i t^i`` in
    ``t = G1^{-g}`` (in units of the grosspower), of span
    ``s = (K_0 - K_{m-1})/g``.  Then ``b_0 = a_0^n`` and
    ``k*a_0*b_k = sum ((n+1)*i - k)*a_i*b_{k-i}``, an exact integer
    division, give the power's coefficients ``b_k``.

    Guard: the recurrence walks ``n*s + 1`` positions with up to m
    products each, while squaring's last multiply pairs the at most
    ``h = comb(n//2 + m - 1, m - 1)`` terms of ``x^(n//2)``.  The lane is
    taken when ``n*s*m <= 32*h^2``: on random bases of 2 to 10 terms the
    lane was the faster path below that ratio and lost to squaring from
    about 45 at ``n = 2`` and 200 at ``n = 3``.  A wider span, such as
    that of ``1 + G1^{-1} + G1^{-1000000}``, returns None.
    """
    top = xs[0][0]
    g = gcd(*[top - k for k, _ in xs])
    span = (top - xs[-1][0]) // g
    m = len(xs)
    if n * span * m > 32 * comb(n // 2 + m - 1, m - 1) ** 2:
        return None
    a0 = xs[0][1]
    tail = [((top - k) // g, a) for k, a in xs[1:]]
    b = [a0**n]
    for k in range(1, n * span + 1):
        total = 0
        for i, a in tail:
            if i > k:
                break
            c = b[k - i]
            if c:
                total += ((n + 1) * i - k) * a * c
        b.append(total // (k * a0))
    return [(n * top - k * g, c) for k, c in enumerate(b) if c]


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
    0^k for k > 0; 1^k; and (G1^p)^k = G1^{p*k} for coefficient-1
    single-term bases.  Anything else (such as 2^G1) has no representation
    here and raises UnsupportedExponentiation.
    """
    n = as_int(k)
    if n is not None:
        return power_int(x, n)
    if not x.terms:
        if sign(k) > 0:
            return ZERO
        raise ZeroToNonpositivePower("0 cannot be raised to a non-positive power")
    if x == ONE:
        return ONE
    if len(x.terms) == 1 and x.terms[0].coefficient == 1:
        return GrossNumber((GrossTerm(Fraction(1), multiply(x.terms[0].exponent, k)),))
    raise UnsupportedExponentiation(
        f"cannot represent ({_shown(x)})^({_shown(k)}) as a finite positional numeral"
    )


# ----------------------------------------------------------------- division


@dataclass(frozen=True)
class DivResult:
    """Outcome of truncated long division: dividend = quotient*divisor + remainder."""

    quotient: GrossNumber
    remainder: GrossNumber
    exact: bool
    terms_emitted: int


def divide(x: GrossNumber, y: GrossNumber, max_terms: int = DEFAULT_DIV_TERMS) -> DivResult:
    """Leading-term long division with an explicit term budget.

    Quotient terms come out in strictly decreasing exponent order until the
    remainder vanishes or ``max_terms`` terms have been emitted.  The
    identity ``x == quotient * y + remainder`` always holds exactly.

    A single-term divisor is a monomial shift, as in ``multiply``: the
    quotient is the first ``max_terms`` terms of x divided by it and the
    remainder is the rest of x.  Otherwise one loop runs on the integer
    keys of ``_keyed``, packed for ``max_terms`` steps, and does fraction-free
    (pseudo-)division on the integer coefficients of ``_scaled``
    (Knuth, TAOCP vol. 2, 4.6.1).  The remainder is a list of integers
    ``R`` over one running denominator ``d``, and the divisor's integer lead
    is ``a0``.  A step with leading remainder coefficient ``c`` and
    ``g = gcd(c, a0)`` emits one Fraction for its quotient term, drops the
    leading term (it cancels exactly), and sets
    ``R = (a0/g)*R[1:] - (c/g)*tail`` and ``d = d*a0/g``, where ``tail`` is
    the divisor's tail shifted by the step.  The remainder becomes Fractions
    once, at the end.
    """
    if not y.terms:
        raise DivisionByZero("division by zero")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if len(y.terms) == 1:
        cy, py = y.terms[0]
        inverse, shift = 1 / cy, negate(py)
        head = x.terms[:max_terms]
        return DivResult(
            GrossNumber(tuple(GrossTerm(cx * inverse, add(px, shift)) for cx, px in head)),
            GrossNumber(x.terms[max_terms:]),
            exact=len(x.terms) <= max_terms,
            terms_emitted=len(head),
        )
    codec, xs, ys = _keyed(x, y, 1, 2 * max_terms)
    delta, remainder = _scaled(xs)
    dy, ys = _scaled(ys)
    lead_key, a0 = ys[0]
    tail = ys[1:]
    quotient = []
    while remainder and len(quotient) < max_terms:
        key, c = remainder[0]
        shift = key - lead_key
        quotient.append((shift, Fraction(c * dy, delta * a0)))
        g = gcd(c, a0)
        s, t = a0 // g, c // g
        if s != 1:
            remainder = [(k, s * r) for k, r in remainder]
            delta *= s
        # merge remainder[1:] with -t * G1^shift * tail, keys decreasing
        shifted = [(k + shift, -t * a) for k, a in tail]
        merged = []
        i, j = 1, 0
        n, m = len(remainder), len(shifted)
        while i < n and j < m:
            ka, ca = remainder[i]
            kb, cb = shifted[j]
            if ka > kb:
                merged.append(remainder[i])
                i += 1
            elif ka < kb:
                merged.append(shifted[j])
                j += 1
            else:
                r = ca + cb
                if r:
                    merged.append((ka, r))
                i += 1
                j += 1
        merged.extend(remainder[i:])
        merged.extend(shifted[j:])
        remainder = merged
    return DivResult(
        _from_keyed(codec, quotient),
        _from_keyed(codec, [(k, Fraction(r, delta)) for k, r in remainder]),
        exact=not remainder,
        terms_emitted=len(quotient),
    )


def exact_divide(x: GrossNumber, y: GrossNumber, max_terms: int = DEFAULT_DIV_TERMS) -> GrossNumber:
    result = divide(x, y, max_terms)
    if not result.exact:
        raise InexactDivision(
            f"({_shown(x)}) / ({_shown(y)}) leaves remainder {_shown(result.remainder)} "
            f"after {result.terms_emitted} quotient terms"
        )
    return result.quotient


def _shown(x: GrossNumber) -> str:
    """x as printed, or a fixed placeholder when a coefficient is too long
    to print, so that an error message never fails to build."""
    try:
        return repr(x)
    except LimitExceeded:
        return "<a value too long to print>"


def reciprocal(x: GrossNumber, max_terms: int = DEFAULT_DIV_TERMS) -> DivResult:
    return divide(ONE, x, max_terms)


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


def has_infinite_part(x: GrossNumber) -> bool:
    return bool(x.terms) and sign(x.terms[0].exponent) > 0


def has_infinitesimal_part(x: GrossNumber) -> bool:
    return bool(x.terms) and sign(x.terms[-1].exponent) < 0


def is_integer_like(x: GrossNumber) -> bool:
    """True when x has a parity, i.e. behaves as an integer.

    Requires an integer finite part and no infinitesimal part.  Terms with
    positive grosspowers count as integers whatever their rational
    coefficient: G1 is divisible by every finite natural, so G1/2, 2*G1/3
    and so on are integers of the extended system.
    """
    for term in x.terms:
        s = sign(term.exponent)
        if s < 0:
            return False
        if s == 0 and term.coefficient.denominator != 1:
            return False
    return True


def parity(x: GrossNumber) -> Parity:
    """Even/odd classification of an integer-like gross-number.

    Every term with a positive grosspower is even (such terms are integer
    multiples of all finite naturals), so parity is decided by the integer
    finite part alone.
    """
    finite_coeff = Fraction(0)
    for term in x.terms:
        s = sign(term.exponent)
        if s < 0:
            raise ParityUndefined(f"{_shown(x)} has an infinitesimal part")
        if s == 0:
            if term.coefficient.denominator != 1:
                raise ParityUndefined(f"{_shown(x)} has a non-integer finite part")
            finite_coeff = term.coefficient
    return Parity.EVEN if finite_coeff % 2 == 0 else Parity.ODD
