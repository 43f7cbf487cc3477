"""Reference arithmetic for the benchmark's checks.

A gross-number whose grosspowers are all finite rationals is held here as a
dict ``{exponent: coefficient}`` of Fractions.  The helpers multiply, add and
evaluate such dicts with plain Fraction arithmetic and never call grossone, so
a check built on them cannot share a defect with the code being timed.

Substituting ``G1 := M`` is a ring homomorphism for these values, so a
correct closed form evaluated at ``M`` equals the direct computation over
``M`` items.  ``M = 36`` is even, which keeps the parity that the library
gives ``G1`` (even), and a perfect square, so half-integer exponents stay
rational.
"""

from __future__ import annotations

from fractions import Fraction

ROOT = 6
M = ROOT * ROOT


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        total = out.get(e, 0) + sign * c
        if total:
            out[e] = total
        else:
            out.pop(e, None)
    return out


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def power(a: dict, n: int) -> dict:
    result = {Fraction(0): Fraction(1)}
    for _ in range(n):
        result = mul(result, a)
    return result


def power_of_m(exponent: Fraction) -> Fraction:
    twice = exponent * 2
    if twice.denominator != 1:
        raise ValueError(f"G1^{exponent} has no rational value at G1 = {M}")
    return Fraction(ROOT) ** int(twice)


def at_m(a: dict) -> Fraction:
    """The value of ``a`` at ``G1 := M``."""
    return sum((c * power_of_m(e) for e, c in a.items()), Fraction(0))


def from_gross(x) -> dict:
    """Read a GrossNumber's terms into a dict; every grosspower must be a
    finite rational.  Only the ``terms`` structure is read."""
    out = {}
    for coefficient, exponent in x.terms:
        if not exponent.terms:
            e = Fraction(0)
        elif len(exponent.terms) == 1 and not exponent.terms[0].exponent.terms:
            e = exponent.terms[0].coefficient
        else:
            raise ValueError("a grosspower is not a finite rational")
        if e in out:
            raise ValueError("repeated grosspower")
        out[e] = coefficient
    return out

