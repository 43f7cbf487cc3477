#!/usr/bin/env python3
"""Guided tour of the calculator: runs the flagship computations and prints
each one with its exact result.

Usage: python scripts/worked_examples.py
"""

from fractions import Fraction

from grossone import (
    GROSSONE,
    ONE,
    ZERO,
    divide,
    finite_part,
    from_int,
    monomial,
    parse_number,
    power_gross,
    power_int,
    print_canonical,
    scalar_mul,
)
from grossone.evaluator import Env, evaluate, exec_statement
from grossone.numio import parse_expression, parse_statement
from grossone.setcalc import (
    EVEN_NATURALS,
    NATURALS,
    ProbabilityModel,
    affine_image,
    classify_event,
    member,
)
from grossone.summation import (
    PolynomialSummand,
    sum_alternating_polynomial,
    sum_polynomial,
)

G1 = GROSSONE


def show(label: str, value) -> None:
    text = value if isinstance(value, str) else print_canonical(value)
    print(f"  {label:<46} = {text}")


def main() -> None:
    print("Identities of the infinite unit")
    show("0 * G1", 0 * G1)
    show("G1 - G1", G1 - G1)
    show("G1 / G1", G1 / G1)
    show("G1^0", power_int(G1, 0))
    show("1^G1", power_gross(ONE, G1))
    show("G1^-1 * G1", monomial(1, -1) * G1)

    print("\nA numeral with two infinite, one finite, two infinitesimal parts")
    text = (
        "17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02 "
        "+ 52.1*G1^{-9.2} - 0.23*G1^{-3.7*G1}"
    )
    value = parse_number(text)
    show("parsed and re-printed", value)
    show("finite part", finite_part(value))

    print("\nDivision carries an exact remainder instead of a limit")
    result = divide(ONE, ONE + monomial(1, -1), 3)
    show("1 / (1 + G1^-1), 3 quotient terms", result.quotient)
    show("remainder", result.remainder)

    print("\nSums need an explicit number of items, finite or infinite")
    unit = PolynomialSummand.from_coefficients([1])
    identity = PolynomialSummand.from_coefficients([0, 1])
    show("1 + 2 + ... up to G1 items", sum_polynomial(identity, G1))
    show("1 - 1 + 1 - ... with 2*G1 items", sum_alternating_polynomial(unit, 2 * G1))
    show("1 - 1 + 1 - ... with 2*G1 - 1 items", sum_alternating_polynomial(unit, 2 * G1 - 1))
    show("1 - 2 + 3 - ... with G1 items", sum_alternating_polynomial(identity, G1))
    show("1 - 2 + 3 - ... with G1 + 1 items", sum_alternating_polynomial(identity, G1 + 1))

    print("\nPiecewise functions evaluated at chosen points replace limits")
    env = Env()
    for statement in (
        "def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }",
        "def g(x) = x",
    ):
        env, _ = exec_statement(parse_statement(statement), env)
    for expr in (
        "f(G1^{-1}) * g(G1)",
        "f(G1^{-1}) * g(G1^{4})",
        "f(-2*G1^{-1}) * g(G1)",
        "f(-5*G1^{-4}) * (g(G1^{2}) / f(-2*G1^{-1}) - 1.25 * g(G1)^3)",
    ):
        show(expr, evaluate(parse_expression(expr), env))

    print("\nCounting infinite sets, where the part stays smaller than the whole")
    show("elements of the naturals N", NATURALS.count)
    show("elements of the even naturals E", EVEN_NATURALS.count)
    show("elements of N without one member", NATURALS.count - 1)
    doubled = affine_image(NATURALS, Fraction(2))
    show("elements of the image y = 2x of N", doubled.count)
    show("last element of that image", doubled.last)
    show("is G1/2 a natural number", str(member(scalar_mul(Fraction(1, 2), G1), NATURALS)).lower())
    show("is G1 + 2 a natural number", str(member(G1 + 2, NATURALS)).lower())
    show("G1-tuples over N", power_gross(G1, G1))
    # the guest of the last room would need room G1 + 1, which does not exist
    show("full hotel with G1 rooms absorbs a guest", str(member(G1 + 1, NATURALS)).lower())

    print("\nOnly the impossible event has probability zero")
    for favorable in (ZERO, from_int(1), G1):
        model = ProbabilityModel(power_int(G1, 2), favorable)
        parts = [print_canonical(Env().divide(favorable, model.total))]
        parts += [part.value for part in classify_event(model) if part is not None]
        show(f"P with {print_canonical(favorable)} of G1^2 outcomes", ", ".join(parts))


if __name__ == "__main__":
    main()
