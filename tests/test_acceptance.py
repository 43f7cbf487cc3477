"""Acceptance gate: every check is exact (tolerance zero).

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
The randomized sweeps use fixed seeds so runs are reproducible.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from grossone.core import (
    GROSSONE,
    NumClass,
    ONE,
    ZERO,
    as_rational,
    classify,
    compare,
    divide,
    exact_divide,
    finite_part,
    from_int,
    from_rational,
    monomial,
    negate,
    normalize,
    power_gross,
    power_int,
    scalar_mul,
    sign,
)
from grossone.errors import UnsupportedExponentiation
from grossone.evaluator import Env, evaluate, exec_statement
from grossone.numio import (
    Binary,
    Literal,
    parse_expression,
    parse_number,
    parse_statement,
    print_canonical,
)
from grossone.setcalc import (
    EVEN_NATURALS,
    EventClass,
    EventExtent,
    NATURALS,
    ProbabilityModel,
    ProgressionSet,
    affine_image,
    classify_event,
    member,
    product_count,
)
from grossone.summation import (
    PolynomialSummand,
    faulhaber,
    sum_alternating_polynomial,
    sum_polynomial,
)

from support import (
    random_fraction,
    random_gross,
    random_nonzero_fraction,
    random_nonzero_gross,
    session,
)

G1 = GROSSONE
HALF_G1 = scalar_mul(Fraction(1, 2), G1)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    print(f"PASS  criterion {number}: {title}")


def test_criterion_1_identities():
    with criterion(1, "identity suite for the infinite unit"):
        assert 0 * G1 == ZERO and G1 * 0 == ZERO
        assert G1 - G1 == ZERO
        assert exact_divide(G1, G1) == ONE
        assert power_int(G1, 0) == ONE
        assert power_gross(ONE, G1) == ONE
        assert power_gross(ZERO, G1) == ZERO
        assert monomial(1, -1) * G1 == ONE and G1 * monomial(1, -1) == ONE


def test_criterion_2_five_term_numeral_round_trip():
    with criterion(2, "five-term numeral parses, prints and re-parses identically"):
        text = (
            "17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02 "
            "+ 52.1*G1^{-9.2} - 0.23*G1^{-3.7*G1}"
        )
        value = parse_number(text)
        assert len(value.terms) == 5
        printed = print_canonical(value)
        assert parse_number(printed) == value
        assert finite_part(value) == Fraction("7.02")


def test_criterion_3_alternating_unit_sums():
    with criterion(3, "alternating unit sums at explicit infinite counts"):
        unit = PolynomialSummand.from_coefficients([1])
        assert sum_alternating_polynomial(unit, 2 * G1) == ZERO
        assert sum_alternating_polynomial(unit, 2 * G1 - 1) == ONE
        # re-arrangement: G1 positive items minus G1 negative items
        assert sum_polynomial(unit, G1) - sum_polynomial(unit, G1) == ZERO
        # re-arrangement: G1/2 blocks of (1 + 1 - 1), consuming G1 positive
        # and G1/2 negative items, then the remaining G1/2 negative items
        blocks = sum_polynomial(unit, HALF_G1)
        tail = negate(sum_polynomial(unit, HALF_G1))
        assert blocks == HALF_G1 and tail == negate(HALF_G1)
        assert blocks + tail == sum_alternating_polynomial(unit, 2 * G1)


def test_criterion_4_alternating_identity_sums():
    with criterion(4, "alternating sums of i and their half-count subsums"):
        identity = PolynomialSummand.from_coefficients([0, 1])
        assert sum_alternating_polynomial(identity, G1) == negate(HALF_G1)
        assert sum_alternating_polynomial(identity, G1 - 1) == HALF_G1
        assert sum_alternating_polynomial(identity, G1 + 1) == HALF_G1 + 1
        odds = PolynomialSummand.from_coefficients([-1, 2])
        evens = PolynomialSummand.from_coefficients([0, 2])
        # (1 + G1 - 1) * G1 / 4 and (2 + G1) * G1 / 4
        assert sum_polynomial(odds, HALF_G1) == scalar_mul(Fraction(1, 4), (G1 - 1 + 1) * G1)
        assert sum_polynomial(evens, HALF_G1) == scalar_mul(Fraction(1, 4), (G1 + 2) * G1)
        assert sum_polynomial(odds, HALF_G1) - sum_polynomial(
            evens, HALF_G1
        ) == sum_alternating_polynomial(identity, G1)


def test_criterion_5_piecewise_products():
    with criterion(5, "piecewise products at infinitesimal and infinite points"):
        env = Env()
        for statement in (
            "def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }",
            "def g(x) = x",
        ):
            env, _ = exec_statement(parse_statement(statement), env)
        cases = [
            ("f(G1^{-1}) * g(G1)", monomial(1, -2)),
            ("f(G1^{-1}) * g(G1^{4})", G1),
            ("f(-2*G1^{-1}) * g(G1)", from_int(-4)),
            (
                "f(-5*G1^{-4}) * (g(G1^{2}) / f(-2*G1^{-1}) - 1.25 * g(G1)^3)",
                scalar_mul(15, monomial(1, -1)),
            ),
        ]
        for text, expected in cases:
            assert evaluate(parse_expression(text), env) == expected


def test_criterion_6_infinitesimal_probabilities():
    with criterion(6, "probabilities over grossone-sized sample spaces"):
        env = Env()

        def probability(model):
            return env.divide(model.favorable, model.total)

        for m in (1, 3, 17):
            model = ProbabilityModel(G1, from_int(m))
            p = probability(model)
            assert p == scalar_mul(m, monomial(1, -1))
            assert sign(p) > 0 and classify(p) is NumClass.INFINITESIMAL
            assert classify_event(model) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.POINT)
        finer = ProbabilityModel(power_int(G1, 2), from_int(3))
        assert probability(finer) == scalar_mul(3, monomial(1, -2))
        assert classify_event(finer) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.POINT)
        impossible = ProbabilityModel(G1, ZERO)
        assert probability(impossible) == ZERO
        assert classify_event(impossible) == (EventClass.IMPOSSIBLE, None)
        for m in (from_int(2), HALF_G1, G1):
            assert probability(ProbabilityModel(G1, m)) != ZERO
        arc = ProbabilityModel(power_int(G1, 2), G1)
        assert classify_event(arc) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.ARC)
        assert probability(arc) == monomial(1, -1)


def test_criterion_7_cardinalities():
    with criterion(7, "cardinality suite: counts, images, tuples, hotel"):
        assert NATURALS.count == G1
        assert EVEN_NATURALS.count == HALF_G1
        # a member removed leaves count(N) - 1, a non-member adjoined
        # makes count(N) + 1
        assert member(from_int(17), NATURALS) and member(HALF_G1, NATURALS)
        assert session("count(N) - 1") == G1 - 1
        assert session("member(G1 + 1, N)") is False
        assert session("count(N) + 1") == G1 + 1
        assert product_count([G1, G1]) == power_int(G1, 2)
        # G1-tuples over N number G1^G1; binary G1-tuples, 2^G1, have no
        # numeral
        assert session("G1^G1") == monomial(1, G1)
        try:
            session("2^G1")
            raise AssertionError("2^G1 must be rejected")
        except UnsupportedExponentiation:
            pass
        doubled = affine_image(NATURALS, Fraction(2))
        assert doubled.count == G1
        assert doubled.last == 2 * G1
        assert member(2 * G1, doubled) and member(G1 + 2, doubled)
        assert not member(2 * G1 + 2, doubled)
        # a full hotel has no room for the last guest to move up to, G1 + 1
        # for G1 rooms as 11 for 10
        assert member(G1, NATURALS) and not member(G1 + 1, NATURALS)
        ten = ProgressionSet(from_int(1), Fraction(1), from_int(10))
        assert member(10, ten) and not member(11, ten)
        assert not member(G1 + 2, NATURALS)
        # the part is less than the whole
        assert session("count(E) < count(N)") is True


def _random_finite_expression(rng: random.Random, depth: int):
    """Random expression over finite rationals, returned as (ast, oracle
    value) where the oracle is computed purely with Fractions."""
    if depth == 0 or rng.random() < 0.3:
        q = random_fraction(rng)
        return Literal(from_rational(q)), q
    op = rng.choice("+-*/^")
    if op == "^":
        node, value = _random_finite_expression(rng, depth - 1)
        n = rng.randint(0, 3)
        if value == 0 and n == 0:
            n = 1
        return Binary("^", node, Literal(from_int(n))), value**n
    left_node, left_value = _random_finite_expression(rng, depth - 1)
    right_node, right_value = _random_finite_expression(rng, depth - 1)
    if op == "+":
        return Binary("+", left_node, right_node), left_value + right_value
    if op == "-":
        return Binary("-", left_node, right_node), left_value - right_value
    if op == "*":
        return Binary("*", left_node, right_node), left_value * right_value
    if right_value == 0:
        return left_node, left_value
    return Binary("/", left_node, right_node), left_value / right_value


def test_criterion_8_property_sweeps():
    with criterion(8, "randomized property sweeps, >= 1000 cases each"):
        rng = random.Random(20100416)

        # ring axioms
        for _ in range(1000):
            a, b, c = (random_gross(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a and a * ONE == a and a + negate(a) == ZERO

        # order compatibility with + and with positive factors
        for _ in range(1000):
            low, z = random_gross(rng), random_gross(rng)
            high = low + random_nonzero_gross(rng) * random_nonzero_gross(rng)
            if compare(high, low) < 0:
                high, low = low, high
            if compare(high, low) == 0:
                high = low + 1
            assert compare(high + z, low + z) > 0
            positive = random_nonzero_gross(rng)
            if sign(positive) < 0:
                positive = negate(positive)
            assert compare(high * positive, low * positive) > 0

        # dominance: G1^p beats any positive rational multiple of G1^q, p > q
        for _ in range(1000):
            p, q = random_gross(rng, 2), random_gross(rng, 2)
            if compare(p, q) == 0:
                p = q + 1
            if compare(p, q) < 0:
                p, q = q, p
            c = abs(random_nonzero_fraction(rng))
            assert sign(monomial(1, p) - monomial(c, q)) == 1

        # normalize idempotence, including scrambled term order
        for _ in range(1000):
            x = random_gross(rng)
            pairs = [(t.coefficient, t.exponent) for t in x.terms]
            rng.shuffle(pairs)
            assert normalize(pairs) == x

        # print/parse round trip
        for _ in range(1000):
            x = random_gross(rng)
            assert parse_number(print_canonical(x)) == x

        # closed-form sums equal brute-force iteration for every k in [0, 200]
        polys = [
            PolynomialSummand.from_coefficients(c)
            for c in ([1], [0, 1], [-1, 2], [0, 0, 1], [2, -1, 0, 1])
        ]
        for poly in polys:
            coefficients = [as_rational(c) for c in poly.coefficients]
            plain = Fraction(0)
            alternating = Fraction(0)
            for k in range(0, 201):
                if k:
                    value = sum(c * Fraction(k) ** j for j, c in enumerate(coefficients))
                    plain += value
                    alternating += value if k % 2 else -value
                gross_k = from_int(k)
                assert as_rational(sum_polynomial(poly, gross_k)) == plain
                assert as_rational(sum_alternating_polynomial(poly, gross_k)) == alternating
        for j in range(5):
            running = Fraction(0)
            for k in range(0, 201):
                if k:
                    running += Fraction(k) ** j
                assert as_rational(faulhaber(j, from_int(k))) == running
        for k in range(0, 201):
            assert sum_alternating_polynomial(polys[0], from_int(k)) == from_int(k % 2)

        # purely finite expressions agree with plain rational arithmetic
        env = Env()
        for _ in range(1000):
            node, expected = _random_finite_expression(rng, 4)
            assert as_rational(evaluate(node, env)) == expected

        # proper containment implies a strictly smaller count
        for _ in range(1000):
            if rng.random() < 0.5:
                superset_count = rng.randint(2, 60)
                superset = ProgressionSet(
                    from_rational(random_fraction(rng)),
                    random_nonzero_fraction(rng),
                    from_int(superset_count),
                )
                start_index = rng.randint(1, superset_count)
                ratio = rng.randint(1, 4)
                available = (superset_count - start_index) // ratio + 1
                sub_count = rng.randint(1, available)
                if start_index == 1 and ratio == 1 and sub_count == superset_count:
                    sub_count -= 1
                subset = ProgressionSet(
                    ProgressionSet(superset.start, superset.step, from_int(start_index)).last,
                    superset.step * ratio,
                    from_int(sub_count),
                )
            else:
                superset = NATURALS
                ratio = rng.randint(1, 6)
                scale = rng.randint(1, 5)
                if ratio == 1:
                    first = scale + 1
                    sub_count = G1 - scale
                else:
                    first = ratio * scale
                    sub_count = scalar_mul(Fraction(1, ratio), G1 - first) + 1
                subset = ProgressionSet(from_int(first), Fraction(ratio), sub_count)
            assert member(subset.start, superset) and member(subset.last, superset)
            assert compare(subset.count, superset.count) < 0


def test_criterion_9_division_contract():
    with criterion(9, "division identity at every truncation budget"):
        rng = random.Random(31415)
        for _ in range(100):
            x = random_gross(rng)
            y = random_nonzero_gross(rng)
            for budget in (1, 5, 20):
                result = divide(x, y, budget)
                assert result.quotient * y + result.remainder == x
                assert result.exact == (result.remainder == ZERO)
                assert result.terms_emitted <= budget
