"""Core arithmetic: canonical form, ring operations, ordering, division,
classification, parity."""

from fractions import Fraction
from functools import reduce
from math import comb, gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from grossone import core
from grossone.core import (
    DivResult,
    GROSSONE,
    GrossNumber,
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
    has_infinite_part,
    has_infinitesimal_part,
    is_integer_like,
    monomial,
    multiply,
    negate,
    normalize,
    parity,
    power_gross,
    power_int,
    reciprocal,
    scalar_mul,
    sign,
    subtract,
)
from grossone.errors import (
    DivisionByZero,
    InexactDivision,
    NegativePowerOfNonMonomial,
    ParityUndefined,
    UnsupportedExponentiation,
    ZeroToNonpositivePower,
)

from support import gross_numbers, positive_rationals, small_rationals

G1 = GROSSONE
G1_INV = monomial(1, -1)


# ----------------------------------------------------------- identities


def test_grossone_identities():
    assert 0 * G1 == ZERO
    assert G1 * 0 == ZERO
    assert G1 - G1 == ZERO
    assert G1 / G1 == ONE
    assert power_int(G1, 0) == ONE
    assert power_gross(ONE, G1) == ONE
    assert power_gross(ZERO, G1) == ZERO
    assert G1_INV * G1 == ONE
    assert G1 * G1_INV == ONE


# ------------------------------------------------------------ normalize


def test_normalize_merges_equal_exponents():
    assert normalize([(Fraction(1), ONE), (Fraction(1), ONE)]) == 2 * G1


def test_normalize_cancels_to_zero():
    assert normalize([(Fraction(1), ZERO), (Fraction(-1), ZERO)]) == ZERO
    assert normalize([]) == ZERO


def test_normalize_sorts_example_numeral_exponents():
    # the two infinite, one finite and two infinitesimal grosspowers of the
    # five-term showcase numeral, fed in scrambled order
    exponents = [
        from_rational(Fraction("81.43")),
        scalar_mul(Fraction("-3.7"), G1),
        ZERO,
        scalar_mul(Fraction("52.4"), G1) - Fraction("72.1"),
        from_rational(Fraction("-9.2")),
    ]
    value = normalize([(Fraction(1), p) for p in exponents])
    ordered = [term.exponent for term in value.terms]
    assert ordered == [
        scalar_mul(Fraction("52.4"), G1) - Fraction("72.1"),
        from_rational(Fraction("81.43")),
        ZERO,
        from_rational(Fraction("-9.2")),
        scalar_mul(Fraction("-3.7"), G1),
    ]


@given(gross_numbers())
def test_normalize_idempotent(x):
    assert normalize((t.coefficient, t.exponent) for t in x.terms) == x


@given(gross_numbers())
def test_canonical_invariants(x):
    for term in x.terms:
        assert term.coefficient != 0
    for left, right in zip(x.terms, x.terms[1:]):
        assert compare(left.exponent, right.exponent) > 0


# ----------------------------------------------------------- add/sub/mul


def test_add_examples():
    assert add(G1, negate(G1)) == ZERO
    assert (G1 + 1) + (G1 - 1) == 2 * G1
    five_plus = from_int(5) + scalar_mul(3, G1_INV)
    assert len(five_plus.terms) == 2
    assert five_plus.terms[0].exponent == ZERO
    assert five_plus.terms[1].exponent == from_int(-1)


def test_subtract_examples():
    assert negate(ZERO) == ZERO
    assert subtract(G1, G1) == ZERO
    assert subtract(2 * G1, G1 - 1) == G1 + 1


def test_multiply_examples():
    assert multiply(ZERO, G1) == ZERO
    assert (G1 - 1) * (G1 + 1) == power_int(G1, 2) - 1


# ------------------------------------------------------------- ordering


def test_compare_examples():
    assert compare(G1 - 1, G1) == -1
    assert sign(G1_INV) == 1
    assert compare(G1, from_int(10**100)) == 1
    assert G1 - 10**100 > ZERO


def test_infinitesimals_are_positive_but_below_every_finite():
    assert G1_INV > 0
    assert G1_INV < Fraction(1, 10**50)


@given(gross_numbers(), gross_numbers())
def test_compare_equals_sign_of_difference(x, y):
    assert compare(x, y) == sign(subtract(x, y))


@given(gross_numbers(), gross_numbers(), gross_numbers())
def test_order_compatible_with_addition(x, y, z):
    if compare(x, y) > 0:
        assert compare(x + z, y + z) > 0


@given(gross_numbers(), gross_numbers(), gross_numbers())
def test_order_compatible_with_multiplication(x, y, z):
    if compare(x, y) > 0 and sign(z) > 0:
        assert compare(x * z, y * z) > 0


@given(gross_numbers(max_depth=2), gross_numbers(max_depth=2), positive_rationals)
def test_dominance(p, q, c):
    if compare(p, q) > 0:
        assert sign(monomial(1, p) - monomial(c, q)) == 1


# ------------------------------------------------------- classification


def test_classify_examples():
    assert classify(ZERO) is NumClass.ZERO
    assert classify(monomial(1, -2)) is NumClass.INFINITESIMAL
    assert classify(from_int(7)) is NumClass.FINITE_NONZERO
    mixed = 3 * G1 + 5 - G1_INV
    assert classify(mixed) is NumClass.INFINITE
    assert has_infinitesimal_part(mixed)
    assert has_infinite_part(mixed)
    assert not has_infinite_part(from_int(5))


def test_finite_part():
    value = scalar_mul(Fraction("17.21"), monomial(1, G1)) + Fraction("7.02") + G1_INV
    assert finite_part(value) == Fraction("7.02")
    assert finite_part(G1) == ZERO


def test_as_int_and_as_rational():
    assert as_int(ZERO) == 0
    assert as_int(from_int(-3)) == -3
    assert as_int(from_rational(Fraction(1, 2))) is None
    assert as_int(G1) is None
    assert as_rational(from_rational(Fraction(1, 2))) == Fraction(1, 2)
    assert as_rational(G1) is None


# ---------------------------------------------------------------- powers


def test_scalar_mul_even_count():
    assert scalar_mul(Fraction(1, 2), G1) == monomial(Fraction(1, 2), 1)
    assert scalar_mul(0, G1) == ZERO


def test_power_int():
    assert power_int(G1_INV, 3) == monomial(1, -3)
    assert power_int(G1 + 1, 2) == power_int(G1, 2) + 2 * G1 + 1
    assert power_int(monomial(2, 1), -1) == monomial(Fraction(1, 2), -1)
    with pytest.raises(NegativePowerOfNonMonomial):
        power_int(G1 + 1, -1)
    with pytest.raises(ZeroToNonpositivePower):
        power_int(ZERO, 0)
    with pytest.raises(ZeroToNonpositivePower):
        power_int(ZERO, -2)


def test_power_gross():
    assert power_gross(G1, G1) == monomial(1, G1)
    assert power_gross(G1, from_int(3)) == monomial(1, 3)
    assert power_gross(monomial(1, 2), G1) == monomial(1, 2 * G1)
    with pytest.raises(UnsupportedExponentiation):
        power_gross(from_int(2), G1)
    with pytest.raises(UnsupportedExponentiation):
        power_gross(2 * G1, G1)
    with pytest.raises(ZeroToNonpositivePower):
        power_gross(ZERO, negate(G1))


# -------------------------------------------------------------- division


def test_divide_monomials():
    result = divide(G1, G1, 1)
    assert result == DivResult(ONE, ZERO, True, 1)


def test_exact_divide_polynomial():
    assert exact_divide(power_int(G1, 2) - 1, G1 + 1) == G1 - 1
    # verified by multiplication
    assert (G1 - 1) * (G1 + 1) == power_int(G1, 2) - 1


def test_divide_truncates_nonterminating_expansion():
    divisor = 1 + G1_INV
    result = divide(ONE, divisor, 3)
    assert result.quotient == 1 - G1_INV + monomial(1, -2)
    assert result.remainder == monomial(-1, -3)
    assert not result.exact
    assert result.terms_emitted == 3
    assert result.quotient * divisor + result.remainder == ONE


def test_exact_divide_raises_when_inexact():
    with pytest.raises(InexactDivision):
        exact_divide(ONE, 1 + G1_INV)


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        divide(G1, ZERO)


def test_reciprocal():
    assert reciprocal(G1).quotient == G1_INV
    assert reciprocal(G1).exact


@given(gross_numbers(), gross_numbers().filter(bool), st.sampled_from([1, 5, 20]))
def test_division_identity(x, y, budget):
    result = divide(x, y, budget)
    assert result.quotient * y + result.remainder == x
    assert result.exact == (result.remainder == ZERO)


# ---------------------------------------------------------------- parity


def test_parity_examples():
    assert parity(2 * G1) is Parity.EVEN
    assert parity(G1 - 1) is Parity.ODD
    assert parity(from_int(7)) is Parity.ODD
    assert parity(ZERO) is Parity.EVEN
    assert parity(scalar_mul(Fraction(1, 2), G1)) is Parity.EVEN


def test_parity_undefined():
    with pytest.raises(ParityUndefined):
        parity(G1 + G1_INV)
    with pytest.raises(ParityUndefined):
        parity(from_rational(Fraction(1, 2)))


def test_is_integer_like():
    assert is_integer_like(G1)
    assert is_integer_like(scalar_mul(Fraction(1, 2), G1))
    assert not is_integer_like(G1_INV)
    assert not is_integer_like(from_rational(Fraction(3, 2)))


@given(gross_numbers())
def test_half_of_positive_integer_like_is_smaller(k):
    if is_integer_like(k) and sign(k) > 0:
        assert scalar_mul(Fraction(1, 2), k) < k


# ------------------------------------------------------------ ring axioms


@given(gross_numbers(), gross_numbers(), gross_numbers())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + negate(a) == ZERO


# --------------------------------------- multiply and divide fast paths

# Grosspowers with mixed denominators, so that the integer-keyed lane of
# multiply and divide needs a common denominator (the lcm of 7, 11, 13).
_finite_powers = st.builds(
    Fraction, st.integers(-13, 13), st.sampled_from([1, 2, 7, 11, 13])
)
finite_exponent_numbers = st.builds(
    normalize,
    st.lists(st.tuples(small_rationals, st.builds(from_rational, _finite_powers)), max_size=8),
)


def reference_multiply(x, y):
    """The generic convolution: gross-number exponents, merged by normalize."""
    return normalize(
        (tx.coefficient * ty.coefficient, add(tx.exponent, ty.exponent))
        for tx in x.terms
        for ty in y.terms
    )


def reference_divide(x, y, budget):
    """Long division that subtracts each step through normalize."""
    lead = y.terms[0]
    quotient = []
    remainder = x
    while remainder.terms and len(quotient) < budget:
        top = remainder.terms[0]
        c = top.coefficient / lead.coefficient
        p = subtract(top.exponent, lead.exponent)
        quotient.append((c, p))
        remainder = normalize(
            [(t.coefficient, t.exponent) for t in remainder.terms]
            + [(-c * t.coefficient, add(p, t.exponent)) for t in y.terms]
        )
    return DivResult(normalize(quotient), remainder, not remainder.terms, len(quotient))


@given(finite_exponent_numbers, finite_exponent_numbers)
def test_multiply_finite_exponents_matches_reference(x, y):
    assert multiply(x, y) == reference_multiply(x, y)


@given(st.builds(monomial, small_rationals, gross_numbers(max_depth=2)), gross_numbers())
def test_multiply_monomial_by_nested_matches_reference(m, x):
    assert multiply(m, x) == reference_multiply(m, x)
    assert multiply(x, m) == reference_multiply(m, x)


def test_multiply_finite_exponents_fixed_cases():
    root = monomial(1, Fraction(1, 2))
    assert multiply(root, monomial(1, Fraction(-1, 2))) == 1
    assert hash(multiply(root, monomial(1, Fraction(-1, 2)))) == hash(1)
    product = multiply(G1 + 1, G1 - 1)
    assert product == power_int(G1, 2) - 1
    assert product.terms[-1].exponent is ZERO
    assert hash(finite_part(product)) == hash(-1)
    x = monomial(3, Fraction(1, 7)) - monomial(2, Fraction(-1, 11)) + 1
    y = monomial(Fraction(1, 2), Fraction(2, 13)) + monomial(5, Fraction(-3, 7))
    assert multiply(x, y) == reference_multiply(x, y)


@given(finite_exponent_numbers, finite_exponent_numbers.filter(bool), st.sampled_from([1, 5, 20]))
def test_divide_finite_exponents_matches_reference(x, y, budget):
    assert divide(x, y, budget) == reference_divide(x, y, budget)


def test_divide_finite_exponents_fixed_cases():
    divisor = 1 + monomial(Fraction(1, 3), Fraction(-1, 7)) - monomial(2, Fraction(-3, 11))
    for budget in (1, 5, 20):
        assert divide(ONE, divisor, budget) == reference_divide(ONE, divisor, budget)
    x = power_int(G1 + monomial(1, Fraction(1, 13)), 3)
    result = divide(x, G1 + monomial(1, Fraction(1, 13)), 20)
    assert result == DivResult(power_int(G1 + monomial(1, Fraction(1, 13)), 2), ZERO, True, 3)


@given(finite_exponent_numbers, gross_numbers().filter(bool), st.sampled_from([1, 5, 20]))
def test_divide_mixed_operands_matches_reference(x, y, budget):
    result = divide(x, y, budget)
    assert result == reference_divide(x, y, budget)
    assert result.quotient * y + result.remainder == x
    if x:
        assert divide(y, x, budget) == reference_divide(y, x, budget)


@given(gross_numbers(), gross_numbers())
def test_nested_operands_match_reference(x, y):
    assert multiply(x, y) == reference_multiply(x, y)
    if y:
        for budget in (1, 5, 20):
            assert divide(x, y, budget) == reference_divide(x, y, budget)


def test_exact_division_of_nested_product_gives_the_factor_back():
    a = G1 + monomial(2, G1 - 1) - monomial(Fraction(1, 3), monomial(-1, Fraction(1, 2)))
    b = monomial(3, 2 * G1) + 1 - monomial(5, -G1)
    product = multiply(a, b)
    assert len(product.terms) == 9
    assert divide(product, b) == DivResult(a, ZERO, True, 3)
    assert divide(product, a) == DivResult(b, ZERO, True, 3)


# Coefficients over wide, mostly coprime denominators, so that the common
# denominators of multiply's and divide's integer coefficients run to many
# digits; most divisor leads are negative or fractional.
wide_rationals = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.one_of(st.integers(1, 10**6), st.sampled_from([999983, 999979, 2**19])),
)
wide_flat_numbers = st.builds(
    normalize, st.lists(st.tuples(wide_rationals, st.builds(from_rational, _finite_powers)), max_size=6)
)
wide_nested_numbers = st.builds(
    normalize, st.lists(st.tuples(wide_rationals, gross_numbers(max_depth=2, max_terms=3)), max_size=6)
)


@pytest.mark.parametrize("numbers", [wide_flat_numbers, wide_nested_numbers], ids=["flat", "nested"])
@given(data=st.data())
def test_wide_coefficients_match_reference(numbers, data):
    x = data.draw(numbers)
    y = data.draw(numbers.filter(bool))
    assert multiply(x, y) == reference_multiply(x, y)
    for budget in (1, 5, 20):
        assert divide(x, y, budget) == reference_divide(x, y, budget)


def _reduced(x):
    return all(
        t.coefficient.denominator > 0 and gcd(t.coefficient.numerator, t.coefficient.denominator) == 1
        for t in x.terms
    )


def test_divide_by_a_lead_with_a_large_integer_part():
    y = (10**30 + 7) + G1_INV
    for x in (ONE, G1 + Fraction(3, 7), monomial(Fraction(-5, 11), Fraction(1, 2)) + 1):
        for budget in (1, 5, 20):
            result = divide(x, y, budget)
            assert result == reference_divide(x, y, budget)
            assert result.quotient * y + result.remainder == x
            assert _reduced(result.quotient) and _reduced(result.remainder)
    assert divide(ONE, y, 2).quotient.terms[1].coefficient == Fraction(-1, (10**30 + 7) ** 2)


def test_single_term_divisor_splits_the_dividend():
    x = normalize([
        (Fraction(3, 2), from_int(4)), (-2, G1), (Fraction(1, 999983), from_int(1)),
        (7, ZERO), (Fraction(-1, 3), monomial(-1, Fraction(1, 2))),
    ])
    assert len(x.terms) == 5
    for y in (monomial(Fraction(-3, 7), G1 - Fraction(1, 2)), monomial(4, Fraction(-2, 3))):
        for budget in (2, 5, 8):
            result = divide(x, y, budget)
            assert result == reference_divide(x, y, budget)
            assert result.terms_emitted == min(budget, 5)
            assert result.exact == (budget >= 5)
            assert result.remainder == GrossNumber(x.terms[budget:])
            assert result.quotient * y + result.remainder == x


# ------------------------------------------------- power_int dense lane

# Bases of 2 to 4 terms with distinct rational grosspowers (denominators
# 1, 2 and 4) and nonzero coefficients of both signs: the dense lane's
# inputs.
dense_lane_bases = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4])),
    ),
    min_size=2,
    max_size=4,
    unique_by=lambda pair: pair[1],
).map(lambda pairs: normalize((c, from_rational(p)) for c, p in pairs))


@given(dense_lane_bases, st.integers(2, 12))
def test_dense_power_matches_repeated_multiply(x, n):
    result = power_int(x, n)
    assert result == reduce(multiply, [x] * n)
    assert hash(result) == hash(reduce(multiply, [x] * n))


def test_dense_power_binomial_coefficients():
    result = power_int(G1 + 1, 40)
    assert result == normalize((comb(40, k), from_int(40 - k)) for k in range(41))
    assert [t.coefficient for t in result.terms] == [comb(40, k) for k in range(41)]
    assert result.terms[-1].exponent is ZERO


def test_wide_span_power_takes_squaring():
    x = 1 + G1_INV + monomial(1, -1000000)
    _, xs, _ = core._keyed(x, ZERO, 3)
    assert core._dense_power(core._scaled(xs)[1], 3) is None
    assert power_int(x, 3) == reference_multiply(reference_multiply(x, x), x)


def test_nested_base_power_matches_reference():
    mixed = monomial(3, G1 - 1) + G1 + monomial(Fraction(1, 2), Fraction(-1, 2))
    for x in (G1 + monomial(2, G1) - 1, mixed):
        square = reference_multiply(x, x)
        assert power_int(x, 3) == reference_multiply(square, x)
        assert power_int(x, 4) == reference_multiply(square, square)


# ---------------------------------------------------------- packed keys

# Grosspowers over six inner exponents whose inner digits (over L = 3) are
# +-6 or +-7, so that the digits of sums and products land on the bound B
# of the packed keys' balanced radix R = 2B + 1.  Each operand spans at
# least three inner exponents, so its keys use the radix.
_inner_exponents = (G1 + 1, G1, from_int(2), ZERO, monomial(-1, Fraction(1, 2)), -G1)
_packed_grosspowers = st.lists(
    st.tuples(st.sampled_from([Fraction(d, 3) for d in (-7, -6, 6, 7)]), st.sampled_from(_inner_exponents)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[1],
).map(normalize)
packed_numbers = st.lists(
    st.tuples(small_rationals.filter(bool), _packed_grosspowers), min_size=2, max_size=4
).map(normalize).filter(lambda x: len({e for _, p in x.terms for _, e in p.terms}) >= 3)


@given(packed_numbers, packed_numbers)
def test_packed_keys_multiply_and_divide_match_reference(x, y):
    assert multiply(x, y) == reference_multiply(x, y)
    for budget in (1, 5, 20, 200):
        assert divide(x, y, budget) == reference_divide(x, y, budget)


@given(packed_numbers, st.integers(2, 6))
def test_packed_keys_power_matches_repeated_multiply(x, n):
    assert power_int(x, n) == reduce(reference_multiply, [x] * n)


def test_one_inner_exponent_base_takes_the_dense_lane():
    x = monomial(1, 2 * G1) + monomial(3, G1) + 1
    codec, xs, _ = core._keyed(x, ZERO, 7)
    assert len(codec[0]) == 1
    assert core._dense_power(core._scaled(xs)[1], 7) is not None
    assert power_int(x, 7) == reduce(multiply, [x] * 7) == reduce(reference_multiply, [x] * 7)


@pytest.mark.parametrize("x", [
    monomial(Fraction(-3, 2), ZERO),
    monomial(Fraction(2, 5), Fraction(-1, 3)),
    monomial(-7, G1 + monomial(Fraction(1, 2), G1 - 1) - 2),
], ids=["finite", "rational", "nested"])
def test_single_term_power_matches_repeated_multiply(x):
    inverse = divide(ONE, x).quotient
    for n in range(-5, 51):
        expected = reduce(multiply, [x if n > 0 else inverse] * abs(n), ONE)
        assert power_int(x, n) == expected
        if n < 0:
            assert multiply(power_int(x, n), power_int(x, -n)) == ONE


@given(small_rationals, small_rationals)
def test_finite_arithmetic_matches_fractions(p, q):
    assert as_rational(from_rational(p) + from_rational(q)) == p + q
    assert as_rational(from_rational(p) - from_rational(q)) == p - q
    assert as_rational(from_rational(p) * from_rational(q)) == p * q
    if q != 0:
        assert as_rational(from_rational(p) / from_rational(q)) == p / q


# ------------------------------------------------------ value semantics


def test_equality_and_hash_with_rationals():
    assert from_int(5) == 5
    assert hash(from_int(5)) == hash(5)
    assert from_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(from_rational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert ZERO == 0
    assert hash(ZERO) == hash(0)
    assert G1 != 5


def test_values_are_immutable():
    with pytest.raises(AttributeError):
        G1.terms = ()


def test_as_gross_rejects_foreign_types():
    with pytest.raises(TypeError):
        as_gross("G1")
