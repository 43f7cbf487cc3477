"""Core arithmetic: canonical form, ring operations, ordering, division,
classification, parity."""

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
import random
import re

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from grossone import core
from grossone.core import (
    _DECODED_POWERS,
    MAX_DIV_TERMS,
    MAX_NESTING,
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
    _polynomial_at,
    _polynomial_product,
    _ratio,
    power_gross,
    power_int,
    scalar_mul,
    sign,
    subtract,
)
from grossone.errors import (
    DivisionByZero,
    InexactDivision,
    LimitExceeded,
    NegativePowerOfNonMonomial,
    ParityUndefined,
    UnsupportedExponentiation,
    ZeroToNonpositivePower,
)
from grossone.numio import parse_number, print_canonical

from support import (
    gross_numbers,
    positive_rationals,
    random_gross,
    random_nonzero_fraction,
    random_nonzero_gross,
    small_rationals,
)

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


def test_operators_take_plain_numbers():
    assert (G1 == "G1") is False
    assert G1 >= 5 and not G1 <= 5
    assert +G1 is G1
    assert 1 / G1 == G1_INV
    assert G1**2 == power_int(G1, 2)
    assert G1 ** Fraction(1, 2) == monomial(1, Fraction(1, 2))


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
    assert classify(5 + G1_INV) is NumClass.FINITE_NONZERO


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
    assert result == DivResult(ONE, ZERO)


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


def _spans_cross(x, y):
    """top(x) - top(y) < low(x) - low(y): an exact quotient's grosspowers
    would lie between the two, so x/y has none."""
    return subtract(x.terms[0].exponent, y.terms[0].exponent) < subtract(x.terms[-1].exponent, y.terms[-1].exponent)


@pytest.mark.parametrize("x, y", [
    (ONE, 1 + G1_INV),
    (ONE, monomial(1, G1) + 1),  # 1/(G1^{G1}+1), over a nested basis
    (G1 + 1, power_int(G1, 3) + G1_INV),
])
def test_exact_divide_refuses_after_one_step_when_the_spans_cross(x, y):
    assert _spans_cross(x, y)
    remainder = divide(x, y, 1).remainder
    with pytest.raises(InexactDivision, match=rf"leaves remainder {re.escape(str(remainder))} after 1 quotient terms$"):
        exact_divide(x, y)


def test_crossed_spans_are_inexact_within_the_default_budget():
    rng = random.Random(20260418)
    crossed = 0
    for _ in range(400):
        x, y = random_nonzero_gross(rng, 2, 4), random_nonzero_gross(rng, 2, 4)
        if len(y.terms) > 1 and _spans_cross(x, y):
            crossed += 1
            assert not divide(x, y).exact
            with pytest.raises(InexactDivision, match="after 1 quotient terms$"):
                exact_divide(x, y)
    assert crossed > 100


def test_divide_refuses_a_budget_above_the_cap():
    assert divide(ONE, G1, MAX_DIV_TERMS).quotient == G1_INV
    with pytest.raises(LimitExceeded):
        divide(ONE, 1 + G1_INV, MAX_DIV_TERMS + 1)
    message = f"a division may emit at most {MAX_DIV_TERMS} quotient terms, not {10**9}"
    with pytest.raises(LimitExceeded, match=message):
        divide(ONE, 1 + G1_INV, 10**9)
    # refused only when the quotient reaches the cap
    assert divide(G1, G1, MAX_DIV_TERMS + 1).quotient == ONE
    assert divide(ONE, from_int(2), 10**9).quotient == Fraction(1, 2)
    # the monomial shift: a dividend of MAX_DIV_TERMS terms fits, one more does not
    fits = normalize([(1, from_int(-k)) for k in range(MAX_DIV_TERMS)])
    assert divide(fits, G1, 10**9).terms_emitted == MAX_DIV_TERMS
    with pytest.raises(LimitExceeded):
        divide(fits + G1, G1, 10**9)
    # long division: 1 + G1^{-1} + ... + G1^{-(n-1)} is (1 - G1^{-n}) / (1 - G1^{-1})
    result = divide(1 - monomial(1, -MAX_DIV_TERMS), 1 - G1_INV, 10**9)
    assert (result.exact, result.terms_emitted) == (True, MAX_DIV_TERMS)
    with pytest.raises(LimitExceeded):
        divide(1 - monomial(1, -MAX_DIV_TERMS - 1), 1 - G1_INV, 10**9)


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        divide(G1, ZERO)
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        divide(ONE, G1, 0)


def test_reciprocal():
    assert divide(ONE, G1).quotient == G1_INV
    assert divide(ONE, G1).exact


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


def test_parity_names_a_non_integer_finite_part_before_an_infinitesimal_part():
    with pytest.raises(ParityUndefined, match=r"^0\.5 \+ G1\^\{-1\} has a non-integer finite part$"):
        parity(from_rational(Fraction(1, 2)) + G1_INV)
    with pytest.raises(ParityUndefined, match=r"^1 \+ G1\^\{-1\} has an infinitesimal part$"):
        parity(ONE + G1_INV)


@given(gross_numbers(), st.integers(-3, 3))
def test_is_integer_like_exactly_when_parity_is_defined(x, n):
    # x alone seldom has a parity, so its positive-grosspower terms plus n,
    # which always has one, are checked too
    whole = normalize([(t.coefficient, t.exponent) for t in x.terms if sign(t.exponent) > 0] + [(n, ZERO)])
    for value in (x, whole, whole + G1_INV, whole + Fraction(1, 2)):
        try:
            parity(value)
            defined = True
        except ParityUndefined:
            defined = False
        assert is_integer_like(value) is defined


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
    return DivResult(normalize(quotient), remainder)


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


# ------------------------------------------------ shared grosspowers


def _finite_rebuilt(x):
    """x built again by normalize from fresh Fractions and grosspowers."""
    return normalize(
        (Fraction(t.coefficient.numerator, t.coefficient.denominator), from_rational(as_rational(t.exponent)))
        for t in x.terms
    )


@given(finite_exponent_numbers, finite_exponent_numbers.filter(bool), st.integers(1, 4))
def test_shared_grosspowers_give_the_values_normalize_builds(x, y, n):
    for make in (
        lambda: multiply(x, y),
        lambda: divide(x, y, 5).quotient,
        lambda: divide(x, y, 5).remainder,
        lambda: power_int(x, n),
    ):
        first, again = make(), make()
        fresh = _finite_rebuilt(first)
        assert first == again == fresh
        assert hash(first) == hash(again) == hash(fresh)
        for term, fresh_term in zip(again.terms, fresh.terms):
            assert hash(term.exponent) == hash(fresh_term.exponent) == hash(as_rational(term.exponent))
    # a repeated product of two sums takes its grosspowers from the table
    if len(x.terms) > 1 and len(y.terms) > 1:
        assert all(a.exponent is b.exponent for a, b in zip(multiply(x, y).terms, multiply(x, y).terms))


def test_one_key_under_two_scales_decodes_to_two_grosspowers():
    halves = multiply(monomial(1, Fraction(1, 2)) + 1, monomial(1, Fraction(-1, 2)) + 1)
    thirds = multiply(monomial(1, Fraction(1, 3)) + 1, monomial(1, Fraction(-1, 3)) + 1)
    assert [t.exponent for t in halves.terms] == [Fraction(1, 2), 0, Fraction(-1, 2)]
    assert [t.exponent for t in thirds.terms] == [Fraction(1, 3), 0, Fraction(-1, 3)]
    assert core._decoded(1, 2, ZERO) == Fraction(1, 2)
    assert core._decoded(1, 3, ZERO) == Fraction(1, 3)
    assert halves.terms[1].exponent is ZERO


def test_the_table_of_grosspowers_stays_within_its_bound():
    for k in range(1, _DECODED_POWERS + 200):
        product = multiply(monomial(1, k) + 1, G1 + 1)
        assert product == monomial(1, k + 1) + monomial(1, k) + G1 + 1
    info = core._decoded.cache_info()
    assert info.maxsize == _DECODED_POWERS
    assert info.currsize <= _DECODED_POWERS


@given(finite_exponent_numbers, finite_exponent_numbers.filter(bool), st.sampled_from([1, 5, 20]))
def test_divide_finite_exponents_matches_reference(x, y, budget):
    assert divide(x, y, budget) == reference_divide(x, y, budget)


def test_divide_finite_exponents_fixed_cases():
    divisor = 1 + monomial(Fraction(1, 3), Fraction(-1, 7)) - monomial(2, Fraction(-3, 11))
    for budget in (1, 5, 20):
        assert divide(ONE, divisor, budget) == reference_divide(ONE, divisor, budget)
    x = power_int(G1 + monomial(1, Fraction(1, 13)), 3)
    result = divide(x, G1 + monomial(1, Fraction(1, 13)), 20)
    assert result == DivResult(power_int(G1 + monomial(1, Fraction(1, 13)), 2), ZERO)
    # the first step's shifted divisor tail cancels the remainder's G1 term to 0
    x = monomial(1, Fraction(3, 2)) + G1 + monomial(7, Fraction(-1, 3))
    for budget in (1, 5, 20):
        assert divide(x, monomial(1, Fraction(1, 2)) + 1, budget) == reference_divide(
            x, monomial(1, Fraction(1, 2)) + 1, budget
        )
    # the integer lead 3 divides no remainder lead, so every step rescales
    divisor = 3 + monomial(2, Fraction(-1, 2))
    for budget in (1, 5, 20):
        result = divide(G1 + 1, divisor, budget)
        assert result == reference_divide(G1 + 1, divisor, budget)
        assert [t.coefficient.denominator for t in result.quotient.terms] == [3**i for i in range(1, budget + 1)]


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
    assert divide(product, b) == DivResult(a, ZERO)
    assert divide(product, a) == DivResult(b, ZERO)


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
    """Every coefficient of x and of its grosspowers, to any depth, is a
    plain Fraction in lowest terms over a positive denominator."""
    return all(
        type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1 and _reduced(p)
        for c, p in x.terms
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


def test_single_term_divisor_always_divides_exactly():
    x = power_int(G1 + 1, 25)
    assert len(x.terms) == 26 > core.DEFAULT_DIV_TERMS
    for y in (G1, 2 * G1, monomial(Fraction(-3, 7), G1 - Fraction(1, 2))):
        quotient = exact_divide(x, y)
        assert quotient == reference_divide(x, y, 26).quotient
        assert quotient * y == x
        assert x / y == quotient
    assert exact_divide(ZERO, G1) == ZERO
    # a budget still truncates divide itself
    assert divide(x, G1, 3) == reference_divide(x, G1, 3)


# ------------------------------------------------------------ coefficients


def test_ratio_is_the_fraction_that_fraction_builds():
    # _ratio writes these two slots itself
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(1203)
    # 0 over a negative denominator is 0/1
    pairs = [(0, -5), (0, 1), (6, -4), (-6, -4), (-1, 1), (2**2000 + 1, -(3**1200))]
    for bits in (8, 64, 2000):
        for _ in range(200):
            n, d = rng.getrandbits(bits) - rng.getrandbits(bits), rng.getrandbits(bits) or 1
            pairs.append((n, d if rng.random() < 0.5 else -d))
    for n, d in pairs:
        made, expected = _ratio(n, d), Fraction(n, d)
        assert type(made) is Fraction
        assert (made.numerator, made.denominator) == (expected.numerator, expected.denominator)
        assert (made, hash(made), repr(made)) == (expected, hash(expected), repr(expected))


def test_kernels_return_canonical_coefficients():
    rng = random.Random(2026)
    divisors = [Fraction(-7, 3) + G1_INV, Fraction(-7, 3) * G1 + Fraction(5, 2) - G1_INV]
    divisors += [random_nonzero_gross(rng, 2, 4) for _ in range(30)]
    for y in divisors:
        x = random_gross(rng, 2, 4)
        for value in (add(x, y), subtract(x, y), negate(y), multiply(x, y), multiply(x, monomial(Fraction(-4, 6), y))):
            assert _reduced(value)
        for budget in (1, 2, 7, 20, 60):
            result = divide(x, y, budget)
            assert _reduced(result.quotient) and _reduced(result.remainder)
        assert _reduced(exact_divide(multiply(x, y), y))
        if len(y.terms) <= 3:
            for n in range(2, 7):
                assert _reduced(power_int(y, n))
        c = random_nonzero_fraction(rng)
        assert _reduced(_polynomial_at([x, y], [(6, (1, -3, 2)), (-4, (5,))], monomial(c, y)))
        assert all(map(_reduced, _polynomial_product([x, y], [y, from_rational(c)], 3)))


# --------------------------------------------------------------- power_int

# Bases of 2 to 4 terms with distinct rational grosspowers (denominators
# 1, 2 and 4) and nonzero coefficients of both signs: those of the dense
# lane below.
dense_lane_bases = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4])),
    ),
    min_size=2,
    max_size=4,
    unique_by=lambda pair: pair[1],
).map(lambda pairs: normalize((c, from_rational(p)) for c, p in pairs))


def reference_dense_power(x, n):
    """x^n by J. C. P. Miller's recurrence on a dense list, the lane that
    ``power_int`` once took over at most one basis element: with keys
    ``K_0 > ... > K_{m-1}`` and g the gcd of the offsets ``K_0 - K_j``, x is
    ``G1^{K_0}`` times ``sum a_i t^i`` in ``t = G1^{-g}``, of span
    ``s = (K_0 - K_{m-1})/g``, and every position up to ``n*s`` is walked."""
    codec, [(scale, xs)] = core._keyed((x.terms, n))
    assert len(codec[0]) <= 1
    top = xs[0][0]
    g = gcd(*[top - k for k, _ in xs])
    span = (top - xs[-1][0]) // g
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
    return core._from_keyed(codec, [(n * top - k * g, Fraction(c, scale**n)) for k, c in enumerate(b) if c])


@given(dense_lane_bases, st.integers(2, 12))
def test_dense_power_matches_repeated_multiply(x, n):
    result = power_int(x, n)
    assert result == reduce(multiply, [x] * n) == reference_dense_power(x, n)
    assert hash(result) == hash(reduce(multiply, [x] * n))


def test_dense_power_binomial_coefficients():
    result = power_int(G1 + 1, 40)
    assert result == normalize((comb(40, k), from_int(40 - k)) for k in range(41))
    assert [t.coefficient for t in result.terms] == [comb(40, k) for k in range(41)]
    assert result.terms[-1].exponent is ZERO


def test_wide_span_power_matches_reference():
    x = 1 + G1_INV + monomial(1, -1000000)
    assert power_int(x, 3) == reference_multiply(reference_multiply(x, x), x)
    assert power_int(x, 40) == reduce(reference_multiply, [x] * 40)


def test_power_with_a_cancelled_coefficient_matches_reference():
    # x^5 has no G1 term: the recurrence reaches that position from the
    # G1^2 term, which is nonzero, and must find 0 there
    x = monomial(1, 3) - monomial(3, 2) - 1
    result = power_int(x, 5)
    assert result == reduce(reference_multiply, [x] * 5)
    assert len(result.terms) == 15
    assert from_int(1) not in [t.exponent for t in result.terms]


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


@given(packed_numbers, st.integers(2, 8))
def test_packed_keys_power_matches_repeated_multiply(x, n):
    assert power_int(x, n) == reduce(reference_multiply, [x] * n)


def test_power_over_three_basis_elements_matches_reference():
    x = monomial(1, G1) + monomial(1, monomial(1, 2)) + G1 + 2
    codec, _ = core._keyed((x.terms, 12))
    assert len(codec[0]) == 3
    result = power_int(x, 12)
    assert result == reduce(reference_multiply, [x] * 12)
    # every coefficient is positive, so nothing cancels: one term for each
    # monomial of degree 12 in four unknowns
    assert len(result.terms) == comb(15, 3)


def test_one_inner_exponent_base_power_matches_reference():
    x = monomial(1, 2 * G1) + monomial(3, G1) + 1
    codec, _ = core._keyed((x.terms, 7))
    assert len(codec[0]) == 1
    assert power_int(x, 7) == reduce(multiply, [x] * 7) == reduce(reference_multiply, [x] * 7)


def counting_calls(monkeypatch, *names):
    """A list that gains a function's name at each call, from here on, of
    the ``core`` functions named.  ``sorted`` compares nothing for fewer than
    two items, so an unneeded sort shows only as a call of ``cmp_to_key``."""
    calls = []
    for name in names:
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("x, y, k", [
    # every grosspower finite: one inner exponent, ZERO
    (G1 + 1, monomial(3, 2) - G1_INV + monomial(Fraction(1, 2), Fraction(-1, 2)), G1 - 1),
    # one inner exponent, G1
    (monomial(1, 2 * G1) + monomial(3, G1) + 1, monomial(1, -G1) + 2, G1),
    # finite counts leave the basis empty
    (from_int(3) + monomial(1, from_int(4)), from_int(2) + G1, from_int(5)),
])
def test_keyed_sorts_no_basis_of_one_inner_exponent(monkeypatch, x, y, k):
    calls = counting_calls(monkeypatch, "compare", "cmp_to_key")
    codec, _ = core._keyed((x.terms, 1), (y.terms, 1))
    assert len(codec[0]) <= 1
    # a count packed against the coefficient ONE, as faulhaber's closed form is
    core._keyed((k.terms, 4), (ONE.terms, 1))
    product, power, quotient = multiply(x, y), power_int(x, 3), divide(x, y, 5)
    value = _polynomial_at([ONE], [(6, (0, 1, 3, 2))], k)
    assert calls == []
    assert product == reference_multiply(x, y)
    assert power == reference_multiply(reference_multiply(x, x), x)
    assert quotient == reference_divide(x, y, 5)
    assert value == horner([0, 1, 3, 2], k, 6)


def test_keyed_sorts_a_basis_of_three_inner_exponents(monkeypatch):
    # inner exponents meet in the order 1, -1, 1/2
    x = monomial(1, G1 + G1_INV) + monomial(2, monomial(1, Fraction(1, 2))) + 1
    calls = counting_calls(monkeypatch, "compare", "cmp_to_key")
    codec, [(_, xs)] = core._keyed((x.terms, 2))
    assert calls[0] == "cmp_to_key" and "compare" in calls
    assert codec[0] == [ONE, from_rational(Fraction(1, 2)), from_int(-1)]
    assert [k for k, _ in xs] == sorted([k for k, _ in xs], reverse=True)
    assert power_int(x, 2) == reference_multiply(x, x)


# ----------------------------------------------------------- _polynomial_at


def horner(coefficients, k, denominator=1):
    """Horner's rule on gross-numbers, through add and multiply."""
    value = ZERO
    for c in reversed(coefficients):
        value = add(multiply(value, k), from_rational(c))
    return scalar_mul(Fraction(1, denominator), value)


def row(coefficients, denominator=1):
    """``coefficients / denominator`` as ``_polynomial_at``'s integer row
    ``(D, (n_0, ..., n_d))``, zero-padded to d >= 1."""
    common = lcm(*[Fraction(c).denominator for c in coefficients])
    numerators = [int(c * common) for c in coefficients] + [0, 0]
    return common * denominator, tuple(numerators[: max(len(coefficients), 2)])


# some lists end in zeros, which do not raise the degree
coefficient_lists = st.builds(
    lambda cs, zeros: cs + [Fraction(0)] * zeros,
    st.lists(small_rationals, max_size=6),
    st.integers(0, 2),
)


@given(coefficient_lists, st.one_of(gross_numbers(), packed_numbers), st.integers(1, 12))
def test_polynomial_at_matches_horner(coefficients, k, denominator):
    assert _polynomial_at([ONE], [row(coefficients, denominator)], k) == horner(coefficients, k, denominator)


@pytest.mark.parametrize("k", [
    ZERO,
    from_int(-3),
    G1,
    2 * G1 - 1,
    monomial(2, G1) + monomial(Fraction(1, 3), Fraction(1, 2)) - G1_INV,
], ids=["zero", "finite", "G1", "2G1-1", "nested"])
@pytest.mark.parametrize("coefficients", [
    [], [0, 0], [Fraction(5, 2)], [Fraction(5, 2), 0, 0], [1, -2, 0, 3], [0, Fraction(1, 2), Fraction(-1, 3), 0],
], ids=["empty", "zeros", "constant", "constant-trailing-zeros", "integers", "fractions-trailing-zero"])
def test_polynomial_at_edge_cases(coefficients, k):
    assert _polynomial_at([ONE], [row(coefficients)], k) == horner(coefficients, k)
    assert _polynomial_at([ONE], [row(coefficients, 6)], k) == horner(coefficients, k, 6)


# One to four coefficients, with nested and fractional grosspowers and
# zero coefficients among them, each over an integer row of its own length
# and denominator.
coefficient_rows = st.lists(
    st.tuples(
        st.one_of(gross_numbers(3, 3), packed_numbers, st.just(ZERO)),
        st.integers(1, 12),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=4,
)
many_term_counts = st.sampled_from([
    monomial(1, G1) + G1 + 1,
    2 * G1 - 1,
    monomial(1, G1 + 1) - monomial(3, Fraction(1, 2)) + G1 - 7,
    monomial(Fraction(1, 2), monomial(1, G1)) + monomial(2, G1 - 1) + monomial(-1, Fraction(-2, 3)) + 5,
])


@given(coefficient_rows, st.one_of(gross_numbers(), packed_numbers, many_term_counts))
def test_polynomial_at_sums_coefficients_times_rows(pairs, k):
    expected = ZERO
    for c, denominator, numerators in pairs:
        expected = add(expected, multiply(c, horner(numerators, k, denominator)))
    rows = [(denominator, tuple(numerators)) for _, denominator, numerators in pairs]
    assert _polynomial_at([c for c, _, _ in pairs], rows, k) == expected


# ------------------------------------------------------ _polynomial_product


def reference_polynomial_product(left, right, n):
    """``left * right^n`` on lists of an index's coefficients, one factor of
    ``right`` at a time, pair by pair through ``*`` and ``+``."""
    for _ in range(n):
        out = [ZERO] * (len(left) + len(right) - 1)
        for a, ca in enumerate(left):
            for b, cb in enumerate(right):
                out[a + b] = out[a + b] + ca * cb
        left = out
    return left


# nested and fractional grosspowers, and zero coefficients, also among one
# nonzero coefficient (a monomial in the index)
index_coefficients = st.lists(st.one_of(gross_numbers(3, 3), packed_numbers, st.just(ZERO)), min_size=1, max_size=3)


@given(index_coefficients, index_coefficients, st.integers(0, 5))
def test_polynomial_product_matches_pairwise_reference(left, right, n):
    assume(n or any(right))
    result = _polynomial_product(left, right, n)
    assert len(result) == len(left) + n * (len(right) - 1)
    assert result == reference_polynomial_product(left, right, n)


@pytest.mark.parametrize("left, right, n", [
    ([ONE], [G1 + G1_INV, ONE], 30),  # one basis element: the recurrence
    ([ONE, G1], [monomial(1, G1 + 1) + monomial(1, monomial(1, 2)), ONE], 6),  # two: the recurrence
    ([ONE], [ONE, monomial(2, Fraction(1, 2))], 5),  # every grosspower finite
    ([from_int(3)], [ZERO, ZERO, G1 - 1], 4),  # a monomial in the index
    ([G1 + 1, ZERO, from_int(-2)], [ONE, from_int(2)], 1),
    ([ZERO, ZERO], [G1, ONE], 3),
    ([G1 - 1], [ZERO, ZERO], 2),
    ([G1 - 1], [ZERO, ZERO], 5),  # above n = 4, _raised is handed no terms
    ([ONE, G1], [monomial(1, G1 + 1) + monomial(1, monomial(1, 2)), ONE], 4),  # two: products
])
def test_polynomial_product_lanes_match_reference(left, right, n):
    assert _polynomial_product(left, right, n) == reference_polynomial_product(left, right, n)


@pytest.mark.parametrize("right", [[ZERO], [ZERO, ZERO], [ZERO, ZERO, ZERO]])
def test_polynomial_product_refuses_zero_to_the_power_0(right):
    with pytest.raises(ZeroToNonpositivePower, match="^0 cannot be raised to the power 0$"):
        _polynomial_product([G1, ONE], right, 0)
    assert _polynomial_product([G1, ONE], [ZERO, ONE], 0) == [G1, ONE]


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


def test_a_value_too_long_to_print_shows_a_placeholder():
    # repr and str name it in error messages; the printer itself refuses it
    huge = from_int(2) ** 20000
    assert repr(huge) == str(huge) == "<a value too long to print>"
    with pytest.raises(LimitExceeded, match="a coefficient is too long to print"):
        print_canonical(huge)


def test_as_gross_rejects_foreign_types():
    with pytest.raises(TypeError):
        as_gross("G1")


# -------------------------------------------------------------- nesting


def printed_depth(x):
    """The deepest ``{`` nesting in x's canonical text."""
    depth = deepest = 0
    for ch in print_canonical(x):
        if ch == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "}":
            depth -= 1
    return deepest


def tower(base, levels):
    """base as the grosspower of a grosspower ... ``levels`` deep, or as
    deep as the nesting limit allows; built without ``monomial``'s check."""
    for _ in range(levels):
        base = GrossNumber((GrossTerm(Fraction(1), base),))
    while printed_depth(base) > MAX_NESTING:
        base = base.terms[0].exponent
    return base


# values from the shared generators, and the same wrapped in grosspowers up
# to the nesting limit
deep_numbers = st.one_of(
    gross_numbers(),
    st.builds(tower, gross_numbers(max_depth=2, max_terms=3), st.integers(MAX_NESTING - 5, MAX_NESTING)),
)


@given(deep_numbers, deep_numbers, st.integers(1, 4))
def test_ring_operations_nest_no_deeper_than_their_operands(x, y, n):
    bound = max(printed_depth(x), printed_depth(y), 1)
    assert printed_depth(add(x, y)) <= bound
    assert printed_depth(subtract(x, y)) <= bound
    assert printed_depth(multiply(x, y)) <= bound
    if y:
        result = divide(x, y, 3)
        assert max(printed_depth(result.quotient), printed_depth(result.remainder)) <= bound
    if len(x.terms) <= 3:
        assert printed_depth(power_int(x, n)) <= max(printed_depth(x), 1)


@given(deep_numbers, deep_numbers)
def test_gross_power_is_refused_exactly_when_it_would_nest_too_deep(p, k):
    assume(printed_depth(p) < MAX_NESTING)
    # built without the check, to measure what power_gross would return
    unchecked = GrossNumber((GrossTerm(Fraction(1), multiply(p, k)),))
    if printed_depth(unchecked) > MAX_NESTING:
        with pytest.raises(LimitExceeded):
            power_gross(monomial(1, p), k)
    else:
        assert power_gross(monomial(1, p), k) == unchecked


@given(deep_numbers)
def test_cached_brace_depth_is_the_printed_depth(x):
    assert core._brace_depth(x) == printed_depth(x)
    # the second call reads the depth cached on x
    assert core._brace_depth(x) == printed_depth(x)
    for _, p in x.terms:
        assert core._brace_depth(p) == printed_depth(p)


def test_monomials_nest_up_to_the_limit_and_reparse():
    deepest = G1
    for _ in range(MAX_NESTING):
        deepest = monomial(1, deepest)
    text = print_canonical(deepest)
    assert text.count("{") == printed_depth(deepest) == MAX_NESTING
    assert parse_number(text) == deepest
    message = f"the result would print nested deeper than {MAX_NESTING} braces"
    with pytest.raises(LimitExceeded, match=message):
        monomial(1, deepest)
    with pytest.raises(LimitExceeded, match=message):
        power_gross(G1, deepest)
