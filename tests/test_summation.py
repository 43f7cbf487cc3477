"""Power-sum closed forms against a Bernoulli-number reference, alternating
sums and the brute-force cross-checks."""

import hashlib
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from grossone.cli import main
from grossone.core import (
    GROSSONE,
    ONE,
    Parity,
    ZERO,
    as_rational,
    from_int,
    monomial,
    normalize,
    parity,
    power_int,
    scalar_mul,
)
from grossone import core, summation
from grossone.errors import EvalError, LimitExceeded, ParityUndefined, UnsupportedSummand
from grossone.numio import parse_expression
from grossone.summation import (
    MAX_SUM_ITEMS,
    MAX_SUMMAND_DEGREE,
    PolynomialSummand,
    faulhaber,
    sum_alternating_polynomial,
    sum_finite_generic,
    sum_polynomial,
    summand_polynomial,
)

from support import gross_numbers

G1 = GROSSONE
HALF_G1 = scalar_mul(Fraction(1, 2), G1)

IDENTITY = PolynomialSummand.from_coefficients([0, 1])  # summand i
UNIT = PolynomialSummand.from_coefficients([1])  # summand 1
SQUARES = PolynomialSummand.from_coefficients([0, 0, 1])  # summand i^2
ODDS = PolynomialSummand.from_coefficients([-1, 2])  # summand 2i - 1
EVENS = PolynomialSummand.from_coefficients([0, 2])  # summand 2i


# -------------------------------------------------------------- bernoulli


# The Akiyama-Tanigawa triangle's last row, and the B_n read off it so far.
_triangle: list[Fraction] = []
_bernoulli_values: list[Fraction] = []


def bernoulli(n):
    """Exact Bernoulli number B_n with the B_1 = +1/2 convention: the
    reference the Faulhaber rows are checked against.

    Computed by the Akiyama-Tanigawa triangle, which yields this convention
    directly.  The triangle grows by the rows it lacks.
    """
    for m in range(len(_bernoulli_values), n + 1):
        _triangle.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            _triangle[j - 1] = j * (_triangle[j - 1] - _triangle[j])
        _bernoulli_values.append(_triangle[0])
    return _bernoulli_values[n]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(30) == Fraction(8615841276005, 14322)


def test_bernoulli_recurrence_oracle():
    # with B_1 = +1/2 the binomial recurrence telescopes to n + 1
    for n in range(12):
        total = sum(Fraction(comb(n + 1, j)) * bernoulli(j) for j in range(n + 1))
        assert total == n + 1


# -------------------------------------------------------------- faulhaber


def test_faulhaber_against_brute_force():
    for j in range(5):
        running = Fraction(0)
        for k in range(0, 120):
            if k:
                running += Fraction(k) ** j
            assert as_rational(faulhaber(j, from_int(k))) == running


def test_faulhaber_at_the_infinite_count():
    assert faulhaber(1, G1) == scalar_mul(Fraction(1, 2), power_int(G1, 2)) + HALF_G1
    assert faulhaber(0, G1 - 1) == G1 - 1
    assert faulhaber(1, from_int(100)) == from_int(5050)


def test_faulhaber_refuses_an_exponent_above_the_degree_cap(monkeypatch):
    # refused before the row below is asked for or any lcm is taken, so at
    # once however large j is
    summation._row.cache_clear()
    made = []
    real = summation.lcm
    monkeypatch.setattr(summation, "lcm", lambda *args: made.append(args) or real(*args))
    message = f"a polynomial summand has degree at most {MAX_SUMMAND_DEGREE}, not {MAX_SUMMAND_DEGREE + 1}"
    with pytest.raises(LimitExceeded, match=message):
        faulhaber(MAX_SUMMAND_DEGREE + 1, G1)
    assert made == []
    assert summation._row.cache_info().misses == 1
    j = MAX_SUMMAND_DEGREE
    assert faulhaber(j, from_int(3)) == from_int(1 + 2**j + 3**j)
    assert faulhaber(j, G1).terms[0] == (Fraction(1, j + 1), from_int(j + 1))


def test_faulhaber_rows_match_the_bernoulli_reference():
    # Faulhaber's formula: S_j(t) = sum_r comb(j+1, r)*B_r*t^(j+1-r)/(j+1)
    for j in range(MAX_SUMMAND_DEGREE + 1):
        d, numerators = summation._row(j)
        reference = [Fraction(0)] + [comb(j + 1, r) * bernoulli(r) / (j + 1) for r in range(j, -1, -1)]
        assert [Fraction(n, d) for n in numerators] == reference
        assert Fraction(numerators[1], d) == bernoulli(j)
        assert gcd(d, *numerators) == 1


def test_faulhaber_rows_are_built_once_each():
    summation._row.cache_clear()
    summation._row(MAX_SUMMAND_DEGREE)
    assert summation._row.cache_info().misses == MAX_SUMMAND_DEGREE + 1
    hits = summation._row.cache_info().hits
    summation._row(50)
    assert summation._row.cache_info().hits == hits + 1
    assert summation._row.cache_info().misses == MAX_SUMMAND_DEGREE + 1


def test_faulhaber_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        faulhaber(-1, G1)


# --------------------------------------------------------- polynomial sums


def test_sum_polynomial_examples():
    assert sum_polynomial(IDENTITY, G1) == scalar_mul(Fraction(1, 2), power_int(G1, 2)) + HALF_G1
    # the two half-count subsums of the alternating derivation:
    # odd numbers up to G1 - 1 and even numbers up to G1
    quarter_sq = scalar_mul(Fraction(1, 4), power_int(G1, 2))
    assert sum_polynomial(ODDS, HALF_G1) == quarter_sq
    assert sum_polynomial(EVENS, HALF_G1) == quarter_sq + HALF_G1


def test_sum_polynomial_linearity():
    a, b = from_int(3), scalar_mul(Fraction(1, 2), G1)
    padded_odds = ODDS.coefficients + (ZERO,)
    combined = PolynomialSummand.from_coefficients(
        [a * x + b * y for x, y in zip(padded_odds, SQUARES.coefficients)]
    )
    for k in (from_int(17), G1, 2 * G1 - 1):
        assert sum_polynomial(combined, k) == a * sum_polynomial(ODDS, k) + b * sum_polynomial(
            SQUARES, k
        )


def test_sum_splitting_identity():
    # sum 1..k == sum 1..m + sum of p(t + m) for t = 1..k-m
    for p in (IDENTITY, SQUARES, ODDS):
        for m in (1, 7, 40):
            for k in (G1, 2 * G1 - 1, from_int(100)):
                # p(t + m) = sum_j c_j * sum_r comb(j, r) * m^(j-r) * t^r
                shifted = PolynomialSummand.from_coefficients(
                    sum((comb(j, r) * m ** (j - r) * c for j, c in enumerate(p.coefficients[r:], r)), ZERO)
                    for r in range(len(p.coefficients))
                )
                left = sum_polynomial(p, k)
                right = sum_polynomial(p, from_int(m)) + sum_polynomial(shifted, k - m)
                assert left == right


# Summands whose coefficients span several grosspowers, nested ones too,
# summed to a count of several terms.
GROSS_SUMMANDS = ["(i+G1)^30", "(i - G1^{-1})^12*G1^{G1}", "(2*i + G1^{1/2} + G1^{G1-1})^6"]
MANY_TERM_COUNT = monomial(1, G1) + G1 + 1


@pytest.mark.parametrize("text", GROSS_SUMMANDS)
def test_sum_polynomial_matches_power_sums_by_linearity(text):
    p = summand_polynomial(parse_expression(text), "i")
    expected = ZERO
    for j, c in enumerate(p.coefficients):
        expected = expected + c * faulhaber(j, MANY_TERM_COUNT)
    assert sum_polynomial(p, MANY_TERM_COUNT) == expected


@pytest.mark.parametrize("text", GROSS_SUMMANDS)
def test_a_closed_form_substitutes_the_count_once(monkeypatch, text):
    p = summand_polynomial(parse_expression(text), "i")
    assert len({g for c in p.coefficients for _, g in c.terms}) > 1
    calls = []
    substitute = core._polynomial_at
    monkeypatch.setattr(core, "_polynomial_at", lambda *args: calls.append(args) or substitute(*args))
    sum_polynomial(p, MANY_TERM_COUNT)
    assert len(calls) == 1
    sum_alternating_polynomial(p, 2 * G1 - 1)  # the plain sum and its even half
    assert len(calls) == 3


# --------------------------------------------------------- alternating sums


def test_alternating_unit_counts():
    assert sum_alternating_polynomial(UNIT, 2 * G1) == ZERO
    assert sum_alternating_polynomial(UNIT, 2 * G1 - 1) == ONE
    assert sum_alternating_polynomial(UNIT, from_int(5)) == ONE
    assert sum_alternating_polynomial(UNIT, from_int(0)) == ZERO


def test_alternating_unit_needs_parity():
    with pytest.raises(ParityUndefined):
        sum_alternating_polynomial(UNIT, G1 + monomial(1, -1))


def test_sum_expression_refuses_a_count_that_is_not_a_non_negative_integer():
    # sum_polynomial itself stays an identity for any count
    assert sum_polynomial(IDENTITY, from_int(-1)) == ZERO
    summand = parse_expression("i")
    with pytest.raises(EvalError, match="not -1"):
        summation.sum_expression(summand, from_int(-1))
    for count in (ONE / 2, monomial(1, -1), HALF_G1 + Fraction(1, 2)):
        with pytest.raises(ParityUndefined, match="an item count is a non-negative integer"):
            summation.sum_expression(summand, count)
    assert summation.sum_expression(summand, HALF_G1) == sum_polynomial(IDENTITY, HALF_G1)


def test_alternating_identity_sums():
    assert sum_alternating_polynomial(IDENTITY, G1) == scalar_mul(Fraction(-1, 2), G1)
    assert sum_alternating_polynomial(IDENTITY, G1 - 1) == HALF_G1
    assert sum_alternating_polynomial(IDENTITY, G1 + 1) == HALF_G1 + 1


def test_alternating_matches_brute_force():
    for p in (IDENTITY, UNIT, SQUARES, ODDS):
        running = Fraction(0)
        poly = [as_rational(c) for c in p.coefficients]
        for k in range(0, 60):
            if k:
                value = sum(c * Fraction(k) ** j for j, c in enumerate(poly))
                running += value if k % 2 else -value
            assert as_rational(sum_alternating_polynomial(p, from_int(k))) == running


def half_split(text, k):
    """The alternating sum of the summand ``text`` in i, as the odd-indexed
    items p(2i-1) over (k+odd)/2 items less the even-indexed items p(2i)
    over (k-odd)/2: the closed form that the shifted rows replaced."""
    odd = 0 if parity(k) is Parity.EVEN else 1
    odds, evens = (summand_polynomial(parse_expression(text.replace("i", item)), "i") for item in ("(2*i-1)", "(2*i)"))
    return sum_polynomial(odds, scalar_mul(Fraction(1, 2), k + odd)) - sum_polynomial(
        evens, scalar_mul(Fraction(1, 2), k - odd)
    )


@pytest.mark.parametrize("k", [ZERO, from_int(7), 2 * G1, 2 * G1 - 1, MANY_TERM_COUNT],
                         ids=["0", "7", "2G1", "2G1-1", "many-term"])
@pytest.mark.parametrize("text", GROSS_SUMMANDS + ["3/2*i^3 - 1/4*i^2 + 2*i - 7/3"])
def test_alternating_sum_matches_the_half_split(text, k):
    p = summand_polynomial(parse_expression(text), "i")
    assert sum_alternating_polynomial(p, k) == half_split(text, k)


@pytest.mark.parametrize("k", [G1 + monomial(1, -1), HALF_G1 + Fraction(1, 2)])
def test_alternating_sum_needs_a_count_with_a_parity(k):
    p = summand_polynomial(parse_expression("3/2*i^3 - 1/4*i^2 + 2*i - 7/3"), "i")
    with pytest.raises(ParityUndefined):
        sum_alternating_polynomial(p, k)


# --------------------------------------- count-free identities at gross counts


def value_at(p, k):
    """p(k) by Horner's rule on gross-numbers."""
    value = ZERO
    for c in reversed(p.coefficients):
        value = value * k + c
    return value


def integer_like(x, n):
    """A count with a parity: the terms of x with a positive grosspower, plus n."""
    return normalize([t for t in x.terms if t.exponent > 0]) + n


summands = st.lists(gross_numbers(2, 3), max_size=4).map(PolynomialSummand.from_coefficients)


@given(summands, gross_numbers(2, 3))
def test_sum_differences_are_the_last_item(p, k):
    assert sum_polynomial(p, k) - sum_polynomial(p, k - 1) == value_at(p, k)


@given(summands, gross_numbers(2, 3), st.integers(-3, 3))
def test_alternating_differences_are_the_signed_last_item(p, x, n):
    k = integer_like(x, n)
    item = value_at(p, k)
    last = item if parity(k) is Parity.ODD else -item
    assert sum_alternating_polynomial(p, k) - sum_alternating_polynomial(p, k - 1) == last


def test_sum_differences_at_infinite_counts():
    p = PolynomialSummand.from_coefficients([G1 - 1, monomial(3, G1), 0, monomial(Fraction(1, 2), -1)])
    for k in (G1, 2 * G1 - 1, monomial(1, G1) + 3 * G1 + 1, monomial(2, HALF_G1) - 7):
        assert sum_polynomial(p, k) - sum_polynomial(p, k - 1) == value_at(p, k)
        sign = 1 if parity(k) is Parity.ODD else -1
        difference = sum_alternating_polynomial(p, k) - sum_alternating_polynomial(p, k - 1)
        assert difference == sign * value_at(p, k)


# ----------------------------------------------------------- brute force op


def test_sum_finite_generic_examples():
    alternating_i = parse_expression("(-1)^(i + 1) * i")
    assert sum_finite_generic(alternating_i, 7) == from_int(4)
    assert sum_finite_generic(alternating_i, 7) == sum_alternating_polynomial(
        IDENTITY, from_int(7)
    )
    assert sum_finite_generic(parse_expression("i^2"), 10) == from_int(385)
    assert sum_finite_generic(parse_expression("1"), 0) == ZERO


def test_sum_finite_generic_rejects_negative_count():
    with pytest.raises(ValueError):
        sum_finite_generic(parse_expression("i"), -1)


def test_sum_finite_generic_refuses_a_count_above_the_cap():
    assert sum_finite_generic(parse_expression("1"), MAX_SUM_ITEMS) == from_int(MAX_SUM_ITEMS)
    message = f"a sum without a closed form adds at most {MAX_SUM_ITEMS} items, not {MAX_SUM_ITEMS + 1}"
    with pytest.raises(LimitExceeded, match=message):
        sum_finite_generic(parse_expression("2^i"), MAX_SUM_ITEMS + 1)


# ------------------------------------------------------ summand extraction


def test_summand_polynomial_extraction():
    poly = summand_polynomial(parse_expression("2*i - 1"), "i")
    assert poly.coefficients == (from_int(-1), from_int(2))
    poly = summand_polynomial(parse_expression("(i + 1) * (i - 1)"), "i")
    assert poly.coefficients == (from_int(-1), ZERO, ONE)
    poly = summand_polynomial(parse_expression("i^3 / 2"), "i")
    assert len(poly.coefficients) == 4  # degree 3
    assert poly.coefficients[3] == scalar_mul(Fraction(1, 2), ONE)
    poly = summand_polynomial(parse_expression("G1 * i"), "i")
    assert poly.coefficients == (ZERO, G1)


def test_summand_polynomial_constant():
    poly = summand_polynomial(parse_expression("G1 - 1"), "i")
    assert poly.coefficients == (G1 - 1,)


def test_geometric_summands_are_rejected():
    with pytest.raises(UnsupportedSummand):
        summand_polynomial(parse_expression("2^i"), "i")
    with pytest.raises(UnsupportedSummand):
        summand_polynomial(parse_expression("1 / i"), "i")
    with pytest.raises(UnsupportedSummand):
        summand_polynomial(parse_expression("f(i)"), "i")


def test_summand_degree_is_capped(monkeypatch):
    monkeypatch.setattr(summation, "MAX_SUMMAND_DEGREE", 3)
    assert len(summand_polynomial(parse_expression("(i + 1)^3 - i*i*i"), "i").coefficients) == 3
    for text in ("i^4", "(i^2)^2", "i*i*i*i", "(i + G1)^2 * (i - 1)^2"):
        with pytest.raises(LimitExceeded, match="a polynomial summand has degree at most 3, not 4"):
            summand_polynomial(parse_expression(text), "i")
    with pytest.raises(LimitExceeded, match="a polynomial summand has degree at most 3, not 100000"):
        summand_polynomial(parse_expression("(i - i + 1)^100000"), "i")


@pytest.mark.parametrize("summand, degree", [("i^200", 200), ("i^100000", 100000), ("(i^2)^60", 120)])
def test_a_power_above_the_degree_cap_names_its_own_degree(summand, degree, capsys):
    # checked before the power's first product, at the degree it would reach
    assert main(["sum", "--summand", summand, "--upper", "3"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: a polynomial summand has degree at most 100, not {degree}\n")


def test_sum_with_a_summand_above_the_degree_cap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(summation, "MAX_SUMMAND_DEGREE", 3)
    assert main(["sum", "--summand", "i^3", "--upper", "G1"]) == 0
    assert main(["sum", "--summand", "i^4", "--upper", "2*G1-1", "--alternating"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("0.25*G1^{4} + 0.5*G1^{3} + 0.25*G1^{2}\n", "error: a polynomial summand has degree at most 3, not 4\n")


def test_extracting_a_power_does_no_gross_arithmetic(monkeypatch):
    calls = []
    for name in ("multiply", "add"):
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    poly = summand_polynomial(parse_expression("(i + G1 + G1^{-1})^100"), "i")
    # the base's two +, each adding the coefficients of i^0 and of i^1; the
    # power runs on core's integer kernel
    assert calls == ["add"] * 4
    assert len(poly.coefficients) == 101
    assert poly.coefficients[100] == ONE and poly.coefficients[99] == 100 * (G1 + monomial(1, -1))


def test_alternating_sum_of_a_long_power_keeps_its_output(capsys):
    argv = ["sum", "--summand", "(i+G1+G1^{-1})^100", "--upper", "2*G1-1", "--alternating"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (len(out), err) == (14386, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "68eb10bac7f7d6aa"


@pytest.mark.parametrize("summand, upper", [("(i-i)^0", "3"), ("(0*i)^0", "G1"), ("(i-i)^0 + 0*2^i", "3")])
def test_zero_to_the_power_0_in_a_summand_is_an_error(summand, upper, capsys):
    # one rule on both paths, as in eval "(1-1)^0"
    assert main(["sum", "--summand", summand, "--upper", upper]) == 3
    assert capsys.readouterr() == ("", "error: 0 cannot be raised to the power 0\n")
    assert main(["eval", "(1-1)^0"]) == 3
    assert capsys.readouterr() == ("", "error: 0 cannot be raised to the power 0\n")
    assert main(["sum", "--summand", "(i - i + 1)^0", "--upper", "3"]) == 0
    assert capsys.readouterr() == ("3\n", "")


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.integers(0, 30))
def test_extracted_polynomial_agrees_with_evaluator(coeffs, k):
    text = " + ".join(f"({c}) * i^{j}" for j, c in enumerate(coeffs))
    ast = parse_expression(text)
    poly = summand_polynomial(ast, "i")
    assert sum_polynomial(poly, from_int(k)) == sum_finite_generic(ast, k)
