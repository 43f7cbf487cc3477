"""Progression-set cardinalities, membership, the counts of subsets, the
hotel shift and infinitesimal probabilities.  Where a claim about counts has
no library name, it is checked as the calculator writes it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from grossone.core import (
    GROSSONE,
    ONE,
    ZERO,
    as_rational,
    compare,
    from_int,
    from_rational,
    monomial,
    power_int,
    scalar_mul,
)
from grossone.errors import (
    InexactDivision,
    InvalidModel,
    InvalidProgression,
    UnsupportedExponentiation,
)
from grossone.evaluator import Env
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

from support import session

G1 = GROSSONE
HALF_G1 = scalar_mul(Fraction(1, 2), G1)
FIVE = ProgressionSet(from_int(1), Fraction(1), from_int(5))


# ------------------------------------------------------------------ counts


def test_counts():
    assert NATURALS.count == G1
    assert EVEN_NATURALS.count == HALF_G1
    assert FIVE.last == from_int(5)


def test_progression_validation():
    with pytest.raises(InvalidProgression):
        ProgressionSet(ONE, Fraction(0), G1)
    with pytest.raises(InvalidProgression):
        ProgressionSet(ONE, Fraction(1), ZERO)
    with pytest.raises(InvalidProgression):
        ProgressionSet(ONE, Fraction(1), from_rational(Fraction(3, 2)))
    with pytest.raises(InvalidProgression):
        ProgressionSet(ONE, Fraction(1), monomial(1, -1))


# -------------------------------------------------------------- membership


def test_membership_of_the_infinite_unit():
    assert member(G1, NATURALS)
    assert member(HALF_G1, NATURALS)
    assert member(from_int(5), NATURALS)
    assert not member(G1 + 1, NATURALS)
    assert not member(from_rational(Fraction(1, 2)), NATURALS)
    assert not member(ZERO, NATURALS)


def test_next_even_number_is_not_natural():
    assert member(G1, EVEN_NATURALS)
    assert not member(G1 + 2, EVEN_NATURALS)
    assert not member(from_int(3), EVEN_NATURALS)


# ------------------------------------------------------------ affine images


def test_doubling_the_naturals_keeps_the_count():
    image = affine_image(NATURALS, Fraction(2))
    assert image.start == from_int(2)
    assert image.step == 2
    assert image.count == G1
    assert image.last == 2 * G1
    assert member(2 * G1, image)
    assert member(G1 + 2, image)
    assert not member(2 * G1 + 2, image)
    assert not member(from_int(3), image)


def test_finite_shift_image():
    image = affine_image(FIVE, Fraction(1), Fraction(1))
    assert image.start == from_int(2)
    assert image.last == from_int(6)
    assert image.count == from_int(5)


def test_halving_the_even_numbers():
    image = affine_image(EVEN_NATURALS, Fraction(1, 2))
    assert image.start == ONE
    assert image.step == 1
    assert image.count == HALF_G1
    # brute agreement on a finite prefix: the halved evens are 1, 2, 3, ...
    for even in range(2, 32, 2):
        assert member(from_rational(Fraction(even, 2)), image)
    for numerator in range(1, 32):
        value = Fraction(numerator, 2)
        assert member(from_rational(value), image) == (value.denominator == 1)


@given(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    st.integers(1, 50),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).filter(lambda a: a != 0),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
def test_affine_image_always_preserves_count(start, step, n, a, b):
    source = ProgressionSet(from_int(start), step, from_int(n))
    assert affine_image(source, a, b).count == source.count
    gross_source = ProgressionSet(from_int(start), step, GROSSONE)
    assert affine_image(gross_source, a, b).count == GROSSONE


def test_affine_image_requires_invertible_map():
    with pytest.raises(InvalidProgression):
        affine_image(NATURALS, Fraction(0))


# ---------------------------------------------------------- add and remove


def test_remove_and_add_one():
    # removing a member leaves count - 1 elements; adjoining a non-member
    # gives count + 1
    assert session("member(17, N)") and session("member(G1 / 2, N)")
    assert session("count(N) - 1") == G1 - 1
    assert not session("member(G1 + 1, N)") and not session("member(0, N)")
    assert session("count(N) + 1") == G1 + 1
    assert member(from_int(3), FIVE) and FIVE.count - 1 == from_int(4)


# -------------------------------------------------------------- tuple counts


def test_product_and_tuple_counts():
    assert product_count([G1, G1]) == power_int(G1, 2)
    assert product_count([from_int(3), from_int(4)]) == from_int(12)
    # length-b tuples over a set of a elements number a^b
    assert session("G1^G1") == monomial(1, G1)
    assert session("2^10") == from_int(1024)
    with pytest.raises(UnsupportedExponentiation):
        session("2^G1")


# ------------------------------------------------------------------ subsets


def assert_part_is_less_than_whole(part, whole):
    """``part`` lies inside ``whole``, ends included, and has fewer elements."""
    assert member(part.start, whole) and member(part.last, whole)
    assert compare(part.count, whole.count) < 0


def test_proper_subsets_have_smaller_counts():
    assert session("count(E) < count(N)")
    assert_part_is_less_than_whole(EVEN_NATURALS, NATURALS)
    assert_part_is_less_than_whole(FIVE, ProgressionSet(ONE, Fraction(1), from_int(10)))
    naturals_without_one = ProgressionSet(from_int(2), Fraction(1), G1 - 1)
    assert_part_is_less_than_whole(naturals_without_one, NATURALS)


@given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 6), st.integers(0, 20))
def test_nested_progressions_obey_strict_count_order(start_index, ratio, step_num, margin):
    # finite instance: b has 80 elements, a sits inside it by construction
    step = Fraction(step_num, 3)
    b = ProgressionSet(from_int(1), step, from_int(80))
    available = (80 - start_index) // ratio + 1
    a_count = max(1, available - margin)
    if a_count >= 80:
        a_count = 79
    first = ProgressionSet(b.start, step, from_int(start_index)).last
    a = ProgressionSet(first, step * ratio, from_int(a_count))
    assert_part_is_less_than_whole(a, b)


def test_gross_nested_progression():
    # every r-th natural starting from j0 (r divides j0 so the count is an
    # integer of the extended system), running to the end of the naturals
    for j0, r in [(2, 2), (3, 3), (10, 5)]:
        cnt = scalar_mul(Fraction(1, r), G1 - j0) + 1
        sub = ProgressionSet(from_int(j0), Fraction(r), cnt)
        assert_part_is_less_than_whole(sub, NATURALS)


# -------------------------------------------------------------- hotel shift


def test_full_hotel_cannot_absorb_a_new_guest():
    # every guest moves up one room to free room 1; the last guest would
    # need room G1 + 1, which does not exist, so nobody new fits
    assert member(G1, NATURALS)
    assert not member(G1 + 1, NATURALS)
    assert not member(G1 + 1, ProgressionSet(ONE, Fraction(1), G1))


def test_finite_hotel_behaves_the_same():
    rooms = ProgressionSet(ONE, Fraction(1), from_int(10))
    assert member(10, rooms)
    assert not member(11, rooms)


# -------------------------------------------------------------- probability


def probability(model, env=Env()):
    """P = favorable/total, divided as ``grossone prob`` divides it."""
    return env.divide(model.favorable, model.total)


def test_point_events_have_infinitesimal_probability():
    model = ProbabilityModel(G1, from_int(3))
    p = probability(model)
    assert p == scalar_mul(3, monomial(1, -1))
    assert p > 0
    assert classify_event(model) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.POINT)


def test_finer_resolution_model():
    model = ProbabilityModel(power_int(G1, 2), from_int(3))
    assert probability(model) == scalar_mul(3, monomial(1, -2))
    assert classify_event(model) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.POINT)


def test_only_the_impossible_event_has_probability_zero():
    model = ProbabilityModel(G1, ZERO)
    assert probability(model) == ZERO
    assert classify_event(model) == (EventClass.IMPOSSIBLE, None)


def test_arc_events():
    model = ProbabilityModel(power_int(G1, 2), G1)
    assert probability(model) == monomial(1, -1)
    assert classify_event(model) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.ARC)


def test_certain_event():
    model = ProbabilityModel(G1, G1)
    assert probability(model) == ONE
    assert classify_event(model) == (EventClass.CERTAIN, EventExtent.ARC)


def test_finite_discrete_model_matches_rational_arithmetic():
    rng = random.Random(11)
    for _ in range(50):
        total = rng.randint(1, 60)
        favorable = rng.randint(0, total)
        model = ProbabilityModel(from_int(total), from_int(favorable))
        assert as_rational(probability(model)) == Fraction(favorable, total)


def test_complementary_probabilities_sum_to_one():
    for favorable in (ZERO, from_int(7), HALF_G1, G1):
        model = ProbabilityModel(G1, favorable)
        complement = ProbabilityModel(G1, G1 - favorable)
        assert probability(model) + probability(complement) == ONE


def test_probability_bounds():
    for favorable in (ZERO, from_int(1), HALF_G1, G1 - 1, G1):
        p = probability(ProbabilityModel(G1, favorable))
        assert ZERO <= p <= ONE
        assert (p == ZERO) == (favorable == ZERO)
        assert (p == ONE) == (favorable == G1)


def test_probability_honours_a_division_budget():
    model = ProbabilityModel(G1 + 1, ONE)
    with pytest.raises(InexactDivision):
        probability(model)
    truncated = probability(model, Env(div_max_terms=3))
    assert truncated == monomial(1, -1) - monomial(1, -2) + monomial(1, -3)
    assert classify_event(model) == (EventClass.INFINITESIMAL_PROBABILITY, EventExtent.POINT)


def test_model_validation():
    with pytest.raises(InvalidModel):
        ProbabilityModel(ZERO, ZERO)
    with pytest.raises(InvalidModel):
        ProbabilityModel(G1, G1 + 1)
    with pytest.raises(InvalidModel):
        ProbabilityModel(G1, from_int(-1))
    for total, favorable in (
        (G1, monomial(1, -1)),
        (from_rational(Fraction(1, 2)), from_rational(Fraction(1, 4))),
        (G1 + monomial(1, -1), ONE),
        (from_int(3), from_rational(Fraction(3, 2))),
    ):
        with pytest.raises(InvalidModel):
            ProbabilityModel(total, favorable)
