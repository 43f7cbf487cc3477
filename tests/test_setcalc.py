"""Progression-set cardinalities, membership, subsets, the hotel shift and
infinitesimal probabilities."""

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
    classify,
    from_int,
    from_rational,
    monomial,
    power_int,
    scalar_mul,
)
from grossone.errors import (
    AlreadyMember,
    InvalidModel,
    InvalidProgression,
    NotAMember,
    NotASubset,
    UnsupportedExponentiation,
)
from grossone.setcalc import (
    EVEN_NATURALS,
    EventClass,
    EventExtent,
    NATURALS,
    ProbabilityModel,
    ProgressionSet,
    add_one,
    affine_image,
    classify_event,
    count,
    event_extent,
    finite_set,
    hotel_shift,
    member,
    probability,
    product_count,
    proper_subset_strictly_smaller,
    remove_one,
    tuple_space_count,
)

G1 = GROSSONE
HALF_G1 = scalar_mul(Fraction(1, 2), G1)


# ------------------------------------------------------------------ counts


def test_counts():
    assert count(NATURALS) == G1
    assert count(EVEN_NATURALS) == HALF_G1
    assert count(finite_set(1, 5)) == from_int(5)


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
    assert count(image) == G1
    assert image.last == 2 * G1
    assert member(2 * G1, image)
    assert member(G1 + 2, image)
    assert not member(2 * G1 + 2, image)
    assert not member(from_int(3), image)


def test_finite_shift_image():
    image = affine_image(finite_set(1, 5), Fraction(1), Fraction(1))
    assert image.start == from_int(2)
    assert image.last == from_int(6)
    assert count(image) == from_int(5)


def test_halving_the_even_numbers():
    image = affine_image(EVEN_NATURALS, Fraction(1, 2))
    assert image.start == ONE
    assert image.step == 1
    assert count(image) == HALF_G1
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
    assert count(affine_image(source, a, b)) == count(source)
    gross_source = ProgressionSet(from_int(start), step, GROSSONE)
    assert count(affine_image(gross_source, a, b)) == GROSSONE


def test_affine_image_requires_invertible_map():
    with pytest.raises(InvalidProgression):
        affine_image(NATURALS, Fraction(0))


# ---------------------------------------------------------- add and remove


def test_remove_and_add_one():
    assert remove_one(NATURALS, from_int(17)) == G1 - 1
    assert remove_one(NATURALS, HALF_G1) == G1 - 1
    assert add_one(NATURALS, G1 + 1) == G1 + 1
    assert add_one(NATURALS, ZERO) == G1 + 1
    assert remove_one(finite_set(1, 5), from_int(3)) == from_int(4)


def test_membership_preconditions():
    with pytest.raises(NotAMember):
        remove_one(NATURALS, G1 + 1)
    with pytest.raises(AlreadyMember):
        add_one(NATURALS, from_int(2))


def test_membership_errors_name_a_value_too_long_to_print():
    with pytest.raises(NotAMember, match="^<a value too long to print> is not"):
        remove_one(NATURALS, -from_int(2**20000))
    with pytest.raises(AlreadyMember, match="^<a value too long to print> is already"):
        add_one(NATURALS, from_int(2**20000))


# -------------------------------------------------------------- tuple counts


def test_product_and_tuple_counts():
    assert product_count([G1, G1]) == power_int(G1, 2)
    assert product_count([from_int(3), from_int(4)]) == from_int(12)
    assert tuple_space_count(G1, G1) == monomial(1, G1)
    assert tuple_space_count(from_int(2), from_int(10)) == from_int(1024)
    with pytest.raises(UnsupportedExponentiation):
        tuple_space_count(from_int(2), G1)


# ------------------------------------------------------------------ subsets


def test_proper_subsets_have_smaller_counts():
    assert proper_subset_strictly_smaller(EVEN_NATURALS, NATURALS)
    assert proper_subset_strictly_smaller(finite_set(1, 5), finite_set(1, 10))
    naturals_without_one = ProgressionSet(from_int(2), Fraction(1), G1 - 1)
    assert proper_subset_strictly_smaller(naturals_without_one, NATURALS)


def test_not_a_subset_cases():
    with pytest.raises(NotASubset):
        proper_subset_strictly_smaller(NATURALS, NATURALS)
    with pytest.raises(NotASubset):
        proper_subset_strictly_smaller(finite_set(1, 10), finite_set(1, 5))
    halves = ProgressionSet(ONE, Fraction(1, 2), from_int(5))
    with pytest.raises(NotASubset):
        proper_subset_strictly_smaller(halves, finite_set(1, 5))
    shifted = affine_image(finite_set(1, 5), Fraction(1), Fraction(1, 3))
    with pytest.raises(NotASubset):
        proper_subset_strictly_smaller(shifted, finite_set(1, 10))


@given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 6), st.integers(0, 20))
def test_nested_progressions_obey_strict_count_order(start_index, ratio, step_num, margin):
    # finite instance: b has 80 elements, a sits inside it by construction
    step = Fraction(step_num, 3)
    b = ProgressionSet(from_int(1), step, from_int(80))
    available = (80 - start_index) // ratio + 1
    a_count = max(1, available - margin)
    if a_count >= 80:
        a_count = 79
    a = ProgressionSet(b.element_at(start_index), step * ratio, from_int(a_count))
    if not (ratio == 1 and start_index == 1 and a_count == 80):
        assert proper_subset_strictly_smaller(a, b)


def test_gross_nested_progression():
    # every r-th natural starting from j0 (r divides j0 so the count is an
    # integer of the extended system), running to the end of the naturals
    for j0, r in [(2, 2), (3, 3), (10, 5)]:
        cnt = scalar_mul(Fraction(1, r), G1 - j0) + 1
        sub = ProgressionSet(from_int(j0), Fraction(r), cnt)
        assert proper_subset_strictly_smaller(sub, NATURALS)


# -------------------------------------------------------------- hotel shift


def test_full_hotel_cannot_absorb_a_new_guest():
    shift = hotel_shift(G1)
    assert shift.accommodated is False
    assert shift.evicted_room == G1
    # the room the last guest would need does not exist
    assert not member(G1 + 1, ProgressionSet(ONE, Fraction(1), G1))


def test_finite_hotel_behaves_the_same():
    shift = hotel_shift(from_int(10))
    assert shift.accommodated is False
    assert shift.evicted_room == from_int(10)


def test_hotel_validation():
    with pytest.raises(InvalidProgression):
        hotel_shift(ZERO)
    with pytest.raises(InvalidProgression):
        hotel_shift(monomial(1, -1))


# -------------------------------------------------------------- probability


def test_point_events_have_infinitesimal_probability():
    model = ProbabilityModel(G1, from_int(3))
    p = probability(model)
    assert p == scalar_mul(3, monomial(1, -1))
    assert p > 0
    assert classify_event(model) is EventClass.INFINITESIMAL_PROBABILITY
    assert event_extent(model.favorable) is EventExtent.POINT


def test_finer_resolution_model():
    model = ProbabilityModel(power_int(G1, 2), from_int(3))
    assert probability(model) == scalar_mul(3, monomial(1, -2))
    assert classify_event(model) is EventClass.INFINITESIMAL_PROBABILITY


def test_only_the_impossible_event_has_probability_zero():
    model = ProbabilityModel(G1, ZERO)
    assert probability(model) == ZERO
    assert classify_event(model) is EventClass.IMPOSSIBLE
    with pytest.raises(InvalidModel):
        event_extent(ZERO)


def test_arc_events():
    model = ProbabilityModel(power_int(G1, 2), G1)
    assert probability(model) == monomial(1, -1)
    assert event_extent(model.favorable) is EventExtent.ARC
    assert classify_event(model) is EventClass.INFINITESIMAL_PROBABILITY


def test_certain_event():
    model = ProbabilityModel(G1, G1)
    assert probability(model) == ONE
    assert classify_event(model) is EventClass.CERTAIN
    assert event_extent(model.favorable) is EventExtent.ARC


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


def test_model_validation():
    with pytest.raises(InvalidModel):
        ProbabilityModel(ZERO, ZERO)
    with pytest.raises(InvalidModel):
        ProbabilityModel(G1, G1 + 1)
    with pytest.raises(InvalidModel):
        ProbabilityModel(G1, from_int(-1))
    with pytest.raises(InvalidModel):
        event_extent(monomial(1, -1))
