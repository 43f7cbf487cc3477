"""Cardinality arithmetic for progression sets and infinitesimal probability.

Sets are arithmetic progressions carrying an explicit gross-number element
count, which is what makes statements like "the even naturals have G1/2
elements" representable: the naturals are the progression 1, 2, ..., G1
with count G1, and every affine image keeps the count of its source.
Membership, subset checks and element counts are all decided exactly.

The probability model is counting at a chosen resolution: a sample space
of K elementary events and m favorable ones give P = m/K, which is a
positive infinitesimal whenever m is finite and K infinite.  Only the
impossible event has probability zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from . import core
from .core import (
    GROSSONE,
    GrossLike,
    GrossNumber,
    NumClass,
    ONE,
    ZERO,
    as_gross,
    compare,
    from_int,
    from_rational,
    is_integer_like,
    scalar_mul,
)
from .errors import (
    AlreadyMember,
    InvalidModel,
    InvalidProgression,
    NotAMember,
    NotASubset,
)


@dataclass(frozen=True)
class ProgressionSet:
    """Arithmetic progression start, start+step, ... with ``count`` elements."""

    start: GrossNumber
    step: Fraction
    count: GrossNumber

    def __post_init__(self):
        if self.step == 0:
            raise InvalidProgression("step must be nonzero")
        if not is_integer_like(self.count) or core.sign(self.count) <= 0:
            raise InvalidProgression("count must be a positive integer-like gross-number")

    def element_at(self, index: GrossLike) -> GrossNumber:
        """The index-th element (1-based); no range check."""
        return self.start + scalar_mul(self.step, as_gross(index) - 1)

    @property
    def last(self) -> GrossNumber:
        return self.element_at(self.count)


NATURALS = ProgressionSet(ONE, Fraction(1), GROSSONE)
EVEN_NATURALS = ProgressionSet(from_int(2), Fraction(2), scalar_mul(Fraction(1, 2), GROSSONE))


def finite_set(lo: int, hi: int) -> ProgressionSet:
    """The finite set {lo, lo+1, ..., hi}."""
    if hi < lo:
        raise InvalidProgression("empty range")
    return ProgressionSet(from_int(lo), Fraction(1), from_int(hi - lo + 1))


def count(s: ProgressionSet) -> GrossNumber:
    return s.count


def _index_of(x: GrossNumber, s: ProgressionSet) -> GrossNumber:
    return scalar_mul(1 / s.step, x - s.start) + 1


def member(x: GrossLike, s: ProgressionSet) -> bool:
    """Exact membership test: x must sit at an integer-like index in range."""
    index = _index_of(as_gross(x), s)
    if not is_integer_like(index):
        return False
    return compare(index, ONE) >= 0 and compare(index, s.count) <= 0


def affine_image(s: ProgressionSet, a: Fraction, b: Fraction = Fraction(0)) -> ProgressionSet:
    """Image of the set under y = a*x + b; the count never changes."""
    a = Fraction(a)
    if a == 0:
        raise InvalidProgression("the map must be invertible (a != 0)")
    return ProgressionSet(scalar_mul(a, s.start) + from_rational(Fraction(b)), a * s.step, s.count)


def remove_one(s: ProgressionSet, x: GrossLike) -> GrossNumber:
    """Element count after removing a member: count - 1."""
    if not member(x, s):
        raise NotAMember(f"{core._shown(as_gross(x))} is not an element of the set")
    return s.count - 1


def add_one(s: ProgressionSet, x: GrossLike) -> GrossNumber:
    """Element count after adjoining a non-member: count + 1."""
    if member(x, s):
        raise AlreadyMember(f"{core._shown(as_gross(x))} is already an element of the set")
    return s.count + 1


def product_count(counts: Iterable[GrossLike]) -> GrossNumber:
    """Number of tuples drawn from sets of the given sizes."""
    total = ONE
    for c in counts:
        total = total * as_gross(c)
    return total


def tuple_space_count(base_count: GrossLike, length: GrossLike) -> GrossNumber:
    """Number of length-tuples over a base set: base_count ** length.

    Supported combinations follow gross-number exponentiation; for example
    G1-tuples over the naturals number G1^{G1}, while 2**G1 (binary
    G1-tuples) is not representable and raises UnsupportedExponentiation.
    """
    return core.power_gross(as_gross(base_count), as_gross(length))


def _ascending(s: ProgressionSet) -> ProgressionSet:
    if s.step < 0:
        return ProgressionSet(s.last, -s.step, s.count)
    return s


def proper_subset_strictly_smaller(a: ProgressionSet, b: ProgressionSet) -> bool:
    """Check that a proper subset has a strictly smaller element count.

    Verifies a ⊊ b by progression algebra, then compares counts; proper
    containment must always come out strictly smaller.
    """
    a_asc, b_asc = _ascending(a), _ascending(b)
    if a_asc == b_asc:
        raise NotASubset("the sets are equal")
    ratio = a_asc.step / b_asc.step
    if ratio.denominator != 1:
        raise NotASubset("step is not a multiple of the superset step")
    first = _index_of(a_asc.start, b_asc)
    if not is_integer_like(first):
        raise NotASubset("first element is not in the superset")
    last = first + scalar_mul(ratio, a_asc.count - 1)
    for boundary in (first, last):
        if compare(boundary, ONE) < 0 or compare(boundary, b_asc.count) > 0:
            raise NotASubset("an element falls outside the superset")
    return compare(a.count, b.count) < 0


@dataclass(frozen=True)
class HotelShift:
    accommodated: bool
    evicted_room: GrossNumber


def hotel_shift(rooms: GrossLike) -> HotelShift:
    """Move every guest of a full hotel up one room to free room 1.

    The guest of the last room would need room rooms+1, which does not
    exist, so with no guest allowed to leave nobody new fits: a full hotel
    stays full whether its room count is finite or infinite.
    """
    rooms = as_gross(rooms)
    if not is_integer_like(rooms) or core.sign(rooms) <= 0:
        raise InvalidProgression("room count must be a positive integer-like gross-number")
    return HotelShift(accommodated=False, evicted_room=rooms)


# -------------------------------------------------------------- probability


class EventClass(Enum):
    IMPOSSIBLE = "Impossible"
    INFINITESIMAL_PROBABILITY = "InfinitesimalProbability"
    FINITE_PROBABILITY = "FiniteProbability"
    CERTAIN = "Certain"


class EventExtent(Enum):
    POINT = "Point"
    ARC = "Arc"


@dataclass(frozen=True)
class ProbabilityModel:
    """Sample space of ``total`` equiprobable events, ``favorable`` of them
    favorable."""

    total: GrossNumber
    favorable: GrossNumber

    def __post_init__(self):
        if core.sign(self.total) <= 0:
            raise InvalidModel("the sample space must have a positive number of events")
        if core.sign(self.favorable) < 0:
            raise InvalidModel("the favorable count cannot be negative")
        if compare(self.favorable, self.total) > 0:
            raise InvalidModel("the favorable count cannot exceed the sample space")


def probability(model: ProbabilityModel) -> GrossNumber:
    """P = favorable/total, exactly; infinitesimal when the favorable count
    is finite and the sample space infinite."""
    return core.exact_divide(model.favorable, model.total)


def classify_event(model: ProbabilityModel) -> EventClass:
    if not model.favorable.terms:
        return EventClass.IMPOSSIBLE
    if model.favorable == model.total:
        return EventClass.CERTAIN
    # favorable <= total, so P is infinitesimal exactly when the favorable
    # count's leading grosspower is below the sample space's
    if compare(model.favorable.terms[0].exponent, model.total.terms[0].exponent) < 0:
        return EventClass.INFINITESIMAL_PROBABILITY
    return EventClass.FINITE_PROBABILITY


def event_extent(m: GrossLike) -> EventExtent:
    """Point when the favorable count is finite, arc when it is infinite."""
    cls = core.classify(as_gross(m))
    if cls is NumClass.FINITE_NONZERO:
        return EventExtent.POINT
    if cls is NumClass.INFINITE:
        return EventExtent.ARC
    if cls is NumClass.ZERO:
        raise InvalidModel("the impossible event has no extent")
    raise InvalidModel("a favorable count cannot be infinitesimal")
