"""Cardinality arithmetic for progression sets and infinitesimal probability.

Sets are arithmetic progressions carrying an explicit gross-number element
count, which is what makes statements like "the even naturals have G1/2
elements" representable: the naturals are the progression 1, 2, ..., G1
with count G1, and every affine image keeps the count of its source.
Membership and element counts are both decided exactly.

The probability model is counting at a chosen resolution: a sample space
of K elementary events and m favorable ones give P = m/K, divided as any
quotient is, by ``evaluator.Env.divide``.  P is a positive infinitesimal
whenever m is finite and K infinite.  Only the impossible event has
probability zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from . import core
from .core import (
    GROSSONE,
    GrossLike,
    GrossNumber,
    NumClass,
    ONE,
    as_gross,
    compare,
    from_int,
    from_rational,
    is_integer_like,
    scalar_mul,
)
from .errors import InvalidModel, InvalidProgression


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

    @property
    def last(self) -> GrossNumber:
        return self.start + scalar_mul(self.step, self.count - 1)


NATURALS = ProgressionSet(ONE, Fraction(1), GROSSONE)
EVEN_NATURALS = ProgressionSet(from_int(2), Fraction(2), scalar_mul(Fraction(1, 2), GROSSONE))


def member(x: GrossLike, s: ProgressionSet) -> bool:
    """Exact membership test: x must sit at an integer-like index in range."""
    index = scalar_mul(1 / s.step, as_gross(x) - s.start) + 1
    if not is_integer_like(index):
        return False
    return compare(index, ONE) >= 0 and compare(index, s.count) <= 0


def affine_image(s: ProgressionSet, a: Fraction, b: Fraction = Fraction(0)) -> ProgressionSet:
    """Image of the set under y = a*x + b; the count never changes."""
    a = Fraction(a)
    if a == 0:
        raise InvalidProgression("the map must be invertible (a != 0)")
    return ProgressionSet(scalar_mul(a, s.start) + from_rational(Fraction(b)), a * s.step, s.count)


def product_count(counts: Iterable[GrossLike]) -> GrossNumber:
    """Number of tuples drawn from sets of the given sizes."""
    total = ONE
    for c in counts:
        total = total * as_gross(c)
    return total


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
        if not (is_integer_like(self.total) and is_integer_like(self.favorable)):
            raise InvalidModel("event counts must be integer-like gross-numbers")
        if core.sign(self.total) <= 0:
            raise InvalidModel("the sample space must have a positive number of events")
        if core.sign(self.favorable) < 0:
            raise InvalidModel("the favorable count cannot be negative")
        if compare(self.favorable, self.total) > 0:
            raise InvalidModel("the favorable count cannot exceed the sample space")


def classify_event(model: ProbabilityModel) -> tuple[EventClass, Optional[EventExtent]]:
    """The event's class and its extent: an arc when the favorable count is
    infinite, else a point, and none for the impossible event.

    >>> event_class, extent = classify_event(ProbabilityModel(GROSSONE, ONE))
    >>> event_class.name, extent.name
    ('INFINITESIMAL_PROBABILITY', 'POINT')
    """
    favorable, total = model.favorable, model.total
    if not favorable.terms:
        return EventClass.IMPOSSIBLE, None
    extent = EventExtent.ARC if core.classify(favorable) is NumClass.INFINITE else EventExtent.POINT
    if favorable == total:
        return EventClass.CERTAIN, extent
    # favorable <= total, so P is infinitesimal exactly when the favorable
    # count's leading grosspower is below the sample space's
    if compare(favorable.terms[0].exponent, total.terms[0].exponent) < 0:
        return EventClass.INFINITESIMAL_PROBABILITY, extent
    return EventClass.FINITE_PROBABILITY, extent
