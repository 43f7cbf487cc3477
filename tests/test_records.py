"""The value and the records across modules: pickle and copy round trips,
immutable fields, and the checks a record runs however it is built."""

import copy
import pickle
from fractions import Fraction

import pytest

from grossone.core import GROSSONE, ONE, ZERO, divide, from_int
from grossone.errors import InvalidModel, InvalidProgression
from grossone.evaluator import Env
from grossone.setcalc import NATURALS, ProbabilityModel, ProgressionSet
from grossone.summation import PolynomialSummand

G1 = GROSSONE
NESTED = G1**G1 + G1


VALUES = {
    "nested": NESTED,
    "division": divide(ONE, G1 + 1, 3),
    "env": Env().bind("a", NESTED),
    "naturals": NATURALS,
    "model": ProbabilityModel(G1, ONE),
    "summand": PolynomialSummand.from_coefficients([1, G1]),
}


ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_values_survive_pickle_and_copy(name, trip):
    value = VALUES[name]
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    assert back == value
    if name == "nested":
        assert hash(back) == hash(value)


def test_binding_leaves_the_default_bindings_alone():
    Env().bind("a", NESTED)
    assert "a" not in Env().bindings
    assert set(Env().bindings) == {"N", "E", "true", "false"}


@pytest.mark.parametrize(
    "record, field",
    [
        (VALUES["division"], "quotient"),
        (Env(), "bindings"),
        (NATURALS, "count"),
        (VALUES["model"], "favorable"),
        (VALUES["summand"], "coefficients"),
    ],
)
def test_record_fields_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, ZERO)


def test_a_record_equals_the_plain_tuple_of_its_fields():
    result = VALUES["division"]
    assert result == (result.quotient, result.remainder)
    assert NATURALS == (ONE, 1, G1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProgressionSet(ONE, Fraction(0), G1),
        lambda: ProgressionSet(start=ONE, step=Fraction(1), count=ZERO),
        lambda: ProgressionSet(ONE, Fraction(1), count=from_int(-2)),
    ],
)
def test_a_progression_checks_its_fields_by_position_and_keyword(build):
    with pytest.raises(InvalidProgression):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProbabilityModel(ZERO, ZERO),
        lambda: ProbabilityModel(total=G1, favorable=G1 + 1),
        lambda: ProbabilityModel(G1, favorable=from_int(-1)),
    ],
)
def test_a_model_checks_its_fields_by_position_and_keyword(build):
    with pytest.raises(InvalidModel):
        build()
