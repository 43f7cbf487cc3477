"""Shared generators: hypothesis strategies and a seeded mirror of them for
the fixed-count acceptance sweeps; and ``session``, the calculator's value of
a statement."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st

from grossone.core import GrossNumber, from_rational, normalize
from grossone.evaluator import Env, exec_statement
from grossone.numio import parse_statement

# st.fractions is slow to draw from; building from raw integers is cheap
small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
positive_rationals = st.builds(Fraction, st.integers(1, 5), st.integers(1, 6))


def _gross_strategy(max_depth: int, max_terms: int) -> st.SearchStrategy[GrossNumber]:
    if max_depth <= 0:
        return st.builds(from_rational, small_rationals)
    exponents = _gross_strategy(max_depth - 1, 3)
    pairs = st.tuples(small_rationals, exponents)
    return st.builds(normalize, st.lists(pairs, max_size=max_terms))


_DEFAULT_GROSS = _gross_strategy(3, 5)
_SHALLOW_GROSS = _gross_strategy(2, 5)


def gross_numbers(max_depth: int = 3, max_terms: int = 5) -> st.SearchStrategy[GrossNumber]:
    """Canonical gross-numbers of bounded size; exponents are themselves
    drawn from the one-level-shallower strategy."""
    if max_depth == 3 and max_terms == 5:
        return _DEFAULT_GROSS
    if max_depth == 2 and max_terms == 5:
        return _SHALLOW_GROSS
    return _gross_strategy(max_depth, max_terms)


def finite_gross_numbers() -> st.SearchStrategy[GrossNumber]:
    return st.builds(from_rational, small_rationals)


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        q = random_fraction(rng)
        if q != 0:
            return q


def random_gross(rng: random.Random, max_depth: int = 3, max_terms: int = 5) -> GrossNumber:
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        if max_depth > 0 and rng.random() < 0.6:
            exponent = random_gross(rng, max_depth - 1, 2)
        else:
            exponent = from_rational(random_fraction(rng))
        pairs.append((random_fraction(rng), exponent))
    return normalize(pairs)


def random_nonzero_gross(rng: random.Random, max_depth: int = 3, max_terms: int = 5) -> GrossNumber:
    while True:
        x = random_gross(rng, max_depth, max_terms)
        if x.terms:
            return x


def session(text: str):
    """What the calculator computes for the statement ``text``, before it
    is printed: a number, a set or a boolean."""
    return exec_statement(parse_statement(text), Env())[1]
