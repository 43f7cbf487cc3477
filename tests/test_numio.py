"""Lexer, number/expression/statement parsers and the canonical printer."""

import doctest
import re
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from grossone import numio
from grossone.core import (
    GROSSONE,
    ONE,
    ZERO,
    from_int,
    from_rational,
    monomial,
    normalize,
    power_int,
    scalar_mul,
)
from grossone.errors import DepthLimitExceeded, LimitExceeded, ParseError, UnknownCharacter
from grossone.numio import (
    MAX_NESTING,
    Binary,
    Branch,
    Call,
    Compare,
    LetBinding,
    Literal,
    PiecewiseDef,
    Token,
    Unary,
    Var,
    lex,
    operator_chain,
    parse_expression,
    parse_number,
    parse_statement,
    print_canonical,
)

from support import gross_numbers

G1 = GROSSONE

EXAMPLE_NUMERAL = (
    "17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02 "
    "+ 52.1*G1^{-9.2} - 0.23*G1^{-3.7*G1}"
)


# ------------------------------------------------------------------ lexer


def test_lex_simple():
    kinds = [t.kind for t in lex("G1 + 1")]
    assert kinds == ["G1", "+", "number", ""]
    # a glyph lexes to the kind of its ASCII spelling and keeps its lexeme
    glyphs, spelled = lex("≤ ≥ ①"), lex("<= >= G1")
    assert [t.kind for t in glyphs] == [t.kind for t in spelled] == ["<=", ">=", "G1", ""]
    assert [t.lexeme for t in glyphs] == ["≤", "≥", "①", ""]


def test_lex_braced_exponent():
    kinds = [t.kind for t in lex("①^{-9.2}")][:-1]
    assert kinds == ["G1", "^", "{", "-", "number", "}"]


def test_lex_second_dot_is_an_error():
    with pytest.raises(UnknownCharacter) as err:
        lex("17.2.1")
    assert err.value.line == 1
    assert err.value.column == 5


def test_lex_unknown_character_position():
    with pytest.raises(UnknownCharacter) as err:
        lex("1 +\n  2 @ 3")
    assert (err.value.line, err.value.column) == (2, 5)


def test_lex_slash_is_always_a_token():
    # one lexer: the literal grammar reads integer '/' integer from the
    # same three tokens that expressions read as a division
    assert parse_number("1/3*G1") == scalar_mul(Fraction(1, 3), G1)
    kinds = [t.kind for t in lex("1/3*G1")][:3]
    assert kinds == ["number", "/", "number"]


def test_lex_keywords_and_idents():
    kinds = {t.lexeme: t.kind for t in lex("let def if x G1x")[:-1]}
    assert kinds["let"] == "let"
    assert kinds["def"] == "def"
    assert kinds["if"] == "if"
    assert kinds["x"] == "name"
    assert kinds["G1x"] == "name"


# The lexer's character classes: a decimal is ASCII digits only, a word
# starts with a letter or '_' and goes on over what str.isalnum() accepts,
# but the glyph ① is always a token of its own.


@pytest.mark.parametrize("text", ["x①", "G1①"])
def test_lex_grossone_glyph_ends_a_word(text):
    tokens = lex(text)
    assert [t.lexeme for t in tokens] == [text[:-1], "①", ""]
    assert tokens[1].kind == "G1"


@pytest.mark.parametrize("text", ["²", "½", "Ⅻ", "٣", "\v", "\u00a0"])
def test_lex_non_ascii_digits_and_other_spaces_are_unknown(text):
    with pytest.raises(UnknownCharacter) as err:
        lex(text)
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.message == f"unexpected character {text!r}"


@pytest.mark.parametrize("text", ["x²", "x٣", "é1", "_1"])
def test_lex_word_goes_on_over_any_alphanumeric(text):
    assert [(t.kind, t.lexeme) for t in lex(text)] == [("name", text), ("", "")]


@pytest.mark.parametrize("text", ["1.", "1..2"])
def test_lex_point_needs_digits_after_it(text):
    with pytest.raises(UnknownCharacter) as err:
        lex(text)
    assert (err.value.line, err.value.column) == (1, 2)


def test_long_decimal_converts_each_digit_run_on_its_own():
    # each digit run is within Python's int-from-text limit; the two together are not
    value = parse_number("1" * 4000 + "." + "1" * 4000)
    assert value == from_rational(Fraction(int("1" * 4000)) + Fraction(int("1" * 4000), 10**4000))


# The lexer with one capture group per kind of token and one branch per
# group, as it was before kinds came from a table; lex must tokenize every
# text as it does and refuse every text at the same place.
_REFERENCE_TOKEN = re.compile(
    r"[ \t\r\n]*(?:([-+*/^(){},=;≤≥①]|[<>]=?)|([0-9]+(?:\.[0-9]+)?)|([^\W①]+)|(.|\Z))", re.S
)


def reference_lex(text):
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        group = m.lastindex
        lexeme, offset = m[group], m.start(group)
        if group == 1:
            tokens.append(Token({"≤": "<=", "≥": ">=", "①": "G1"}.get(lexeme, lexeme), lexeme, offset))
        elif group == 2:
            tokens.append(Token("number", lexeme, offset))
        elif group == 3 and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(Token(lexeme if lexeme in ("G1", "let", "def", "if") else "name", lexeme, offset))
        elif lexeme:
            line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
            raise UnknownCharacter(f"unexpected character {lexeme[0]!r}", line, column)
        else:
            tokens.append(Token("", "", offset))
            break
    return tokens


# Every operator, its glyphs, the keywords, digits and '.', letters and '_',
# whitespace, a non-ASCII digit and a character that is no token.
_LEXER_PIECES = [
    *"+-*/^(){},=;<>", "<=", ">=", "≤", "≥", "①", "G1", "let", "def", "if",
    "0", "7", "12", ".", "a", "x", "G", "é", "_", " ", "\t", "\n", "\r", "٣", "$",
]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=16).map("".join))
def test_lex_matches_the_reference_lexer(text):
    try:
        expected = reference_lex(text)
    except UnknownCharacter as err:
        with pytest.raises(UnknownCharacter) as got:
            lex(text)
        assert (got.value.line, got.value.column, got.value.message) == (err.line, err.column, err.message)
    else:
        tokens = lex(text)
        assert tokens == expected
        assert all(type(token) is Token for token in tokens)


# Positions: an expression's tokens, as text, joined by generated whitespace.
_LEAF_TOKENS = st.sampled_from(["1", "2.5", "G1", "①", "x", "y_1"]).map(lambda leaf: [leaf])


def _compound_tokens(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(["+", "-", "*", "/", "^"]), parts).map(lambda t: [*t[0], t[1], *t[2]]),
        parts.map(lambda p: ["(", *p, ")"]),
        parts.map(lambda p: ["-", *p]),
        parts.map(lambda p: ["f", "(", *p, ")"]),
        parts.map(lambda p: ["G1", "^", "{", *p, "}"]),
    )


_EXPRESSION_TOKENS = st.recursive(_LEAF_TOKENS, _compound_tokens, max_leaves=8)


def _spaced(data, tokens, before=None):
    """The tokens with whitespace drawn for each gap, and '@' in front of
    token ``before`` (len(tokens): at the end)."""
    gaps = data.draw(st.lists(st.text(" \t\r\n", max_size=3), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    pieces = [gaps[0]]
    for index, token in enumerate(tokens):
        pieces.append(("@" if index == before else "") + token + gaps[index + 1])
    if before == len(tokens):
        pieces.append("@")
    return "".join(pieces)


@given(_EXPRESSION_TOKENS, st.data())
def test_whitespace_between_tokens_leaves_the_ast_unchanged(tokens, data):
    assert parse_expression(_spaced(data, tokens)) == parse_expression("".join(tokens))


@given(_EXPRESSION_TOKENS, st.data())
def test_unknown_character_is_reported_where_it_stands(tokens, data):
    text = _spaced(data, tokens, before=data.draw(st.integers(0, len(tokens))))
    line, column = 1, 1
    for ch in text[: text.index("@")]:
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    with pytest.raises(UnknownCharacter) as err:
        parse_expression(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, "unexpected character '@'")


# --------------------------------------------------------- number literals


def test_parse_example_numeral():
    value = parse_number(EXAMPLE_NUMERAL)
    assert len(value.terms) == 5
    assert value.terms[0].coefficient == Fraction("17.21")
    assert value.terms[0].exponent == scalar_mul(Fraction("52.4"), G1) - Fraction("72.1")
    assert value.terms[1].exponent == from_rational(Fraction("81.43"))
    assert value.terms[2] == (Fraction("7.02"), ZERO)
    assert value.terms[3].exponent == from_rational(Fraction("-9.2"))
    assert value.terms[4] == (Fraction("-0.23"), scalar_mul(Fraction("-3.7"), G1))


def test_parse_zero_and_plain_forms():
    assert parse_number("0") == ZERO
    assert parse_number("G1") == G1
    assert parse_number("-G1") == -G1
    assert parse_number("G1^{G1}") == monomial(1, G1)
    assert parse_number("3/4") == from_rational(Fraction(3, 4))
    assert parse_number("2*G1 + 1 - G1") == G1 + 1


def test_parse_number_merges_duplicate_exponents():
    assert parse_number("G1 + G1") == 2 * G1


def test_parse_number_errors():
    with pytest.raises(ParseError):
        parse_number("G1 +")
    with pytest.raises(ParseError):
        parse_number("17.21 * 52")
    with pytest.raises(ParseError):
        parse_number("1/0")
    with pytest.raises(ParseError):
        parse_number("x + 1")


def test_parse_number_fraction_may_have_spaces():
    assert parse_number("1 / 3") == from_rational(Fraction(1, 3))
    for text in ("1/3.5", "1.5/3", "1/0", "1/-3"):
        with pytest.raises(ParseError):
            parse_number(text)


def test_parse_number_nesting_limit():
    assert parse_number("G1^{G1^{G1}}") == monomial(1, monomial(1, G1))
    deepest = "G1^{" * MAX_NESTING + "G1" + "}" * MAX_NESTING
    value = parse_number(deepest)
    assert print_canonical(value) == deepest
    with pytest.raises(DepthLimitExceeded) as err:
        parse_number("G1^{" + deepest + "}")
    assert err.value.message == "nested deeper than 100"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("3/", 1, 3, "expected a denominator"),
        ("3/0", 1, 1, "a fraction is integer / nonzero integer"),
        ("1.5/2", 1, 1, "a fraction is integer / nonzero integer"),
        ("2*", 1, 3, "expected G1"),
        ("2*G1^", 1, 6, "expected '{'"),
        ("G1^{1", 1, 6, "expected '}'"),
        ("G1^2", 1, 4, "expected '{', found '2'"),
        ("2*x", 1, 3, "expected G1, found 'x'"),
        ("- -1", 1, 3, "expected a coefficient or G1"),
        ("3 /\n 0", 1, 1, "a fraction is integer / nonzero integer"),
        ("1\n+ G1^{2\n", 3, 1, "expected '}'"),
    ],
)
def test_malformed_numeral_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_number(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


# A numeral's terms in any order, some with a zero coefficient or a
# grosspower drawn twice: the coefficient's text and value, its sign,
# whether a unit coefficient is left out, the grosspower, and whether a
# grosspower of 0 or 1 is written in braces.
_COEFFICIENT_TEXTS = st.one_of(
    st.integers(0, 12).map(lambda n: (str(n), Fraction(n))),
    st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda p: (f"{p[0]}/{p[1]}", Fraction(*p))),
    st.tuples(st.integers(0, 12), st.sampled_from(["5", "25", "05", "0"])).map(
        lambda p: (f"{p[0]}.{p[1]}", Fraction(f"{p[0]}.{p[1]}"))
    ),
)
_TERM_GROSSPOWERS = st.one_of(
    st.sampled_from([ZERO, ONE, from_int(2), from_int(-1), G1, from_rational(Fraction(1, 2))]), gross_numbers(2, 3)
)
_NUMERAL_TERMS = st.lists(
    st.tuples(_COEFFICIENT_TEXTS, st.booleans(), st.booleans(), _TERM_GROSSPOWERS, st.booleans()),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200)
@given(_NUMERAL_TERMS, st.booleans())
def test_a_numeral_reads_to_the_normalized_value_of_its_terms(terms, leading_plus):
    pieces, pairs = [], []
    for (text, value), negative, bare, exponent, braced in terms:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative or leading_plus:
            pieces.append("-" if negative else "+")
        if exponent == ZERO and not braced:
            pieces.append(text)
        else:
            power = "G1" if exponent == ONE and not braced else "G1^{" + print_canonical(exponent) + "}"
            pieces.append(power if bare and text == "1" else f"{text}*{power}")
        pairs.append((-value if negative else value, exponent))
    assert parse_number("".join(pieces)) == normalize(pairs)


def _no_normalize(terms):
    raise AssertionError("a canonical numeral went through normalize")


@given(gross_numbers().filter(bool))
def test_a_printed_value_reads_back_without_normalize(x):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numio, "normalize", _no_normalize)
        assert parse_number(print_canonical(x)) == x


@given(gross_numbers())
def test_a_printed_value_reprints_byte_identically(x):
    text = print_canonical(x)
    assert print_canonical(parse_number(text)) == text


# text nested ``n`` levels deep, and the column of the token opening level n
NESTINGS = {
    "parens": (parse_expression, lambda n: ("(" * n + "1" + ")" * n, n)),
    "call arguments": (parse_expression, lambda n: ("f(" * n + "1" + ")" * n, 2 * n)),
    "expression braces": (parse_expression, lambda n: ("x^{" * n + "1" + "}" * n, 3 * n)),
    "literal braces": (parse_number, lambda n: ("G1^{" * n + "1" + "}" * n, 4 * n)),
    "unary minus": (parse_expression, lambda n: ("-" * n + "1", n)),
    "power chain": (parse_expression, lambda n: ("^".join(["2"] * (n + 1)), 2 * n)),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_each_level_kind_stops_at_the_nesting_limit(kind):
    parse, nested = NESTINGS[kind]
    parse("\n  " + nested(MAX_NESTING)[0])
    text, column = nested(MAX_NESTING + 1)
    with pytest.raises(DepthLimitExceeded) as err:
        parse("\n  " + text)
    assert (err.value.line, err.value.column) == (2, column + 2)
    assert err.value.message == "nested deeper than 100"


# ------------------------------------------------------------- expressions


def test_parse_expression_call_tree():
    ast = parse_expression("f(-2*G1^{-1}) * g(G1)")
    assert isinstance(ast, Binary) and ast.op == "*"
    assert isinstance(ast.left, Call) and ast.left.name == "f"
    assert isinstance(ast.right, Call) and ast.right.args == (Literal(GROSSONE),)


def test_parse_expression_binary():
    # a numeral in parentheses is one literal; a sum of a name is an operator
    ast = parse_expression("(G1 - 1) * (G1 + 1)")
    assert isinstance(ast, Binary) and ast.op == "*"
    assert ast.left == Literal(G1 - 1)
    ast = parse_expression("(x - 1) * (x + 1)")
    assert isinstance(ast, Binary) and ast.op == "*"
    assert isinstance(ast.left, Binary) and ast.left.op == "-"


@pytest.mark.parametrize(
    "text, ast",
    [
        ("G1^{2} - 2*G1 + 0.5", Literal(G1**2 - 2 * G1 + Fraction(1, 2))),
        ("-1/3*G1^{-G1}", Literal(scalar_mul(Fraction(-1, 3), monomial(1, -G1)))),
        ("+2", Literal(from_int(2))),
        ("(G1 + 1)", Literal(G1 + 1)),
        ("f(1/2, G1)", Call("f", (Literal(from_rational(Fraction(1, 2))), Literal(G1)))),
        ("G1^{-1} > -G1^{-2}", Compare(">", Literal(monomial(1, -1)), Literal(-monomial(1, -2)))),
    ],
)
def test_a_whole_numeral_operand_is_one_literal(text, ast):
    assert parse_expression(text) == ast


@pytest.mark.parametrize(
    "text, shape",
    [
        ("-2^2", Unary(Binary("^", Literal(from_int(2)), Literal(from_int(2))))),
        ("(1.5/2)", Binary("/", Literal(from_rational(Fraction(3, 2))), Literal(from_int(2)))),
        ("(1/0)", Binary("/", Literal(ONE), Literal(ZERO))),
        ("G1^2", Binary("^", Literal(G1), Literal(from_int(2)))),
        ("(2*G1 * 3)", Binary("*", Binary("*", Literal(from_int(2)), Literal(G1)), Literal(from_int(3)))),
        ("1 + 2*x", Binary("+", Literal(ONE), Binary("*", Literal(from_int(2)), Var("x")))),
    ],
)
def test_an_operand_followed_by_an_operator_keeps_the_expression_path(text, shape):
    assert parse_expression(text) == shape


def test_unary_plus_leaves_no_node():
    assert parse_expression("x^{+2}") == Binary("^", Var("x"), Literal(from_int(2)))
    assert parse_expression("+x") == Var("x")
    assert parse_expression("1 + +x") == Binary("+", Literal(ONE), Var("x"))
    assert parse_expression("-+x") == Unary(Var("x"))
    with pytest.raises(ParseError) as err:
        parse_expression("+")
    assert (err.value.column, err.value.message) == (2, "expected an expression")


def test_parse_expression_incomplete():
    with pytest.raises(ParseError) as err:
        parse_expression("1 +")
    assert err.value.column == 4


def test_parse_expression_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    ast = parse_expression("-2^2")
    assert isinstance(ast, Unary)
    ast = parse_expression("1 + 2 * 3")
    assert isinstance(ast, Binary) and ast.op == "+"
    ast = parse_expression("2^3^2")
    assert isinstance(ast, Binary) and ast.op == "^"
    assert isinstance(ast.right, Binary) and ast.right.op == "^"


def test_operator_chain_walks_the_left_spine():
    first, rest = operator_chain(parse_expression("1 - 2*3/4 + x"))
    assert first == parse_expression("1")
    assert rest == [("-", parse_expression("2*3/4")), ("+", Var("x"))]
    assert operator_chain(parse_expression("2^3")) == (parse_expression("2^3"), [])


def test_parse_expression_comparison():
    ast = parse_expression("G1 > 5")
    assert isinstance(ast, Compare) and ast.op == ">"


# -------------------------------------------------------------- statements


def test_parse_let():
    ast = parse_statement("let z = G1^{-1}")
    assert isinstance(ast, LetBinding) and ast.name == "z"


def test_parse_plain_def():
    ast = parse_statement("def g(x) = x")
    assert isinstance(ast, PiecewiseDef)
    assert ast.branches == (Branch(Var("x")),)


def test_parse_piecewise_def():
    ast = parse_statement("def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }")
    assert isinstance(ast, PiecewiseDef)
    assert [b.relation for b in ast.branches] == ["<", "=", ">"]


def test_piecewise_condition_must_test_parameter():
    with pytest.raises(ParseError):
        parse_statement("def f(x) = { 1 if y < 0 }")


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("def f(x) = { 1 }", 16, "expected 'if' after the branch expression"),
        ("def f(x) = { 1 if x + 1 }", 21, "expected a comparison operator"),
    ],
)
def test_malformed_branch_error_positions(text, column, message):
    with pytest.raises(ParseError) as err:
        parse_statement(text)
    assert (err.value.line, err.value.column, err.value.message) == (1, column, message)


# ---------------------------------------------------------------- printing


def test_print_triangle_sum_form():
    value = scalar_mul(Fraction(1, 2), power_int(G1, 2)) + scalar_mul(Fraction(1, 2), G1)
    assert print_canonical(value) == "0.5*G1^{2} + 0.5*G1"


def test_print_zero():
    assert print_canonical(ZERO) == "0"


def test_print_fraction_coefficients():
    assert print_canonical(scalar_mul(Fraction(1, 3), G1)) == "1/3*G1"
    assert print_canonical(from_rational(Fraction(-1, 3))) == "-1/3"


def test_print_decimal_mode_rounds_for_display():
    value = scalar_mul(Fraction(1, 3), G1)
    assert print_canonical(value, digits=4) == "0.3333*G1"
    assert print_canonical(from_int(5), digits=2) == "5"


def test_example_numeral_round_trip():
    value = parse_number(EXAMPLE_NUMERAL)
    assert parse_number(print_canonical(value)) == value


@given(gross_numbers())
def test_round_trip_property(x):
    assert parse_number(print_canonical(x)) == x


@given(gross_numbers())
def test_printer_never_emits_zero_coefficients(x):
    text = print_canonical(x)
    assert " 0*" not in text and not text.startswith("0*")


# The printer as it was before it read coefficients as integers: Fraction
# comparisons for the sign and a unit coefficient, GrossNumber equality for
# the grosspower 1, and division loops for the powers of 2 and 5.
def reference_print(x, digits=None):
    if not x.terms:
        return "0"
    parts = []
    for index, term in enumerate(x.terms):
        negative = term.coefficient < 0
        body = _reference_term(-term.coefficient if negative else term.coefficient, term.exponent, digits)
        if index == 0:
            parts.append("-" + body if negative else body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


def _reference_term(coefficient, exponent, digits):
    if not exponent.terms:
        return _reference_coefficient(coefficient, digits)
    base = "G1" if exponent == ONE else "G1^{" + reference_print(exponent, digits) + "}"
    if coefficient == 1:
        return base
    return _reference_coefficient(coefficient, digits) + "*" + base


def _reference_coefficient(q, digits):
    try:
        if q.denominator == 1:
            return str(q.numerator)
        if digits is not None:
            if 0 < sys.get_int_max_str_digits() < digits - q.denominator.bit_length() - 1:
                raise ValueError
            return _reference_point(round(q * 10**digits), digits)
        twos = _multiplicity(q.denominator, 2)
        fives = _multiplicity(q.denominator, 5)
        if q.denominator == 2**twos * 5**fives:
            scale = max(twos, fives)
            return _reference_point(q.numerator * 10**scale // q.denominator, scale)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise LimitExceeded(
            f"a coefficient is too long to print: more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _reference_point(scaled, scale):
    if scale == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    text = f"{sign}{scaled // 10**scale}.{scaled % 10**scale:0{scale}d}"
    text = text.rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _multiplicity(n, p):
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


# Negative and unit coefficients, denominators 2^a*5^b and others, halves
# that round to even, and a coefficient too long to print.
_PRINTED_COEFFICIENTS = st.builds(
    Fraction,
    st.one_of(st.integers(-40, 40).filter(bool), st.sampled_from([1, -1, 10**4400 + 1])),
    st.sampled_from([1, 2, 4, 5, 8, 10, 16, 20, 25, 40, 125, 1000, 2**15000, 3, 6, 7, 12, 15, 30]),
)
_PRINTED_GROSSPOWERS = st.one_of(
    st.sampled_from([ZERO, ONE, G1, from_int(-1), from_rational(Fraction(3, 8))]), gross_numbers(2, 3)
)
_PRINTED_INNER = st.builds(normalize, st.lists(st.tuples(_PRINTED_COEFFICIENTS, _PRINTED_GROSSPOWERS), max_size=4))
_PRINTED_VALUES = st.builds(
    normalize, st.lists(st.tuples(_PRINTED_COEFFICIENTS, st.one_of(_PRINTED_GROSSPOWERS, _PRINTED_INNER)), max_size=5)
)
_TOO_LONG = "<a value too long to print>"


def _printed(printer, x, digits):
    try:
        return printer(x, digits)
    except LimitExceeded as err:
        return str(err)


def _assert_prints_as_the_reference(x, digits):
    text = _printed(print_canonical, x, digits)
    assert text == _printed(reference_print, x, digits)
    if digits is None:
        # repr shows the text, or a placeholder where print_canonical refuses
        assert repr(x) == (_TOO_LONG if text.startswith("a coefficient is too long") else text)


@settings(max_examples=300)
@given(_PRINTED_VALUES, st.sampled_from([None, 1, 2, 3, 4]))
def test_print_canonical_matches_the_reference_printer(x, digits):
    _assert_prints_as_the_reference(x, digits)


# hypothesis shows an explicit example's arguments before it runs them, and
# a coefficient too long to print cannot be shown
@pytest.mark.parametrize(
    "x, digits",
    [
        (monomial(10**4400 + 1, ONE), None),
        (monomial(10**4400 + 1, ONE), 2),
        (monomial(Fraction(1, 2**15000), G1), None),
        (monomial(Fraction(1, 3), monomial(Fraction(1, 3), G1)), 10**5),
        (from_rational(Fraction(5, 8)), 2),
        (from_rational(Fraction(-3, 8)), 2),
    ],
)
def test_print_canonical_matches_the_reference_printer_at_its_limits(x, digits):
    _assert_prints_as_the_reference(x, digits)

def test_module_doctests_pass():
    from grossone import summation

    for module in (numio, summation):
        result = doctest.testmod(module)
        assert result.failed == 0
