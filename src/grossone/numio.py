"""Text format for gross-numbers: lexer, parsers, canonical printer.

The infinite unit is written ``G1`` (the glyph ``①`` is accepted as an
alias).  Number literals::

    number      :=  [sign] term ( sign term )*
    term        :=  coefficient '*' base  |  coefficient  |  base
    base        :=  'G1' [ '^' '{' number '}' ]
    coefficient :=  decimal  |  integer '/' integer      (exact values)

so ``17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02`` is a three-term
numeral.  A bare coefficient means ``c*G1^0``; a bare ``G1`` means
``1*G1^1``.  ``integer '/' integer`` may have spaces around the slash.

Expressions add variables, calls, parentheses and operators with
precedence ``^`` (right-associative) over unary minus over ``* /`` over
``+ -`` over comparisons.  After ``^`` a braced group is allowed, so
``G1^{-1}`` works the same in literals and expressions.

Input nests at most ``MAX_NESTING`` levels: ``(``, a call's arguments,
``{``, the operand of unary minus and the right operand of ``^`` each open
one (``^{`` opens one, not two).  Chains of ``+ - * /`` do not nest.

Statements (one per line in session scripts; '#' starts a comment)::

    let <name> = <expression>
    def <name>(<param>) = <expression>
    def <name>(<param>) = { <expr> if <param> <rel> <expr> ; ... }
    <expression>

The canonical printer emits terms in strictly decreasing grosspower order;
exact mode prints coefficients as decimals when the denominator allows and
as fractions otherwise, and its output re-parses to the identical value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Optional, Tuple

from . import core
from .core import GrossNumber, ONE, ZERO, from_rational, normalize
from .errors import DepthLimitExceeded, LimitExceeded, ParseError, UnknownCharacter

MAX_NESTING = 100

_KEYWORDS = frozenset({"let", "def", "if"})


class TokenKind(Enum):
    DECIMAL_LIT = "decimal"
    GROSSONE = "grossone"
    IDENT = "ident"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    ASSIGN = "="
    KEYWORD = "keyword"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SEMICOLON = ";"
    EOF = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    column: int


_SINGLE_CHAR = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    "=": TokenKind.ASSIGN,
    ";": TokenKind.SEMICOLON,
    "≤": TokenKind.LE,
    "≥": TokenKind.GE,
}


def lex(text: str) -> list[Token]:
    """Tokenize UTF-8 text; error positions are 1-based line/column."""
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        start_line, start_column = line, column
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == "." and j + 1 < n and "0" <= text[j + 1] <= "9":
                j += 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            tokens.append(Token(TokenKind.DECIMAL_LIT, text[i:j], start_line, start_column))
            column += j - i
            i = j
            continue
        if (ch.isalpha() and ch != "①") or ch == "_":
            j = i
            while j < n and ((text[j].isalnum() and text[j] != "①") or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            if lexeme == "G1":
                kind = TokenKind.GROSSONE
            elif lexeme in _KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, lexeme, start_line, start_column))
            column += j - i
            i = j
            continue
        if ch == "①":
            tokens.append(Token(TokenKind.GROSSONE, ch, start_line, start_column))
            column += 1
            i += 1
            continue
        if ch == "<" or ch == ">":
            if i + 1 < n and text[i + 1] == "=":
                kind = TokenKind.LE if ch == "<" else TokenKind.GE
                tokens.append(Token(kind, ch + "=", start_line, start_column))
                column += 2
                i += 2
            else:
                kind = TokenKind.LT if ch == "<" else TokenKind.GT
                tokens.append(Token(kind, ch, start_line, start_column))
                column += 1
                i += 1
            continue
        if ch in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[ch], ch, start_line, start_column))
            column += 1
            i += 1
            continue
        raise UnknownCharacter(f"unexpected character {ch!r}", start_line, start_column)
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens


# ------------------------------------------------------------------ AST


class Ast:
    """Base class for parsed expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Ast):
    value: GrossNumber


@dataclass(frozen=True)
class Var(Ast):
    name: str


@dataclass(frozen=True)
class Unary(Ast):
    op: str
    operand: Ast


@dataclass(frozen=True)
class Binary(Ast):
    op: str
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Call(Ast):
    name: str
    args: Tuple[Ast, ...]


@dataclass(frozen=True)
class Compare(Ast):
    op: str
    left: Ast
    right: Ast


@dataclass(frozen=True)
class Branch:
    """One piecewise branch: ``body`` applies when param <relation>
    breakpoint, and always when ``relation`` is None."""

    body: Ast
    relation: Optional[str] = None
    breakpoint: Optional[Ast] = None


@dataclass(frozen=True)
class PiecewiseDef(Ast):
    """A one-parameter function; its branches are tested in order.  A plain
    ``def g(x) = body`` has the one branch ``Branch(body)``."""

    name: str
    param: str
    branches: Tuple[Branch, ...]
    levels: int = 0  # set by evaluator.make_function: what one call holds


@dataclass(frozen=True)
class LetBinding(Ast):
    name: str
    expr: Ast


def operator_chain(ast: Ast) -> tuple[Ast, list[tuple[str, Ast]]]:
    """The first operand of a ``+ - * /`` chain and the ``(operator,
    operand)`` pairs after it, in order: a loop walks the left spine."""
    rest: list[tuple[str, Ast]] = []
    while isinstance(ast, Binary) and ast.op != "^":
        rest.append((ast.op, ast.right))
        ast = ast.left
    rest.reverse()
    return ast, rest


_RELOP_TOKENS = {
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.ASSIGN: "=",
    TokenKind.GE: ">=",
    TokenKind.GT: ">",
}


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = -1  # the outermost operand is level 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def match(self, *kinds: TokenKind) -> Optional[Token]:
        if self.peek().kind in kinds:
            return self.advance()
        return None

    def expect(self, kind: TokenKind, what: str) -> Token:
        token = self.peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {what}, found {token.lexeme!r}" if token.lexeme else f"expected {what}",
                token.line,
                token.column,
            )
        return self.advance()

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    def nest(self) -> None:
        """Open a level (the caller closes it with ``depth -= 1``); every
        recursive production passes through here."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            opener = self.tokens[self.index - 1]
            raise DepthLimitExceeded(f"nested deeper than {MAX_NESTING}", opener.line, opener.column)


# ------------------------------------------------------- number literals


def parse_number(text: str) -> GrossNumber:
    """Parse a gross-number literal to its canonical value.

    >>> parse_number("G1^{2} - 2*G1 + 0.5") == (
    ...     core.GROSSONE ** 2 - 2 * core.GROSSONE + Fraction(1, 2))
    True
    """
    return _parse_whole(text, _parse_literal)


def _parse_whole(text: str, production: Callable[[_TokenStream], Any]) -> Any:
    stream = _TokenStream(lex(text))
    result = production(stream)
    stream.expect(TokenKind.EOF, "end of input")
    return result


def _parse_literal(stream: _TokenStream) -> GrossNumber:
    stream.nest()
    pairs: list[tuple[Fraction, GrossNumber]] = []
    sign = stream.match(TokenKind.PLUS, TokenKind.MINUS)
    while True:
        coefficient, exponent = _parse_literal_term(stream)
        if sign is not None and sign.kind is TokenKind.MINUS:
            coefficient = -coefficient
        pairs.append((coefficient, exponent))
        sign = stream.match(TokenKind.PLUS, TokenKind.MINUS)
        if sign is None:
            break
    stream.depth -= 1
    return normalize(pairs)


def _parse_literal_term(stream: _TokenStream) -> tuple[Fraction, GrossNumber]:
    token = stream.peek()
    if token.kind is TokenKind.GROSSONE:
        return Fraction(1), _parse_literal_exponent(stream)
    if token.kind is not TokenKind.DECIMAL_LIT:
        raise stream.fail("expected a coefficient or G1")
    stream.advance()
    coefficient = _decimal(token)
    if stream.match(TokenKind.SLASH):
        denominator = stream.expect(TokenKind.DECIMAL_LIT, "a denominator")
        value = _decimal(denominator)
        if "." in token.lexeme + denominator.lexeme or not value:
            raise ParseError("a fraction is integer / nonzero integer", token.line, token.column)
        coefficient /= value
    if stream.match(TokenKind.STAR):
        return coefficient, _parse_literal_exponent(stream)
    return coefficient, ZERO


def _decimal(token: Token) -> Fraction:
    """The value of a DECIMAL_LIT token.  Python converts at most
    ``sys.get_int_max_str_digits()`` digits, so a longer literal is
    malformed input, reported at its position."""
    try:
        return Fraction(token.lexeme)
    except ValueError:
        raise ParseError(
            f"number literal too long: more than {sys.get_int_max_str_digits()} digits",
            token.line,
            token.column,
        ) from None


def _parse_literal_exponent(stream: _TokenStream) -> GrossNumber:
    stream.expect(TokenKind.GROSSONE, "G1")
    if stream.match(TokenKind.CARET):
        stream.expect(TokenKind.LBRACE, "'{'")
        inner = _parse_literal(stream)
        stream.expect(TokenKind.RBRACE, "'}'")
        return inner
    return ONE


# ----------------------------------------------------------- expressions


def parse_expression(text: str) -> Ast:
    return _parse_whole(text, _parse_compare)


def parse_statement(text: str) -> Ast:
    """Parse one session statement: let, def, or a bare expression."""
    return _parse_whole(text, _parse_statement)


def _parse_statement(stream: _TokenStream) -> Ast:
    token = stream.peek()
    if token.kind is TokenKind.KEYWORD and token.lexeme == "let":
        stream.advance()
        name = stream.expect(TokenKind.IDENT, "a name").lexeme
        stream.expect(TokenKind.ASSIGN, "'='")
        return LetBinding(name, _parse_compare(stream))
    if token.kind is TokenKind.KEYWORD and token.lexeme == "def":
        return _parse_def(stream)
    return _parse_compare(stream)


def _parse_def(stream: _TokenStream) -> PiecewiseDef:
    stream.advance()  # def
    name = stream.expect(TokenKind.IDENT, "a function name").lexeme
    stream.expect(TokenKind.LPAREN, "'('")
    param = stream.expect(TokenKind.IDENT, "a parameter name").lexeme
    stream.expect(TokenKind.RPAREN, "')'")
    stream.expect(TokenKind.ASSIGN, "'='")
    if not stream.match(TokenKind.LBRACE):
        return PiecewiseDef(name, param, (Branch(_parse_additive(stream)),))
    branches: list[Branch] = []
    while True:
        body = _parse_additive(stream)
        if_token = stream.peek()
        if not (if_token.kind is TokenKind.KEYWORD and if_token.lexeme == "if"):
            raise stream.fail("expected 'if' after the branch expression")
        stream.advance()
        cond_var = stream.expect(TokenKind.IDENT, "the parameter name")
        if cond_var.lexeme != param:
            raise ParseError(
                f"branch condition must test the parameter {param!r}",
                cond_var.line,
                cond_var.column,
            )
        rel_token = stream.peek()
        relation = _RELOP_TOKENS.get(rel_token.kind)
        if relation is None:
            raise stream.fail("expected a comparison operator")
        stream.advance()
        breakpoint_expr = _parse_additive(stream)
        branches.append(Branch(body, relation, breakpoint_expr))
        if stream.match(TokenKind.SEMICOLON):
            continue
        stream.expect(TokenKind.RBRACE, "';' or '}'")
        break
    return PiecewiseDef(name, param, tuple(branches))


def _parse_compare(stream: _TokenStream) -> Ast:
    left = _parse_additive(stream)
    relation = _RELOP_TOKENS.get(stream.peek().kind)
    if relation is not None:
        stream.advance()
        right = _parse_additive(stream)
        return Compare(relation, left, right)
    return left


def _parse_additive(stream: _TokenStream) -> Ast:
    left = _parse_multiplicative(stream)
    while True:
        token = stream.match(TokenKind.PLUS, TokenKind.MINUS)
        if token is None:
            return left
        right = _parse_multiplicative(stream)
        left = Binary(token.lexeme, left, right)


def _parse_multiplicative(stream: _TokenStream) -> Ast:
    left = _parse_unary(stream)
    while True:
        token = stream.match(TokenKind.STAR, TokenKind.SLASH)
        if token is None:
            return left
        right = _parse_unary(stream)
        left = Binary(token.lexeme, left, right)


def _parse_unary(stream: _TokenStream) -> Ast:
    stream.nest()
    if stream.match(TokenKind.MINUS):
        ast: Ast = Unary("-", _parse_unary(stream))
    else:
        ast = _parse_power(stream)
    stream.depth -= 1
    return ast


def _parse_power(stream: _TokenStream) -> Ast:
    base = _parse_atom(stream)
    if not stream.match(TokenKind.CARET):
        return base
    if stream.match(TokenKind.LBRACE):
        exponent = _parse_additive(stream)
        stream.expect(TokenKind.RBRACE, "'}'")
    else:
        exponent = _parse_unary(stream)
    return Binary("^", base, exponent)


def _parse_atom(stream: _TokenStream) -> Ast:
    token = stream.peek()
    if token.kind is TokenKind.DECIMAL_LIT:
        stream.advance()
        return Literal(from_rational(_decimal(token)))
    if token.kind is TokenKind.GROSSONE:
        stream.advance()
        return Literal(core.GROSSONE)
    if token.kind is TokenKind.IDENT:
        stream.advance()
        if stream.match(TokenKind.LPAREN):
            args: list[Ast] = []
            if stream.peek().kind is not TokenKind.RPAREN:
                args.append(_parse_compare(stream))
                while stream.match(TokenKind.COMMA):
                    args.append(_parse_compare(stream))
            stream.expect(TokenKind.RPAREN, "')'")
            return Call(token.lexeme, tuple(args))
        return Var(token.lexeme)
    if token.kind is TokenKind.LPAREN:
        stream.advance()
        inner = _parse_compare(stream)
        stream.expect(TokenKind.RPAREN, "')'")
        return inner
    raise stream.fail("expected an expression")


# -------------------------------------------------------------- printing


def print_canonical(x: GrossNumber, digits: Optional[int] = None) -> str:
    """Render a gross-number in the literal grammar.

    With ``digits=None`` (exact mode) the text re-parses to the identical
    value; with an integer, coefficients are rounded to that many decimal
    places for display only.

    >>> print_canonical(core.GROSSONE ** 2 - 1)
    'G1^{2} - 1'
    """
    if not x.terms:
        return "0"
    parts: list[str] = []
    for index, term in enumerate(x.terms):
        negative = term.coefficient < 0
        body = _term_text(-term.coefficient if negative else term.coefficient, term.exponent, digits)
        if index == 0:
            parts.append("-" + body if negative else body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


def brace_depth(x: GrossNumber) -> int:
    """How deeply ``print_canonical`` nests braces for x: each grosspower
    other than 0 and 1 opens one ``{``.

    >>> brace_depth(core.GROSSONE ** core.GROSSONE + core.GROSSONE)
    1
    """
    return max(
        (1 + brace_depth(t.exponent) for t in x.terms if t.exponent.terms and t.exponent != ONE),
        default=0,
    )


def _term_text(coefficient: Fraction, exponent: GrossNumber, digits: Optional[int]) -> str:
    if not exponent.terms:
        return _coefficient_text(coefficient, digits)
    if exponent == ONE:
        base = "G1"
    else:
        base = "G1^{" + print_canonical(exponent, digits) + "}"
    if coefficient == 1:
        return base
    return _coefficient_text(coefficient, digits) + "*" + base


def _coefficient_text(q: Fraction, digits: Optional[int]) -> str:
    """A coefficient's digits; Python converts at most
    ``sys.get_int_max_str_digits()`` digits of an integer to text, so a
    longer coefficient raises LimitExceeded."""
    try:
        if digits is not None:
            return _place_point(round(q * 10**digits), digits)
        if q.denominator == 1:
            return str(q.numerator)
        twos = _multiplicity(q.denominator, 2)
        fives = _multiplicity(q.denominator, 5)
        if q.denominator == 2**twos * 5**fives:
            scale = max(twos, fives)
            return _place_point(q.numerator * 10**scale // q.denominator, scale)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise LimitExceeded(
            f"a coefficient is too long to print: more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _place_point(scaled: int, scale: int) -> str:
    if scale == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    text = f"{sign}{scaled // 10**scale}.{scaled % 10**scale:0{scale}d}"
    text = text.rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _multiplicity(n: int, p: int) -> int:
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count
