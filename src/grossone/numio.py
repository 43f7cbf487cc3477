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
precedence ``^`` (right-associative) over unary ``+ -`` over ``* /`` over
``+ -`` over comparisons.  After ``^`` a braced group is allowed, so
``G1^{-1}`` works the same in literals and expressions.  Wherever a full
expression stands (all of the text, a side of a comparison, a ``( )``
group, a call argument, a ``def`` body, a branch body, a breakpoint or a
``^{ }`` exponent), a whole numeral that no ``* / ^`` follows is read as
one literal, not as a computation, and has the same value.  A numeral is
read in one loop over its terms; when they already strictly decrease and
none has a zero coefficient, they are the value as they stand, and only
otherwise does ``core.normalize`` merge and sort them.

Input nests at most ``core.MAX_NESTING`` levels, as values do: ``(``, a
call's arguments, ``{``, the operand of unary ``+ -`` and the right operand
of ``^`` each open one (``^{`` opens one); a numeral read whole holds one
and counts its braces apart, and one more than ``MAX_NESTING`` braces deep
is refused at its own brace.  ``+ - * /`` chains do not nest.

Statements (one per line in session scripts; '#' starts a comment)::

    let <name> = <expression>
    def <name>(<param>) = <expression>
    def <name>(<param>) = { <expr> if <param> <rel> <expr> ; ... }
    <expression>

The canonical printer emits terms in strictly decreasing grosspower order;
exact mode prints coefficients as decimals when the denominator allows and
as fractions otherwise, and its output re-parses to the identical value.

The lexer is one compiled regular expression with one capture group.  A
token's kind is a plain string, the one thing the parser tests: an
operator's or keyword's canonical text (``≤``, ``≥`` and ``①`` lex as
``<=``, ``>=`` and ``G1``), ``"number"``, ``"name"``, or ``""`` at the end
of input.  One dict lookup on the lexeme gives the kind of every operator,
glyph and keyword; only a lexeme that is not in the dict is told apart by
its first character: a digit starts a number, a letter or ``_`` a name,
and the empty lexeme is the end.  Kinds compare with ``==``, as a
keyword's kind is a slice of the text.  A token carries
its offset in the text; the 1-based line and column of an error are
computed from that offset only when the error is raised.  The parser walks
the token list by index, one method per precedence level.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from . import core
from .core import MAX_NESTING, GrossNumber, GrossTerm, ONE, ZERO, _new_tuple, _ratio, compare, normalize
from .errors import DepthLimitExceeded, LimitExceeded, ParseError, UnknownCharacter


class Token(NamedTuple):
    kind: str
    lexeme: str
    offset: int  # in code points from the start of the text


# Whitespace, then one token: an operator, a decimal (ASCII digits only), a
# word (characters that str.isalnum() accepts and '_', but not the glyph ①;
# lex refuses one that does not start with a letter or '_'), or any other
# character, which is an error.  At the end of the text the token is empty.
_TOKEN = re.compile(r"[ \t\r\n]*([-+*/^(){},=;≤≥①]|[<>]=?|[0-9]+(?:\.[0-9]+)?|[^\W①]+|.|\Z)", re.S)

# The kind of every lexeme but a number's and a name's.
_KINDS = {kind: kind for kind in ("<=", ">=", "G1", "let", "def", "if", *"+-*/^(){},=;<>")}
_KINDS.update({"≤": "<=", "≥": ">=", "①": "G1"})


def lex(text: str) -> list[Token]:
    """Tokenize text; the last token, of kind ``""``, is the end of input,
    at the offset ``len(text)``.

    >>> [(t.kind, t.lexeme, t.offset) for t in lex("x ≤ ①")]
    [('name', 'x', 0), ('<=', '≤', 2), ('G1', '①', 4), ('', '', 5)]
    """
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS.get
    for m in _TOKEN.finditer(text):
        lexeme = m[1]
        kind = kinds(lexeme)
        if kind is None:
            if not lexeme:  # the end, maybe after whitespace: stop before a second match there
                append(_new_tuple(Token, ("", "", m.start(1))))
                break
            first = lexeme[0]
            if "0" <= first <= "9":
                kind = "number"
            elif first.isalpha() or first == "_":
                kind = "name"
            else:
                raise _error(UnknownCharacter, f"unexpected character {first!r}", text, m.start(1))
        append(_new_tuple(Token, (kind, lexeme, m.start(1))))
    return tokens


def _error(cls: type[ParseError], message: str, text: str, offset: int) -> ParseError:
    """The error at ``offset`` in ``text``, with its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return cls(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


# ------------------------------------------------------------------ AST


class Literal(NamedTuple):
    value: GrossNumber


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    operand: Ast  # negated: unary ``+`` leaves no node


class Binary(NamedTuple):
    op: str
    left: Ast
    right: Ast


class Call(NamedTuple):
    name: str
    args: Tuple[Ast, ...]


class Compare(NamedTuple):
    op: str
    left: Ast
    right: Ast


class Branch(NamedTuple):
    """One piecewise branch: ``body`` applies when param <relation>
    breakpoint, and always when ``relation`` is None."""

    body: Ast
    relation: Optional[str] = None
    breakpoint: Optional[Ast] = None


class PiecewiseDef(NamedTuple):
    """A one-parameter function; its branches are tested in order.  A plain
    ``def g(x) = body`` has the one branch ``Branch(body)``."""

    name: str
    param: str
    branches: Tuple[Branch, ...]
    levels: int = 0  # set by evaluator.make_function: what one call holds


class LetBinding(NamedTuple):
    name: str
    expr: Ast


#: A parsed expression or statement.
Ast = Union[Literal, Var, Unary, Binary, Call, Compare, PiecewiseDef, LetBinding]


def operator_chain(ast: Ast) -> tuple[Ast, list[tuple[str, Ast]]]:
    """The first operand of a ``+ - * /`` chain and the ``(operator,
    operand)`` pairs after it, in order: a loop walks the left spine."""
    rest: list[tuple[str, Ast]] = []
    while isinstance(ast, Binary) and ast.op != "^":
        rest.append((ast.op, ast.right))
        ast = ast.left
    rest.reverse()
    return ast, rest


# ------------------------------------------------------------------ parser

# Each relation and the signs of ``core.compare`` for which it holds.
_RELATIONS = {"<": (-1,), "<=": (-1, 0), "=": (0,), ">=": (0, 1), ">": (1,)}

_G1_LITERAL = Literal(core.GROSSONE)
_NUMERAL_STARTS = frozenset({"number", "G1", "+", "-"})
_NOT_AFTER_NUMERAL = frozenset({"*", "/", "^"})
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


class _Parser:
    """One parse of one text: the token list, the index of the next token,
    and the count of open levels, apart from a numeral's braces."""

    __slots__ = ("text", "tokens", "index", "depth")

    def __init__(self, text: str):
        self.text = text
        self.tokens = lex(text)
        self.index = 0
        self.depth = -1  # the outermost operand is level 0

    def fail(self, message: str, offset: Optional[int] = None) -> ParseError:
        """A ParseError at ``offset``, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.index].offset
        return _error(ParseError, message, self.text, offset)

    def expect(self, kind: str, what: str) -> Token:
        token = self.tokens[self.index]
        if token.kind != kind:
            raise self.fail(f"expected {what}, found {token.lexeme!r}" if token.lexeme else f"expected {what}")
        self.index += 1
        return token

    def accept(self, kind: str) -> bool:
        if self.tokens[self.index].kind == kind:
            self.index += 1
            return True
        return False

    def nest(self, level: int) -> int:
        """``level``, opened by the previous token, unless it is deeper than
        ``MAX_NESTING``: every recursive production passes through here."""
        if level > MAX_NESTING:
            opener = self.tokens[self.index - 1]
            raise _error(DepthLimitExceeded, f"nested deeper than {MAX_NESTING}", self.text, opener.offset)
        return level

    def whole(self, production):
        result = production(self)
        self.expect("", "end of input")
        return result

    def decimal(self, token: Token) -> tuple[int, int]:
        """The value of a number token as ``(numerator, 10**places)``.
        Python converts at most ``sys.get_int_max_str_digits()`` digits to
        an int, so a longer run of digits is malformed input, reported at
        its position."""
        whole, _, fraction = token.lexeme.partition(".")
        try:
            if not fraction:
                return int(whole), 1
            scale = 10 ** len(fraction)
            return int(whole) * scale + int(fraction), scale
        except ValueError:
            raise self.fail(
                f"number literal too long: more than {sys.get_int_max_str_digits()} digits", token.offset
            ) from None

    # -- number literals

    def literal(self, braces: int = 0) -> GrossNumber:
        """A numeral, read in one loop over its terms: the coefficient, with
        the sign before it folded in, an optional ``/ integer``, then an
        optional ``* G1 ^{...}``; only ``{`` recurses, and ``braces`` counts
        the ones around this numeral, apart from the parser's levels.  Terms
        that already strictly decrease, none with a zero coefficient, make
        the value as they stand; others go through ``normalize``."""
        self.nest(braces)
        tokens = self.tokens
        terms: list[GrossTerm] = []
        canonical = True
        kind = tokens[self.index].kind
        negative = kind == "-"
        if negative or kind == "+":
            self.index += 1
        while True:
            token = tokens[self.index]
            self.index += 1
            if token.kind == "G1":
                coefficient, has_g1 = _MINUS_ONE if negative else _ONE, True
            elif token.kind == "number":
                numerator, scale = self.decimal(token)
                if tokens[self.index].kind == "/":
                    self.index += 1
                    denominator = self.expect("number", "a denominator")
                    divisor, divisor_scale = self.decimal(denominator)
                    if scale != 1 or divisor_scale != 1 or not divisor:
                        raise self.fail("a fraction is integer / nonzero integer", token.offset)
                    scale = divisor
                canonical = canonical and numerator != 0
                coefficient = _ratio(-numerator if negative else numerator, scale)
                has_g1 = tokens[self.index].kind == "*"
                if has_g1:
                    self.index += 1
                    self.expect("G1", "G1")
            else:
                raise self.fail("expected a coefficient or G1", token.offset)
            if not has_g1:
                exponent = ZERO
            elif tokens[self.index].kind == "^":
                self.index += 1
                self.expect("{", "'{'")
                exponent = self.literal(braces + 1)
                self.expect("}", "'}'")
            else:
                exponent = ONE
            if canonical and terms:
                canonical = compare(terms[-1].exponent, exponent) > 0
            terms.append(_new_tuple(GrossTerm, (coefficient, exponent)))
            kind = tokens[self.index].kind
            if kind != "+" and kind != "-":
                break
            negative = kind == "-"
            self.index += 1
        return GrossNumber(tuple(terms)) if canonical else normalize(terms)

    # -- statements

    def statement(self) -> Ast:
        if self.accept("let"):
            name = self.expect("name", "a name").lexeme
            self.expect("=", "'='")
            return LetBinding(name, self.compare())
        if self.accept("def"):
            return self.definition()
        return self.compare()

    def definition(self) -> PiecewiseDef:
        name = self.expect("name", "a function name").lexeme
        self.expect("(", "'('")
        param = self.expect("name", "a parameter name").lexeme
        self.expect(")", "')'")
        self.expect("=", "'='")
        if not self.accept("{"):
            return PiecewiseDef(name, param, (Branch(self.numeral()),))
        tokens = self.tokens
        branches: list[Branch] = []
        while True:
            body = self.numeral()
            if not self.accept("if"):
                raise self.fail("expected 'if' after the branch expression")
            cond_var = self.expect("name", "the parameter name")
            if cond_var.lexeme != param:
                raise self.fail(f"branch condition must test the parameter {param!r}", cond_var.offset)
            relation = tokens[self.index].kind
            if relation not in _RELATIONS:
                raise self.fail("expected a comparison operator")
            self.index += 1
            branches.append(Branch(body, relation, self.numeral()))
            if not self.accept(";"):
                break
        self.expect("}", "';' or '}'")
        return PiecewiseDef(name, param, tuple(branches))

    # -- expressions, loosest binding first

    def compare(self) -> Ast:
        left = self.numeral()
        relation = self.tokens[self.index].kind
        if relation not in _RELATIONS:
            return left
        self.index += 1
        return Compare(relation, left, self.numeral())

    def numeral(self) -> Ast:
        """A full expression, the parser's one entry for it: one Literal when
        ``literal()`` reads it and no ``* / ^`` follows, holding one level
        whatever its braces, which it refuses past ``MAX_NESTING``; else the
        same tokens read again as a ``+ -`` chain, so an operand that is not
        a numeral keeps its tree and its errors."""
        tokens = self.tokens
        index = self.index
        if tokens[index].kind in _NUMERAL_STARTS:
            self.depth = self.nest(self.depth + 1)
            try:
                value = self.literal()
                if tokens[self.index].kind not in _NOT_AFTER_NUMERAL:
                    return Literal(value)
            except DepthLimitExceeded:
                raise
            except ParseError:
                pass
            finally:
                self.depth -= 1
            self.index = index
        left = self.multiplicative()
        while (op := tokens[self.index].kind) == "+" or op == "-":
            self.index += 1
            left = Binary(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> Ast:
        left = self.unary()
        tokens = self.tokens
        while (op := tokens[self.index].kind) == "*" or op == "/":
            self.index += 1
            left = Binary(op, left, self.unary())
        return left

    def unary(self) -> Ast:
        """Unary ``+ -`` (``+`` leaves no node), or an atom with an optional
        ``^`` exponent, which is a braced expression or, right-associatively,
        another unary."""
        self.depth = self.nest(self.depth + 1)
        tokens = self.tokens
        sign = tokens[self.index].kind
        if sign == "-" or sign == "+":
            self.index += 1
            operand = self.unary()
            ast: Ast = Unary(operand) if sign == "-" else operand
        else:
            ast = self.atom()
            if tokens[self.index].kind == "^":
                self.index += 1
                if tokens[self.index].kind == "{":
                    self.index += 1
                    exponent = self.numeral()
                    self.expect("}", "'}'")
                else:
                    exponent = self.unary()
                ast = Binary("^", ast, exponent)
        self.depth -= 1
        return ast

    def atom(self) -> Ast:
        token = self.tokens[self.index]
        kind = token.kind
        if kind == "number":
            self.index += 1
            numerator, scale = self.decimal(token)
            return Literal(GrossNumber((GrossTerm(_ratio(numerator, scale), ZERO),)) if numerator else ZERO)
        if kind == "G1":
            self.index += 1
            return _G1_LITERAL
        if kind == "name":
            self.index += 1
            if not self.accept("("):
                return Var(token.lexeme)
            args: list[Ast] = []
            if self.tokens[self.index].kind != ")":
                args.append(self.compare())
                while self.accept(","):
                    args.append(self.compare())
            self.expect(")", "')'")
            return Call(token.lexeme, tuple(args))
        if kind == "(":
            self.index += 1
            inner = self.compare()
            self.expect(")", "')'")
            return inner
        raise self.fail("expected an expression")


def parse_number(text: str) -> GrossNumber:
    """Parse a gross-number literal to its canonical value.

    >>> parse_number("G1^{2} - 2*G1 + 0.5") == (
    ...     core.GROSSONE ** 2 - 2 * core.GROSSONE + Fraction(1, 2))
    True
    """
    return _Parser(text).whole(_Parser.literal)


def parse_expression(text: str) -> Ast:
    return _Parser(text).whole(_Parser.compare)


def parse_statement(text: str) -> Ast:
    """Parse one session statement: let, def, or a bare expression."""
    return _Parser(text).whole(_Parser.statement)


# -------------------------------------------------------------- printing


def print_canonical(x: GrossNumber, digits: Optional[int] = None) -> str:
    """Render a gross-number in the literal grammar.

    With ``digits=None`` (exact mode) the text re-parses to the identical
    value; with an integer, coefficients are rounded to that many decimal
    places for display only.  Signs, unit coefficients and the grosspower
    1 are read from the integers of each coefficient.

    >>> print_canonical(core.GROSSONE ** 2 - 1)
    'G1^{2} - 1'
    """
    parts: list[str] = []
    for coefficient, exponent in x.terms:
        numerator, denominator = coefficient.numerator, coefficient.denominator
        if numerator < 0:
            parts.append(" - " if parts else "-")
            numerator = -numerator
        elif parts:
            parts.append(" + ")
        if not exponent.terms:
            parts.append(_coefficient_text(numerator, denominator, digits))
            continue
        if numerator != 1 or denominator != 1:
            parts.append(_coefficient_text(numerator, denominator, digits) + "*")
        (c, p), *rest = exponent.terms  # the grosspower 1 is the one term 1*G1^0
        if rest or p.terms or c.numerator != 1 or c.denominator != 1:
            parts.append("G1^{" + print_canonical(exponent, digits) + "}")
        else:
            parts.append("G1")
    return "".join(parts) or "0"


def _coefficient_text(numerator: int, denominator: int, digits: Optional[int]) -> str:
    """A positive coefficient's digits; Python converts at most
    ``sys.get_int_max_str_digits()`` digits of an integer to text, so a
    longer coefficient raises LimitExceeded, and a fraction asked for more
    ``digits`` than that plus its denominator's bit length, before rounding."""
    try:
        if denominator == 1:
            return str(numerator)
        if digits is not None:
            if 0 < sys.get_int_max_str_digits() < digits - denominator.bit_length() - 1:
                raise ValueError  # at least that many digits after the point
            scaled, rest = divmod(numerator * 10**digits, denominator)
            rest *= 2
            if rest > denominator or (rest == denominator and scaled & 1):  # half to even
                scaled += 1
            return _place_point(scaled, digits)
        twos = (denominator & -denominator).bit_length() - 1
        odd, fives = denominator >> twos, 0
        while odd % 5 == 0:
            odd //= 5
            fives += 1
        if odd != 1:
            return f"{numerator}/{denominator}"
        scale = max(twos, fives)
        return _place_point(numerator * 10**scale // denominator, scale)
    except ValueError:
        raise LimitExceeded(
            f"a coefficient is too long to print: more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _place_point(scaled: int, scale: int) -> str:
    whole, part = divmod(scaled, 10**scale)
    return f"{whole}.{part:0{scale}d}".rstrip("0").rstrip(".")
