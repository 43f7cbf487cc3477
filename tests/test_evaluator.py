"""Direct evaluation of expressions and piecewise functions at infinite and
infinitesimal points."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from grossone.core import (
    GROSSONE,
    ONE,
    ZERO,
    _brace_depth,
    as_rational,
    compare,
    from_int,
    from_rational,
    monomial,
    scalar_mul,
)
from grossone.errors import (
    DivisionByZero,
    EvalError,
    GrossoneError,
    InexactDivision,
    LimitExceeded,
    NoBranchMatched,
    UnboundName,
)
from grossone.evaluator import (
    MAX_CALL_LEVELS,
    Env,
    evaluate_value,
    apply_function,
    evaluate,
    exec_statement,
)
from grossone.numio import (
    Branch,
    LetBinding,
    Literal,
    PiecewiseDef,
    parse_expression,
    parse_number,
    parse_statement,
    print_canonical,
)
from grossone.setcalc import NATURALS, affine_image

from support import gross_numbers, small_rationals

G1 = GROSSONE


def session(*statements: str) -> Env:
    env = Env()
    for statement in statements:
        env, _ = exec_statement(parse_statement(statement), env)
    return env


@pytest.fixture()
def example_env() -> Env:
    return session(
        "def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }",
        "def g(x) = x",
    )


def run(text: str, env: Env, **kwargs):
    return evaluate(parse_expression(text), env, **kwargs)


# ------------------------------------------------- products at chosen points


def test_product_at_infinitesimal_and_infinite_points(example_env):
    assert run("f(G1^{-1}) * g(G1)", example_env) == monomial(1, -2)
    assert run("f(G1^{-1}) * g(G1^{4})", example_env) == G1
    assert run("f(-2*G1^{-1}) * g(G1)", example_env) == from_int(-4)


def test_two_infinitesimals_two_infinities(example_env):
    expr = "f(-5*G1^{-4}) * (g(G1^{2}) / f(-2*G1^{-1}) - 1.25 * g(G1)^3)"
    assert run(expr, example_env) == scalar_mul(15, monomial(1, -1))


def test_quotient_intermediate(example_env):
    assert run("g(G1^{2}) / f(-2*G1^{-1})", example_env) == monomial(Fraction(-1, 4), 3)


def test_finite_inputs_match_rational_arithmetic(example_env):
    # same expression shape as the flagship product, at purely finite points
    expr = "f(-5*z) * (g(y) / f(-2*w) - 1.25 * g(v)^3)"
    env = example_env
    for name, value in [("z", Fraction(1, 3)), ("y", Fraction(7)), ("w", Fraction(2)), ("v", Fraction(1, 2))]:
        env = env.bind(name, from_rational(value))
    got = evaluate(parse_expression(expr), env)
    f_z = 2 * Fraction(-5, 3)
    f_w = 2 * Fraction(-4)
    expected = f_z * (Fraction(7) / f_w - Fraction(5, 4) * Fraction(1, 8))
    assert as_rational(got) == expected


# ------------------------------------------------------------- piecewise


def test_apply_piecewise_branches(example_env):
    f = example_env.lookup("f")
    assert apply_function(f, scalar_mul(-2, monomial(1, -1)), example_env) == scalar_mul(
        -4, monomial(1, -1)
    )
    assert apply_function(f, ZERO, example_env) == ONE
    assert apply_function(f, monomial(1, -1), example_env) == monomial(1, -3)


def test_no_branch_matched():
    fn = PiecewiseDef("f", "x", (Branch(parse_expression("x"), "<", Literal(ZERO)),))
    with pytest.raises(NoBranchMatched, match="^no branch of f matches 1$"):
        apply_function(fn, ONE, Env())


def test_no_branch_matched_names_a_value_too_long_to_print():
    env = session("def f(x) = { 1 if x < 0 }")
    with pytest.raises(NoBranchMatched, match="matches <a value too long to print>"):
        run("f(2^20000)", env)


def test_breakpoints_evaluated_at_definition_time():
    env = session("let b = 5", "def h(x) = { 0 if x < b; 1 if x >= b }")
    fn = env.lookup("h")
    assert fn.branches[0].breakpoint == Literal(from_int(5))
    # rebinding b afterwards must not move the breakpoint
    env = env.bind("b", from_int(100))
    assert run("h(7)", env) == ONE


def test_piecewise_branch_selection_is_total(example_env):
    f = example_env.lookup("f")
    for point in (G1, -G1, monomial(1, -9), ZERO, from_int(3)):
        apply_function(f, point, example_env)  # must never raise


def test_plain_def_builds_expression_function():
    env = session("def double(x) = 2*x")
    assert env.lookup("double").branches == (Branch(parse_expression("2*x")),)
    assert run("double(G1)", env) == 2 * G1


# ------------------------------------------------------------------ errors


def test_unbound_name():
    with pytest.raises(UnboundName):
        run("q + 1", Env())
    with pytest.raises(UnboundName):
        run("h(1)", Env())


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        run("1/0", Env())


def test_division_exactness_flag():
    text = "1 / (1 + G1^{-1})"
    with pytest.raises(InexactDivision):
        run(text, Env())
    truncated = run(text, Env(div_max_terms=3))
    assert truncated == 1 - monomial(1, -1) + monomial(1, -2)


def test_wrong_arity():
    env = session("def g(x) = x")
    with pytest.raises(EvalError):
        run("g(1, 2)", env)


def test_a_statement_is_not_an_expression():
    with pytest.raises(EvalError, match="cannot evaluate LetBinding as an expression"):
        evaluate(LetBinding("x", Literal(ONE)), Env())


def test_comparison_is_not_a_value():
    with pytest.raises(EvalError):
        run("1 < 2", Env())
    assert evaluate_value(parse_expression("1 < 2"), Env()) is True
    assert evaluate_value(parse_expression("G1 <= 5"), Env()) is False
    assert evaluate_value(parse_expression("G1^{-1} > 0"), Env()) is True


# --------------------------------------------------------------- statements


def test_let_binding_and_use():
    env = session("let z = G1^{-1}")
    assert run("z * G1", env) == ONE


def test_exec_statement_results():
    env = Env()
    env, result = exec_statement(parse_statement("let a = 2"), env)
    assert result is None
    env, result = exec_statement(parse_statement("a + 1"), env)
    assert result == from_int(3)
    env, result = exec_statement(parse_statement("a < 1"), env)
    assert result is False


def test_env_extension_does_not_mutate():
    env = Env()
    extended = env.bind("x", ONE)
    with pytest.raises(UnboundName):
        env.lookup("x")
    assert extended.lookup("x") == ONE


# -------------------------------------------------------------- sets as values


def test_set_builtins_are_numbers_inside_expressions():
    assert run("count(N) - count(E)", Env()) == scalar_mul(Fraction(1, 2), G1)
    assert run("count(image(N, 2, 0)) + 1", Env()) == G1 + 1
    assert run("product(count(N), 2)", Env()) == 2 * G1


def test_sets_bind_in_the_shared_namespace():
    env = session("let D = image(N, 2, 0)")
    assert env.lookup("D") == affine_image(NATURALS, Fraction(2))
    assert evaluate_value(parse_expression("member(2*G1, D)"), env) is True
    assert evaluate_value(parse_expression("D"), env) == env.lookup("D")


def test_user_bindings_and_definitions_shadow_predefined_names():
    env = session("let N = 5", "def count(x) = 2*x")
    assert run("N + count(3)", env) == from_int(11)
    with pytest.raises(EvalError, match="N is not a set"):
        run("member(1, N)", session("let N = 5"))


@pytest.mark.parametrize(
    "statements, message",
    [
        (["def N(x) = x", "count(N)"], "N is a function, not a value"),
        (["let count = 5", "count(N)"], "count is a number, not a function"),
        (["def a(x) = x", "let a = 1", "a(5)"], "a is a number, not a function"),
        (["let f = 2", "f(3)"], "f is a number, not a function"),
        (["let f = N", "f(3)"], "f is a set, not a function"),
        (["def a(x) = x", "a"], "a is a function, not a value"),
        (["def g(x) = x", "let h = g"], "g is a function, not a value"),
        (["def g(x) = x", "member(1, g)"], "g is a function, not a value"),
        (["def g(x) = x", "g + 1"], "g is a function, not a number"),
    ],
)
def test_one_namespace_later_binding_wins(statements, message):
    env = session(*statements[:-1])
    with pytest.raises(EvalError, match=f"^{message}$"):
        exec_statement(parse_statement(statements[-1]), env)


_NAMES = ("f", "N", "count")
_STATEMENTS = (
    "let {n} = 2",
    "def {n}(x) = x + 1",
    "def {n}(x) = {{ 1 if x < 0; x if x >= 0 }}",
    "{n}",
    "{n}(2)",
    "count({n})",
    "member(1, {n})",
)


def _outcome(statement: str, env: Env):
    try:
        return exec_statement(parse_statement(statement), env)
    except GrossoneError as exc:
        return env, f"{type(exc).__name__}: {exc}"


@given(st.sampled_from(_NAMES), st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=8))
def test_a_name_means_its_last_binding(name, templates):
    # every statement ends in a value or a GrossoneError, and what the name
    # and a call of it give depends only on its last binding
    statements = [template.format(n=name) for template in templates]
    env = Env()
    for statement in statements:
        env, _ = _outcome(statement, env)
    last_only = Env()
    for statement in [s for s in statements if s.startswith(("let ", "def "))][-1:]:
        last_only, _ = _outcome(statement, last_only)
    for probe in (name, f"{name}(2)"):
        assert _outcome(probe, env)[1] == _outcome(probe, last_only)[1]


# --------------------------------------------------------- call-nesting limit

FACT = "def fact(x) = { 1 if x <= 0; x*fact(x-1) if x > 0 }"


@pytest.mark.parametrize(
    "definition, call",
    [
        ("def f(x) = f(x)", "f(1)"),
        (FACT, "fact(200)"),
        (FACT, "fact(G1)"),
        # a deep call site: each call nests 45 levels before it recurses
        ("def g(x) = " + "-(" * 45 + "g(x)" + ")" * 45, "g(1)"),
    ],
)
def test_deep_recursion_stops_at_the_call_limit(definition, call):
    name = call.split("(")[0]
    with pytest.raises(LimitExceeded, match=f"calls of {name} nest deeper than {MAX_CALL_LEVELS} levels"):
        run(call, session(definition))


def test_calls_at_the_limit_over_the_deepest_values_finish():
    # the most frames one statement can hold: 400 call levels, and below
    # them a base case that adds and compares two towers of 100 braces that
    # differ only at the bottom, so comparing them recurses through every level
    env = session(
        "let a = G1", *["let a = G1^a"] * 100, "let b = G1^{-1}", *["let b = G1^b"] * 99,
        "def g(x) = { (a * (b + x)) - (b * (a + x)) if x <= 0; g(x - 1) if x > 0 }",
    )
    assert env.lookup("g").levels * 80 == MAX_CALL_LEVELS
    assert run("g(79)", env) == ZERO
    with pytest.raises(LimitExceeded, match="calls of g nest"):
        run("g(80)", env)


def test_an_operator_chain_holds_one_call_level():
    # the four additions, read left to right, are one level, where one per
    # operator would give 9 levels and stop near f(44)
    env = session("def f(x) = { 1 if x <= 0; f(x - 1) + x + x + x + x if x > 0 }")
    assert env.lookup("f").levels == 6
    assert run("f(65)", env) == from_int(1 + 4 * sum(range(66)))
    with pytest.raises(LimitExceeded, match="calls of f nest"):
        run("f(66)", env)


def test_recursion_within_the_call_limit():
    env = session(FACT)
    assert run("fact(60)", env) == from_int(factorial(60))
    with pytest.raises(LimitExceeded):
        run("fact(200)", env)
    # the refused call released the levels it had taken
    assert run("fact(60)", env) == from_int(factorial(60))


@pytest.mark.parametrize("text", ["N + 1", "member(1, N) * 2", "image(N, 2, 0)", "count(5)"])
def test_set_or_boolean_where_a_number_is_needed(text):
    with pytest.raises(EvalError):
        run(text, Env())


# ----------------------------------------------------------- random finite


_OPS = ("+", "-", "*", "/")


@given(
    st.lists(st.tuples(st.sampled_from(_OPS), small_rationals), min_size=1, max_size=8),
    small_rationals,
)
def test_random_finite_chains_match_fraction_oracle(steps, start):
    gross = from_rational(start)
    expected = start
    for op, operand in steps:
        if op == "/" and operand == 0:
            continue
        gross = evaluate(
            parse_expression(f"x {op} ({operand.numerator} / {operand.denominator})"),
            Env().bind("x", gross),
        )
        if op == "+":
            expected += operand
        elif op == "-":
            expected -= operand
        elif op == "*":
            expected *= operand
        else:
            expected /= operand
    assert as_rational(gross) == expected


def test_referential_transparency(example_env):
    ast = parse_expression("f(-2*G1^{-1}) * g(G1) + f(0)")
    first = evaluate(ast, example_env)
    second = evaluate(ast, example_env)
    assert first == second and first is not None


_COEFFICIENT = re.compile(r"(?<!G)[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?")


def _as_fractions(numeral: str) -> str:
    """The numeral with every coefficient written integer/integer."""
    return _COEFFICIENT.sub(lambda m: "{0.numerator}/{0.denominator}".format(Fraction(m[0])), numeral)


# braces nest at most 3 deep, so the u form, which opens two levels for
# "^{-", stays well inside the nesting limit
@given(gross_numbers(max_depth=3))
def test_a_numeral_reads_whole_to_the_value_of_its_expression(x):
    printed = print_canonical(x)
    for spelling in (printed, _as_fractions(printed)):
        for text in (spelling, "+" + spelling.removeprefix("-"), "-" + spelling.removeprefix("-")):
            value = parse_number(text)
            assert parse_expression(text) == Literal(value)
            # a name bound to G1 sends every term through the operators
            expression = parse_expression(text.replace("G1", "u"))
            assert evaluate(expression, Env().bind("u", GROSSONE)) == value


@st.composite
def _single_terms_in_towers(draw):
    """A single-term value or zero, wrapped in ``G1^{-...}`` until it nests
    a drawn number of braces, up to 100, and then scaled."""
    value = draw(gross_numbers(max_depth=2, max_terms=1))
    braces = draw(st.integers(0, 100))
    while _brace_depth(value) < braces:
        value = monomial(1, -value)
    return draw(small_rationals.filter(bool)) * value


# each context, with "v" standing for the printed value, and what it gives
# for the value; the right operand of "/" and both operands of "^" are left
# out, as there precedence groups a printed value apart ("2 / 3*G1" is
# "(2/3)*G1") and it needs "( )"
_CONTEXTS = {
    "(v)": lambda v: v,
    "v * 2": lambda v: v * 2,
    "2 * v": lambda v: 2 * v,
    "v / 2": lambda v: v / 2,
    "-v": lambda v: -v,
    "f(v)": lambda v: v,
    "v < 1": lambda v: compare(v, ONE) < 0,
    "1 < v": lambda v: compare(ONE, v) < 0,
    "G1^{v}": lambda v: monomial(1, v),
}


@given(_single_terms_in_towers())
def test_a_printed_value_reads_back_in_every_operand_context(v):
    env = session("def f(x) = x")
    printed = print_canonical(v)
    for context, meaning in _CONTEXTS.items():
        if context == "G1^{v}" and _brace_depth(v) == 100:
            continue  # G1^{v} would nest 101 braces
        text = context.replace("v", printed)
        assert exec_statement(parse_statement(text), env)[1] == meaning(v), context
