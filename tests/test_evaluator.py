"""Direct evaluation of expressions and piecewise functions at infinite and
infinitesimal points."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from grossone.core import (
    GROSSONE,
    ONE,
    ZERO,
    as_rational,
    from_int,
    from_rational,
    monomial,
    scalar_mul,
)
from grossone.errors import (
    DivisionByZero,
    EvalError,
    InexactDivision,
    NoBranchMatched,
    UnboundName,
)
from grossone.evaluator import (
    Env,
    evaluate_value,
    ExprFunction,
    PiecewiseBranch,
    PiecewiseFn,
    apply_piecewise,
    evaluate,
    evaluate_compare,
    exec_statement,
)
from grossone.numio import parse_expression, parse_statement
from grossone.setcalc import NATURALS, affine_image

from support import small_rationals

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
    f = example_env.function("f")
    assert apply_piecewise(f, scalar_mul(-2, monomial(1, -1)), example_env) == scalar_mul(
        -4, monomial(1, -1)
    )
    assert apply_piecewise(f, ZERO, example_env) == ONE
    assert apply_piecewise(f, monomial(1, -1), example_env) == monomial(1, -3)


def test_no_branch_matched():
    fn = PiecewiseFn("x", (PiecewiseBranch("<", ZERO, parse_expression("x")),))
    with pytest.raises(NoBranchMatched):
        apply_piecewise(fn, ONE, Env())


def test_no_branch_matched_names_a_value_too_long_to_print():
    env = session("def f(x) = { 1 if x < 0 }")
    with pytest.raises(NoBranchMatched, match="matches <a value too long to print>"):
        run("f(2^20000)", env)


def test_breakpoints_evaluated_at_definition_time():
    env = session("let b = 5", "def h(x) = { 0 if x < b; 1 if x >= b }")
    fn = env.function("h")
    assert fn.branches[0].breakpoint == from_int(5)
    # rebinding b afterwards must not move the breakpoint
    env = env.bind("b", from_int(100))
    assert run("h(7)", env) == ONE


def test_piecewise_branch_selection_is_total(example_env):
    f = example_env.function("f")
    for point in (G1, -G1, monomial(1, -9), ZERO, from_int(3)):
        apply_piecewise(f, point, example_env)  # must never raise


def test_plain_def_builds_expression_function():
    env = session("def double(x) = 2*x")
    assert isinstance(env.function("double"), ExprFunction)
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


def test_comparison_is_not_a_value():
    with pytest.raises(EvalError):
        run("1 < 2", Env())
    assert evaluate_compare(parse_expression("1 < 2"), Env()) is True
    assert evaluate_compare(parse_expression("G1 <= 5"), Env()) is False
    assert evaluate_compare(parse_expression("G1^{-1} > 0"), Env()) is True


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
