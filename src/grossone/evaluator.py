"""Expression evaluation at arbitrary gross-number points.

Instead of taking limits, expressions are evaluated directly: substitute an
infinite or infinitesimal argument and compute the exact result.  Functions
may be plain expressions of one parameter or piecewise definitions whose
branches are selected by comparing the argument against breakpoints, which
is always decidable in the total dominance order.

Names, functions, progression sets and the division budget all live in one
``Env``.  The sets N (the naturals, count G1) and E (the even naturals,
count G1/2) are predefined names; the builtins count, product, member and
image work on them, and user bindings and definitions shadow them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple, Union

from . import core
from .core import GROSSONE, GrossNumber, as_rational, compare
from .errors import EvalError, NoBranchMatched, UnboundName
from .numio import (
    MAX_NESTING,
    Ast,
    Binary,
    Call,
    Compare,
    GrossoneSymbol,
    LetBinding,
    Literal,
    PiecewiseDef,
    Unary,
    Var,
    brace_depth,
    operator_chain,
    print_canonical,
)
from .setcalc import (
    EVEN_NATURALS,
    NATURALS,
    ProgressionSet,
    affine_image,
    count,
    member,
    product_count,
)


@dataclass(frozen=True)
class ExprFunction:
    """A one-parameter function given by a single expression body."""

    param: str
    body: Ast


@dataclass(frozen=True)
class PiecewiseBranch:
    relation: str
    breakpoint: GrossNumber
    body: Ast


@dataclass(frozen=True)
class PiecewiseFn:
    """Sign-conditioned piecewise function; branches are tested in order."""

    param: str
    branches: Tuple[PiecewiseBranch, ...]


Function = Union[ExprFunction, PiecewiseFn]
Value = Union[GrossNumber, ProgressionSet, bool]


def _predefined_sets() -> dict[str, Value]:
    return {"N": NATURALS, "E": EVEN_NATURALS}


@dataclass(frozen=True)
class Env:
    """Immutable evaluation context; extension returns a new environment.

    ``div_max_terms`` None means division must be exact; an integer allows
    truncation to that many quotient terms.
    """

    bindings: Mapping[str, Value] = field(default_factory=_predefined_sets)
    functions: Mapping[str, Function] = field(default_factory=dict)
    div_max_terms: Optional[int] = None

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundName(name) from None

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise UnboundName(name) from None

    def bind(self, name: str, value: Value) -> "Env":
        return Env({**self.bindings, name: value}, self.functions, self.div_max_terms)

    def define(self, name: str, fn: Function) -> "Env":
        return Env(self.bindings, {**self.functions, name: fn}, self.div_max_terms)

    def divide(self, x: GrossNumber, y: GrossNumber) -> GrossNumber:
        """x / y: exact, raising InexactDivision when the quotient does not
        terminate, unless a budget allows the truncated quotient."""
        if self.div_max_terms is None:
            return core.exact_divide(x, y)
        return core.divide(x, y, self.div_max_terms).quotient


_RELATIONS = {
    "<": (-1,),
    "<=": (-1, 0),
    "=": (0,),
    ">=": (0, 1),
    ">": (1,),
}


def evaluate(ast: Ast, env: Env) -> GrossNumber:
    """Evaluate an expression to an exact gross-number.

    Division follows ``env.divide``.  A set or a boolean where a number is
    needed raises EvalError.
    """
    if isinstance(ast, Literal):
        return ast.value
    if isinstance(ast, GrossoneSymbol):
        return GROSSONE
    if isinstance(ast, Var):
        return _number(env.lookup(ast.name), ast.name)
    if isinstance(ast, Unary):
        return core.negate(evaluate(ast.operand, env))
    if isinstance(ast, Binary):
        if ast.op == "^":
            return core.power_gross(evaluate(ast.left, env), evaluate(ast.right, env))
        first, rest = operator_chain(ast)
        value = evaluate(first, env)
        for op, operand in rest:
            right = evaluate(operand, env)
            if op == "+":
                value = core.add(value, right)
            elif op == "-":
                value = core.subtract(value, right)
            elif op == "*":
                value = core.multiply(value, right)
            else:
                value = env.divide(value, right)
        return value
    if isinstance(ast, Call):
        return _number(_call(ast, env), f"{ast.name}(...)")
    if isinstance(ast, Compare):
        raise EvalError("a comparison is not a gross-number value")
    raise EvalError(f"cannot evaluate {type(ast).__name__} as an expression")


def evaluate_value(ast: Ast, env: Env) -> Value:
    """Evaluate at statement level, where a comparison or member(...) gives
    a boolean and a set name or image(...) gives a set.

    A number whose numeral would nest deeper than ``MAX_NESTING`` braces
    raises EvalError, so every value a session holds prints as text that
    parses again.
    """
    if isinstance(ast, Compare):
        return evaluate_compare(ast, env)
    if isinstance(ast, Var):
        return env.lookup(ast.name)
    value = _call(ast, env) if isinstance(ast, Call) else evaluate(ast, env)
    if isinstance(value, GrossNumber) and brace_depth(value) > MAX_NESTING:
        raise EvalError(f"the result would print nested deeper than {MAX_NESTING} braces")
    return value


def evaluate_compare(ast: Compare, env: Env) -> bool:
    left = evaluate(ast.left, env)
    right = evaluate(ast.right, env)
    return compare(left, right) in _RELATIONS[ast.op]


def _number(value: Value, what: str) -> GrossNumber:
    if isinstance(value, GrossNumber):
        return value
    kind = "set" if isinstance(value, ProgressionSet) else "boolean"
    raise EvalError(f"{what} is a {kind}, not a number")


# name -> (argument count, usage message); product takes any number
_BUILTINS = {
    "count": (1, "count takes one set"),
    "member": (2, "member takes a value and a set"),
    "image": (3, "image takes a set, a scale and an offset"),
    "product": (None, None),
}


def _call(ast: Call, env: Env) -> Value:
    if ast.name in _BUILTINS and ast.name not in env.functions:
        return _builtin(ast.name, ast.args, env)
    fn = env.function(ast.name)
    if len(ast.args) != 1:
        raise EvalError(f"{ast.name} takes exactly one argument")
    return apply_function(fn, evaluate(ast.args[0], env), env)


def _builtin(name: str, args: Tuple[Ast, ...], env: Env) -> Value:
    arity, usage = _BUILTINS[name]
    if arity is not None and len(args) != arity:
        raise EvalError(usage)
    if name == "product":
        return product_count([evaluate(arg, env) for arg in args])
    if name == "count":
        return count(_set(args[0], env))
    if name == "member":
        return member(evaluate(args[0], env), _set(args[1], env))
    source = _set(args[0], env)
    return affine_image(source, _rational(args[1], env, "scale"), _rational(args[2], env, "offset"))


def _set(ast: Ast, env: Env) -> ProgressionSet:
    value = evaluate_value(ast, env)
    if isinstance(value, ProgressionSet):
        return value
    raise EvalError(f"{ast.name if isinstance(ast, Var) else 'the argument'} is not a set")


def _rational(ast: Ast, env: Env, what: str):
    q = as_rational(evaluate(ast, env))
    if q is None:
        raise EvalError(f"the {what} must be a finite rational")
    return q


def apply_function(fn: Function, argument: GrossNumber, env: Env) -> GrossNumber:
    if isinstance(fn, ExprFunction):
        return evaluate(fn.body, env.bind(fn.param, argument))
    return apply_piecewise(fn, argument, env)


def apply_piecewise(fn: PiecewiseFn, argument: GrossNumber, env: Env) -> GrossNumber:
    """Evaluate the first branch whose condition holds for the argument."""
    for branch in fn.branches:
        if compare(argument, branch.breakpoint) in _RELATIONS[branch.relation]:
            return evaluate(branch.body, env.bind(fn.param, argument))
    raise NoBranchMatched(f"no branch of {fn.param}-piecewise function matches {core._shown(argument)}")


def make_function(definition: PiecewiseDef, env: Env) -> Function:
    """Build a callable function from a parsed definition.

    Breakpoints are evaluated once, at definition time, so branch selection
    later needs nothing but a comparison.
    """
    if definition.body is not None:
        return ExprFunction(definition.param, definition.body)
    branches = tuple(
        PiecewiseBranch(branch.relation, evaluate(branch.breakpoint, env), branch.body)
        for branch in definition.branches
    )
    return PiecewiseFn(definition.param, branches)


StatementResult = Optional[Value]


def exec_statement(ast: Ast, env: Env) -> tuple[Env, StatementResult]:
    """Run one session statement; returns the possibly-extended environment
    and the printable result (None for let/def)."""
    if isinstance(ast, LetBinding):
        return env.bind(ast.name, evaluate_value(ast.expr, env)), None
    if isinstance(ast, PiecewiseDef):
        return env.define(ast.name, make_function(ast, env)), None
    return env, evaluate_value(ast, env)


def render(value: Value, digits: Optional[int] = None) -> str:
    """Text of a statement value; ``digits`` rounds displayed coefficients."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, ProgressionSet):
        start = print_canonical(value.start, digits=digits)
        step = print_canonical(core.from_rational(value.step), digits=digits)
        size = print_canonical(value.count, digits=digits)
        return f"progression(start={start}, step={step}, count={size})"
    return print_canonical(value, digits=digits)
