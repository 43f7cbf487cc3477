"""Expression evaluation at arbitrary gross-number points.

Instead of taking limits, expressions are evaluated directly: substitute an
infinite or infinitesimal argument and compute the exact result.  A function
is its parsed ``PiecewiseDef``, whose branches are selected by comparing the
argument against breakpoints, which is always decidable in the total
dominance order.  Active calls nest at most ``MAX_CALL_LEVELS`` levels.

``Env`` holds the division budget and one mapping for every name, whether
it holds a number, a set, a boolean or a function.  The sets N (the
naturals, count G1) and E (the even naturals, count G1/2) and the booleans
true and false are predefined names; the builtins count, product, member
and image run only for an unbound name, so every binding shadows them.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Mapping, NamedTuple, Optional, Union

from . import core
from .core import GrossNumber, as_rational, compare
from .errors import EvalError, LimitExceeded, NoBranchMatched, UnboundName
from .numio import (
    Ast,
    Binary,
    Branch,
    Call,
    Compare,
    LetBinding,
    Literal,
    PiecewiseDef,
    Unary,
    Var,
    _RELATIONS,
    operator_chain,
    print_canonical,
)
from .setcalc import (
    EVEN_NATURALS,
    NATURALS,
    ProgressionSet,
    affine_image,
    member,
    product_count,
)


Value = Union[GrossNumber, ProgressionSet, bool, PiecewiseDef]

# Deeper recursion raises LimitExceeded well before Python's stack limit.
MAX_CALL_LEVELS = 400
_call_levels: ContextVar[int] = ContextVar("_call_levels", default=0)


# Env's default bindings, shared by every Env() and never written: bind
# copies them.
_PREDEFINED: dict[str, Value] = {"N": NATURALS, "E": EVEN_NATURALS, "true": True, "false": False}


class Env(NamedTuple):
    """Immutable evaluation context; extension returns a new environment.

    ``div_max_terms`` None means division must be exact; an integer allows
    truncation to that many quotient terms.
    """

    bindings: Mapping[str, Value] = _PREDEFINED
    div_max_terms: Optional[int] = None

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundName(name) from None

    def bind(self, name: str, value: Value) -> "Env":
        return Env({**self.bindings, name: value}, self.div_max_terms)

    def divide(self, x: GrossNumber, y: GrossNumber) -> GrossNumber:
        """x / y: exact, raising InexactDivision when the quotient does not
        terminate, unless a budget allows the truncated quotient."""
        if self.div_max_terms is None:
            return core.exact_divide(x, y)
        return core.divide(x, y, self.div_max_terms).quotient


def evaluate(ast: Ast, env: Env) -> GrossNumber:
    """Evaluate an expression to an exact gross-number.

    Division follows ``env.divide``.  A set, a boolean or a function where
    a number is needed raises EvalError.
    """
    if isinstance(ast, Literal):
        return ast.value
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

    A function name is not a value and raises EvalError.
    """
    if isinstance(ast, Compare):
        return compare(evaluate(ast.left, env), evaluate(ast.right, env)) in _RELATIONS[ast.op]
    if isinstance(ast, Var):
        value = env.lookup(ast.name)
        if isinstance(value, PiecewiseDef):
            raise EvalError(f"{ast.name} is a function, not a value")
        return value
    return _call(ast, env) if isinstance(ast, Call) else evaluate(ast, env)


_KINDS = {GrossNumber: "number", ProgressionSet: "set", bool: "boolean", PiecewiseDef: "function"}


def _number(value: Value, what: str) -> GrossNumber:
    if isinstance(value, GrossNumber):
        return value
    raise EvalError(f"{what} is a {_KINDS[type(value)]}, not a number")


# name -> (argument count, usage message); product takes any number
_BUILTINS = {
    "count": (1, "count takes one set"),
    "member": (2, "member takes a value and a set"),
    "image": (3, "image takes a set, a scale and an offset"),
    "product": (None, None),
}


def _call(ast: Call, env: Env) -> Value:
    """Apply the function bound to the name, or run the builtin of an unbound
    name; arguments are evaluated here, so they nest as ``_height`` counts."""
    name, args = ast.name, ast.args
    fn = env.bindings.get(name)
    if isinstance(fn, PiecewiseDef):
        if len(args) != 1:
            raise EvalError(f"{name} takes exactly one argument")
        return apply_function(fn, evaluate(args[0], env), env)
    if fn is not None:
        raise EvalError(f"{name} is a {_KINDS[type(fn)]}, not a function")
    if name not in _BUILTINS:
        raise UnboundName(name)
    arity, usage = _BUILTINS[name]
    if arity is not None and len(args) != arity:
        raise EvalError(usage)
    if name == "product":
        return product_count([evaluate(arg, env) for arg in args])
    if name == "member":
        return member(evaluate(args[0], env), _set(evaluate_value(args[1], env), args[1]))
    source = _set(evaluate_value(args[0], env), args[0])
    if name == "count":
        return source.count
    return affine_image(
        source, _rational(evaluate(args[1], env), "scale"), _rational(evaluate(args[2], env), "offset")
    )


def _set(value: Value, ast: Ast) -> ProgressionSet:
    if isinstance(value, ProgressionSet):
        return value
    raise EvalError(f"{ast.name if isinstance(ast, Var) else 'the argument'} is not a set")


def _rational(value: GrossNumber, what: str):
    q = as_rational(value)
    if q is None:
        raise EvalError(f"the {what} must be a finite rational")
    return q


def _height(ast: Ast) -> int:
    """The Python frames that evaluating ``ast`` holds, leaves aside: one per
    ``+ - * /`` chain, which ``evaluate`` reads left to right in one loop, one
    per other operator and three per call on its deepest path."""
    if isinstance(ast, Call):
        return 3 + max(map(_height, ast.args), default=0)
    if isinstance(ast, Unary):
        return 1 + _height(ast.operand)
    if isinstance(ast, Binary) and ast.op != "^":
        first, rest = operator_chain(ast)
        return 1 + max(_height(first), *(_height(operand) for _, operand in rest))
    if isinstance(ast, (Binary, Compare)):
        return 1 + max(_height(ast.left), _height(ast.right))
    return 0


def apply_function(fn: PiecewiseDef, argument: GrossNumber, env: Env) -> GrossNumber:
    """Evaluate the first branch whose condition holds for the argument,
    holding ``fn.levels`` of the MAX_CALL_LEVELS levels while it runs."""
    levels = _call_levels.get() + fn.levels
    if levels > MAX_CALL_LEVELS:
        raise LimitExceeded(f"calls of {fn.name} nest deeper than {MAX_CALL_LEVELS} levels")
    token = _call_levels.set(levels)
    try:
        for branch in fn.branches:
            relation = branch.relation
            if relation is None or compare(argument, branch.breakpoint.value) in _RELATIONS[relation]:
                return evaluate(branch.body, env.bind(fn.param, argument))
    finally:
        _call_levels.reset(token)
    raise NoBranchMatched(f"no branch of {fn.name} matches {argument}")


def make_function(definition: PiecewiseDef, env: Env) -> PiecewiseDef:
    """The definition ready to call: breakpoints are evaluated once, at
    definition time, so branch selection later needs nothing but a
    comparison, and a call holds one level plus its deepest body's height."""
    branches = tuple(
        Branch(b.body, b.relation, None if b.relation is None else Literal(evaluate(b.breakpoint, env)))
        for b in definition.branches
    )
    levels = 1 + max(_height(b.body) for b in branches)
    return definition._replace(branches=branches, levels=levels)


def exec_statement(ast: Ast, env: Env) -> tuple[Env, Optional[Value]]:
    """Run one session statement; returns the possibly-extended environment
    and the printable result (None for let/def)."""
    if isinstance(ast, LetBinding):
        return env.bind(ast.name, evaluate_value(ast.expr, env)), None
    if isinstance(ast, PiecewiseDef):
        return env.bind(ast.name, make_function(ast, env)), None
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
