"""Command-line front end: eval, sum, prob and an interactive repl.

Exit codes: 0 success, 1 usage error, 2 malformed input text, 3 evaluation
or domain error.  Results go to stdout, errors to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

from . import setcalc, summation
from .core import as_int, as_rational
from .errors import EvalError, GrossoneError, ParseError, UnsupportedSummand
from .evaluator import Env, evaluate, exec_statement
from .numio import (
    Ast,
    Call,
    Compare,
    DEFAULT_DEPTH_CAP,
    LetBinding,
    Var,
    parse_expression,
    parse_number,
    parse_statement,
    print_canonical,
)
from .setcalc import EventClass, ProbabilityModel, ProgressionSet


@dataclass(frozen=True)
class SessionConfig:
    """Per-invocation settings, all from explicit flags (never the
    environment, so runs stay reproducible).

    ``div_max_terms`` None means division must be exact; an integer allows
    truncation to that many quotient terms.  ``print_digits`` None is the
    exact round-trip format; an integer rounds displayed coefficients.
    """

    div_max_terms: Optional[int] = None
    print_digits: Optional[int] = None
    depth_cap: int = DEFAULT_DEPTH_CAP


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for malformed input text
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _format_option(text: str) -> Optional[int]:
    if text == "exact":
        return None
    if text.startswith("decimal:"):
        return _positive_int(text.split(":", 1)[1])
    raise argparse.ArgumentTypeError("expected 'exact' or 'decimal:D'")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--div-truncate",
        type=_positive_int,
        metavar="N",
        default=None,
        help="allow inexact division, truncated to at most N quotient terms",
    )
    common.add_argument(
        "--format",
        type=_format_option,
        dest="print_digits",
        metavar="exact|decimal:D",
        default=None,
        help="output format (default exact, which re-parses to the same value)",
    )
    common.add_argument(
        "--depth-cap",
        type=_positive_int,
        metavar="N",
        default=DEFAULT_DEPTH_CAP,
        help="maximum nesting depth of exponent braces",
    )

    parser = _ArgumentParser(
        prog="grossone",
        description="Exact calculator for numbers with finite, infinite and "
        "infinitesimal parts, written in base G1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one expression")
    p_eval.add_argument("expression")

    p_sum = sub.add_parser(
        "sum", parents=[common], help="closed-form sum with an explicit item count"
    )
    p_sum.add_argument("--summand", required=True, help="expression in the index variable")
    p_sum.add_argument("--var", default="i", help="index variable name (default i)")
    p_sum.add_argument("--upper", required=True, help="item count, a gross-number literal")
    p_sum.add_argument(
        "--alternating",
        action="store_true",
        help="sum (-1)^(i+1) * summand instead of the summand itself",
    )

    p_prob = sub.add_parser(
        "prob", parents=[common], help="probability of an event over K elementary events"
    )
    p_prob.add_argument("--total", required=True, help="number of elementary events (K)")
    p_prob.add_argument("--favorable", required=True, help="number of favorable events (m)")

    p_repl = sub.add_parser("repl", parents=[common], help="interactive session")
    p_repl.add_argument("--script", metavar="FILE", help="run statements from a file")

    return parser


def _render(value, config: SessionConfig) -> str:
    return print_canonical(value, digits=config.print_digits)


def cmd_eval(args, config: SessionConfig) -> int:
    ast = parse_expression(args.expression, depth_cap=config.depth_cap)
    env = Env()
    if isinstance(ast, Compare):
        from .evaluator import evaluate_compare

        print("true" if evaluate_compare(ast, env, div_max_terms=config.div_max_terms) else "false")
        return 0
    value = evaluate(ast, env, div_max_terms=config.div_max_terms)
    print(_render(value, config))
    return 0


def cmd_sum(args, config: SessionConfig) -> int:
    upper = parse_number(args.upper, depth_cap=config.depth_cap)
    summand = parse_expression(args.summand, depth_cap=config.depth_cap)
    try:
        poly = summation.summand_polynomial(summand, args.var)
    except UnsupportedSummand:
        k = as_int(upper)
        if k is None or k < 0:
            raise
        value = summation.sum_finite_generic(
            summand,
            k,
            var=args.var,
            alternating=args.alternating,
            div_max_terms=config.div_max_terms,
        )
    else:
        if args.alternating:
            value = summation.sum_alternating_polynomial(poly, upper)
        else:
            value = summation.sum_polynomial(poly, upper)
    print(_render(value, config))
    return 0


def cmd_prob(args, config: SessionConfig) -> int:
    total = parse_number(args.total, depth_cap=config.depth_cap)
    favorable = parse_number(args.favorable, depth_cap=config.depth_cap)
    model = ProbabilityModel(total, favorable)
    print(_render(setcalc.probability(model), config))
    classification = setcalc.classify_event(model)
    print(classification.value)
    if classification is not EventClass.IMPOSSIBLE:
        print(setcalc.event_extent(favorable).value)
    return 0


_SET_BUILTINS = ("count", "member", "image", "product")


class _Session:
    """REPL state: value/function bindings plus a namespace of named sets.

    The sets N (the naturals, count G1) and E (the even naturals, count
    G1/2) are predefined; image(S, a, b) builds affine images and can be
    bound with let.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self.env = Env()
        self.sets: dict[str, ProgressionSet] = {
            "N": setcalc.NATURALS,
            "E": setcalc.EVEN_NATURALS,
        }

    def handle(self, line: str) -> bool:
        """Run one statement; returns False when the session should end."""
        text = line.strip()
        if not text or text.startswith("#"):
            return True
        if text == ":quit":
            return False
        try:
            self._execute(text)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
        except GrossoneError as exc:
            print(f"error: {exc}", file=sys.stderr)
        return True

    def _execute(self, text: str) -> None:
        ast = parse_statement(text, depth_cap=self.config.depth_cap)
        if isinstance(ast, Call) and ast.name in _SET_BUILTINS:
            self._print_result(self._set_builtin(ast))
            return
        if isinstance(ast, LetBinding) and isinstance(ast.expr, Call) and ast.expr.name == "image":
            self.sets[ast.name] = self._resolve_set(ast.expr)
            return
        self.env, result = exec_statement(
            ast, self.env, div_max_terms=self.config.div_max_terms
        )
        self._print_result(result)

    def _print_result(self, result) -> None:
        if result is None:
            return
        if isinstance(result, bool):
            print("true" if result else "false")
        elif isinstance(result, ProgressionSet):
            print(
                f"progression(start={_render(result.start, self.config)}, "
                f"step={result.step}, count={_render(result.count, self.config)})"
            )
        else:
            print(_render(result, self.config))

    def _resolve_set(self, ast: Ast) -> ProgressionSet:
        if isinstance(ast, Var):
            if ast.name in self.sets:
                return self.sets[ast.name]
            raise EvalError(f"{ast.name} does not name a set")
        if isinstance(ast, Call) and ast.name == "image":
            if len(ast.args) != 3:
                raise EvalError("image takes a set, a scale and an offset")
            source = self._resolve_set(ast.args[0])
            scale = self._finite_arg(ast.args[1], "scale")
            offset = self._finite_arg(ast.args[2], "offset")
            return setcalc.affine_image(source, scale, offset)
        raise EvalError("expected a set name or image(...)")

    def _finite_arg(self, ast: Ast, what: str):
        value = evaluate(ast, self.env, div_max_terms=self.config.div_max_terms)
        q = as_rational(value)
        if q is None:
            raise EvalError(f"the {what} must be a finite rational")
        return q

    def _set_builtin(self, call: Call):
        if call.name == "count":
            if len(call.args) != 1:
                raise EvalError("count takes one set")
            return setcalc.count(self._resolve_set(call.args[0]))
        if call.name == "member":
            if len(call.args) != 2:
                raise EvalError("member takes a value and a set")
            value = evaluate(call.args[0], self.env, div_max_terms=self.config.div_max_terms)
            return setcalc.member(value, self._resolve_set(call.args[1]))
        if call.name == "image":
            return self._resolve_set(call)
        if call.name == "product":
            counts = [
                evaluate(arg, self.env, div_max_terms=self.config.div_max_terms)
                for arg in call.args
            ]
            return setcalc.product_count(counts)
        raise EvalError(f"unknown builtin {call.name}")


def cmd_repl(args, config: SessionConfig) -> int:
    session = _Session(config)
    if args.script:
        try:
            with open(args.script, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read script: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            if not session.handle(line):
                break
    elif sys.stdin.isatty():
        while True:
            try:
                line = input("g1> ")
            except EOFError:
                print()
                break
            if not session.handle(line):
                break
    else:
        for line in sys.stdin.read().splitlines():
            if not session.handle(line):
                break
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "sum": cmd_sum,
    "prob": cmd_prob,
    "repl": cmd_repl,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = SessionConfig(
        div_max_terms=args.div_truncate,
        print_digits=args.print_digits,
        depth_cap=args.depth_cap,
    )
    try:
        return _COMMANDS[args.command](args, config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrossoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
