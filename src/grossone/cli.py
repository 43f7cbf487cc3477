"""Command-line front end: eval, sum, prob and an interactive repl.

Exit codes: 0 success, 1 usage error, 2 malformed input text, 3 evaluation
or domain error (running out of memory included).  Results go to stdout,
errors to stderr.

``main`` builds its parsers once per process.  When the first word names a
subcommand, that subcommand's own parser reads the other words, so argparse
scans them once.  Every other command line (no words, ``-h``, an unknown or
abbreviated subcommand, an option before the subcommand, a word left over)
goes through the top-level parser as a whole, which prints argparse's own
usage, help and error texts.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .errors import GrossoneError, ParseError
from .evaluator import Env, evaluate_value, exec_statement, render
from .numio import lex, parse_expression, parse_number, parse_statement
from .setcalc import ProbabilityModel, classify_event
from .summation import sum_expression

# str(MemoryError()) is usually empty
_OUT_OF_MEMORY = "out of memory"


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for malformed input text
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    # argparse names the type function in its own message for a ValueError
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return value


def _name(text: str) -> str:
    # a keyword such as G1 or let can never be the index variable
    try:
        tokens = lex(text)
    except ParseError:
        tokens = []
    if len(tokens) != 2 or tokens[0].kind != "name":
        raise argparse.ArgumentTypeError("expected a name, not a keyword, number or expression")
    return tokens[0].lexeme


def _format_option(text: str) -> Optional[int]:
    if text == "exact":
        return None
    if text.startswith("decimal:"):
        return _positive_int(text.split(":", 1)[1])
    raise argparse.ArgumentTypeError("expected 'exact' or 'decimal:D'")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
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

    parser = _ArgumentParser(
        prog="grossone",
        description="Exact calculator for numbers with finite, infinite and "
        "infinitesimal parts, written in base G1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one expression")
    p_eval.add_argument("expression")
    p_eval.set_defaults(run=cmd_eval)

    p_sum = sub.add_parser(
        "sum", parents=[common], help="closed-form sum with an explicit item count"
    )
    p_sum.add_argument("--summand", required=True, help="expression in the index variable")
    p_sum.add_argument("--var", type=_name, default="i", help="index variable name (default i)")
    p_sum.add_argument("--upper", required=True, help="item count, a gross-number literal")
    p_sum.add_argument(
        "--alternating",
        action="store_true",
        help="sum (-1)^(i+1) * summand instead of the summand itself",
    )
    p_sum.set_defaults(run=cmd_sum)

    p_prob = sub.add_parser(
        "prob", parents=[common], help="probability of an event over K elementary events"
    )
    p_prob.add_argument("--total", required=True, help="number of elementary events (K)")
    p_prob.add_argument("--favorable", required=True, help="number of favorable events (m)")
    p_prob.set_defaults(run=cmd_prob)

    p_repl = sub.add_parser("repl", parents=[common], help="interactive session")
    p_repl.add_argument("--script", metavar="FILE", help="run statements from a file")
    p_repl.set_defaults(run=cmd_repl)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parser()[0]


def _env(args) -> Env:
    return Env(div_max_terms=args.div_truncate)


def _show(value, args) -> None:
    if value is not None:
        print(render(value, args.print_digits))


def cmd_eval(args) -> int:
    expression = parse_expression(args.expression)
    _show(evaluate_value(expression, _env(args)), args)
    return 0


def cmd_sum(args) -> int:
    upper = parse_number(args.upper)
    summand = parse_expression(args.summand)
    env = _env(args)
    _show(sum_expression(summand, upper, env, var=args.var, alternating=args.alternating), args)
    return 0


def cmd_prob(args) -> int:
    total = parse_number(args.total)
    favorable = parse_number(args.favorable)
    model = ProbabilityModel(total, favorable)
    _show(_env(args).divide(favorable, total), args)
    for part in classify_event(model):
        if part is not None:
            print(part.value)
    return 0


def _prompted_lines():
    while True:
        try:
            yield input("g1> ")
        except EOFError:
            print()
            return


def cmd_repl(args) -> int:
    """Run statements one per line; an error is reported with its
    position and the session goes on.  The exit code is the worst seen:
    2 after malformed text, 3 after an evaluation error, else 0."""
    if args.script:
        try:
            with open(args.script, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read script: {exc}", file=sys.stderr)
            return 1
        source = args.script
    else:
        lines = _prompted_lines() if sys.stdin.isatty() else sys.stdin.read().splitlines()
        source = "<stdin>"
    env = _env(args)
    status = 0
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if text == ":quit":
            break
        if not text or text.startswith("#"):
            continue
        try:
            env, result = exec_statement(parse_statement(text), env)
            _show(result, args)
        except ParseError as exc:
            print(f"{source}:{lineno}:{exc.column}: {exc.message}", file=sys.stderr)
            status = max(status, 2)
        except GrossoneError as exc:
            print(f"{source}:{lineno}: {exc}", file=sys.stderr)
            status = 3
        except MemoryError:
            print(f"{source}:{lineno}: {_OUT_OF_MEMORY}", file=sys.stderr)
            status = 3
    return status


# built on the first call and reused by every later one
_parsers = functools.cache(_build_parser)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        # what the top-level parser would hand this subcommand's parser
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return args
    # help, or a usage error in the words the top-level parser would use
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrossoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: {_OUT_OF_MEMORY}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
