"""A seeded fuzz of the CLI: texts built from the grammar's tokens, some
of them broken by one token, run through ``cli.main`` in-process.

Every command must end in one of the documented exit codes, never in an
exception, and every number or boolean that exact-mode ``eval`` prints must
evaluate to the same text.  The generator keeps values small: the right
operand of ``^`` is always a single atom or a braced constant, so no text
asks for a power that takes long to compute.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from grossone.cli import main

NUMBERS = ["0", "1", "2", "3", "0.5", "G1", "①"]
NAMES = ["x", "i", "N", "E", "true", "false"]
EXPONENTS = [
    ["2"], ["3"], ["-", "1"], ["0.5"], ["G1"], ["i"], ["x"],
    ["{", "G1", "-", "1", "}"], ["{", "1", "/", "2", "}"],
]
OPERATORS = ["+", "-", "*", "/"]
RELATIONS = ["<", "<=", "=", ">=", ">"]
# each call's arguments: e an expression, s a set; f is never bound
CALLS = {"count": "s", "member": "es", "image": "see", "product": "ee", "f": "e"}
# tokens a mutation may insert; not ^, so that a mutation cannot build a
# power tower out of constants
INSERTS = NUMBERS + NAMES + OPERATORS + RELATIONS + ["(", ")", "{", "}", ","]
SEED, TEXTS = 20120101, 1000


def _atom(rng: random.Random) -> str:
    return rng.choice(NAMES if rng.random() < 0.1 else NUMBERS)


def _expression(rng: random.Random, depth: int) -> list[str]:
    r = rng.random()
    if depth == 0 or r < 0.2:
        return [_atom(rng)]
    if r < 0.55:
        return _expression(rng, depth - 1) + [rng.choice(OPERATORS)] + _expression(rng, depth - 1)
    if r < 0.65:
        return ["("] + _expression(rng, depth - 1) + [")"]
    if r < 0.72:
        return ["-"] + _expression(rng, depth - 1)
    if r < 0.87:
        base = [_atom(rng)] if rng.random() < 0.5 else ["("] + _expression(rng, depth - 1) + [")"]
        return base + ["^"] + rng.choice(EXPONENTS)
    name = rng.choice(list(CALLS))
    kinds = CALLS[name] if rng.random() < 0.8 else "e" * rng.randint(0, 3)
    args: list[str] = []
    for index, kind in enumerate(kinds):
        args += [","] if index else []
        if kind == "s":
            image = ["image", "(", "N", ",", "2", ",", _atom(rng), ")"]
            args += [rng.choice(["N", "E"])] if rng.random() < 0.7 else image
        else:
            args += _expression(rng, depth - 1)
    return [name, "("] + args + [")"]


def _text(rng: random.Random) -> str:
    tokens = _expression(rng, 4)
    if rng.random() < 0.2:
        tokens += [rng.choice(RELATIONS)] + _expression(rng, 2)
    if rng.random() < 0.3:
        at = rng.randrange(len(tokens) + 1)
        if rng.random() < 0.5 and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, rng.choice(INSERTS))
    return " ".join(tokens)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def test_cli_fuzz_exits_cleanly_and_output_reparses():
    rng = random.Random(SEED)
    seen_codes = set()
    reparsed = 0
    for _ in range(TEXTS):
        text = _text(rng)
        upper = rng.choice(["3", "G1"])
        runs = [
            ["eval", "--", text],
            ["eval", "--div-truncate", "3", "--", text],
            ["sum", f"--summand={text}", "--upper", upper],
            ["eval", "--format", "decimal:2", "--", text],
        ]
        for argv in runs:
            code, out = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            seen_codes.add(code)
            exact_eval = argv[0] == "eval" and argv[1] != "--format"
            if code == 0 and exact_eval and not out.startswith("progression("):
                assert _run(["eval", "--", out.strip()]) == (0, out), (argv, out)
                reparsed += 1
    # the generator reaches values, malformed text and evaluation errors
    assert seen_codes >= {0, 2, 3}
    assert reparsed > TEXTS // 4
