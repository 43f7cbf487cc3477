"""The benchmark's workloads: seeded item lists, the timed call of each item
and the check of its result.

An item is one closed-loop unit of work.  ``run`` is the only code inside the
timed region.  Inputs are built before it, and ``check`` runs after it and
returns None for a right result or the cause of the failure.  Every call into
grossone goes through a module attribute (``core.multiply``, ``cli.main``) at
call time, so the tracer and the tests can substitute wrapped functions.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from typing import Callable, Optional

from grossone import cli, core, summation
from grossone.errors import GrossoneError
from grossone.numio import parse_number, print_canonical

import reference as ref

SERIES_PER_KIND = 30
NESTED_PER_KIND = 300
NESTED_SHAPE_SEED = 0
SESSION_SHAPE_SEED = 0


@dataclass
class Item:
    kind: str
    text: str  # the item's inputs as text; the seed decides it
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    values: tuple = ()  # input gross-numbers, for the shape metrics


# ------------------------------------------------------------ generators
# Shaped like tests/support.py's seeded generators; copied so that the
# measured process does not import hypothesis.


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_gross(rng: random.Random, shape: random.Random, max_depth: int = 3, max_terms: int = 5,
                 terms: int | None = None):
    """A canonical value whose grosspowers nest up to ``max_depth`` deep;
    ``terms`` fixes the top-level term count, else it is drawn.  ``shape``
    draws the term counts and the nesting and ``rng`` draws the rationals,
    with nonzero coefficients so that no term vanishes: given the same
    ``shape``, every seed yields values of the same shape."""
    pairs = []
    for _ in range(shape.randint(0, max_terms) if terms is None else terms):
        if max_depth > 0 and shape.random() < 0.6:
            exponent = random_gross(rng, shape, max_depth - 1, 2)
        else:
            exponent = core.from_rational(random_fraction(rng))
        pairs.append((nonzero_fraction(rng, 5), exponent))
    return core.normalize(pairs)


def nonzero_fraction(rng: random.Random, top: int = 9, dens=(1, 2, 3, 4, 5, 6)) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.choice(dens))


def sized_fraction(rng: random.Random, slot: int) -> Fraction:
    """A coefficient whose size is set by ``slot``, not by the seed: the
    denominator cycles through 1..6 and the numerator is 5..9, so that
    Fraction growth in powers and long divisions costs about the same for
    every seed; the seed picks signs and digits."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(5, 9), 1 + slot % 6)


def half_integer(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A multiple of 1/2 in [lo, hi]."""
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def flat_poly(rng: random.Random, terms: int, lo: int, hi: int, coefficient=nonzero_fraction) -> dict:
    """Reference dict with ``terms`` distinct half-integer exponents in [lo, hi]."""
    exponents = rng.sample(range(2 * lo, 2 * hi + 1), terms)
    return {Fraction(e, 2): coefficient(rng) for e in exponents}


def to_gross(poly: dict):
    return core.normalize([(c, core.from_rational(e)) for e, c in poly.items()])


def grid(count: int, lo: int, hi: int) -> list[int]:
    """``count`` values spread evenly over [lo, hi]; spreading the size
    parameter, instead of drawing it, keeps the cost of an item list
    nearly the same from seed to seed."""
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


# ---------------------------------------------------------------- session


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def reparse(line: str):
    """The value of an exact output line, or a failure cause when the line
    does not re-parse and re-print to itself."""
    try:
        value = parse_number(line)
    except GrossoneError as exc:
        return None, f"output {line!r} does not re-parse: {exc}"
    again = print_canonical(value)
    if again != line:
        return None, f"output {line!r} re-prints as {again!r}"
    return value, None


def line_is(text: str):
    return lambda line: None if line == text else f"printed {line!r}, expected {text!r}"


def line_value(expected):
    def check(line):
        value, cause = reparse(line)
        if cause:
            return cause
        return None if value == expected else f"printed {line!r}, expected {print_canonical(expected)!r}"

    return check


def line_poly(predicate, what: str):
    """Exact output whose grosspowers are finite, judged on its reference dict."""

    def check(line):
        value, cause = reparse(line)
        if cause:
            return cause
        try:
            ok = predicate(ref.from_gross(value))
        except ValueError as exc:
            return f"printed {line!r}: {exc}"
        return None if ok else f"printed {line!r}, expected {what}"

    return check


def line_equals_poly(expected: dict):
    return line_poly(lambda got: got == expected, _poly_text(expected))


def line_at_m(expected: Fraction):
    return line_poly(lambda got: ref.at_m(got) == expected, f"a value of {expected} at G1 = {ref.M}")


def _poly_text(poly: dict) -> str:
    return " + ".join(f"{c}*G1^{{{e}}}" for e, c in sorted(poly.items(), reverse=True)) or "0"


def expect_output(line_checks):
    """Exit code 0 and one check per stdout line."""

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        lines = out.splitlines()
        if len(lines) != len(line_checks):
            return f"printed {len(lines)} lines, expected {len(line_checks)}: {out!r}"
        for line, line_check in zip(lines, line_checks):
            cause = line_check(line)
            if cause:
                return cause
        return None

    return check


def expect_error(code_expected: int):
    def check(result):
        code, out, err = result
        if code != code_expected:
            return f"exit code {code}, expected {code_expected}: {err.strip()}"
        if out or not err:
            return f"expected only an error on stderr, got stdout {out!r} stderr {err!r}"
        return None

    return check


def cli_item(kind: str, argv: list[str], check, values=(), text: str | None = None) -> Item:
    return Item(kind, text or repr(argv), lambda: run_cli(argv), check, values)


# Documented examples with their stated outputs: README.md's commands, its
# flagship numeral and REPL session, and the flag examples of tests/test_cli.py.
README_EXAMPLES = [
    (["eval", "G1^{-1} * G1"], "1\n"),
    (["eval", "(G1-1)*(G1+1) - G1^{2}"], "-1\n"),
    (["eval", "G1 > 10"], "true\n"),
    (["eval", "--div-truncate", "3", "1 / (1 + G1^{-1})"], "1 - G1^{-1} + G1^{-2}\n"),
    (["eval", "--format", "decimal:2", "1/3 * G1"], "0.33*G1\n"),
    (
        ["eval", "17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02 + 52.1*G1^{-9.2} - 0.23*G1^{-3.7*G1}"],
        "17.21*G1^{52.4*G1 - 72.1} + 134*G1^{81.43} + 7.02 + 52.1*G1^{-9.2} - 0.23*G1^{-3.7*G1}\n",
    ),
    (["sum", "--summand", "i", "--upper", "G1"], "0.5*G1^{2} + 0.5*G1\n"),
    (["sum", "--summand", "i", "--alternating", "--upper", "G1"], "-0.5*G1\n"),
    (["sum", "--summand", "1", "--alternating", "--upper", "2*G1"], "0\n"),
    (["sum", "--summand", "1", "--alternating", "--upper", "2*G1 - 1"], "1\n"),
    (["prob", "--total", "G1", "--favorable", "1"], "G1^{-1}\nInfinitesimalProbability\nPoint\n"),
]

README_SCRIPT = """\
let z = G1^{-1}
def g(x) = x
def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }
f(-2*G1^{-1}) * g(G1)
count(N)
member(G1, N)
let D = image(N, 2, 0)
product(G1, G1)
"""
README_SCRIPT_OUTPUT = "-4\nG1\ntrue\nG1^{2}\n"

# Inputs whose documented outcome is an error exit code.
ERROR_COMMANDS = [
    (["eval", "1/0"], 3),
    (["eval", "1 +"], 2),
    (["eval", "G1 $ 2"], 2),
    (["eval", "1 / (1 + G1^{-1})"], 3),
    (["eval", "2^G1"], 3),
    (["sum", "--summand", "2^i", "--upper", "G1"], 3),
    (["prob", "--total", "G1", "--favorable", "2*G1"], 3),
    (["eval", "--div-truncate", "0", "1"], 1),
]


def expect_stdout(text: str):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        return None if out == text else f"printed {out!r}, expected {text!r}"

    return check


def session_coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.choice((1, 2, 3, 4, 5, 8, 10)))


def session_numeral(rng: random.Random, shape: random.Random, depth: int):
    """Nonzero numeral of 1-3 terms whose printed braces nest at most
    ``depth`` deep; depth 1 means finite rational grosspowers.  ``shape``
    draws the term counts and where a grosspower nests, ``rng`` the
    rationals, as in ``random_gross``."""
    while True:
        pairs = []
        for _ in range(shape.randint(1, 3)):
            if depth > 1 and shape.random() < 0.4:
                exponent = session_numeral(rng, shape, depth - 1)
            else:
                exponent = core.from_rational(Fraction(shape.randint(-6, 6), shape.choice((1, 2, 4))))
            pairs.append((session_coefficient(rng), exponent))
        x = core.normalize(pairs)
        if x.terms:
            return x


def positive(x):
    return x if core.sign(x) > 0 else core.negate(x)


def summand(rng: random.Random, degree: int, var: str):
    coefficients = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for _ in range(degree)]
    coefficients.append(nonzero_fraction(rng, 9, (1, 2, 3, 4)))
    parts = []
    for power in range(degree, -1, -1):
        c = coefficients[power]
        if not c:
            continue
        body = str(abs(c))
        if power:
            body += f"*{var}" + (f"^{power}" if power > 1 else "")
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    text += "".join(f" {sign} {body}" for sign, body in parts[1:])
    return text, coefficients


def direct_sum(value_at, count: int, alternating: bool) -> Fraction:
    total = Fraction(0)
    for i in range(1, count + 1):
        item = value_at(i)
        total += -item if alternating and i % 2 == 0 else item
    return total


def session_items(rng: random.Random, script_dir: Path) -> list[Item]:
    # The numerals' shape is the same for every seed, which draws only their
    # rationals; the heaviest `eval` items, which set the p99, then cost
    # about the same for every seed.
    shape = random.Random(SESSION_SHAPE_SEED)
    items: list[Item] = []
    for argv, text in README_EXAMPLES:
        items.append(cli_item("readme", argv, expect_stdout(text)))
    script_dir.mkdir(parents=True, exist_ok=True)
    readme_script = script_dir / "readme.txt"
    readme_script.write_text(README_SCRIPT, encoding="utf-8")
    items.append(
        cli_item(
            "readme",
            ["repl", "--script", str(readme_script)],
            expect_stdout(README_SCRIPT_OUTPUT),
            text=README_SCRIPT,
        )
    )
    for argv, code in ERROR_COMMANDS:
        items.append(cli_item("error", argv, expect_error(code)))

    # Identities whose exact value is known by construction.
    forms = [
        ("({a}) * ({b}) / ({b})", lambda a, b: a),
        ("({a}) + ({b}) - ({b})", lambda a, b: a),
        ("({a}) * ({b}) - ({b}) * ({a})", lambda a, b: core.ZERO),
        ("(({a}) + ({b}))^2 - ({a})^2 - 2*({a})*({b}) - ({b})^2", lambda a, b: core.ZERO),
    ]
    for index in range(64):
        form, expected = forms[index % len(forms)]
        a, b = session_numeral(rng, shape, 2), session_numeral(rng, shape, 2)
        expr = form.format(a=print_canonical(a), b=print_canonical(b))
        items.append(cli_item("eval", ["eval", expr], expect_output([line_value(expected(a, b))]), (a, b)))

    relations = [
        ("({a}) + ({p}) > ({a})", "true"),
        ("({a}) - ({p}) >= ({a})", "false"),
        ("({a}) * ({b}) = ({b}) * ({a})", "true"),
        ("({a}) < ({a}) + ({p})", "true"),
        ("({a}) + ({p}) <= ({a})", "false"),
    ]
    for index in range(20):
        form, answer = relations[index % len(relations)]
        a, b, p = session_numeral(rng, shape, 2), session_numeral(rng, shape, 2), positive(session_numeral(rng, shape, 2))
        expr = form.format(a=print_canonical(a), b=print_canonical(b), p=print_canonical(p))
        items.append(cli_item("compare", ["eval", expr], expect_output([line_is(answer)]), (a, b, p)))

    # Truncated division x / (1 + e) with e infinitesimal: the printed
    # quotient q is right when x - q*y leaves only terms below q's last one.
    for budget in grid(16, 3, 30):
        x = flat_poly(rng, rng.randint(1, 3), -3, 3, session_coefficient)
        y = {Fraction(0): Fraction(1)}
        y.update(flat_poly(rng, rng.randint(1, 2), -3, -1, session_coefficient))
        gx, gy = to_gross(x), to_gross(y)
        expr = f"({print_canonical(gx)}) / ({print_canonical(gy)})"

        def truncated(q, x=x, y=y, budget=budget):
            rest = ref.add(x, ref.mul(q, y), -1)
            if len(q) > budget:
                return False
            if len(q) < budget:
                return not rest
            return not rest or max(rest) < min(q)

        check = expect_output([line_poly(truncated, f"{budget} quotient terms of ({expr})")])
        items.append(cli_item("truncate", ["eval", "--div-truncate", str(budget), expr], check, (gx, gy)))

    # Display rounding: each coefficient rounded to D places.
    for index in range(16):
        digits = 1 + index % 3
        a = flat_poly(rng, rng.randint(1, 3), -3, 3, session_coefficient)
        b = session_numeral(rng, shape, 2)
        ga = to_gross(a)
        expr = f"({print_canonical(ga)}) * ({print_canonical(b)}) / ({print_canonical(b)})"
        scale = 10**digits
        rounded = {e: Fraction(round(c * scale), scale) for e, c in a.items()}
        rounded = {e: c for e, c in rounded.items() if c}

        def displayed(line, rounded=rounded):
            try:
                got = ref.from_gross(parse_number(line))
            except (GrossoneError, ValueError) as exc:
                return f"printed {line!r}: {exc}"
            return None if got == rounded else f"printed {line!r}, expected {_poly_text(rounded)}"

        argv = ["eval", "--format", f"decimal:{digits}", expr]
        items.append(cli_item("decimal", argv, expect_output([displayed]), (ga, b)))

    # Closed-form sums, judged at G1 = M against the direct sum.
    counts = [("G1", ref.M), ("2*G1", 2 * ref.M), ("2*G1-1", 2 * ref.M - 1)]
    for index in range(32):
        var = ("i", "n")[index % 2]
        text, coefficients = summand(rng, index % 4, var)
        alternating = index % 8 >= 4
        if index % 4 == 3:
            finite = rng.randint(1, 12)
            upper, count = str(finite), finite
        else:
            upper, count = counts[index % 3]

        def value_at(i, coefficients=coefficients):
            return sum((c * i**power for power, c in enumerate(coefficients)), Fraction(0))

        expected = direct_sum(value_at, count, alternating)
        argv = ["sum", f"--summand={text}", "--var", var, "--upper", upper]
        if alternating:
            argv.append("--alternating")
        items.append(cli_item("sum", argv, expect_output([line_at_m(expected)])))

    # Summands with no closed form, summed term by term over a finite count.
    for index in range(8):
        base, count = rng.randint(2, 3), rng.randint(3, 8)
        text = f"{base}^i + i" if index % 2 else f"{base}^i"
        alternating = index % 4 >= 2
        expected = direct_sum(lambda i: Fraction(base**i + (i if index % 2 else 0)), count, alternating)
        argv = ["sum", "--summand", text, "--upper", str(count)] + (["--alternating"] if alternating else [])
        items.append(cli_item("sum_brute", argv, expect_output([line_at_m(expected)])))

    # Counting probability over K events, m favorable.
    totals = [{Fraction(1): Fraction(1)}, {Fraction(1): Fraction(2)}, {Fraction(2): Fraction(1)},
              {Fraction(2): Fraction(3)}, {Fraction(0): Fraction(12)}]
    for index in range(16):
        total = totals[index % len(totals)]
        (p, c), = total.items()
        case = (index // len(totals) + index) % 4
        if case == 0:
            favorable = {}
        elif case == 1:
            favorable = dict(total)
        elif case == 2:
            favorable = {p: c / 2}
        else:
            favorable = {p - 1 if p >= 1 else Fraction(0): Fraction(rng.randint(1, 5))}
        probability = {e - p: f / c for e, f in favorable.items()}
        lines = [line_equals_poly(probability)]
        if not favorable:
            lines.append(line_is("Impossible"))
        else:
            if favorable == total:
                lines.append(line_is("Certain"))
            elif max(probability) < 0:
                lines.append(line_is("InfinitesimalProbability"))
            else:
                lines.append(line_is("FiniteProbability"))
            lines.append(line_is("Arc" if max(favorable) > 0 else "Point"))
        gt, gm = to_gross(total), to_gross(favorable)
        argv = ["prob", "--total", print_canonical(gt), "--favorable", print_canonical(gm)]
        items.append(cli_item("prob", argv, expect_output(lines), (gt, gm)))

    # Scripted sessions: bindings, piecewise definitions evaluated at
    # infinite and infinitesimal points, and the set builtins.
    for index in range(8):
        a = session_coefficient(rng)
        c = abs(session_coefficient(rng))
        n, s, o, k = rng.randint(1, 20), rng.randint(2, 5), rng.randint(-5, 5), rng.randint(1, 9)
        at, ct = print_canonical(core.from_rational(a)), print_canonical(core.from_rational(c))
        one, zero = Fraction(1), Fraction(0)
        script = [
            ("# seeded session", None),
            (f"let a = {at}", None),
            ("let z = G1^{-1}", None),
            ("def g(x) = x*x - a", None),
            ("def f(x) = { 2*x if x < 0; 1 if x = 0; x^3 if x > 0 }", None),
            (f"f(-{ct}*z) * G1", line_equals_poly({zero: -2 * c})),
            (f"f({ct}*G1)", line_equals_poly({Fraction(3): c**3})),
            ("f(0)", line_equals_poly({zero: one})),
            ("g(G1)", line_equals_poly({Fraction(2): one, zero: -a})),
            ("g(z) * G1^{2}", line_equals_poly({zero: one, Fraction(2): -a})),
            ("count(N)", line_equals_poly({one: one})),
            ("count(E)", line_equals_poly({one: Fraction(1, 2)})),
            (f"member({n}, N)", line_is("true")),
            ("member(G1 + 1, N)", line_is("false")),
            (f"member({n} + 1/2, N)", line_is("false")),
            (f"member({2 * n}, E)", line_is("true")),
            (f"member({2 * n + 1}, E)", line_is("false")),
            (f"let D = image(N, {s}, {o})", None),
            ("count(D)", line_equals_poly({one: one})),
            (f"member({s * k + o}, D)", line_is("true")),
            (f"image(E, {s}, {o})", line_is(f"progression(start={2 * s + o}, step={2 * s}, count=0.5*G1)")),
            (f"product(G1, {k}*G1)", line_equals_poly({Fraction(2): Fraction(k)})),
        ]
        text = "\n".join(line for line, _ in script) + "\n"
        path = script_dir / f"script{index}.txt"
        path.write_text(text, encoding="utf-8")
        check = expect_output([line_check for _, line_check in script if line_check])
        items.append(cli_item("repl", ["repl", "--script", str(path)], check, text=text))

    rng.shuffle(items)
    return items


# ----------------------------------------------------------------- series


def series_items(rng: random.Random, script_dir: Path) -> list[Item]:
    items: list[Item] = []

    # power_int of 2- and 3-term bases; the exponent pattern is fixed per
    # base size and shifted by a seeded offset, so term growth (the cost)
    # does not depend on the seed.
    for index, n in enumerate(grid(SERIES_PER_KIND, 10, 40)):
        offset = half_integer(rng, -3, 3)
        if index % 2:
            gaps = (Fraction(0), Fraction(1), Fraction(3, 2))
        else:
            gaps = (Fraction(0), Fraction(rng.randint(1, 3), 2))
        base = {offset - gap: sized_fraction(rng, index + slot) for slot, gap in enumerate(gaps)}
        gbase = to_gross(base)
        expected = ref.power(base, n)
        items.append(Item(
            "power", f"power_int({print_canonical(gbase)}, {n})",
            lambda b=gbase, n=n: core.power_int(b, n),
            lambda r, e=expected: _same_poly(r, e),
            (gbase,),
        ))

    # Truncated 1 / (1 + a*G1^-1 + b*G1^-3/2).
    for index, budget in enumerate(grid(SERIES_PER_KIND, 100, 400)):
        y = {Fraction(0): Fraction(1), Fraction(-1): sized_fraction(rng, index), Fraction(-3, 2): sized_fraction(rng, index + 3)}
        gy = to_gross(y)
        items.append(Item(
            "divide", f"divide(1, {print_canonical(gy)}, {budget})",
            lambda y=gy, budget=budget: core.divide(core.ONE, y, budget),
            lambda r, y=y, budget=budget: _division_identity(r, {Fraction(0): Fraction(1)}, y, budget),
            (gy,),
        ))

    # Exact division that undoes a product formed in the reference.
    for index in range(SERIES_PER_KIND):
        a = flat_poly(rng, rng.randint(3, 6), -4, 4)
        b = flat_poly(rng, rng.randint(2, 6), -4, 4)
        gx, gb = to_gross(ref.mul(a, b)), to_gross(b)
        items.append(Item(
            "exact_divide", f"exact_divide({print_canonical(gx)}, {print_canonical(gb)})",
            lambda x=gx, y=gb: core.exact_divide(x, y),
            lambda r, a=a: _same_poly(r, a),
            (gx, gb),
        ))

    # Faulhaber power sums, judged at G1 = M against the direct sum.
    for index, j in enumerate(grid(SERIES_PER_KIND, 0, 20)):
        text, count = ("G1", ref.M) if index % 2 else ("2*G1-1", 2 * ref.M - 1)
        k = parse_number(text)
        expected = Fraction(sum(i**j for i in range(1, count + 1)))
        items.append(Item(
            "faulhaber", f"faulhaber({j}, {text})",
            lambda j=j, k=k: summation.faulhaber(j, k),
            lambda r, e=expected: _value_at_m(r, e),
            (k,),
        ))

    # Alternating polynomial sums over an even and an odd count.
    for index, degree in enumerate(grid(SERIES_PER_KIND, 1, 8)):
        text, count = ("2*G1", 2 * ref.M) if index % 2 else ("2*G1-1", 2 * ref.M - 1)
        k = parse_number(text)
        coefficients = [nonzero_fraction(rng) for _ in range(degree + 1)]
        poly = summation.PolynomialSummand.from_coefficients(coefficients)

        def value_at(i, coefficients=coefficients):
            return sum((c * i**power for power, c in enumerate(coefficients)), Fraction(0))

        expected = direct_sum(value_at, count, True)
        items.append(Item(
            "alternating", f"sum_alternating_polynomial({coefficients}, {text})",
            lambda p=poly, k=k: summation.sum_alternating_polynomial(p, k),
            lambda r, e=expected: _value_at_m(r, e),
            (k,),
        ))

    # Products of 30-term flat polynomials.
    for index in range(SERIES_PER_KIND):
        a, b = flat_poly(rng, 30, -20, 20), flat_poly(rng, 30, -20, 20)
        ga, gb = to_gross(a), to_gross(b)
        expected = ref.mul(a, b)
        items.append(Item(
            "multiply", f"multiply({print_canonical(ga)}, {print_canonical(gb)})",
            lambda x=ga, y=gb: core.multiply(x, y),
            lambda r, e=expected: _same_poly(r, e),
            (ga, gb),
        ))

    rng.shuffle(items)
    return items


def _same_poly(result, expected: dict) -> Optional[str]:
    try:
        got = ref.from_gross(result)
    except ValueError as exc:
        return str(exc)
    return None if got == expected else "differs from the reference"


def _value_at_m(result, expected: Fraction) -> Optional[str]:
    try:
        got = ref.at_m(ref.from_gross(result))
    except ValueError as exc:
        return str(exc)
    return None if got == expected else f"value {got} at G1 = {ref.M}, expected {expected}"


def _division_identity(result, x: dict, y: dict, budget: int) -> Optional[str]:
    try:
        q, r = ref.from_gross(result.quotient), ref.from_gross(result.remainder)
    except ValueError as exc:
        return str(exc)
    if ref.add(ref.mul(q, y), r) != x:
        return "quotient*divisor + remainder != dividend"
    if result.terms_emitted != len(q) or len(q) > budget or (r and len(q) < budget):
        return f"{len(q)} quotient terms for a budget of {budget}"
    return None


# ----------------------------------------------------------------- nested


def nested_items(rng: random.Random, script_dir: Path) -> list[Item]:
    # Operands are drawn as in tests/support.random_gross, but their shape
    # (top-level term counts from a fixed cycle, the rest from a fixed
    # generator) is the same for every seed, which draws only the rationals;
    # so the cost of the list, and its percentiles, barely depend on the seed.
    shape = random.Random(NESTED_SHAPE_SEED)

    def operand(index: int, shift: int = 0):
        return random_gross(rng, shape, terms=(index + shift) % 6)

    items: list[Item] = []
    for index in range(NESTED_PER_KIND):
        x, y = operand(index), operand(index // 6, 1)
        items.append(Item(
            "multiply", f"multiply({print_canonical(x)}, {print_canonical(y)})",
            lambda x=x, y=y: core.multiply(x, y),
            lambda r, x=x, y=y: _round_trip(r) or _undo_product(r, x, y),
            (x, y),
        ))
    for index in range(NESTED_PER_KIND):
        x, y = operand(index), operand(index // 6)
        if index % 2:
            run, name = (lambda x=x, y=y: core.subtract(x, y)), "subtract"
        else:
            run, name = (lambda x=x, y=y: core.add(x, y)), "add"
        items.append(Item(
            "add", f"{name}({print_canonical(x)}, {print_canonical(y)})", run,
            lambda r, x=x, y=y, name=name: _round_trip(r) or _undo_sum(r, x, y, name),
            (x, y),
        ))
    for index in range(NESTED_PER_KIND):
        values = [operand(i) for i in range(30)]
        items.append(Item(
            "sort", "sort(" + ", ".join(map(print_canonical, values)) + ")",
            lambda v=values: sorted(v, key=cmp_to_key(core.compare)),
            lambda r, v=values: _sorted_check(r, v),
            tuple(values),
        ))
    for index in range(NESTED_PER_KIND):
        x = operand(index)
        m = core.monomial(nonzero_fraction(rng, 5), random_gross(rng, shape, 2, 3))
        items.append(Item(
            "divide", f"exact_divide({print_canonical(x)}, {print_canonical(m)})",
            lambda x=x, m=m: core.exact_divide(x, m),
            lambda r, x=x, m=m: _round_trip(r) or _undo_quotient(r, x, m),
            (x, m),
        ))
    for index in range(NESTED_PER_KIND):
        # The heaviest case, 5 terms to the 4th, fills 2% of the list,
        # so that p99 falls inside it rather than at its edge.
        n, terms = (4, 5) if index % 8 == 7 else (2 + index % 3, 1 + index % 5)
        x = random_gross(rng, shape, terms=terms)
        items.append(Item(
            "power_int", f"power_int({print_canonical(x)}, {n})",
            lambda x=x, n=n: core.power_int(x, n),
            lambda r, x=x, n=n: _round_trip(r) or _power_check(r, x, n),
            (x,),
        ))
    for index in range(NESTED_PER_KIND):
        p, k = random_gross(rng, shape, 2, 3), random_gross(rng, shape, 2, 3)
        x = core.monomial(1, p)
        items.append(Item(
            "power_gross", f"power_gross({print_canonical(x)}, {print_canonical(k)})",
            lambda x=x, k=k: core.power_gross(x, k),
            lambda r, p=p, k=k: _round_trip(r) or _gross_power_check(r, p, k),
            (x, k),
        ))
    rng.shuffle(items)
    return items


def _round_trip(result) -> Optional[str]:
    text = print_canonical(result)
    try:
        again = parse_number(text)
    except GrossoneError as exc:
        return f"{text!r} does not re-parse: {exc}"
    return None if again == result else f"{text!r} re-parses to another value"


def _undo_product(result, x, y) -> Optional[str]:
    if not y.terms:
        return None if not result.terms else "a product with 0 is not 0"
    undone = core.divide(result, y, len(x.terms) + 1)
    if not undone.exact or undone.quotient != x:
        return "dividing the product by one factor does not give the other"
    return None


def _undo_sum(result, x, y, name) -> Optional[str]:
    undone = core.add(result, y) if name == "subtract" else core.subtract(result, y)
    return None if undone == x else f"{name} is not undone by its inverse"


def _sorted_check(result, values) -> Optional[str]:
    if sorted(map(id, result)) != sorted(map(id, values)):
        return "the sorted list is not a permutation of the input"
    for a, b in zip(result, result[1:]):
        order = core.compare(a, b)
        if order > 0 or core.sign(core.subtract(b, a)) != -order:
            return "compare disagrees with the sign of the difference"
    return None


def _undo_quotient(result, x, m) -> Optional[str]:
    return None if core.multiply(result, m) == x else "quotient*divisor != dividend"


def _power_check(result, x, n) -> Optional[str]:
    return None if core.multiply(core.power_int(x, n - 1), x) == result else "x^n != x^(n-1)*x"


def _gross_power_check(result, p, k) -> Optional[str]:
    return None if result == core.monomial(1, core.multiply(p, k)) else "(G1^p)^k != G1^(p*k)"


WORKLOADS = {
    "session": session_items,
    "series": series_items,
    "nested": nested_items,
}

# Why each workload exists; BENCHMARK.json repeats this for the declared ones.
WHY = {
    "session": "calculator commands run in-process through grossone.cli.main; small operands, so cli (argparse), "
    "numio and evaluator dominate and core does little",
    "series": "powers, long divisions, power sums and 30-term products with finite exponents; core merge and "
    "Fraction arithmetic take over 90%, numio idle",
    "nested": "ring ops on up-to-5-term values with exponents nested 3 deep; recursive exponent compare and key "
    "hashing lead, the opposite of series",
}
