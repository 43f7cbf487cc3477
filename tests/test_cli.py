"""Exit codes, stdout/stderr separation and golden outputs for the four
subcommands."""

import argparse
import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import grossone
import grossone.cli
import grossone.evaluator
from grossone.cli import build_parser, main
from grossone.core import GROSSONE, MAX_DIV_TERMS, ONE, ZERO, divide, monomial, power_int
from grossone.errors import DepthLimitExceeded, GrossoneError, ParseError
from grossone.evaluator import Env
from grossone.numio import Binary, Literal, parse_expression, parse_number, print_canonical
from grossone.summation import sum_finite_generic

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- eval


def test_eval_inverse_unit(capsys):
    code, out, err = run(capsys, "eval", "G1^{-1} * G1")
    assert (code, out, err) == (0, "1\n", "")


def test_eval_difference_of_squares(capsys):
    code, out, err = run(capsys, "eval", "(G1-1)*(G1+1) - G1^{2}")
    assert (code, out) == (0, "-1\n")


def test_eval_division_by_zero(capsys):
    code, out, err = run(capsys, "eval", "1/0")
    assert code == 3
    assert out == ""
    assert "division by zero" in err


@pytest.mark.parametrize(
    "expression, result",
    [
        ("(1.5/2)", (0, "0.75\n", "")),
        ("(1/0)", (3, "", "error: division by zero\n")),
        ("G1^{+2}", (0, "G1^{2}\n", "")),
        ("+2", (0, "2\n", "")),
        ("x^{+2}", (3, "", "error: unbound name x\n")),
    ],
)
def test_eval_numeral_like_operands(capsys, expression, result):
    # a slash that is no integer fraction is a division; unary + is allowed
    assert run(capsys, "eval", expression) == result


def test_eval_syntax_error(capsys):
    code, out, err = run(capsys, "eval", "1 +")
    assert code == 2
    assert out == ""
    assert "1:4" in err


def test_eval_comparison(capsys):
    code, out, _ = run(capsys, "eval", "G1 > 10")
    assert (code, out) == (0, "true\n")


def test_eval_output_reparses_to_engine_value(capsys):
    code, out, _ = run(capsys, "eval", "(1 + G1^{-1})^3 * G1^{3}")
    assert code == 0
    assert parse_number(out.strip()) == parse_number("G1^{3} + 3*G1^{2} + 3*G1 + 1")


def test_eval_inexact_division_needs_flag(capsys):
    code, _, err = run(capsys, "eval", "1 / (1 + G1^{-1})")
    assert code == 3
    assert "remainder" in err
    code, out, _ = run(capsys, "eval", "--div-truncate", "3", "1 / (1 + G1^{-1})")
    assert (code, out) == (0, "1 - G1^{-1} + G1^{-2}\n")


def test_eval_one_term_divisor_divides_exactly(capsys):
    for text, n, divisor in (("(G1+1)^20 / (2*G1)", 20, 2 * GROSSONE), ("(G1+1)^25 / G1", 25, GROSSONE)):
        code, out, err = run(capsys, "eval", text)
        assert (code, err) == (0, "")
        assert parse_number(out.strip()) * divisor == power_int(GROSSONE + 1, n)
    code, out, _ = run(capsys, "eval", "--div-truncate", "3", "(G1+1)^25 / G1")
    assert (code, out) == (0, "G1^{24} + 25*G1^{23} + 300*G1^{22}\n")


def test_eval_division_budget_above_the_cap_is_a_limit_error(capsys):
    code, out, err = run(capsys, "eval", "--div-truncate", "1000000", "1/(1+G1^{-1})")
    assert (code, out) == (3, "")
    assert err == f"error: a division may emit at most {MAX_DIV_TERMS} quotient terms, not 1000000\n"
    # a quotient that stays below the cap is not refused
    code, out, err = run(capsys, "eval", "--div-truncate", "20000", "1/2")
    assert (code, out, err) == (0, "0.5\n", "")


def test_eval_decimal_format(capsys):
    code, out, _ = run(capsys, "eval", "--format", "decimal:2", "1/3 * G1")
    assert (code, out) == (0, "0.33*G1\n")
    code, out, _ = run(capsys, "eval", "--format", "exact", "1/3 * G1")
    assert (code, out) == (0, "1/3*G1\n")


def test_eval_nesting_limit(capsys):
    code, out, _ = run(capsys, "eval", "G1^{G1^{G1}}")
    assert (code, out) == (0, "G1^{G1^{G1}}\n")
    code, _, err = run(capsys, "eval", "G1^{" * 101 + "G1" + "}" * 101)
    assert code == 2
    assert err == "error: 1:404: nested deeper than 100\n"
    # a numeral too deep is refused at its 101st "{", as parse_number does,
    # not read again as an expression
    text = "G1^{-" * 101 + "1" + "}" * 101
    assert run(capsys, "eval", text) == (2, "", "error: 1:504: nested deeper than 100\n")
    with pytest.raises(DepthLimitExceeded) as refused:
        parse_number(text)
    assert (refused.value.line, refused.value.column) == (1, 504)


@pytest.mark.parametrize(
    "expression", ["(" * 3000 + "1" + ")" * 3000, "^".join(["2"] * 400)], ids=["parens", "powers"]
)
def test_eval_deep_input_is_a_parse_error(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(": nested deeper than 100\n")
    assert "Traceback" not in err


def test_nested_power_output_reparses(capsys):
    code, out, _ = run(capsys, "eval", "G1^(" * 10 + "G1" + ")" * 10)
    numeral = out.strip()
    assert (code, numeral) == (0, "G1^{" * 10 + "G1" + "}" * 10)
    assert run(capsys, "eval", numeral) == (0, out, "")
    assert run(capsys, "sum", "--summand", "1", "--upper", numeral) == (0, out, "")


@pytest.mark.parametrize(
    "op, terms, expected", [("+", 5000, "5000"), ("-", 5000, "-4998"), ("*", 1500, "1")]
)
def test_eval_long_operator_chains(capsys, op, terms, expected):
    code, out, err = run(capsys, "eval", op.join(["1"] * terms))
    assert (code, out, err) == (0, expected + "\n", "")


def test_eval_progression_step_uses_the_numeral_printer(capsys):
    code, out, _ = run(capsys, "eval", "--format", "decimal:2", "image(N, 1/3, 1/3)")
    assert (code, out) == (0, "progression(start=0.67, step=0.33, count=G1)\n")
    code, out, _ = run(capsys, "eval", "image(N, 1/2, 0)")
    assert (code, out) == (0, "progression(start=0.5, step=0.5, count=G1)\n")


@pytest.mark.parametrize(
    "expression, printed",
    [
        ("count(image(N, 2, 0))", "G1"),
        # N without one member, and N with a non-member adjoined
        ("count(N) - 1", "G1 - 1"),
        ("count(N) + 1", "G1 + 1"),
        ("member(G1 + 1, N)", "false"),
        # the G1-tuples over N
        ("G1^G1", "G1^{G1}"),
        # the part is less than the whole
        ("count(E) < count(N)", "true"),
    ],
)
def test_eval_set_builtins_inside_expressions(capsys, expression, printed):
    code, out, _ = run(capsys, "eval", expression)
    assert (code, out) == (0, printed + "\n")


@pytest.mark.parametrize("expression", ["N + 1", "member(1, N) * 2"])
def test_eval_set_or_boolean_where_a_number_is_needed(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith("not a number\n")
    assert "Traceback" not in err


def test_unsupported_exponentiation(capsys):
    code, _, err = run(capsys, "eval", "2^G1")
    assert code == 3
    assert "cannot represent" in err


# ---------------------------------------------------------------------- sum


def test_sum_alternating_identity_to_the_infinite_count(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "i", "--alternating", "--upper", "G1")
    assert (code, out) == (0, "-0.5*G1\n")


def test_sum_alternating_unit_items(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "1", "--alternating", "--upper", "2*G1")
    assert (code, out) == (0, "0\n")


def test_sum_gauss(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "i", "--upper", "100")
    assert (code, out) == (0, "5050\n")


def test_sum_triangle_at_the_infinite_count(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "i", "--upper", "G1")
    assert (code, out) == (0, "0.5*G1^{2} + 0.5*G1\n")


def test_sum_geometric_finite_falls_back_to_iteration(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "2^i", "--upper", "10")
    assert (code, out) == (0, "2046\n")


def test_sum_fallback_honours_div_truncate(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "1/(i+G1)", "--upper", "3", "--div-truncate", "3")
    assert code == 0
    G1 = parse_number("G1")
    expected = sum((divide(ONE, i + G1, 3).quotient for i in (1, 2, 3)), ZERO)
    assert parse_number(out.strip()) == expected
    code, _, err = run(capsys, "sum", "--summand", "1/(i+G1)", "--upper", "3")
    assert code == 3


def test_sum_closed_form_honours_div_truncate(capsys):
    summand = ("sum", "--summand", "i/(1+G1)", "--div-truncate", "3")
    code, out, _ = run(capsys, *summand, "--upper", "G1")
    assert (code, out) == (0, "0.5*G1 + 0.5*G1^{-2}\n")
    code, out, _ = run(capsys, *summand, "--upper", "3")
    assert (code, out) == (0, "6*G1^{-1} - 6*G1^{-2} + 6*G1^{-3}\n")
    brute = sum_finite_generic(parse_expression("i/(1+G1)"), 3, Env(div_max_terms=3))
    assert parse_number(out.strip()) == brute


def test_sum_long_summand_chain(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "+".join(["i"] * 2000), "--upper", "3")
    assert (code, out) == (0, "12000\n")


def test_sum_fallback_alternating(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "2^i", "--alternating", "--upper", "4")
    assert (code, out) == (0, "-10\n")


def test_sum_geometric_infinite_rejected(capsys):
    code, _, err = run(capsys, "sum", "--summand", "2^i", "--upper", "G1")
    assert code == 3
    assert "geometric" in err


def test_sum_term_by_term_count_above_the_cap_is_a_limit_error(capsys):
    code, out, err = run(capsys, "sum", "--summand", "2^i - 2^i", "--upper", "1000000000")
    assert (code, out) == (3, "")
    assert err == "error: a sum without a closed form adds at most 10000 items, not 1000000000\n"


def test_printed_negative_values_reenter_after_a_double_dash_or_an_equals_sign(capsys):
    code, out, _ = run(capsys, "eval", "1 - 2*G1")
    assert (code, out) == (0, "-2*G1 + 1\n")
    assert run(capsys, "eval", "--", "-2*G1 + 1") == (0, out, "")
    code, out, _ = run(capsys, "sum", "--summand=-i", "--upper", "G1")
    assert (code, out) == (0, "-0.5*G1^{2} - 0.5*G1\n")
    assert run(capsys, "eval", "--", "-G1") == (0, "-G1\n", "")
    # without them a leading '-' reads as an option: a usage error
    for argv in (["eval", "-G1"], ["sum", "--summand", "-i", "--upper", "G1"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1


def test_sum_alternating_needs_parity(capsys):
    code, _, err = run(capsys, "sum", "--summand", "i", "--alternating", "--upper", "G1 + G1^{-1}")
    assert code == 3
    assert "infinitesimal" in err


@pytest.mark.parametrize("alternating", [[], ["--alternating"]], ids=["plain", "alternating"])
@pytest.mark.parametrize("summand", ["i^2", "2^i"], ids=["closed-form", "term-by-term"])
@pytest.mark.parametrize("count", ["-1", "-G1", "1/2", "G1^{-1}", "1/2*G1 + 1/2", "0"])
def test_sum_count_is_a_non_negative_integer(capsys, count, summand, alternating):
    code, out, err = run(capsys, "sum", "--summand", summand, *alternating, f"--upper={count}")
    if count == "0":
        assert (code, out, err) == (0, "0\n", "")
    else:
        assert (code, out) == (3, "")
        assert err.startswith("error: an item count is a non-negative integer")
        assert str(parse_number(count)) in err


def test_sum_parse_error(capsys):
    code, _, err = run(capsys, "sum", "--summand", "i +", "--upper", "G1")
    assert code == 2


def test_sum_custom_variable(capsys):
    code, out, _ = run(capsys, "sum", "--summand", "2*n - 1", "--var", "n", "--upper", "G1")
    assert (code, out) == (0, "G1^{2}\n")


@pytest.mark.parametrize("var", ["n", "_k", "N"])
def test_sum_var_takes_any_name(capsys, var):
    # N names the set of naturals until the index variable shadows it
    assert run(capsys, "sum", "--summand", var, "--var", var, "--upper", "3") == (0, "6\n", "")


@pytest.mark.parametrize("var", ["G1", "let", "1x", "i i", "", "@"])
def test_sum_var_must_be_a_name(capsys, var):
    with pytest.raises(SystemExit) as exit_info:
        main(["sum", "--summand", "G1", "--var", var, "--upper", "3"])
    assert exit_info.value.code == 1
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------- prob


@pytest.mark.parametrize(
    "total, favorable, probability, event_class",
    [("G1", "1", "G1^{-1}", "InfinitesimalProbability"), ("12", "3", "0.25", "FiniteProbability")],
)
def test_prob_single_point(capsys, total, favorable, probability, event_class):
    code, out, _ = run(capsys, "prob", "--total", total, "--favorable", favorable)
    assert code == 0
    assert out == f"{probability}\n{event_class}\nPoint\n"


def test_prob_impossible(capsys):
    code, out, _ = run(capsys, "prob", "--total", "G1", "--favorable", "0")
    assert code == 0
    assert out == "0\nImpossible\n"


@pytest.mark.parametrize(
    "total, favorable, probability, event_class",
    [
        ("G1^{2}", "G1", "G1^{-1}", "InfinitesimalProbability"),
        ("G1", "G1", "1", "Certain"),
        ("2*G1", "G1", "0.5", "FiniteProbability"),
    ],
)
def test_prob_arc(capsys, total, favorable, probability, event_class):
    code, out, _ = run(capsys, "prob", "--total", total, "--favorable", favorable)
    assert code == 0
    assert out == f"{probability}\n{event_class}\nArc\n"


def test_prob_honours_div_truncate(capsys):
    code, out, _ = run(capsys, "prob", "--total", "G1+1", "--favorable", "1", "--div-truncate", "3")
    assert code == 0
    assert out == "G1^{-1} - G1^{-2} + G1^{-3}\nInfinitesimalProbability\nPoint\n"


@pytest.mark.parametrize(
    "total, favorable, message",
    [
        ("G1", "G1 + 1", "the favorable count cannot exceed the sample space"),
        ("0", "0", "the sample space must have a positive number of events"),
        ("-1", "0", "the sample space must have a positive number of events"),
        ("G1", "-1", "the favorable count cannot be negative"),
    ],
    ids=["favorable above total", "zero total", "negative total", "negative favorable"],
)
def test_prob_invariant_violation(capsys, total, favorable, message):
    code, out, err = run(capsys, "prob", "--total", total, "--favorable", favorable)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "total, favorable", [("G1", "G1^{-1}"), ("1/2", "1/4"), ("G1 + 1/2", "1"), ("G1", "1/2")]
)
def test_prob_counts_are_integer_like(capsys, total, favorable):
    code, out, err = run(capsys, "prob", "--total", total, "--favorable", favorable)
    assert (code, out) == (3, "")
    assert "integer-like" in err


# -------------------------------------------------------------------- usage


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--frobnicate", "1"])
    assert exit_info.value.code == 1


def test_bad_format_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--format", "hex", "1"])
    assert exit_info.value.code == 1


@pytest.mark.parametrize("argv, text", [
    (["eval", "--div-truncate", "x", "1"], "'x'"),
    (["eval", "--div-truncate", "0", "1"], "'0'"),
    (["eval", "--format", "decimal:x", "1"], "'x'"),
    (["sum", "--summand", "i", "--upper", "3", "--format", "decimal:-2"], "'-2'"),
])
def test_bad_integer_option_names_no_private_helper(argv, text, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 1
    assert err.endswith(f"expected a positive integer, not {text}\n")
    assert not re.search(r"(?<!\w)_\w", err)


# --------------------------------------------------------------------- repl


def test_repl_script_golden(capsys):
    code, out, err = run(capsys, "repl", "--script", str(FIXTURES / "session_basics.txt"))
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "-4",
        "G1^{-2}",
        "1",
        "true",
        "true",
        "G1",
        "0.5*G1",
        "true",
        "false",
        "G1",
        "true",
        "G1^{2}",
    ]


def test_repl_errors_do_not_kill_the_session(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text("q + 1\nlet a = 2\na * 3\n", encoding="utf-8")
    code, out, err = run(capsys, "repl", "--script", str(script))
    assert code == 3
    assert "unbound name q" in err
    assert out == "6\n"


def test_repl_script_errors_name_file_and_line(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text("let a = 1\n1 +\nq\n", encoding="utf-8")
    code, out, err = run(capsys, "repl", "--script", str(script))
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"{script}:2:4: expected an expression",
        f"{script}:3: unbound name q",
    ]


def test_repl_sets_share_the_namespace(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text(
        "let c = count(N) - count(E)\nc\nlet D = image(N, 2, 0)\nD\nlet N = 5\ncount(N)\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "repl", "--script", str(script))
    assert code == 3
    assert out == "0.5*G1\nprogression(start=2, step=2, count=G1)\n"
    assert err == f"{script}:6: N is not a set\n"


@pytest.mark.parametrize(
    "session, message",
    [
        ("def N(x) = x\ncount(N)\n", "<stdin>:2: N is a function, not a value"),
        ("let count = 5\ncount(N)\n", "<stdin>:2: count is a number, not a function"),
        ("def a(x) = x\nlet a = 1\na(5)\n", "<stdin>:3: a is a number, not a function"),
        ("let f = 2\nf(3)\n", "<stdin>:2: f is a number, not a function"),
        ("def a(x) = x\na\n", "<stdin>:2: a is a function, not a value"),
        ("def f(x) = f(x)\nf(1)\n", "<stdin>:2: calls of f nest deeper than 400 levels"),
        (
            "def f(x) = { 1 if x < 0 }\ndef g(x) = { 1 if x > 0 }\nf(-1) + g(-1)\n",
            "<stdin>:3: no branch of g matches -1",
        ),
    ],
)
def test_repl_names_what_a_binding_holds(monkeypatch, capsys, session, message):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(session + "1 + 1\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "2\n", message + "\n")


def test_eval_calling_a_set_is_an_evaluation_error(capsys):
    assert run(capsys, "eval", "N(2)") == (3, "", "error: N is a set, not a function\n")


def test_repl_quit_stops_processing(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text("1 + 1\n:quit\n2 + 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "repl", "--script", str(script))
    assert code == 0
    assert out == "2\n"


def test_repl_missing_script_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "repl", "--script", str(tmp_path / "missing.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_repl_stdin_pipe(monkeypatch, capsys):
    import io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", io.StringIO("let x = G1\nx - G1\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "0\n"


def test_repl_on_a_terminal_prompts_until_end_of_input():
    import os
    import pty

    terminal, stdin = pty.openpty()
    try:
        # the terminal queues the lines, and ^D at the start of a line is
        # end of input
        os.write(terminal, b"1 + 1\nlet x = G1\nx^2\n\x04")
        proc = subprocess.run(
            [sys.executable, "-m", "grossone.cli", "repl"], stdin=stdin, capture_output=True, timeout=30
        )
    finally:
        os.close(stdin)
        os.close(terminal)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"g1> 2\ng1> g1> G1^{2}\ng1> \n", b"")


def test_repl_stdin_errors_are_named_stdin(monkeypatch, capsys):
    import io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", io.StringIO("1\n2 *\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "1\n")
    assert captured.err == "<stdin>:2:4: expected an expression\n"


def test_repl_survives_a_long_chain(monkeypatch, capsys):
    import io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", io.StringIO("+".join(["1"] * 5000) + "\n1 + 1\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "5000\n2\n", "")


def _tower_script(tmp_path, lets):
    script = tmp_path / "tower.txt"
    script.write_text("let a = G1\n" + "let a = G1^a\n" * lets + "a\n", encoding="utf-8")
    return script


def test_repl_values_stay_reparseable(tmp_path, capsys):
    script = _tower_script(tmp_path, 101)
    code, out, err = run(capsys, "repl", "--script", str(script))
    assert code == 3
    assert err == f"{script}:102: the result would print nested deeper than 100 braces\n"
    assert out.count("{") == 100
    assert run(capsys, "eval", out.strip()) == (0, out, "")


def _negative_grosspowers_100_braces_deep() -> str:
    # read whole, a numeral holds one level and counts its braces apart; as
    # an expression each "^{-" would open two, one for the brace and one for
    # the minus
    value = monomial(1, -1)
    for _ in range(99):
        value = monomial(1, -value)
    text = print_canonical(value)
    assert text.count("{") == 100
    return text


def test_printed_negative_grosspowers_100_braces_deep_read_back(tmp_path, capsys):
    text = _negative_grosspowers_100_braces_deep()
    assert run(capsys, "eval", text) == (0, text + "\n", "")
    script = tmp_path / "deep.txt"
    script.write_text(f"let a = {text}\na\n", encoding="utf-8")
    assert run(capsys, "repl", "--script", str(script)) == (0, text + "\n", "")


@pytest.mark.parametrize(
    "context, printed",
    [
        ("({})", "{}"),
        ("2*({})", "2*{}"),
        # at Python's default recursion limit: 100 levels of "(" and one
        # numeral whose 100 braces count apart from them
        ("(" * 100 + "{}" + ")" * 100, "{}"),
        ("{} * 1", "{}"),
        ("{} / 2", "0.5*{}"),
        ("2 * {}", "2*{}"),
        # a "^{ }" exponent is a full expression: it reads the numeral whole
        ("1^{{{}}}", "1"),
    ],
    ids=["group", "factor", "100 parentheses", "left of *", "left of /", "right of *", "exponent"],
)
def test_a_printed_value_100_braces_deep_reads_back_inside_a_group(capsys, context, printed):
    text = _negative_grosspowers_100_braces_deep()
    assert run(capsys, "eval", context.format(text)) == (0, printed.format(text) + "\n", "")


def _frames_in_use() -> int:
    frame, frames = sys._getframe(1), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    return frames


def test_100_parentheses_around_a_value_100_braces_deep_parse_within_660_frames():
    # each "(" holds five parser frames (compare, numeral, multiplicative,
    # unary, atom) and each brace of the numeral one literal frame
    text = _negative_grosspowers_100_braces_deep()
    value = parse_number(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_in_use() + 660)
    try:
        ast = parse_expression("(" * 100 + text + ")" * 100)
    finally:
        sys.setrecursionlimit(limit)
    assert ast == Literal(value)


def test_a_call_argument_reads_a_printed_value_100_braces_deep(tmp_path, capsys):
    text = _negative_grosspowers_100_braces_deep()
    script = tmp_path / "deep.txt"
    script.write_text(f"def f(x) = x\nf({text})\n", encoding="utf-8")
    assert run(capsys, "repl", "--script", str(script)) == (0, text + "\n", "")


def test_a_definition_reads_a_printed_value_100_braces_deep(tmp_path, capsys):
    # a def body, each branch body and each breakpoint read a numeral whole
    text = _negative_grosspowers_100_braces_deep()
    script = tmp_path / "deep.txt"
    script.write_text(
        f"def f(x) = {text}\nf(1)\ndef g(x) = {{ {text} if x < {text}; 1 if x >= {text} }}\ng(0)\ng(G1)\n",
        encoding="utf-8",
    )
    assert run(capsys, "repl", "--script", str(script)) == (0, f"{text}\n{text}\n1\n", "")


def test_repl_long_tower_of_lets_is_not_a_traceback(tmp_path, capsys):
    code, out, err = run(capsys, "repl", "--script", str(_tower_script(tmp_path, 500)))
    assert code == 3
    assert out.count("{") == 100
    assert err.count("nested deeper than 100 braces") == 400
    assert "Traceback" not in err


def test_repl_tower_built_by_calls_is_an_evaluation_error(monkeypatch, capsys):
    # one statement builds a tower 1200 grosspowers deep; measuring its
    # printed depth must refuse it, not recurse once per level
    import io

    session = "".join(
        [
            "def t(x) = G1^x\n",
            "def u(x) = " + "t(" * 30 + "x" + ")" * 30 + "\n",
            "u(" * 40 + "1" + ")" * 40 + "\n",
            "1 + 1\n",
        ]
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "2\n")
    assert captured.err == "<stdin>:3: the result would print nested deeper than 100 braces\n"


def test_repl_operators_on_towers_built_by_calls_are_evaluation_errors(monkeypatch, capsys):
    # each operand would be a tower 1350 grosspowers deep; it is refused
    # where its 101st level is made, so no operator recurses down a tower
    import io

    operand = "u(" * 45 + "1" + ")" * 45
    session = "".join(
        [
            "def t(x) = G1^x\n",
            "def u(x) = " + "t(" * 30 + "x" + ")" * 30 + "\n",
            *(f"{operand} {op} {operand}\n" for op in ("<", "+", "-", "*")),
            "1 + 1\n",
        ]
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "2\n")
    assert captured.err == "".join(
        f"<stdin>:{line}: the result would print nested deeper than 100 braces\n" for line in range(3, 7)
    )


@pytest.mark.parametrize("text", ["1 < 2", "1 > 2", "member(1, N)", "member(1, E)"])
def test_printed_booleans_reparse(capsys, text):
    code, out, err = run(capsys, "eval", text)
    assert (code, err) == (0, "")
    assert out in ("true\n", "false\n")
    assert run(capsys, "eval", out.strip()) == (0, out, "")


def test_bindings_shadow_the_boolean_names(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("true\nlet true = 3\ntrue + 1\nfalse\n"))
    code = main(["repl"])
    assert (code, capsys.readouterr().out) == (0, "true\n4\nfalse\n")


@pytest.mark.parametrize(
    "session, code",
    [
        ("1+\n2\n", 2),
        ("1+\nq\n2 *\n", 3),
        ("q\n1+\n", 3),
        ("1\n# only a comment\n\n", 0),
    ],
)
def test_repl_exits_with_the_worst_code_it_saw(monkeypatch, capsys, session, code):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(session))
    assert main(["repl"]) == code
    capsys.readouterr()


def test_repl_image_binding_prints_nothing_until_queried(tmp_path, capsys):
    script = tmp_path / "session.txt"
    script.write_text("image(E, 0.5, 0)\n", encoding="utf-8")
    code, out, _ = run(capsys, "repl", "--script", str(script))
    assert code == 0
    assert out == "progression(start=1, step=1, count=0.5*G1)\n"


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_process(monkeypatch, capsys):
    # main builds its parser once; each command in one process must still
    # answer like the same command in a process of its own.
    monkeypatch.setenv("COLUMNS", "80")
    commands = [
        ["eval", "1+G1"],
        ["sum", "--upper", "G1"],
        ["sum", "--summand", "i^2", "--upper", "G1"],
        ["eval", "--help"],
    ]
    codes = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "grossone.cli", *argv], capture_output=True, text=True
        )
        assert _in_process(capsys, argv) == (proc.returncode, proc.stdout, proc.stderr)
        codes.append(proc.returncode)
    assert codes == [0, 1, 0, 0]


def _two_pass(argv):
    # the parse that main made before it read a known subcommand in one pass:
    # the top-level parser reads every word and hands the words after the
    # subcommand to that subcommand's parser
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrossoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


def outcome(entry, argv):
    """Exit code, stdout and stderr of ``entry(argv)``, usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARITY_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["evl", "1"],
    ["ev", "1"],
    ["--div-truncate", "3", "eval", "1"],
    ["eval", "1", "2"],
    ["eval", "--", "-G1"],
    ["eval", "--", "1", "--"],
    ["sum", "--summand=-i", "--upper", "3"],
    ["eval", "--div", "3", "1/(1+G1)"],
    ["eval", "--format=decimal:2", "1/3"],
    ["eval", "--help"],
    ["sum", "--upper", "G1"],
    ["repl", "--script", str(FIXTURES / "no-such-script.txt")],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=repr)
def test_one_pass_parse_answers_like_the_two_pass_parse(monkeypatch, argv):
    # usage, help and error texts are argparse's own, so they must come out
    # byte for byte as the top-level parser alone would print them
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(main, argv) == outcome(_two_pass, argv)


def test_a_known_subcommand_is_parsed_in_one_pass(monkeypatch, capsys):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (
        ["eval", "1+G1"],
        ["sum", "--summand", "i", "--upper", "G1"],
        ["prob", "--total", "G1", "--favorable", "1"],
        ["repl", "--script", str(FIXTURES / "session_basics.txt")],
    ):
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err, calls) == (0, "", [f"grossone {argv[0]}"])


def _out_of_memory(*args):
    raise MemoryError


def test_eval_out_of_memory_is_an_evaluation_error(monkeypatch, capsys):
    monkeypatch.setattr(grossone.cli, "evaluate_value", _out_of_memory)
    assert run(capsys, "eval", "(G1+1)^200000") == (3, "", "error: out of memory\n")


def test_repl_reports_running_out_of_memory_and_goes_on(monkeypatch, capsys):
    evaluate_value = grossone.evaluator.evaluate_value

    def fails_on_powers(ast, env):
        return _out_of_memory() if isinstance(ast, Binary) and ast.op == "^" else evaluate_value(ast, env)

    monkeypatch.setattr(grossone.evaluator, "evaluate_value", fails_on_powers)
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 + 1\n(G1+1)^200000\nG1 - 1\n"))
    assert run(capsys, "repl") == (3, "2\nG1 - 1\n", "<stdin>:2: out of memory\n")


# Python converts at most this many digits between an integer and text.
DIGIT_LIMIT = sys.get_int_max_str_digits()


def test_huge_integer_output_is_a_limit_error(capsys):
    code, out, err = run(capsys, "eval", "2^20000")
    assert (code, out) == (3, "")
    assert err == f"error: a coefficient is too long to print: more than {DIGIT_LIMIT} digits\n"
    code, out, err = run(capsys, "eval", "--format", "decimal:2", "2^20000 + G1")
    assert (code, out) == (3, "")
    assert "too long to print" in err


@pytest.mark.parametrize("places", [1_000_000, 10_000_000])
def test_decimal_places_beyond_the_print_limit_are_refused_before_rounding(places, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--format", f"decimal:{places}", "1/3")
    assert time.perf_counter() - start < 0.25
    assert (code, out) == (3, "")
    assert err == f"error: a coefficient is too long to print: more than {DIGIT_LIMIT} digits\n"


def test_decimal_places_that_print_today_still_print(capsys):
    code, out, err = run(capsys, "eval", "--format", "decimal:5000", "1/10^4999")
    assert (code, len(out), err) == (0, 5002, "")
    assert out == "0." + "0" * 4998 + "1\n"
    # an integer needs no places, however many are asked for
    assert run(capsys, "eval", "--format", "decimal:10000000", "7 - G1") == (0, "-G1 + 7\n", "")


def test_errors_on_a_huge_value_keep_their_own_message(capsys):
    code, out, err = run(capsys, "eval", "(2^20000 + G1)/(1+G1)")
    assert (code, out) == (3, "")
    assert err == (
        "error: (<a value too long to print>) / (G1 + 1) leaves remainder "
        "<a value too long to print> after 20 quotient terms\n"
    )
    code, out, err = run(capsys, "eval", "(2^20000 + G1)^(1/2)")
    assert (code, out) == (3, "")
    assert err == "error: cannot represent (<a value too long to print>)^(0.5) as a finite positional numeral\n"


def test_huge_integer_literal_is_a_parse_error(capsys):
    code, out, err = run(capsys, "eval", "1 + " + "7" * 5000)
    assert (code, out) == (2, "")
    assert err == f"error: 1:5: number literal too long: more than {DIGIT_LIMIT} digits\n"
    code, out, err = run(capsys, "sum", "--summand", "i", "--upper", "G1 + 1/" + "3" * 5000)
    assert (code, out) == (2, "")
    assert "1:8: number literal too long" in err


def test_repl_reports_a_huge_value_and_goes_on(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("let a = 2^20000\na\na - a + 1\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "1\n")
    assert captured.err == f"<stdin>:2: a coefficient is too long to print: more than {DIGIT_LIMIT} digits\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "grossone.cli", "eval", "G1^{-1} * G1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a tenth of a
    # cold `grossone eval 1`.  -S keeps site hooks out of the count, and the
    # path is that of the grossone under test.
    code = (
        "import sys, grossone.cli\n"
        "grossone.cli.main(['eval', '1'])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(grossone.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n[]\n", "")
