"""The README's examples, run as written: each ``grossone ... # -> out``
line of the CLI block, and the REPL block as one session; and the output
of ``scripts/worked_examples.py``, pinned in ``fixtures/worked_examples.txt``."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from grossone.cli import main

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = README.split("```")[1::2]

CLI_EXAMPLES = [
    tuple(part.strip() for part in line.split("# ->"))
    for block in BLOCKS
    for line in block.splitlines()
    if line.startswith("grossone ") and "# ->" in line
]


def test_readme_has_its_cli_examples():
    assert len(CLI_EXAMPLES) == 7


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES)
def test_cli_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    # an output of several lines is written on one line, joined by ", "
    assert (code, ", ".join(captured.out.splitlines()), captured.err) == (0, expected, "")


def test_repl_example(tmp_path, capsys):
    (block,) = [block for block in BLOCKS if "\nlet z = G1^{-1}\n" in block]
    lines = [line for line in block.splitlines() if line.strip()]
    statements = [line.split("#")[0].strip() for line in lines]
    script = tmp_path / "readme.txt"
    script.write_text("\n".join(statements) + "\n", encoding="utf-8")
    code = main(["repl", "--script", str(script)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    # every statement but let and def prints one line
    printed = iter(captured.out.splitlines())
    checked = 0
    for line, statement in zip(lines, statements):
        if statement.startswith(("let ", "def ")):
            continue
        shown = next(printed)
        if "# -> " in line:
            assert shown == line.split("# -> ")[1].strip(), statement
            checked += 1
    assert next(printed, None) is None
    assert checked == 4


def test_worked_examples_print_their_pinned_output():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
        capture_output=True, encoding="utf-8", env=env,
    )
    expected = (ROOT / "tests" / "fixtures" / "worked_examples.txt").read_text(encoding="utf-8")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected)
