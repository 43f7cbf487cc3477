"""The README's examples, run as written: each ``grossone ... # -> out``
line of the CLI block, and the REPL block as one session; the output of
``scripts/worked_examples.py``, pinned in ``fixtures/worked_examples.txt``;
and the README's list of public names, against the modules."""

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import grossone
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


def _defined_names(module: str) -> set[str]:
    """The names a module's top level defines, by def, class or assignment."""
    tree = ast.parse((ROOT / "src" / "grossone" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_readme_lists_the_public_surface():
    section = README.split("\n## Public surface\n")[1].split("\n## ")[0]
    listed = {}
    for bullet in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        listed[module] = set(names)
    modules = sorted(p.stem for p in (ROOT / "src" / "grossone").glob("*.py") if p.stem != "__init__")
    expected = {"grossone": set(grossone.__all__)}
    for module in modules:
        expected[f"grossone.{module}"] = {n for n in _defined_names(module) if not n.startswith("_")}
    assert listed == expected
