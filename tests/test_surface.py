"""Library surface: every top-level function and class of the package, and
every method and property of its classes, is named by the package itself
or by the benchmark's tracer, not only by tests (a name only tests use
belongs in the tests); and importing the package loads only what it uses."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from conftest import cli_env

ROOT = Path(__file__).resolve().parents[1]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(label, node) of each top-level def or class, and of each method or
    property of a top-level class, dunders aside, labelled `Class.name`."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unused_definitions(sources, others):
    """`file:line label` of each definition in `sources` whose name, as a
    whole word, occurs in no line of `sources` or `others` outside its own
    definition."""
    texts = {path: path.read_text().splitlines() for path in [*sources, *others]}
    unused = []
    for path in sources:
        for label, node in definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, lines in texts.items()
                for n, line in enumerate(lines, 1)
                if not (other == path and node.lineno <= n <= node.end_lineno)
            ):
                unused.append(f"{path.name}:{node.lineno} {label}")
    return unused


def test_every_library_name_has_a_user():
    sources = sorted((ROOT / "src" / "ternions").glob("*.py"))
    assert unused_definitions(sources, [ROOT / "perfbench" / "child.py"]) == []


def test_guard_flags_a_name_only_its_definition_uses(tmp_path):
    lib, tracer = tmp_path / "lib.py", tmp_path / "tracer.py"
    lib.write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    # lonely calls itself: still unused\n    return lonely() + used()\n\n\n"
        "class Traced:\n    pass\n"
    )
    tracer.write_text('NAMES = ("Traced",)\n')
    assert unused_definitions([lib], [tracer]) == ["lib.py:5 lonely"]
    assert unused_definitions([lib], []) == ["lib.py:5 lonely", "lib.py:10 Traced"]


def test_guard_flags_a_member_only_its_definition_uses(tmp_path):
    lib, tracer = tmp_path / "lib.py", tmp_path / "tracer.py"
    lib.write_text(
        "class Box:\n"
        "    size = 1\n\n"
        "    def __len__(self):\n        return self.used()\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    @property\n    def lonely(self):\n        return self.lonely\n\n"
        "    def traced(self):\n        pass\n\n\n"
        "print(len(Box()))\n"
    )
    tracer.write_text('OPS = ("traced",)\n')
    assert unused_definitions([lib], [tracer]) == ["lib.py:11 Box.lonely"]
    assert unused_definitions([lib], []) == ["lib.py:11 Box.lonely", "lib.py:14 Box.traced"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    # cost every run about 10 ms of start-up; -S keeps site hooks from
    # loading either first
    code = (
        "import sys, ternions.cli, ternions.gf; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=cli_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
