"""Library surface: every top-level function and class of the package, and
every method and property of its classes, is referred to by the package's
code or named by the benchmark's tracer, not only by tests (a name only
tests use belongs in the tests); importing the package loads only what it
uses; and the README's examples run."""

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


def references(tree):
    """(name, line) of each name the code refers to: a `Name`, an
    attribute, or an imported name.  Docstrings and comments refer to
    nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unused_definitions(sources, others):
    """`file:line label` of each definition in `sources` that no code of
    `sources` refers to outside its own definition, and whose name, as a
    whole word, occurs in no line of `others` (the tracer names functions
    as strings)."""
    trees = {path: ast.parse(path.read_text()) for path in sources}
    uses = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((path, line))
    words = "\n".join(path.read_text() for path in others)
    unused = []
    for path, tree in trees.items():
        for label, node in definitions(tree):
            if not re.search(rf"\b{re.escape(node.name)}\b", words) and all(
                other == path and node.lineno <= line <= node.end_lineno
                for other, line in uses.get(node.name, ())
            ):
                unused.append(f"{path.name}:{node.lineno} {label}")
    return unused


def test_every_library_name_has_a_user():
    sources = sorted((ROOT / "src" / "ternions").glob("*.py"))
    assert unused_definitions(sources, [ROOT / "perfbench" / "child.py"]) == []


def test_every_test_helper_has_a_user():
    # a helper of conftest.py or oracle.py that no test names belongs
    # nowhere; pytest calls its hooks by name, as pytest_terminal_summary
    tests = ROOT / "tests"
    helpers = [tests / "conftest.py", tests / "oracle.py"]
    assert unused_definitions(helpers, sorted(tests.glob("test_*.py"))) == []


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


def test_guard_flags_a_name_only_prose_mentions(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def named():\n    return 1\n\n\n"
        'def user():\n    """Not a use of named."""\n    # nor is this: named()\n    return 2\n\n\n'
        "print(user())\n"
    )
    assert unused_definitions([lib], []) == ["lib.py:1 named"]


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


def test_readme_python_blocks_run(capsys):
    # every python block of README.md, in order and in one namespace; the
    # Library example ends with one "True True" line per recipe generator
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 2)[1:] for line in lines[-4:]] == [["True", "True"]] * 4


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
