"""The JSON writer of the command line against the standard library.

`ternions.cli._emit_json` builds the text of a report a row at a time; it
must give exactly the bytes of ``json.dumps(x, sort_keys=True, indent=2)``
plus a newline.  Here ``json.dumps`` is the reference: on generated values
(derandomized, so every run draws the same examples), on payloads long
enough to stream in blocks, and on the in-memory payloads of `verify`,
`enumerate` and `graph`.
"""

import io
import json
from collections import Counter, OrderedDict, namedtuple
from contextlib import redirect_stdout
from enum import IntEnum

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ternions import cli  # noqa: E402

PROPERTY = settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

Pair = namedtuple("Pair", "left right")


def reference(x):
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


def written(x):
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit_json(x, None)
    return buf.getvalue()


# -- generated values --------------------------------------------------------

ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 1e300, -1e-300, 2.5e-7, float("inf"), float("-inf"), float("nan")]
)
texts = st.text() | st.sampled_from(
    ['"', "\\", '\\"q\\"', "\x00\x1f\t\n\r\x7f", "é€ü", "  ", "𝔽q", ""]
)
scalars = st.none() | st.booleans() | ints | floats | texts
# rows of ints are the writer's fast path; bools in a row must not take it
rows = st.lists(st.lists(ints, max_size=6) | st.tuples(ints, ints)) | st.lists(
    st.lists(ints | st.booleans(), max_size=4)
)
# dict rows of one key set are formatted by column, and a column of int
# matrices by one template; a bool in a matrix must leave it
records = st.lists(
    st.fixed_dictionaries(
        {"m": st.lists(st.tuples(ints, ints | st.booleans()), max_size=2), "s": texts}
    ),
    min_size=1,
    max_size=4,
)


def _containers(children):
    keyed = st.dictionaries(texts, children, max_size=5)
    return (
        st.lists(children, max_size=5)
        | st.tuples(children, children)
        | keyed
        | keyed.map(OrderedDict)
        | st.dictionaries(texts, ints, max_size=5).map(Counter)
        | st.builds(Pair, children, children)
    )


values = st.recursive(scalars | rows | records, _containers, max_leaves=40)


@PROPERTY
@given(values)
def test_writer_matches_dumps(x):
    assert written(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        [],
        {},
        [[]],
        [{}],
        {"a": []},
        [[], [1]],
        [(1, 2), [3]],
        [[True, 1]],
        [1, True],
        Pair(1, [2, 3]),
        Counter("abracadabra"),
        OrderedDict([("b", 1), ("a", 2)]),
    ],
    ids=repr,
)
def test_writer_matches_dumps_on_edge_cases(x):
    assert written(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        list(range(3 * cli.JSON_ROWS + 1)),
        [[i, -i] for i in range(2 * cli.JSON_ROWS)],
        {"rows": [[i, i + 1, i + 2] for i in range(cli.JSON_ROWS + 1)], "n": 1},
        {"a": {"b": [{"i": i, "r": [[i]]} for i in range(cli.JSON_ROWS * 2)]}},
        [{"x": list(range(cli.JSON_ROWS + 3))}] * 3,
        tuple([i, str(i), i / 3] for i in range(cli.JSON_ROWS + 1)),
    ],
    ids=["ints", "rows", "dict of rows", "nested dicts", "list of dicts", "tuple"],
)
def test_writer_matches_dumps_across_blocks(x):
    # longer than one block of members at each level the writer streams
    assert written(x) == reference(x)


class Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "x",
    [
        [[i, i + 1, -i] for i in range(cli.JSON_ROWS + 5)],
        {"edges": [(i, i + 1) for i in range(2 * cli.JSON_ROWS + 7)]},
        [[1, 2], [3], (4, 5, 6), [7, 8]],
        [[1, 2], [], [3, 4], (5, 6)],
        [[], [], ()],
        [[1, 2], [True, 3], [4, 5]],
        [[1, 2], [3, Level.LOW], (4, 5)],
        [[1, 2], [3, 2**70], (-(2**70), 0)],
        [{"b": 1, "a": [2, 3]}, {"a": [4], "b": 5}, {"b": {"c": 6}, "a": None}],
        [{"a": 1, "b": 2}, Counter(b=3, a=4), {"b": 5, "a": 6}],
        [{"a": 1, "b": 2}, OrderedDict([("b", 3), ("a", 4)]), {"a": 5, "b": 6}],
        [{"a": 1}, {"a": 2, "b": 3}, {"b": 4}],
        [{}, {}],
    ],
    ids=[
        "rows past a block",
        "tuples past a block",
        "mixed widths",
        "empty row",
        "empty rows only",
        "bool in a row",
        "IntEnum in a row",
        "big ints in rows",
        "one key set, orders differ",
        "dicts and a Counter",
        "dicts and an OrderedDict",
        "key sets differ",
        "empty dicts",
    ],
)
def test_writer_block_paths_match_dumps(x):
    # the equal-width row template, the shared key set and the cases each
    # one must leave to the general path
    assert written(x) == reference(x)


def _record(i):
    """A dict row with a column of each kind the writer meets."""
    return {
        "basis": [[i, i + 1, 0], [0, 1, -i]],
        "index": i,
        "flag": i % 3 == 0,
        "none": None,
        "ratio": i / 7,
        "type": "X\x00" if i % 2 else "Y",
        "sub": {"a": i, "m": ((i, 2), (3, i))},
        "pair": (i, -i),
        "\x00%d": [i],
    }


@pytest.mark.parametrize(
    "x",
    [
        [_record(i) for i in range(cli.JSON_ROWS + 9)],
        {"vertices": [_record(i) for i in range(2 * cli.JSON_ROWS + 1)]},
        [[[1, 2], [3, 4]], ([5, 6], (7, 8))],
        [[[1, 2], [3, 4]], [[5, True], [7, 8]]],
        [[[1, 2], [3, Level.LOW]], [[5, 6], [7, 8]]],
        [[[1, 2]], [[3], [4]]],
        [[[1, 2], [3]], [[4, 5], [6]]],
        [[[]], [[]]],
        [[[], []], [[], []]],
        [[[[1]]], [[[2 ** 70]]]],
        [{"m": [[1, 2], [3, 4]]}, {"m": [[5, 6], [7, 8]]}],
        [{"m": [[1, 2], [3, 4]]}, {"m": [[5, True], [7, 8]]}],
        [{"m": [[1, Level.LOW]]}, {"m": [[2, 3]]}],
        [{"m": [[1, 2]]}, {"m": [[1], [2]]}],
        [{"m": [[]]}, {"m": []}],
        [{"a": 1, "m": [[1]]}, {"a": 2}],
        [{"d": {"a": 1, "b": [2]}}, {"d": {"a": 3}}, {"d": {}}],
        [{"d": {"a": {"b": [[1, 2]]}}}, {"d": {"a": {"b": [[3, 4]]}}}],
        [{"f": 1.5, "n": None, "b": False}, {"f": float("nan"), "n": 0, "b": True}],
        [{"s": "\x00\n\"", "t": (1, "\x00")}, {"s": "é€", "t": (2, "")}],
        [{"e": Level.LOW}, {"e": 2}],
    ],
    ids=[
        "records past a block",
        "records in a dict, two blocks",
        "matrices",
        "bool in a matrix",
        "IntEnum in a matrix",
        "matrices of two shapes",
        "rows of two widths in a matrix",
        "matrices of an empty row",
        "matrices of empty rows",
        "big ints in cubes",
        "matrix column",
        "bool in a matrix column",
        "IntEnum in a matrix column",
        "matrix column of two shapes",
        "empty matrix column",
        "key sets differ, matrix column",
        "nested dicts, key sets differ",
        "nested dicts of matrices",
        "float, None and bool columns",
        "str columns with NULs",
        "IntEnum column",
    ],
)
def test_writer_dict_columns_and_matrices_match_dumps(x):
    # dict rows by column and equal-shape int matrices by one template,
    # and the members each must leave to the general path
    assert written(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        {1: 2},
        {"a": {None: 1}},
        [{"a": 1}, {(1, 2): 3}],
        {1.5: "x"},
        [{1: "a"}, {1: "b"}],
        [{"a": 1, 2: 3}, {2: 4, "a": 5}],
    ],
    ids=["int key", "None key", "tuple key", "float key", "shared int key", "shared mixed keys"],
)
def test_non_str_key_raises(x):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._emit_json(x, None)


@pytest.mark.parametrize(
    "x", [{1, 2}, {"a": [frozenset()]}, [object()]], ids=["set", "frozenset", "object"]
)
def test_unsupported_object_raises(x):
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._emit_json(x, None)


# -- the payloads of the commands --------------------------------------------


def captured_payloads(monkeypatch, argv):
    """The payloads one command hands to _emit_json, nothing written."""
    seen = []
    monkeypatch.setattr(cli, "_emit_json", lambda payload, out: seen.append(payload))
    assert cli.main(argv) == 0
    assert len(seen) == 1
    return seen


@pytest.mark.parametrize(
    "argv",
    [["verify", "--q", str(q), "--seed", "0"] for q in (2, 3, 4, 5)]
    + [["enumerate", "--q", str(q), "--set", "all"] for q in (2, 3, 4)]
    + [["graph", "--q", str(q), "--format", "json"] for q in (2, 3, 4, 5)],
    ids=" ".join,
)
def test_command_payloads_match_dumps(argv, monkeypatch):
    (payload,) = captured_payloads(monkeypatch, argv)
    monkeypatch.undo()
    assert written(payload) == reference(payload)
