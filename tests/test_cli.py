import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cli_env, every_field

from ternions.cli import EXIT_STDOUT_CLOSED, JSON_BLOCK, _emit_json
from ternions.gf import field_of_order

CLI = [sys.executable, "-m", "ternions.cli"]


def run_cli(*argv, env=None):
    return subprocess.run(
        CLI + list(argv),
        capture_output=True,
        text=True,
        env={**cli_env(), **(env or {})},
        timeout=300,
    )


def test_verify_q2_passes_and_is_deterministic():
    a = run_cli("verify", "--q", "2", "--seed", "3")
    b = run_cli("verify", "--q", "2", "--seed", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte identical
    report = json.loads(a.stdout)
    assert report["summary"]["ok"] is True
    assert report["config"]["q"] == 2
    assert report["config"]["seed"] == 3
    # timing is allowed on stderr only
    assert "s)" not in a.stdout
    assert "passed" in a.stderr


def test_verify_single_suite_csv():
    r = run_cli("verify", "--q", "2", "--suite", "counts", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "suite,claim,ok"
    assert all(l.startswith("counts,") for l in lines[1:])
    assert all(l.endswith(",true") for l in lines[1:])


def test_incidence_csv_q2():
    r = run_cli("verify", "--q", "2", "--suite", "incidence", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == (
        "type,X,Y,alpha,beta,gamma\n"
        "X,1,0,1,2,1\n"
        "Y,0,1,1,0,3\n"
        "alpha,6,1,1,0,1\n"
        "beta,3,0,0,1,0\n"
        "gamma,6,3,1,0,1\n"
    )


def test_enumerate_counts():
    r = run_cli("enumerate", "--q", "2", "--set", "gx")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["count"] == 18
    assert all(m["set"] == "gx" and m["dim"] == 3 for m in data["members"])
    r_all = run_cli("enumerate", "--q", "2")
    data_all = json.loads(r_all.stdout)
    assert data_all["count"] == 39
    by_set = {}
    for m in data_all["members"]:
        by_set[m["set"]] = by_set.get(m["set"], 0) + 1
    assert by_set == {"gx": 18, "gy": 3, "galpha": 3, "gbeta": 12, "ggamma": 3}


def test_enumerate_csv():
    r = run_cli("enumerate", "--q", "2", "--set", "gy", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "set,type,dim,basis,generator"
    assert len(lines) == 4
    for l in lines[1:]:
        fields = l.split(",")
        assert fields[0] == "gy" and fields[1] == "Y" and fields[2] == "3"
        assert len(fields[3].split("|")) == 3  # three basis rows
        assert len(fields[4].split(";")) == 2  # generator pair


def test_graph_dot_q2():
    r = run_cli("graph", "--q", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "graph adjacency {"
    assert sum(1 for l in lines if "[type=" in l) == 21
    assert sum(1 for l in lines if " -- " in l) == 66


def test_graph_json_q3():
    r = run_cli("graph", "--q", "3", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["q"] == 3
    assert len(data["vertices"]) == 52
    assert len(data["edges"]) == 318


def test_out_file_matches_stdout(tmp_path):
    direct = run_cli("enumerate", "--q", "2", "--set", "galpha")
    path = tmp_path / "report.json"
    r = run_cli("enumerate", "--q", "2", "--set", "galpha", "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == ""
    assert path.read_text() == direct.stdout


def test_graph_out_file_matches_stdout(tmp_path):
    direct = run_cli("graph", "--q", "3", "--format", "json")
    path = tmp_path / "graph.json"
    r = run_cli("graph", "--q", "3", "--format", "json", "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == ""
    assert path.read_bytes() == direct.stdout.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--q", "4", "--suite", "thm2"),
        ("enumerate", "--q", "2", "--set", "gy"),
        ("graph", "--q", "2", "--format", "json"),
        ("graph", "--q", "2", "--format", "dot"),
    ],
    ids=" ".join,
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path):
    # --out cannot be opened: exit 2 (usage), never 1, which says that a
    # claim failed
    path = tmp_path / "missing" / "report.json"
    r = run_cli(*argv, "--out", str(path))
    assert r.returncode == 2
    assert f"error: cannot write {path}: " in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert not path.parent.exists()


def test_unwritable_out_fails_before_computing(tmp_path):
    path = tmp_path / "missing" / "x.json"
    r = run_cli("verify", "--q", "4", "--suite", "thm2", "--out", str(path))
    assert r.returncode == 2
    assert f"error: cannot write {path}: " in r.stderr
    assert not any(line.startswith("suite ") for line in r.stderr.splitlines())


def test_out_directory_is_refused(tmp_path):
    r = run_cli("graph", "--q", "2", "--out", str(tmp_path))
    assert r.returncode == 2
    assert f"error: cannot write {tmp_path}: " in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_run_that_exits_2_leaves_out_as_it_was(existing, tmp_path):
    # q = 6 is refused after --out was checked
    path = tmp_path / "report.json"
    if existing:
        path.write_text("kept\n")
    r = run_cli("verify", "--q", "6", "--out", str(path))
    assert r.returncode == 2
    assert "not a prime power" in r.stderr
    if existing:
        assert path.read_text() == "kept\n"
    else:
        assert not path.exists()


def test_closed_stdout_exits_without_traceback():
    # `graph --q 7 --format json | head -1`: 605,772 bytes, more than a pipe
    # holds, so the writer is still writing when the reader goes
    proc = subprocess.Popen(
        CLI + ["graph", "--q", "7", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == EXIT_STDOUT_CLOSED != 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert "wrote" not in err


def test_budget_guard_exit_2():
    # the edge guard lives where the edges are listed, in the graph export:
    # (q+1) C(q^2+q+1, 2) + C(q+1, 2) at q = 13, with nothing written, in
    # either format
    for fmt in ("dot", "json"):
        r = run_cli("graph", "--q", "13", "--format", fmt)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "budget" in r.stderr.lower()
        assert "233233 adjacency edges" in r.stderr
        assert "--allow-large lifts the budget" in r.stderr


@pytest.mark.parametrize("q,suite", [(13, "adjacency"), (13, "remark"), (19, "incidence")])
def test_former_walls_pass_under_default_budget(q, suite):
    # the suites that listed the adjacency edges (q = 13) and the J-line
    # points (q = 19) read the trace groups and the J-lines instead
    r = run_cli("verify", "--q", str(q), "--suite", suite, "--seed", "0")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["summary"]["ok"] is True


@pytest.mark.parametrize("suite", ["thm1", "incidence", "remark"])
def test_q11_suites_pass_under_default_budget(suite):
    r = run_cli("verify", "--q", "11", "--suite", suite)
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"]["ok"] is True


def test_graph_q11_passes_under_default_budget():
    r = run_cli("graph", "--q", "11", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert (len(data["vertices"]), len(data["edges"])) == (1596, 105402)


def test_graph_budget_guard_exit_2():
    # (q+1) C(q^2+q+1, 2) + C(q+1, 2) adjacency edges at q = 13
    r = run_cli("graph", "--q", "13")
    assert r.returncode == 2
    assert "budget" in r.stderr.lower()
    assert "233233 adjacency edges" in r.stderr


def test_counts_q8_pass_under_default_budget():
    r = run_cli("verify", "--q", "8", "--suite", "counts")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["summary"]["ok"] is True
    walk = next(c for c in report["claims"] if c["id"] == "model:classifier-agreement")
    assert walk["detail"]["method"] == "unit-orbit normal forms"


def test_lemmas_q5_pass_under_default_budget():
    r = run_cli("verify", "--q", "5", "--suite", "lemmas")
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"]["ok"] is True


def test_lemmas_q23_pass_under_default_budget():
    # the anchored scans try q^2+q+1 = 553 candidates a dimension at q = 23
    r = run_cli("verify", "--q", "23", "--suite", "lemmas", "--seed", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"] == {"claims": 2, "passed": 2, "failed": 0, "ok": True}
    assert "suite lemmas: 2/2 passed" in r.stderr


def test_allow_large_lifts_budget():
    assert run_cli("graph", "--q", "13").returncode == 2
    assert run_cli("graph", "--q", "13", "--allow-large").returncode == 0


def test_bad_q_exit_2():
    r = run_cli("verify", "--q", "1")
    assert r.returncode == 2
    r6 = run_cli("verify", "--q", "6")
    assert r6.returncode == 2


def test_custom_modulus():
    # GF(4) with x^2 + x + 1 spelled out
    r = run_cli("verify", "--q", "4", "--suite", "counts", "--modulus", "1", "1", "1")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["config"]["modulus"] == [1, 1, 1]


def test_modulus_outside_gf_p_exit_2():
    # 3 reduces to 1 mod 2: the run once went ahead with x^2 + x + 1 and
    # echoed "modulus": [1, 1, 1]
    r = run_cli("verify", "--q", "4", "--suite", "counts", "--modulus", "1", "1", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "modulus coefficient 3 is not among the element codes 0..1 of GF(2)" in r.stderr


def test_seed_changes_report_but_not_verdict():
    a = run_cli("verify", "--q", "2", "--suite", "thm1", "--seed", "1")
    b = run_cli("verify", "--q", "2", "--suite", "thm1", "--seed", "2")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["summary"] == json.loads(b.stdout)["summary"]


# Reports pinned byte for byte; tests/golden/README.md says how the files
# were made.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_matches_golden(q):
    r = run_cli("verify", "--q", str(q), "--seed", "0")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / f"verify_q{q}.json").read_text()


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_matches_golden(fmt):
    r = run_cli("graph", "--q", "2", "--format", fmt)
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / f"graph_q2.{fmt}").read_text()


# sha256 of `graph --q 7 --format json` (605,772 bytes, too large to keep
# as a golden file); see tests/golden/README.md for the command
GRAPH_Q7_JSON_SHA256 = "2b6fb0bf895f94c070ffb9d8920c2d0321114f58143bbb5aea2274fa9fd0ef87"


def test_graph_q7_json_matches_pinned_hash():
    r = run_cli("graph", "--q", "7", "--format", "json")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GRAPH_Q7_JSON_SHA256


# sha256 of `graph --q 8 --format json` (1,052,328 bytes over GF(8), the
# first extension field of odd degree) and of `graph --q 7 --format dot`;
# see tests/golden/README.md for the commands
GRAPH_Q8_JSON_SHA256 = "539bd178c4c504e7a10c9e7f84ebcfdbe0146835ee0d1771afa8e9c56e801b27"
GRAPH_Q7_DOT_SHA256 = "ef3d466738329658f1e4c396789e5409c69c6d491966abebd5de01feb52e0707"


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("--q", "8", "--format", "json"), GRAPH_Q8_JSON_SHA256),
        (("--q", "7", "--format", "dot"), GRAPH_Q7_DOT_SHA256),
    ],
    ids=["q8-json", "q7-dot"],
)
def test_graph_export_matches_pinned_hash(argv, digest):
    r = run_cli("graph", *argv)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# sha256 of `verify --q 5 --seed 0` (the first q the golden files do not
# pin); see tests/golden/README.md for the command
VERIFY_Q5_SHA256 = "83b120da4f6ca3ff60424f100b464e8c9fc23becaf593c940a3aa60f49a488ae"


def test_verify_q5_matches_pinned_hash():
    r = run_cli("verify", "--q", "5", "--seed", "0")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == VERIFY_Q5_SHA256


# sha256 of `verify --q 7 --seed 0`, which pins the adjacency and xi
# claims past the small fields; see tests/golden/README.md for the command
VERIFY_Q7_SHA256 = "43660250ca4c036c16f27a4f0a05e55db3e5f2bfec787bfc1db6f765328d4b3d"


def test_verify_q7_matches_pinned_hash():
    r = run_cli("verify", "--q", "7", "--seed", "0")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == VERIFY_Q7_SHA256


# sha256 of `enumerate --q 4 --set all` (87,336 bytes: the first catalog
# over an extension field, with GF(4) codes in every basis and generator);
# see tests/golden/README.md for the command
ENUMERATE_Q4_SHA256 = "9003aa6357bb44202c3d557e17cb4c4a3491fd3cea10fef62a773595237a68a3"


def test_enumerate_q4_matches_pinned_hash():
    r = run_cli("enumerate", "--q", "4", "--set", "all")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == ENUMERATE_Q4_SHA256


def test_verify_hash_table_is_whole_and_agrees_with_the_pins():
    # tests/golden/verify_hashes.json, which tests/golden/check_hashes.py
    # recomputes: seed 0 once per field of order <= 27, seeds 1 and 7 once
    # per field of order <= 9, each digest 64 hex digits; its rows for the
    # reports pinned here match those pins, and q = 13 and 27 the digests
    # quoted since they were first measured
    rows = json.loads((GOLDEN / "verify_hashes.json").read_text())
    digest = {(r["q"], tuple(r["modulus"] or ()), r["seed"]): r["sha256"] for r in rows}
    fields = every_field(27)
    want = [(f.q, f.modulus or (), s) for s in (0, 1, 7) for f in fields if s == 0 or f.q <= 9]
    assert len(rows) == len(digest) == len(set(want)) == len(want)
    assert digest.keys() == set(want)
    assert all(re.fullmatch("[0-9a-f]{64}", r["sha256"]) for r in rows)

    def pinned(q):
        return digest[q, field_of_order(q).modulus or (), 0]

    for q in (2, 3, 4):
        assert pinned(q) == hashlib.sha256((GOLDEN / f"verify_q{q}.json").read_bytes()).hexdigest()
    assert (pinned(5), pinned(7)) == (VERIFY_Q5_SHA256, VERIFY_Q7_SHA256)
    assert pinned(13).startswith("091e00a6") and pinned(27).startswith("08e31940")


def _rests_on(x):
    """Every id in a `rests_on` list anywhere under x."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from v if k == "rests_on" else _rests_on(v)
    elif isinstance(x, list):
        for v in x:
            yield from _rests_on(v)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rests_on_names_claims_of_the_same_report(q):
    # the golden files are the verify reports (test_verify_matches_golden)
    claims = json.loads((GOLDEN / f"verify_q{q}.json").read_text())["claims"]
    named = set(_rests_on(claims))
    assert {"chars:x", "chars:y", "thm1:positive"} <= named
    assert named <= {c["id"] for c in claims}


def test_enumerate_matches_golden():
    # pins the catalog order and the witness of every member
    r = run_cli("enumerate", "--q", "3", "--set", "all")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "enumerate_q3.json").read_text()


WROTE = re.compile(r"^wrote (\d+) bytes in \d+\.\d{3}s$", re.M)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("graph", "--q", "2", "--format", "json"), "graph_q2.json"),
        (("graph", "--q", "2", "--format", "dot"), "graph_q2.dot"),
        (("enumerate", "--q", "3", "--set", "all"), "enumerate_q3.json"),
        (("verify", "--q", "2", "--seed", "0"), "verify_q2.json"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_stderr_says_what_the_output_cost(argv, golden, tmp_path):
    want = (GOLDEN / golden).read_text()
    r = run_cli(*argv)
    assert r.returncode == 0
    assert r.stdout == want  # the report is unchanged: timing is on stderr only
    assert [int(n) for n in WROTE.findall(r.stderr)] == [len(want.encode())]
    path = tmp_path / "report"
    r = run_cli(*argv, "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == ""
    assert path.read_text() == want
    assert [int(n) for n in WROTE.findall(r.stderr)] == [len(want.encode())]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("graph", "--q", "2", "--format", "json"), "graph_q2.json"),
        (("verify", "--q", "2", "--seed", "0"), "verify_q2.json"),
    ],
    ids=["graph", "verify"],
)
def test_write_through_stdout_matches_golden(argv, golden):
    # PYTHONUNBUFFERED=1 makes stdout write-through: every write is a write(2)
    r = run_cli(*argv, env={"PYTHONUNBUFFERED": "1"})
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / golden).read_text()


def _chunks(payload):
    return list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload))


def _list_of_chunk_count(count):
    """A list of ints whose encoding is exactly `count` chunks."""
    payload = list(range(count))
    while len(_chunks(payload)) > count:
        payload.pop()
    assert len(_chunks(payload)) == count
    return payload


class _CountingWriter:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def _rows(n):
    return [
        {
            "i": i,
            "name": "plane é€ \u2028 " * (i % 3),
            "ratio": i / 7,
            "none": None,
            "flag": i % 2 == 0,
            "empty": [[], {}],
        }
        for i in range(n)
    ]


# built per test, so that a payload sized by JSON_BLOCK cannot break collection
EMIT_PAYLOADS = {
    "several blocks": lambda: {
        "rows": _rows(700),
        "tail": [-0.0, 1e300, 2.5e-7, float("inf")],
    },
    "one block exactly": lambda: _list_of_chunk_count(JSON_BLOCK),
    "three blocks exactly": lambda: _list_of_chunk_count(3 * JSON_BLOCK),
    "one chunk past a block": lambda: _list_of_chunk_count(JSON_BLOCK + 1),
    "three levels deep": lambda: {"a": {"b": {"c": list(range(3 * JSON_BLOCK))}}},
    "empty dict": lambda: {},
    "empty list": lambda: [],
    "scalars": lambda: [None, True, False, 0, "", "ü"],
    "nested empties": lambda: {"b": {}, "a": [[], [{}]], "ñ": ""},
}


@pytest.mark.parametrize("name", list(EMIT_PAYLOADS))
def test_emit_json_matches_dumps_in_few_writes(name, monkeypatch, tmp_path):
    payload = EMIT_PAYLOADS[name]()
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    writer = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", writer)
    _emit_json(payload, None)
    assert "".join(writer.writes) == want
    n_chunks = len(_chunks(payload))
    assert len(writer.writes) <= math.ceil(n_chunks / 4096) + 1
    if n_chunks > JSON_BLOCK:  # the whole text is never one write
        assert max(len(w) for w in writer.writes) < len(want)
    # every level streams: a write holds about a block of lines, at any depth
    assert max(w.count("\n") for w in writer.writes) < 2 * JSON_BLOCK
    out = tmp_path / "out.json"
    _emit_json(payload, str(out))
    assert out.read_text() == want
