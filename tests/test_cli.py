import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cli_env

CLI = [sys.executable, "-m", "ternions.cli"]


def run_cli(*argv, env_extra=None):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=cli_env(env_extra), timeout=300
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


def test_budget_guard_exit_2():
    # the point index of Theorem 1: 1,596 planes x 133 points at q = 11
    r = run_cli("verify", "--q", "11", "--suite", "thm1")
    assert r.returncode == 2
    assert "budget" in r.stderr.lower()
    assert "212268 plane-point incidences" in r.stderr


@pytest.mark.parametrize("suite", ["incidence", "remark"])
def test_point_index_suites_guard_exit_2(suite):
    # both read the point index, so they stop at its guard like thm1
    r = run_cli("verify", "--q", "11", "--suite", suite)
    assert r.returncode == 2
    assert "212268 plane-point incidences" in r.stderr


def test_graph_budget_guard_exit_2():
    r = run_cli("graph", "--q", "11")
    assert r.returncode == 2
    assert "budget" in r.stderr.lower()
    assert "212268 plane-point incidences" in r.stderr


def test_counts_q8_pass_under_default_budget():
    r = run_cli("verify", "--q", "8", "--suite", "counts")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["summary"]["ok"] is True
    walk = next(c for c in report["claims"] if c["id"] == "model:classifier-agreement")
    assert walk["detail"]["method"] == "unit-orbit normal forms"


# Each guard at q = 2, just below and at its count: 21 planes x 7 points
# for the point index and the graph, 15 + 3 x 8 = 39 normal forms for the
# catalog.
@pytest.mark.parametrize(
    "argv,count",
    [
        (("verify", "--q", "2", "--suite", "thm1"), 147),
        (("graph", "--q", "2"), 147),
        (("enumerate", "--q", "2"), 39),
    ],
)
def test_stage_guard_at_its_count(argv, count):
    below = run_cli(*argv, env_extra={"TERNION_BUDGET": str(count - 1)})
    assert below.returncode == 2
    assert f"enumerating {count} " in below.stderr
    assert run_cli(*argv, env_extra={"TERNION_BUDGET": str(count)}).returncode == 0


def test_lemmas_q5_pass_under_default_budget():
    r = run_cli("verify", "--q", "5", "--suite", "lemmas")
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"]["ok"] is True


def test_env_budget_respected():
    # 40 is below the 49 anchored scan candidates
    r = run_cli(
        "verify", "--q", "2", "--suite", "lemmas", env_extra={"TERNION_BUDGET": "40"}
    )
    assert r.returncode == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_env_budget_exit_2(value):
    r = run_cli("verify", "--q", "2", env_extra={"TERNION_BUDGET": value})
    assert r.returncode == 2
    assert "TERNION_BUDGET" in r.stderr
    assert repr(value) in r.stderr


def test_allow_large_lifts_budget():
    r = run_cli(
        "verify",
        "--q",
        "2",
        "--suite",
        "lemmas",
        "--allow-large",
        env_extra={"TERNION_BUDGET": "40"},
    )
    assert r.returncode == 0


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


def test_enumerate_matches_golden():
    # pins the catalog order and the witness of every member
    r = run_cli("enumerate", "--q", "3", "--set", "all")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "enumerate_q3.json").read_text()
