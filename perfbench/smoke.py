"""Smoke test of the benchmark itself, on small operations (about 15 s).

    python3 perfbench/smoke.py

Checks that every metric of BENCHMARK.json is emitted with its unit, that
the traced counts and ratios repeat exactly across two traced runs at one
seed, that the speed probe scales plain and set-up-only children, that
doctored outputs count as failed, and that the benchmark exits non-zero
without a result where the ternions sources are missing.
"""

import json
import shutil
import subprocess
import sys
import time

import run
from check import check_output

SHAPES = {
    "verify-tiny": lambda seed, i: ["verify", "--q", "2", "--suite", "incidence",
                                    "--seed", str(seed + i)],
    "graph-tiny": lambda seed, i: ["graph", "--q", "2", "--format", "json"],
    "verify-q2-all": lambda seed, i: ["verify", "--q", "2", "--seed", str(seed + i)],
}


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metrics(result, wanted, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in wanted}, f"{label}: every metric with its unit")
    expect(result["correct"] and result["failed"] == 0, f"{label}: correct, nothing failed")


def cli_stdout(cli_args):
    done = subprocess.run([sys.executable, "-m", "ternions.cli", *cli_args], cwd=run.ROOT,
                          env=run.child_env(), capture_output=True, text=True, check=True)
    return done.stdout


def check_doctored():
    verify_args = SHAPES["verify-tiny"](0, 0)
    report = json.loads(cli_stdout(verify_args))
    expect(check_output(verify_args, 0, json.dumps(report)) is None, "real report passes")
    flipped = json.loads(json.dumps(report))
    flipped["claims"][0]["ok"] = False
    expect(check_output(verify_args, 0, json.dumps(flipped)), "claim flipped to false fails")
    renamed = json.loads(json.dumps(report))
    renamed["claims"][0]["id"] = "incidence:other"
    expect(check_output(verify_args, 0, json.dumps(renamed)), "changed claim id fails")
    expect(check_output(verify_args, 1, json.dumps(report)), "non-zero exit fails")
    expect(check_output(verify_args, 0, "{not json"), "unparsable output fails")

    graph_args = SHAPES["graph-tiny"](0, 0)
    export = json.loads(cli_stdout(graph_args))
    expect(check_output(graph_args, 0, json.dumps(export)) is None, "real graph passes")
    export["edges"].pop()
    expect(check_output(graph_args, 0, json.dumps(export)), "graph with an edge removed fails")


def check_probe():
    args = SHAPES["graph-tiny"](0, 0)
    kill_at = time.monotonic() + 60
    for mode in ("0", "setup"):
        op = run.run_op(args, mode, 0, kill_at)
        run.scale(op, 1.0)
        expect(op.failure is None and op.reference_s and op.op_s > 0 and op.setup_adj_s > 0,
               f"mode {mode}: probe sampled, times scaled to the nominal speed")


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-q4",
                           "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "without the sources: non-zero exit, no result")
    shutil.rmtree(bare)


def main():
    spec = run.load_spec()
    for name, args_for in SHAPES.items():
        plain = run.run_workload(name, args_for, 0, 0.1, False, spec)
        check_metrics(plain, spec["end_to_end"], f"{name} plain")
        first = run.run_workload(name, args_for, 0, 0.1, True, spec)
        second = run.run_workload(name, args_for, 0, 0.1, True, spec)
        check_metrics(first, spec["per_layer"], f"{name} traced")
        counts = [m["name"] for m in spec["per_layer"] if run.is_count(m["name"])]
        expect(all(first["metrics"][n] == second["metrics"][n] for n in counts),
               f"{name}: {len(counts)} counts and ratios repeat across traced runs")
    check_probe()
    check_doctored()
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
