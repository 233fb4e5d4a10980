"""End-to-end benchmark of the `ternions` CLI, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-q4 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Each operation is a fresh process (see child.py) running one CLI command
on the pure-Python backend under the default enumeration budget.  The
operations run back to back, one at a time (a closed loop with one
client), until the next one would end after `--seconds`.  Every output
goes through check.py.

The machine is shared, and its speed drifts by a third within minutes.
So each child times a fixed reference snippet every 10 ms (child.py), and
`op_s` and `setup_s` are wall times scaled to the speed at which that
snippet takes REFERENCE_S: what the operation would take on the machine
running at that one speed.  The raw wall times are printed and recorded
beside them.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, taken
from traced operations that alternate with untraced ones at one seed.
The lines before it are the same numbers for people, with sample counts
and the run's environment.  A run record with every operation (and, when
traced, every span) is written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import child
from check import CLAIMS, check_output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

# Workload name -> CLI arguments of operation i of a run seeded with `seed`.
WORKLOADS = {
    "verify-q4": lambda seed, i: ["verify", "--q", "4", "--seed", str(seed + i)],
    "verify-q2-seeds": lambda seed, i: ["verify", "--q", "2", "--seed", str(seed + i)],
    "graph-q7": lambda seed, i: ["graph", "--q", "7", "--format", "json"],
}

ENV_OVERRIDES = {
    "PYTHONPATH": "src",
    "TERNIONS_PURE": "1",  # the pure-Python backend: Cython is not assumed
    "PYTHONHASHSEED": "0",  # same set and dict orders, so counts repeat
}
# TERNION_BUDGET: the default budget applies.  PYTHONDONTWRITEBYTECODE:
# the package's bytecode is cached under src/ after the first child, as an
# installed package's is, so set-up does not depend on the caller's setting.
ENV_REMOVED = ("TERNION_BUDGET", "PYTHONDONTWRITEBYTECODE")

# Nominal time of child.py's reference snippet: adjusted times read as
# seconds on a machine running the snippet in this long.
REFERENCE_S = 100e-6

# How an operation's time follows the snippet's: time ~ snippet ** exponent.
# The verify workloads, interpreter-bound like the snippet, follow it in
# full.  graph-q7's catalog and graph dicts spill out of the private caches,
# so part of its time does not follow the clock: over the operations of 20
# runs (seeds 0-4, 10-14, 100-109) the least-squares slope of log time on
# log snippet time is 0.83, and the run medians spread least near 0.8.
SPEED_EXPONENT = {"graph-q7": 0.8}

# Fewer probe samples than this inside set-up: scale set-up by the speed
# over the whole operation instead.
MIN_SETUP_SAMPLES = 3

# Set-up-only children spawned at the start of every plain run, so that
# `setup_s` is a median over at least this many samples more than the
# run's operations give; they also warm the bytecode and file caches.
SETUP_SPAWNS = 5

# An operation still running this long after the run's last second is
# killed and counts as failed, so a hung operation cannot stall the run.
GRACE_S = 100


class Op:
    """One finished operation: what ran, how long, and whether it was right."""

    def __init__(self, argv, cli_args, traced):
        self.argv = argv
        self.cli_args = cli_args
        self.traced = traced
        self.wall_s = self.setup_s = self.cpu_s = None
        self.op_s = self.setup_adj_s = self.reference_s = None
        self.maxrss_kb = 0
        self.failure = None
        self.trace = self.probe = None

    def record(self):
        return {
            "argv": self.argv,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "op_s": self.op_s,
            "setup_adj_s": self.setup_adj_s,
            "reference_s": self.reference_s,
            "cpu_s": self.cpu_s,
            "maxrss_kb": self.maxrss_kb,
            "failure": self.failure,
        }


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ENV_REMOVED}
    env.update(ENV_OVERRIDES)
    return env


def run_op(cli_args, mode, op_id, kill_at):
    """Spawn one operation, wait for it, and check its output.  `mode` is
    child.py's: "0" plain, "1" traced, "setup" set-up only."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    meta_path = work / "meta.json"
    meta_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(meta_path), mode,
            str(op_id), "--", *cli_args]
    op = Op(argv, cli_args, mode == "1")
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, kill_at - spawned), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout_text = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr_tail = err.read()[-2000:].decode("utf-8", "replace")
    op.wall_s = ended - spawned
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.maxrss_kb = usage.ru_maxrss
    if mode == "setup":
        op.failure = f"exit code {proc.returncode}" if proc.returncode else None
    else:
        op.failure = check_output(cli_args, proc.returncode, stdout_text)
    if op.failure and stderr_tail.strip():
        op.failure += " | stderr: " + stderr_tail.strip().splitlines()[-1]
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        op.failure = op.failure or "no setup record"
    else:
        op.setup_s = meta["setup_at"] - spawned
        op.trace = meta.get("trace")
        op.probe = meta["probe"]
    return op


def scale(op, exponent):
    """Scale the operation's wall and set-up times to the nominal speed,
    net of the probe's own samples.  Set-up is the same import path in
    every workload and follows the snippet in full.  Without samples (an
    operation shorter than the probe interval) the raw times stand."""
    if op.probe is None:
        return
    count, total = op.probe["count"], op.probe["total_s"]
    if not count:
        op.op_s, op.setup_adj_s = op.wall_s, op.setup_s
        return
    op.reference_s = total / count
    op.op_s = (op.wall_s - total) * (REFERENCE_S / op.reference_s) ** exponent
    setup_count, setup_total = op.probe["marks"]["setup"]
    setup_ref = setup_total / setup_count if setup_count >= MIN_SETUP_SAMPLES else op.reference_s
    op.setup_adj_s = (op.setup_s - setup_total) * REFERENCE_S / setup_ref


def measure(args_for, seed, seconds, trace):
    """Closed loop: start the next round only if it should end in time.
    A round is one operation, or an untraced and a traced one at one seed.
    A plain run first spawns SETUP_SPAWNS set-up-only children.
    Returns (operations, set-up-only children)."""
    start = time.monotonic()
    kill_at = start + seconds + GRACE_S
    setups = [] if trace else [run_op(args_for(seed, 0), "setup", -1 - k, kill_at)
                               for k in range(SETUP_SPAWNS)]
    start_ops = time.monotonic()
    ops = []
    rounds = 0
    while True:
        if trace:
            cli_args = args_for(seed, 0)
            ops.append(run_op(cli_args, "0", len(ops), kill_at))
            ops.append(run_op(cli_args, "1", len(ops), kill_at))
        else:
            ops.append(run_op(args_for(seed, rounds), "0", len(ops), kill_at))
        rounds += 1
        now = time.monotonic()
        if now - start + (now - start_ops) / rounds > seconds:
            return ops, setups


# -- metrics -----------------------------------------------------------------------


def scaled_walls(ops):
    """Operation times at the nominal speed; raw for an operation that left
    no probe record (it failed before writing one)."""
    return [op.op_s if op.op_s is not None else op.wall_s for op in ops]


def end_to_end(ops, setup_only=()):
    adjusted = scaled_walls(ops)
    setups = [op.setup_adj_s for op in (*ops, *setup_only) if op.setup_adj_s is not None]
    return {
        "op_s": statistics.median(adjusted),
        "setup_s": statistics.median(setups) if setups else 0.0,  # all failed
        "peak_rss_mb": max(op.maxrss_kb for op in ops) / 1024,
    }


def _layer_sums(trace):
    """name -> [calls, total_s, self_s, yields]; (name, parent) -> yields."""
    by_name, yields_under = {}, {}
    for name, parent, calls, total, self_s, yields in trace["totals"]:
        row = by_name.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
        row[3] += yields
        yields_under[(name, parent)] = yields_under.get((name, parent), 0) + yields
    return by_name, yields_under


def _ratio(num, den):
    return num / den if den else 0.0


def traced_layers():
    """Names of every layer child.py traces."""
    suites = sorted({suite for suite, _ in CLAIMS})
    return (["kernels." + op for op in child.KERNEL_OPS]
            + [f"{m}.{f}" for m, f in child.FUNCTIONS + child.GENERATORS]
            + ["suites." + s for s in suites] + ["cli.main"])


def layer_values(trace):
    """Every per-layer value one traced operation yields, by metric name;
    layers the operation never entered read 0."""
    by_name, yields_under = _layer_sums(trace)
    sizes = trace["sizes"]
    values = {}
    for name in traced_layers():
        by_name.setdefault(name, [0, 0.0, 0.0, 0])
    for name, (calls, total, self_s, yields) in by_name.items():
        values[name + ".calls"] = calls
        values[name + ".total_s"] = total
        values[name + ".self_s"] = self_s
        values[name + ".yielded"] = yields
    scanned = sum(yields_under.get(("linalg.enumerate_subspaces", "geometry." + s), 0)
                  for s in ("scan_lines", "scan_solids"))
    found = sizes.get("geometry.scan_lines", 0) + sizes.get("geometry.scan_solids", 0)
    values["geometry.scan.hit_ratio"] = _ratio(found, scanned)
    pairs = yields_under.get(("ternion.enumerate_pairs", "model.build_catalog"), 0)
    values["model.catalog.dedup_ratio"] = _ratio(sizes.get("model.build_catalog", 0), pairs)
    return values


def is_count(name):
    """Counts and the ratios of counts, which repeat exactly at one seed."""
    return name.endswith((".calls", ".yielded", ".hit_ratio", ".dedup_ratio"))


def per_layer(ops, wanted):
    """Counts and ratios from the first traced operation (all traced
    operations run the same arguments, so they must agree); times are
    medians over the traced operations."""
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    runs = [layer_values(op.trace) for op in traced if op.trace]
    if not runs:
        return None, ["no traced operation left a trace"]
    problems = []
    metrics = {}
    for name in wanted:
        if name == "trace.overhead_ratio":
            value = end_to_end(traced)["op_s"] / end_to_end(plain)["op_s"]
        elif name == "trace.op_s":
            value = end_to_end(traced)["op_s"]
        elif name == "process.wall_s":
            value = statistics.median(op.wall_s for op in plain)
        elif name == "process.cpu_s":
            value = statistics.median(op.cpu_s for op in plain)
        elif is_count(name):
            seen = {r[name] for r in runs}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced operations: {sorted(seen)}")
            value = runs[0][name]
        else:
            value = statistics.median(r[name] for r in runs)
        metrics[name] = value
    return metrics, problems


# -- environment and output ------------------------------------------------------


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ternions").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "backend": "python (TERNIONS_PURE=1)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "env_overrides": ENV_OVERRIDES,
        "env_removed": list(ENV_REMOVED),
    }


def tail_note(walls):
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 90):
        if len(walls) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4f} s"
    return "no tail percentile: fewer than 10 samples beyond p90"


def run_workload(name, args_for, seed, seconds, trace, spec):
    """Measure one workload; print its lines for people; return its result."""
    env = environment()
    env["loadavg_before"] = _loadavg()
    ops, setup_only = measure(args_for, seed, seconds, trace)
    env["loadavg_after"] = _loadavg()
    for op in (*ops, *setup_only):
        scale(op, SPEED_EXPONENT.get(name, 1.0))
    failed = [op for op in ops if op.failure]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = [f"set-up-only child failed: {op.failure}" for op in setup_only if op.failure]
    if trace:
        metrics, problems = per_layer(ops, [m["name"] for m in spec["per_layer"]])
    else:
        metrics = end_to_end(ops, setup_only)
    result = {
        "correct": not failed and not problems and metrics is not None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
    }
    print(f"workload {name}: seed {seed}, {len(ops)} operations, trace {int(trace)}")
    print("  env " + json.dumps(env, sort_keys=True))
    if not trace:
        adjusted = scaled_walls(ops)
        walls = [op.wall_s for op in ops]
        setups = sum(op.setup_adj_s is not None for op in (*ops, *setup_only))
        refs = [op.reference_s for op in ops if op.reference_s is not None]
        print(f"  op_s         {metrics['op_s']:.4f} s   median of {len(ops)}; {tail_note(adjusted)}")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   median of {setups}, "
              f"{len(setup_only)} of them set-up only")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        print(f"  raw wall     {statistics.median(walls):.4f} s   median, unscaled")
        if refs:
            print(f"  reference    {statistics.median(refs) * 1e6:.1f} us   median snippet time "
                  f"(nominal {REFERENCE_S * 1e6:.0f} us)")
    else:
        for k, v in (metrics or {}).items():
            print(f"  {k:42s} {v:.6g} {units[k]}")
    print(f"  failed_ratio {len(failed) / len(ops):.4f} ratio   {len(failed)} of {len(ops)}")
    for op in failed:
        print(f"  FAILED {' '.join(op.cli_args)}: {op.failure}")
    for p in problems:
        print(f"  PROBLEM {p}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "result": result, "problems": problems,
        "operations": [op.record() for op in ops],
        "setup_only": [op.record() for op in setup_only],
        "spans": [op.trace["spans"] for op in ops if op.trace],
    }
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ternions" / "cli.py").is_file():
        print(f"error: no ternions sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, WORKLOADS[n], args.seed, args.seconds, args.trace, spec)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
