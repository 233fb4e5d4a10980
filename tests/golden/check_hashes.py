"""The byte gate: compare or rewrite `hashes.json` and the golden files.

Each row of the table is `{"argv": [...], "sha256": ...}`, the sha256 of
the stdout of `ternions ARGV`, for each command `commands()` lists; the
stdout of the commands in `GOLDEN` is also kept whole as a file next to
it.  README.md in this directory lists the commands.  From the
repository root:

    python3 tests/golden/check_hashes.py           # compare; exit 1 listing every row that differs
    python3 tests/golden/check_hashes.py --write   # rewrite the table and the files

The runs take about 90 s in all.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TABLE = HERE / "hashes.json"
SEEDS = {0: 27, 1: 9, 7: 9}  # seed -> the largest q it runs at
GOLDEN = {  # command -> the file that keeps its stdout
    ("verify", "--q", "2", "--seed", "0"): "verify_q2.json",
    ("verify", "--q", "3", "--seed", "0"): "verify_q3.json",
    ("verify", "--q", "4", "--seed", "0"): "verify_q4.json",
    ("graph", "--q", "2", "--format", "json"): "graph_q2.json",
    ("graph", "--q", "2", "--format", "dot"): "graph_q2.dot",
    ("enumerate", "--q", "3", "--set", "all"): "enumerate_q3.json",
}
OTHERS = (
    ("graph", "--q", "7", "--format", "json"),
    ("graph", "--q", "7", "--format", "dot"),
    ("graph", "--q", "8", "--format", "json"),
    ("enumerate", "--q", "4", "--set", "all"),
)


def commands():
    """The argv of every row, in table order: `verify` at each seed for
    every field of order <= its q, once per monic irreducible modulus
    (`--modulus` where it is not the built-in one), then `OTHERS` and the
    non-verify commands of `GOLDEN`."""
    for path in (str(ROOT / "src"), str(ROOT / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from conftest import every_field

    from ternions.gf import DEFAULT_MODULI

    verify = [
        ("verify", "--q", str(f.q), "--seed", str(seed))
        + (("--modulus", *map(str, f.modulus)) if f.modulus != DEFAULT_MODULI.get(f.q) else ())
        for seed, top in SEEDS.items()
        for f in every_field(27)
        if f.q <= top
    ]
    return verify + [*OTHERS, *(argv for argv in GOLDEN if argv[0] != "verify")]


def run(argv):
    """The stdout of `ternions ARGV` from the source tree, as bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "ternions.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, check=True).stdout


def digest(argv):
    return hashlib.sha256(run(argv)).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the table and the files")
    args = ap.parse_args()
    start = time.perf_counter()
    now = {argv: digest(argv) for argv in commands()}
    if args.write:
        rows = (json.dumps({"argv": list(argv), "sha256": sha}) for argv, sha in now.items())
        TABLE.write_text("[\n" + ",\n".join(rows) + "\n]\n")
        for argv, name in GOLDEN.items():
            (HERE / name).write_bytes(run(argv))
        print(f"wrote {len(now)} rows and {len(GOLDEN)} files in {time.perf_counter() - start:.1f}s")
        return 0
    table = {tuple(r["argv"]): r["sha256"] for r in json.loads(TABLE.read_text())}
    moved = [
        f"{' '.join(argv)}: table {table.get(argv)}, now {now.get(argv)}"
        for argv in {**now, **table}
        if table.get(argv) != now.get(argv)
    ]
    for argv, name in GOLDEN.items():
        kept = hashlib.sha256((HERE / name).read_bytes()).hexdigest()
        if kept != now[argv]:
            moved.append(f"{name}: holds {kept}, {' '.join(argv)} now {now[argv]}")
    print("\n".join(moved) or f"all {len(now)} rows match in {time.perf_counter() - start:.1f}s")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
