"""The byte gate for every field: recompute `verify_hashes.json` and compare.

Each row of the table is the sha256 of the stdout of

    ternions verify --q Q [--modulus C ...] --seed S

for every field of order <= 27, once per monic irreducible modulus
(`conftest.every_field(27)`), at seed 0, and at seeds 1 and 7 for q <= 9.
From the repository root:

    python3 tests/golden/check_hashes.py           # compare with the table
    python3 tests/golden/check_hashes.py --write   # regenerate the table

Comparing exits 1 at the first row whose digest differs and names it.  The
runs take 70–90 s in all; the table is not part of tier-1 (tier-1 checks
its form and the rows the other pins fix, in `tests/test_cli.py`).
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
TABLE = HERE / "verify_hashes.json"
SEEDS = {0: 27, 1: 9, 7: 9}  # seed -> the largest q it runs at


def rows():
    """(q, modulus or None, seed) of every row, in table order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import every_field

    fields = every_field(27)
    return [
        (f.q, list(f.modulus) if f.modulus else None, seed)
        for seed, top in SEEDS.items()
        for f in fields
        if f.q <= top
    ]


def digest(q, modulus, seed):
    argv = ["verify", "--q", str(q), "--seed", str(seed)]
    if modulus:
        argv += ["--modulus", *map(str, modulus)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "ternions.cli", *argv],
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="regenerate the table")
    args = ap.parse_args()
    start = time.perf_counter()
    want = None if args.write else json.loads(TABLE.read_text())
    got = []
    for q, modulus, seed in rows():
        row = {"q": q, "modulus": modulus, "seed": seed, "sha256": digest(q, modulus, seed)}
        if want is not None and (len(got) == len(want) or want[len(got)] != row):
            print(f"row {len(got)} differs: now {json.dumps(row)}")
            return 1
        got.append(row)
    if args.write:
        TABLE.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} rows in {time.perf_counter() - start:.1f}s")
    elif len(want) != len(got):
        print(f"the table has {len(want)} rows, the fields and seeds give {len(got)}")
        return 1
    else:
        print(f"all {len(got)} rows match in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
