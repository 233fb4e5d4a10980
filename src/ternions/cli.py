"""Command line front end: verify suites, enumerate orbit catalogs, and
export the adjacency graph.

Reports are deterministic: a fixed config and seed always produce the same
bytes, so timing lives in the human summary on stderr, never in the report.
Exit codes: 0 all checks pass, 1 some claim failed, 2 usage or budget error
(an unwritable --out is found before anything is computed), 141 the reader
closed stdout before the report was written (128 + SIGPIPE, as a shell shows
a writer stopped by a closed pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext
from itertools import chain
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Optional

from . import geometry as geo
from .gf import field_of_order
from .linalg import BudgetError
from .model import TYPE_ORDER
from .suites import SUITES, SUITE_NAMES, VerifyContext, summarize

LARGE_BUDGET = 10**9

EXIT_STDOUT_CLOSED = 141

# Lines of output joined into one write: about 40 KB a write at q = 7.
JSON_BLOCK = 4096

# Members of a list formatted by one join: the text is held a block at a
# time, never whole.
JSON_ROWS = 256

# json's own spelling of every scalar but str and int: floats, inf and nan,
# None and the booleans; it raises TypeError for an unsupported object.
_json_scalar = JSONEncoder().encode

SET_CHOICES = ("gx", "gy", "galpha", "gbeta", "ggamma", "all")  # one per TYPE_ORDER type, then all


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--q", type=int, required=True, help="field order (a prime power)")
    p.add_argument(
        "--modulus",
        type=int,
        nargs="+",
        default=None,
        metavar="C",
        help="irreducible modulus coefficients, constant term first (prime powers only)",
    )
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the enumeration budget to 1e9; at q <= 27 only `graph` needs it",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ternions",
        description="Exact verification of the ternion plane model over GF(q).",
    )
    ap.set_defaults(seed=0)  # only verify draws random samples
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites and emit a claim report")
    _add_common(v)
    v.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    v.add_argument(
        "--format",
        default="json",
        choices=("json", "csv"),
        help="csv gives claim rows; with --suite incidence it gives the incidence table",
    )
    v.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("enumerate", help="list the orbit catalog or one orbit")
    _add_common(e)
    e.add_argument("--set", dest="which", default="all", choices=SET_CHOICES)
    e.add_argument("--format", default="json", choices=("json", "csv"))

    g = sub.add_parser("graph", help="export the adjacency graph")
    _add_common(g)
    g.add_argument("--format", default="dot", choices=("dot", "json"))
    return ap


def _check_out(out: Optional[str]):
    """Refuse an --out that cannot be written before anything is computed.
    An existing file is opened for appending, which leaves it as it is; a
    new one is created and removed again."""
    if out is None:
        return
    existed = os.path.exists(out)
    try:
        open(out, "a").close()
        if not existed:
            os.remove(out)
    except OSError as e:
        raise ValueError(f"cannot write {out}: {e.strerror or e}") from e


def _write(pieces: Iterable[str], out: Optional[str]):
    """Write the pieces to `out` (stdout when None), joined into writes of
    at least JSON_BLOCK lines each but the last, and say on stderr how many
    bytes were written (reports are ASCII) and how long that took.  A --out
    that cannot be opened or written is a usage error; a closed stdout
    raises BrokenPipeError, which `main` turns into EXIT_STDOUT_CLOSED."""
    start = time.perf_counter()
    size = 0
    try:
        with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
            block, lines = [], 0
            for piece in pieces:
                block.append(piece)
                lines += piece.count("\n")
                if lines >= JSON_BLOCK:
                    text = "".join(block)
                    fh.write(text)
                    size += len(text)
                    block, lines = [], 0
            text = "".join(block)
            fh.write(text)
            size += len(text)
    except OSError as e:
        if out is None:
            raise
        raise ValueError(f"cannot write {out}: {e.strerror or e}") from e
    print(f"wrote {size} bytes in {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _emit_json(payload, out: Optional[str]):
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) plus a
    newline, built a row at a time instead of a token at a time (on
    Python 3.11 the stdlib encoder runs in pure Python when it indents and
    yields one chunk per token).  Every level streams in blocks, so the
    whole text is never held, and a write-through stdout (PYTHONUNBUFFERED)
    makes one write(2) per JSON_BLOCK lines."""
    _write(chain(_json_pieces(payload, "\n"), ("\n",)), out)


def _json_pieces(x, nl: str):
    """x as json.dumps(x, sort_keys=True, indent=2) spells it, in pieces, on
    a line that starts with `nl` (a newline and the indent): at every
    level, a dict key by key and a list in blocks of JSON_ROWS members."""
    if type(x) is int:
        yield int.__repr__(x)
    elif isinstance(x, str):
        yield _json_str(x)
    elif not isinstance(x, (dict, list, tuple)):
        yield _json_scalar(x)
    elif not x:
        yield "{}" if isinstance(x, dict) else "[]"
    elif isinstance(x, dict):
        inner = nl + "  "
        lead = "{" + inner
        for k, v in _json_items(x):
            yield lead + _json_str(k) + ": "
            yield from _json_pieces(v, inner)
            lead = "," + inner
        yield nl + "}"
    else:
        inner = nl + "  "
        lead = "[" + inner
        for i in range(0, len(x), JSON_ROWS):
            yield lead + _json_members(x[i : i + JSON_ROWS], inner)
            lead = "," + inner
        yield nl + "]"


def _json_members(x, nl: str, sep: str = "") -> str:
    """The texts of the members of the list x, each on a line that starts
    with `nl`, joined by `sep` (a comma and `nl` when empty; it holds no
    "%").  The bulk of every report takes one of three block paths: ints
    by one join over int.__repr__; members of one shape, rows or matrices,
    of exact ints by one `%` over a member template repeated once per
    member (bools and int subclasses, which json spells otherwise, are not
    exact ints); plain dicts of one key set by column, the keys sorted and
    spelled once and each key's values formatted as one list by this
    function, so that a column of ints or of int matrices is one block too.
    Anything else, members of mixed shapes too, goes member by member,
    each joined from its `_json_pieces`."""
    sep = sep or "," + nl
    types = set(map(type, x))
    if types == {int}:
        return sep.join(map(int.__repr__, x))
    shape, flat, level = [], x, types  # level: the types at the depth of flat
    while level <= {list, tuple} and len(widths := set(map(len, flat))) == 1:
        shape.append(widths.pop())
        flat = tuple(chain.from_iterable(flat))
        level = set(map(type, flat))
    if shape and level <= {int}:
        return sep.join([_int_template(shape, nl)] * len(x)) % flat
    if types == {dict}:
        keys = x[0].keys()
        if keys and all(map(keys.__eq__, map(dict.keys, x))):
            inner = nl + "  "
            items = _json_items(x[0])
            # json escapes every control character in a str, so no text it
            # writes holds a NUL: a column joined by NULs splits back into
            # its cells
            columns = [_json_members([d[k] for d in x], inner, "\0").split("\0") for k, _ in items]
            spelled = [_json_str(k) + ": " for k, _ in items]
            lead, comma, close = "{" + inner, "," + inner, nl + "}"
            rows = zip(*columns)
            return sep.join([lead + comma.join(map(str.__add__, spelled, r)) + close for r in rows])
    return sep.join(["".join(_json_pieces(v, nl)) for v in x])


def _int_template(shape, nl: str) -> str:
    """json's spelling, on a line that starts with `nl`, of a nested list
    of exact ints whose levels have the widths in `shape`, with %d for each
    int."""
    if not shape:
        return "%d"
    if not shape[0]:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_int_template(shape[1:], inner)] * shape[0]) + nl + "]"


def _json_items(d: dict) -> list:
    """The items of d sorted by key.  json would also take numbers, None
    and booleans as keys; reports use only strings, so others are refused."""
    for k in d:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
    return sorted(d.items())


def _config(args, field, extra: dict) -> dict:
    return {
        "q": field.q,
        "p": field.p,
        "k": field.k,
        "modulus": list(field.modulus) if field.modulus else None,
        "allow_large": bool(args.allow_large),
        **extra,
    }


def cmd_verify(args, ctx: VerifyContext) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    claims = []
    t_all = time.perf_counter()
    for name in sorted(names):
        t0 = time.perf_counter()
        batch = SUITES[name](ctx)
        claims.extend(batch)
        good = sum(1 for c in batch if c["ok"])
        print(
            f"suite {name}: {good}/{len(batch)} passed ({time.perf_counter()-t0:.2f}s)",
            file=sys.stderr,
        )
        for c in batch:
            print(f"  {'PASS' if c['ok'] else 'FAIL'} {c['id']}", file=sys.stderr)
    summary = summarize(claims)
    print(
        f"total: {summary['passed']}/{summary['claims']} passed "
        f"in {time.perf_counter()-t_all:.2f}s",
        file=sys.stderr,
    )
    report = {
        "claims": claims,
        "config": _config(args, ctx.field, {"seed": args.seed, "suites": sorted(names)}),
        "summary": summary,
    }
    if args.format == "json":
        _emit_json(report, args.out)
    elif names == ["incidence"]:
        _write([_incidence_csv(claims)], args.out)
    else:
        rows = ["suite,claim,ok"]
        rows += [f"{c['suite']},{c['id']},{str(c['ok']).lower()}" for c in claims]
        _write(["\n".join(rows) + "\n"], args.out)
    return 0 if summary["ok"] else 1


def _incidence_csv(claims) -> str:
    detail = next(c["detail"] for c in claims if c["id"] == "incidence:table")
    cols = detail["column_order"]
    out = ["type," + ",".join(cols)]
    for t in cols:
        out.append(t + "," + ",".join(str(v) for v in detail["rows"][t]))
    return "\n".join(out) + "\n"


def cmd_enumerate(args, ctx: VerifyContext) -> int:
    cat = ctx.catalog
    members = []
    for name, t in zip(SET_CHOICES, TYPE_ORDER):
        if args.which not in ("all", name):
            continue
        for s in cat.members(t):
            members.append(
                {
                    "set": name,
                    "type": t.value,
                    "dim": s.dim,
                    "basis": [list(r) for r in s.basis],
                    "generator": [list(g.triple()) for g in cat.witness_of(s)],
                }
            )
    if args.format == "json":
        payload = {
            "config": _config(args, ctx.field, {"set": args.which}),
            "count": len(members),
            "members": members,
        }
        _emit_json(payload, args.out)
    else:
        rows = ["set,type,dim,basis,generator"]
        for m in members:
            basis = "|".join(" ".join(str(v) for v in r) for r in m["basis"])
            gen = ";".join(" ".join(str(v) for v in t) for t in m["generator"])
            rows.append(f"{m['set']},{m['type']},{m['dim']},{basis},{gen}")
        _write(["\n".join(rows) + "\n"], args.out)
    return 0


def cmd_graph(args, ctx: VerifyContext) -> int:
    graph = ctx.graph
    if args.format == "dot":
        _write([geo.graph_to_dot(graph)], args.out)
    else:
        _emit_json(geo.graph_to_json(graph), args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"verify": cmd_verify, "enumerate": cmd_enumerate, "graph": cmd_graph}
    try:
        _check_out(args.out)
        field = field_of_order(args.q, args.modulus)
        budget = LARGE_BUDGET if args.allow_large else None
        ctx = VerifyContext(field, seed=args.seed, budget=budget)
        code = commands[args.command](args, ctx)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone (`| head`); stdout points at devnull from here
        # on, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except BudgetError as e:
        print(f"budget error: {e}; --allow-large lifts the budget", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
