"""Correctness gate applied to every benchmark operation.

An operation fails if it exits non-zero, its output does not parse, a claim
or the summary is not ok, its claim ids differ from the 26 of the full
verify report (restricted to the suites it ran), its config does not echo
the requested q and seed, or, for a graph export, the vertex or edge count
differs from the closed forms of the clique structure.  Report bytes are
not compared: `detail` payloads may legitimately gain fields.
"""

import json
from math import comb

# (suite, claim id) of a full `ternions verify` report, in report order.
CLAIMS = (
    ("adjacency", "adj:k-trace"),
    ("adjacency", "adj:classes"),
    ("adjacency", "adj:companion"),
    ("adjacency", "adj:cliques"),
    ("adjacency", "adj:distance"),
    ("adjacency", "adj:preservers"),
    ("counts", "counts:orbit-sizes"),
    ("counts", "chars:gamma"),
    ("counts", "chars:beta"),
    ("counts", "chars:alpha"),
    ("counts", "chars:y"),
    ("counts", "chars:x"),
    ("counts", "model:classifier-agreement"),
    ("counts", "model:unimodular"),
    ("counts", "model:line"),
    ("incidence", "incidence:table"),
    ("lemmas", "lem:transversal-lines"),
    ("lemmas", "lem:transversal-solids"),
    ("remark", "remark:antiauto"),
    ("remark", "remark:xi-bijection"),
    ("remark", "remark:xi-breaks-adjacency"),
    ("remark", "remark:xi-skew-pairs"),
    ("thm1", "thm1:positive"),
    ("thm1", "thm1:decompose"),
    ("thm1", "thm1:negative"),
    ("thm2", "thm2:no-duality"),
)


def graph_size(q):
    """Vertices: the X planes q(q+1)^2 plus the Y planes q+1.  Edges: each
    of the q+1 regulus lines carries a clique on q^2+q+1 planes, and the
    Y planes form one clique of q+1."""
    return q * (q + 1) ** 2 + (q + 1), (q + 1) * comb(q * q + q + 1, 2) + comb(q + 1, 2)


def _option(cli_args, flag, default=None):
    return cli_args[cli_args.index(flag) + 1] if flag in cli_args else default


def check_verify(cli_args, report):
    suite = _option(cli_args, "--suite", "all")
    want_ids = [c for c in CLAIMS if suite in ("all", c[0])]
    got_ids = [(c.get("suite"), c.get("id")) for c in report["claims"]]
    if got_ids != want_ids:
        return f"claim ids differ: {[cid for _, cid in got_ids]}"
    bad = [c["id"] for c in report["claims"] if c.get("ok") is not True]
    if bad:
        return f"claims not ok: {bad}"
    if report["summary"].get("ok") is not True:
        return "summary.ok is not true"
    cfg = report["config"]
    if cfg.get("q") != int(_option(cli_args, "--q")) or cfg.get("seed") != int(
        _option(cli_args, "--seed", 0)
    ):
        return f"config does not echo the request: {cfg}"
    return None


def check_graph(cli_args, export):
    q = int(_option(cli_args, "--q"))
    vertices, edges = graph_size(q)
    if export.get("q") != q:
        return f"graph q is {export.get('q')}, expected {q}"
    if len(export["vertices"]) != vertices:
        return f"{len(export['vertices'])} vertices, expected {vertices}"
    distinct = {tuple(sorted(e)) for e in export["edges"]}
    if len(export["edges"]) != edges or len(distinct) != edges:
        return f"{len(export['edges'])} edges ({len(distinct)} distinct), expected {edges}"
    return None


def check_output(cli_args, returncode, stdout_text):
    """None when the operation is correct, else the reason it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        payload = json.loads(stdout_text)
        if cli_args[0] == "verify":
            return check_verify(cli_args, payload)
        return check_graph(cli_args, payload)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"output does not parse: {exc!r}"
