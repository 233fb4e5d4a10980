import os
from pathlib import Path

import pytest

from ternions.gf import make_field
from ternions.linalg import contains, enumerate_subspaces, meet
from ternions.model import TYPE_ORDER, build_catalog

SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env(extra=None):
    """The environment for a `python -m ternions.cli` subprocess: the
    caller's, without TERNION_BUDGET, with src/ first on PYTHONPATH so a
    fresh checkout needs no install."""
    env = dict(os.environ)
    env.pop("TERNION_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if extra:
        env.update(extra)
    return env


@pytest.fixture(scope="session")
def f2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def cat2(f2):
    return build_catalog(f2)


@pytest.fixture(scope="session")
def cat3(f3):
    return build_catalog(f3)


@pytest.fixture(scope="session")
def cat4(f4):
    return build_catalog(f4)


@pytest.fixture(scope="session")
def cat5(f5):
    return build_catalog(f5)


@pytest.fixture(scope="session")
def graph2(cat2):
    from ternions.geometry import build_graph

    return build_graph(cat2)


@pytest.fixture(scope="session")
def graph3(cat3):
    from ternions.geometry import build_graph

    return build_graph(cat3)


def x_plane_sweep(cat):
    """Reference X scan over all of G(6,3): the planes whose J-trace is a
    line other than L and whose K-trace is an alpha regulus line."""
    kern = cat.field.kernel
    j, k, l = cat.j_solid, cat.k_solid, cat.l_line
    alpha = set(cat.g_alpha)
    found = set()
    for m in enumerate_subspaces(cat.field, 6, 3, budget=10**6):
        if kern.stack_rank(m.basis, j.basis) != 5:  # dim(M ^ J) == 2
            continue
        if kern.stack_rank(m.basis, l.basis) == 3:  # L <= M, so M ^ J = L
            continue
        if meet(m, k) in alpha:
            found.add(m)
    return frozenset(found)


def incident(u, v):
    """Containment one way or the other (reflexive)."""
    if u.dim == v.dim:
        return u == v
    if u.dim < v.dim:
        return contains(v, u)
    return contains(u, v)


def incidence_counts(p0, cat):
    """Reference for `incidence_table`, by O(N^2) containment tests: how
    many members of each orbit list are incident with p0, ordered
    (X, Y, alpha, beta, gamma)."""
    return tuple(sum(1 for s in cat.members(t) if incident(p0, s)) for t in TYPE_ORDER)


# acceptance tests append (criterion, verdict, note) rows here; the hook
# prints them as one line each at the end of the run
ACCEPTANCE_LOG = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for crit, ok, note in sorted(ACCEPTANCE_LOG):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {crit:>2}: {verdict} - {note}")
