import json

import pytest

from ternions.gf import make_field
from ternions.suites import (
    SUITE_NAMES,
    SuiteParams,
    VerifyContext,
    is_linear_involutive_antiautomorphism,
    run_suites,
    summarize,
)
from ternions.ternion import Ternion, enumerate_ternions, iota


def small_params():
    return SuiteParams(
        thm1_positives=50,
        thm1_controls=100,
        thm1_decompositions=3,
        recipes=10,
    )


@pytest.fixture(scope="module")
def claims_q2(f2):
    ctx = VerifyContext(field=f2, seed=0, params=small_params())
    return run_suites(ctx, SUITE_NAMES)


def test_all_suites_pass_q2(claims_q2):
    bad = [c for c in claims_q2 if not c["ok"]]
    assert bad == []
    assert summarize(claims_q2)["ok"] is True


def test_claims_are_json_safe_and_ordered(claims_q2):
    # serializable, and suite blocks arrive in alphabetical order
    text = json.dumps(claims_q2, sort_keys=True)
    assert text
    suites_seen = [c["suite"] for c in claims_q2]
    boundaries = [s for i, s in enumerate(suites_seen) if i == 0 or suites_seen[i - 1] != s]
    assert boundaries == sorted(boundaries)
    assert set(suites_seen) == set(SUITE_NAMES)
    for c in claims_q2:
        assert set(c) == {"suite", "id", "ok", "detail"}


def test_determinism_same_seed(f3):
    params = small_params()
    a = run_suites(VerifyContext(field=f3, seed=7, params=params), ["thm1", "adjacency"])
    b = run_suites(VerifyContext(field=f3, seed=7, params=params), ["adjacency", "thm1"])
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seed_changes_witness_payloads(f2):
    params = small_params()
    a = run_suites(VerifyContext(field=f2, seed=1, params=params), ["thm1"])
    b = run_suites(VerifyContext(field=f2, seed=2, params=params), ["thm1"])
    assert all(c["ok"] for c in a + b)
    # same claim ids either way
    assert [c["id"] for c in a] == [c["id"] for c in b]


def test_thm1_q5_default_params(cat5):
    ctx = VerifyContext(field=cat5.field, seed=0)
    ctx.catalog = cat5  # reuse the session catalog
    claims = run_suites(ctx, ["thm1"])
    assert [c["id"] for c in claims] == ["thm1:positive", "thm1:decompose", "thm1:negative"]
    assert all(c["ok"] for c in claims)
    assert claims[0]["detail"] == {"maps_checked": 1000, "failures": 0}
    assert claims[2]["detail"]["controls"] == 2000


def test_incidence_and_remark_exhaustive_q5(cat5):
    ctx = VerifyContext(field=cat5.field, seed=0)
    ctx.catalog = cat5  # reuse the session catalog
    claims = {c["id"]: c for c in run_suites(ctx, ["incidence", "remark"])}
    assert all(c["ok"] for c in claims.values())
    assert claims["incidence:table"]["detail"]["sample_per_type"] is None
    skew = claims["remark:xi-skew-pairs"]["detail"]
    assert skew == {"pairs_checked": 16110, "exhaustive": True}  # 180 X planes


def test_unknown_suite_raises(f2):
    with pytest.raises(ValueError):
        run_suites(VerifyContext(field=f2), ["nonsense"])


def test_single_suite_q3(f3):
    ctx = VerifyContext(field=f3, seed=0, params=small_params())
    claims = run_suites(ctx, ["counts"])
    assert all(c["ok"] for c in claims)
    ids = [c["id"] for c in claims]
    assert "counts:orbit-sizes" in ids
    assert any(i.startswith("chars:") for i in ids)


def test_summarize_counts():
    claims = [
        {"suite": "s", "id": "a", "ok": True, "detail": {}},
        {"suite": "s", "id": "b", "ok": False, "detail": {}},
    ]
    s = summarize(claims)
    assert s == {"claims": 2, "passed": 1, "failed": 1, "ok": False}


def _antiauto_all_pairs(field, anti):
    """Reference: additivity and reversal on all q^6 pairs, involutivity on
    all q^3 elements.  Over a prime field additivity is linearity."""
    elements = list(enumerate_ternions(field))
    for s in elements:
        if anti(anti(s)) != s:
            return False
        for t in elements:
            if anti(s * t) != anti(t) * anti(s) or anti(s + t) != anti(s) + anti(t):
                return False
    return True


@pytest.mark.parametrize("q", [2, 3, 5])
def test_antiauto_by_bilinearity_matches_all_pairs(q):
    f = make_field(q, 1)
    maps = {
        "iota": iota,
        "identity": lambda t: t,
        "iota, y scaled by -1": lambda t: Ternion(f, t.z, f.neg(t.y), t.x),
        "iota, y scaled by 2": lambda t: Ternion(f, t.z, f.mul(2 % q, t.y), t.x),
        "iota, y -> y + x": lambda t: Ternion(f, t.z, f.add(t.y, t.x), t.x),
        "iota, y squared": lambda t: Ternion(f, t.z, f.mul(t.y, t.y), t.x),
        "x <-> y": lambda t: Ternion(f, t.y, t.x, t.z),
    }
    got = {name: is_linear_involutive_antiautomorphism(f, m) for name, m in maps.items()}
    assert got == {name: _antiauto_all_pairs(f, m) for name, m in maps.items()}
    assert got["iota"] and not got["identity"] and not got["iota, y -> y + x"]
    # reverses products but is not involutive where 2^2 != 1
    assert got["iota, y scaled by 2"] is (q == 3)


def _wrong_off_normal_forms(right, wrong):
    """A stand-in that is right on every unit-orbit normal form but answers
    `wrong` where a22 and a12 are both nonzero, which no normal form has."""
    return lambda v: wrong if v[0].z and v[0].y else right(v)


def test_classifier_walk_catches_orbit_dependence(f2, monkeypatch):
    # the walk sees an error that only the unit images expose
    import ternions.suites as suites
    from ternions.model import SubmoduleType

    assert suites._classifier_walk(f2)[:2] == (0, 0)
    wrong = _wrong_off_normal_forms(suites.classify, SubmoduleType.BETA)
    monkeypatch.setattr(suites, "classify", wrong)
    assert suites._classifier_walk(f2)[0] > 0
    monkeypatch.undo()
    wrong = _wrong_off_normal_forms(suites.is_unimodular, False)
    monkeypatch.setattr(suites, "is_unimodular", wrong)
    assert suites._classifier_walk(f2)[1] > 0


@pytest.mark.parametrize("q", [2, 3])
def test_classifier_walk_covers_whole_orbits(q):
    # the invariance the walk rests on, orbit by orbit: closing each normal
    # form under the three generating units partitions the q^6 - 1 nonzero
    # pairs, and the three functions agree with the normal form's type on
    # every pair of its orbit
    from ternions.model import (
        SubmoduleType,
        _unit_orbit_normal_forms,
        classify,
        classify_by_rank,
        is_unimodular,
    )
    from ternions.suites import _classifier_walk, _primitive_element
    from ternions.ternion import enumerate_pairs, scale_left

    f = make_field(q, 1)
    g = _primitive_element(f)
    units = (Ternion(f, g, 0, 1), Ternion(f, 1, 0, g), Ternion(f, 1, 1, 1))
    seen = set()
    for nf in _unit_orbit_normal_forms(f):
        t = classify(nf)
        orbit, todo = {nf}, [nf]
        while todo:
            v = todo.pop()
            for u in units:
                w = scale_left(u, v)
                if w not in orbit:
                    orbit.add(w)
                    todo.append(w)
        assert seen.isdisjoint(orbit)
        seen |= orbit
        for v in orbit:
            assert classify(v) is t and classify_by_rank(v) is t
            assert is_unimodular(v) is (t is SubmoduleType.X)
    zero = Ternion(f, 0, 0, 0)
    assert seen == set(enumerate_pairs(f)) - {(zero, zero)}
    assert _classifier_walk(f)[:2] == (0, 0)
