import json

import pytest

from ternions.suites import (
    SUITE_NAMES,
    SuiteParams,
    VerifyContext,
    run_suites,
    summarize,
)


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
