"""Output checks: every wrong answer is a failed operation."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from compute import check_results  # noqa: E402
from serving import check, payload  # noqa: E402

PLAN = {"hot_seeds": [3, 5], "fresh_base": 100, "sweep_base": 200}


def response(cls, seed, result, status=200):
    body = {"protocol": 1, "status": "ok", "kind": "sweep" if cls == "sweep" else "schedule",
            "source": "fresh", "elapsed": 0.01, "result": result}
    return (cls, 0, 0, seed, 0.0, 0.01, status, json.dumps(body).encode())


def schedule_result(cls, seed, makespan=10.0):
    return {"cell": payload(cls, seed)["cell"], "seed": seed, "makespan": makespan}


def test_compute_round_matching_digests_passes():
    results = [{"x": 1}, [1.5, 2.5]]
    first, digests = [None, None], [None, None]
    expected = [stats.digest(r) for r in results]
    assert check_results(results, first, digests, expected) == 0
    assert digests == expected
    assert check_results(results, first, digests, expected) == 0


def test_compute_digest_mismatch_counts_as_failure():
    results = [{"x": 1}, {"x": 2}]
    expected = [stats.digest({"x": 1}), stats.digest({"x": 3})]
    assert check_results(results, [None, None], [None, None], expected) == 1


def test_compute_missing_recorded_digest_is_a_mismatch():
    assert check_results([{"x": 1}, {"x": 2}], [None, None], [None, None], [stats.digest({"x": 1})]) == 1


def test_compute_later_round_must_equal_the_first():
    first, digests = [None], [None]
    assert check_results([{"x": 1.0}], first, digests, None) == 0
    assert check_results([{"x": 1.0000000000000002}], first, digests, None) == 1
    assert check_results([None], first, digests, None) == 1


def test_route_digest_mismatch_counts_as_failure():
    result = schedule_result("fresh", 101)
    good = {"fresh": {"101": stats.digest(result)}}
    bad = {"fresh": {"101": "0" * 16}}
    assert check(response("fresh", 101, result), PLAN, {}, good)[0]
    assert not check(response("fresh", 101, result), PLAN, {}, bad)[0]
    # No digest recorded for this seed: structure checks only.
    assert check(response("fresh", 101, result), PLAN, {}, {"fresh": {}})[0]


def test_route_sweep_digest_covers_the_series():
    result = {"cell": payload("sweep", 201)["cell"], "seed": 201, "series": [{"mean": 1.25}]}
    good = {"sweep": {"201": stats.digest(result["series"])}}
    assert check(response("sweep", 201, result), PLAN, {}, good)[0]
    result["series"][0]["mean"] = 1.5
    assert not check(response("sweep", 201, result), PLAN, {}, good)[0]


def test_route_non_200_and_transport_errors_fail():
    result = schedule_result("fresh", 101)
    assert not check(response("fresh", 101, result, status=429), PLAN, {}, None)[0]
    assert not check(("fresh", 0, 0, 101, 0.0, 0.0, 0, b""), PLAN, {}, None)[0]


def test_route_wrong_seed_or_changed_hot_answer_fails():
    result = schedule_result("fresh", 101)
    assert not check(response("fresh", 103, result), PLAN, {}, None)[0]
    warm = {3: stats.canonical(schedule_result("hot", 3))}
    assert check(response("hot", 3, schedule_result("hot", 3)), PLAN, warm, None)[0]
    assert not check(response("hot", 3, schedule_result("hot", 3, 11.0)), PLAN, warm, None)[0]
