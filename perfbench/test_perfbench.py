"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


@pytest.mark.parametrize("make", [
    lambda seed: workloads.stream("classify-mix", seed),
    lambda seed: workloads.stream("symmetry-solve", seed),
])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    first = _take(make(5), 60)
    assert first == _take(make(5), 60)
    assert first != _take(make(6), 60)


def test_input_shares_hold_in_every_block():
    items = _take(workloads.stream("classify-mix", 3), 40)
    for block in (items[:20], items[20:]):
        for kind, count in workloads.CLASSIFY_BLOCK:
            of_kind = [i for i in block if i.kind == kind]
            assert len(of_kind) == count
            assert sum(i.conjugate for i in of_kind) == count // 2
    fields = _take(workloads.stream("symmetry-solve", 3), 20)
    for consistent, cap, count in workloads.SOLVE_BLOCK:
        assert sum(f.consistent == consistent and f.cap == cap for f in fields) == count


def test_raising_op_is_counted_and_the_run_continues(monkeypatch):
    calls = []

    def flaky(item):
        calls.append(item)
        if len(calls) % 2 == 0:
            raise ZeroDivisionError("injected")
        return "answer"

    monkeypatch.setitem(workloads.OPS, "symmetry-solve", (flaky, lambda item, result: None))
    summary = worker.loop("symmetry-solve", 1, 0.2)
    assert summary["attempted"] == len(calls) - 1  # the warm-up op is not counted
    assert summary["attempted"] > 4
    assert summary["failed"] == sum(summary["failures"].values())
    assert summary["failed"] in (summary["attempted"] // 2, (summary["attempted"] + 1) // 2)
    assert all("raised ZeroDivisionError" in key for key in summary["failures"])


def test_classify_op_is_one_block_and_a_failing_pair_fails_it(monkeypatch):
    def op(item):
        if item.kind == "translation" and item.conjugate:
            raise OverflowError("injected")
        return "answer"

    monkeypatch.setitem(workloads.OPS, "classify-mix", (op, lambda item, result: None))
    summary = worker.loop("classify-mix", 1, 0.2)
    assert workloads.OP_INPUTS["classify-mix"] == sum(n for _, n in workloads.CLASSIFY_BLOCK) == 20
    assert summary["attempted"] == summary["failed"] > 1  # one such pair in every block
    assert summary["failures"] == {"translation: raised OverflowError": summary["attempted"]}


def test_run_whose_ops_all_fail_is_not_correct(monkeypatch):
    import run

    monkeypatch.setitem(workloads.OPS, "symmetry-solve", (lambda item: None, lambda item, result: "verdict: wrong"))
    summary = worker.loop("symmetry-solve", 1, 0.1)
    assert summary["failed"] == summary["attempted"] > 0
    assert not run.is_correct({"untraced": summary})


def test_any_failed_op_or_empty_phase_makes_a_run_incorrect():
    import run

    def phase(failures):
        return {"untraced": {"attempted": 100, "failed": sum(failures.values()), "failures": failures}}

    assert not run.is_correct(phase({"near_border: verdict": 1}))
    assert not run.is_correct(phase({"cap2-consistent: plug-back": 1}))
    assert not run.is_correct(phase({"raised AssertionError": 1}))
    assert run.is_correct(phase({}))
    assert not run.is_correct({"untraced": {"attempted": 0, "failed": 0, "failures": {}}})


def test_extreme_magnitudes_go_to_the_probe_not_the_timed_stream():
    timed = _take(workloads.stream("classify-mix", 4), 100)
    assert workloads.PROBE_KIND not in {i.kind for i in timed}
    pairs = workloads.probe_inputs(4)
    assert pairs == workloads.probe_inputs(4) != workloads.probe_inputs(5)
    assert len(pairs) == workloads.PROBE_PAIRS
    assert {i.kind for i in pairs} == {workloads.PROBE_KIND}
    assert sum(i.conjugate for i in pairs) == workloads.PROBE_PAIRS // 2


def test_probe_counts_failures_by_reason(monkeypatch):
    def op(item):
        if item.conjugate:
            raise OverflowError("injected")
        return "answer"

    monkeypatch.setitem(workloads.OPS, "classify-mix", (op, lambda item, result: "replay: injected"))
    result = worker.probe(2)
    assert result["attempted"] == workloads.PROBE_PAIRS == result["failed"]
    half = workloads.PROBE_PAIRS // 2
    assert result["failures"] == {"raised OverflowError": half, "replay": half}


def test_translations_within_zero_tol_are_all_equivalent():
    # rotation parts of 1e-14 and 3e-15 of the translation: both pure
    # translations to the library, so equivalent although built with
    # different pitches
    flat = workloads.ClassifyInput("near_border", (1.0, 0.0, 0.0, 1e-14, 0.0, 0.0),
                                   (0.0, 2.0, 0.0, 0.0, 0.0, 3e-15), False)
    assert workloads.expected_equivalent(flat)
    assert workloads.check_classify(flat, workloads.classify_op(flat)) is None
    # a rotation part of 1e-10 is above the tolerance: a screw, not equivalent
    screw = workloads.ClassifyInput("near_border", (1.0, 0.0, 0.0, 1e-10, 0.0, 0.0),
                                    (0.0, 2.0, 0.0, 0.0, 0.0, 3e-15), False)
    assert not workloads.expected_equivalent(screw)
    assert workloads.check_classify(screw, workloads.classify_op(screw)) is None


def test_wrong_answers_fail_their_checks():
    item = workloads.SolveInput("x; y; z; 0", 2, True)
    field, space = workloads.solve_op(item)
    assert workloads.check_solve(item, (field, space)) is None
    assert workloads.check_solve(item, (field, None)).startswith("verdict")
    pair = workloads.warmup_input("classify-mix", 1)
    result = workloads.classify_op(pair)
    assert workloads.check_classify(pair, result) is None
    flipped = workloads.ClassifyInput(pair.kind, pair.x, pair.y, not pair.conjugate)
    assert workloads.check_classify(flipped, result).startswith("verdict")


@pytest.fixture(scope="module")
def report():
    from se3sym.claims import claims_report

    return json.loads(claims_report(samples=200, seed=9).to_json())


@pytest.fixture(scope="module")
def schema():
    return json.loads((ROOT / "schemas" / "claims_report.json").read_text())


def _encode(payload):
    return json.dumps(payload).encode()


def test_genuine_report_passes(report, schema):
    assert workloads.check_claims_report(1, _encode(report), 200, 9, schema) is None


@pytest.mark.parametrize("corrupt", [
    lambda r: r["claims"][0].update(status="discrepancy"),
    lambda r: next(c for c in r["claims"] if c["id"] == "two-dim-subalgebras").update(status="confirmed"),
    lambda r: r["claims"].pop(),
    lambda r: r["claims"][1].update(status="maybe"),
    lambda r: r.update(seed=10),
    lambda r: r.update(extra=True),
])
def test_corrupted_report_fails(report, schema, corrupt):
    bad = json.loads(json.dumps(report))
    corrupt(bad)
    assert workloads.check_claims_report(1, _encode(bad), 200, 9, schema) is not None


def test_wrong_exit_code_or_truncated_output_fails(report, schema):
    assert workloads.check_claims_report(0, _encode(report), 200, 9, schema) is not None
    assert workloads.check_claims_report(1, _encode(report)[:-40], 200, 9, schema) is not None


def test_self_time_on_hand_built_span_tree():
    # op [0, 100] -> a [10, 60] -> b [20, 30], b [35, 50];  op -> c [70, 95]
    parent = [-1, 0, 1, 1, 0]
    start = [0, 10, 20, 35, 70]
    end = [100, 60, 30, 50, 95]
    assert spans.self_times(parent, start, end) == [100 - 50 - 25, 50 - 10 - 15, 10, 15, 25]
    payload = {
        "names": ["op", "optimal.f", "adjoint.g", "optimal.h"],
        "name": [0, 1, 2, 2, 3],
        "parent": parent, "start": start, "end": end, "attrs": {},
    }
    spanset = spans.SpanSet([payload, payload])
    assert spanset.roots == {"op": 2}
    assert spanset.layer_self_s("optimal") == pytest.approx((25 + 25) * 1e-9)
    assert spanset.layer_self_s("adjoint") == pytest.approx(25 * 1e-9)
    assert spanset.per_root("adjoint.g") == 2.0
    assert spanset.median_ns("optimal.f") == 50


def test_layer_falls_back_to_the_kernel_pass_when_ops_miss_it():
    payload = {
        "names": ["op", "optimal.f", "kernel", "jets.k"],
        "name": [0, 1, 2, 3],
        "parent": [-1, 0, -1, 2], "start": [0, 1, 10, 12], "end": [5, 4, 20, 18], "attrs": {},
    }
    spanset = spans.SpanSet([payload])
    assert spanset.layer_self_s("optimal") == pytest.approx(3e-9)
    assert spanset.layer_self_s("jets") == pytest.approx(6e-9)
    assert spanset.median_ns("jets.k") == 6


def test_recipe_success_ratio_comes_from_the_recipe_pass_unless_ops_hold_case_patterns():
    # two ops with generic elements only, then the recipe pass: 1 of 2 succeed
    payload = {
        "names": ["op", "optimal.classify_1d_paper", "recipes"],
        "name": [0, 1, 0, 1, 2, 1, 1],
        "parent": [-1, 0, -1, 2, -1, 4, 4],
        "start": [0, 1, 10, 11, 20, 21, 25], "end": [5, 4, 15, 14, 30, 24, 29],
        "attrs": {"1": {"fallback": True}, "3": {"fallback": True},
                  "5": {"fallback": False}, "6": {"fallback": True}},
    }
    spanset = spans.SpanSet([payload])
    assert spans.per_layer_metrics(spanset, recipes_from_ops=True)["optimal.recipe_success_ratio"] == 0.0
    assert spans.per_layer_metrics(spanset, recipes_from_ops=False)["optimal.recipe_success_ratio"] == 0.5
    assert spans.per_layer_metrics(spanset, True)["optimal.classify_1d_paper_us"] == pytest.approx(3e-3)


def test_reported_metrics_are_the_declared_ones():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    result = {"op_ms": [2.0, 1.0, 3.0], "cpu_ms": [1.0, 1.0, 2.0], "peak_rss_mb": 40.0}
    end_to_end = run.end_to_end(result, 0.3)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: u for k, (_, u) in end_to_end.items()}
    layers = set(spans.per_layer_metrics(spans.SpanSet([]), True)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in declared["per_layer"]} == layers
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in declared["per_layer"])
