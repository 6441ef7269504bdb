"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They check that the declared metrics match what the harness prints, that
the golden record still matches the generated deck, that each workload
reaches the layers it was chosen for, and that the answer checker rejects
wrong answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_record_matches_the_deck(workload):
    record = json.loads((HERE / "golden" / f"{workload}.json").read_text())
    reqs = workloads.deck(workload, record["seed"], rounds=1)
    assert [(e["argv"], e["stdin"], e["exit"]) for e in record["requests"]] == [
        (list(r.argv), r.payload, r.expect) for r in reqs]


def _one_per_category(workload):
    _, cli, reqs = run.set_up(workload, 0)
    chosen = {}
    for req in reqs:
        chosen.setdefault(req.category, req)
    return cli, list(chosen.values())


def _traced(workload):
    cli, reqs = _one_per_category(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for req in reqs:
            code, _, out, err = run.invoke(cli, req.argv, req.payload)
            tracer.fold()
            assert answers.check(req, code, out) == [], (req.category, err)
    finally:
        tracer.uninstall()
    return tracer


def test_decide_reaches_the_decision_layers_and_no_point_search():
    tr = _traced("decide")
    for name in ("projline.config_equiv", "projline.realizable_permutations",
                 "projline.stabilizer", "projline.moebius_from_triples",
                 "conic_model.decide_birational", "conic_model.decide_marked_iso",
                 "conic_model.decide_very_transitive", "delpezzo.geiser",
                 "delpezzo.biconic_interval_image", "planner.find_rect_path",
                 "planner.validate_path", "lattice.exceptional_classes",
                 "lattice.perm_preserves_form"):
        assert tr.calls[name] > 0, name
    assert tr.calls["twist.find_fiber_point"] == 0
    assert tr.calls["delpezzo.fiber_points"] == 0
    assert tr.counts["grid_cells"] > 0


def test_fiber_miss_spends_its_searches_on_misses():
    tr = _traced("fiber-miss")
    calls = tr.calls["twist.find_fiber_point"]
    assert calls > 2 * tr.counts["fiber_hits"]
    assert tr.counts["fiber_large_height"] > 0
    assert tr.counts["fiber_miss_ms"] > tr.counts["fiber_hit_ms"]
    assert tr.calls["delpezzo.fiber_points"] > 0 and tr.counts["conic_empty"] > 0


def test_fiber_hit_finds_points_and_interpolates():
    tr = _traced("fiber-hit")
    assert tr.counts["fiber_hits"] > 0
    assert tr.counts["max_nodes"] >= 10 and tr.counts["max_n"] >= 10
    assert tr.calls["twist.verify_twist"] > 0 and tr.calls["twist.synthesize_twist"] > 0
    assert tr.calls["delpezzo.fiber_points"] == 0


def _answer(workload, kind):
    cli, reqs = _one_per_category(workload)
    req = next(r for r in reqs if r.kind == kind and r.expect == 0)
    code, _, out, _ = run.invoke(cli, req.argv, req.payload)
    assert answers.check(req, code, out) == []
    return req, json.loads(out)


def _rejected(req, obj) -> bool:
    return answers.check(req, 0, json.dumps(obj)) != []


def test_checker_rejects_corrupted_answers():
    req, obj = _answer("decide", "decide-birational")
    obj["witness"]["b"] = str(int(obj["witness"]["b"]) + 1)
    assert _rejected(req, obj)

    req, obj = _answer("decide", "stabilizer")
    obj["stabilizer"] = obj["stabilizer"][:1]
    obj["order"] = 1
    assert _rejected(req, obj) or not req.spec["subgroup"][1:]

    req, obj = _answer("decide", "region-path")
    obj["path"][-1][1][0] = "123456789"
    assert _rejected(req, obj)

    req, obj = _answer("decide", "geiser")
    obj["image"]["t"] = obj["second_fibration"] = ["1", "0"]
    assert _rejected(req, obj)

    req, obj = _answer("fiber-hit", "twist")
    obj["twist"]["lambda"] = obj["twist"]["lambda"] + ["1"]
    assert _rejected(req, obj)

    req, obj = _answer("decide", "lattice")
    obj["classes"] = obj["classes"][1:] + obj["classes"][:1]
    obj["classes"][0] = [0] * len(obj["classes"][0])
    assert _rejected(req, obj)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 1001))) == (99.0, 990)
    assert run.tail(list(range(1, 201))) == (95.0, 190)
    assert run.tail(list(range(1, 151))) == (90.0, 135)
    assert run.tail(list(range(1, 20001)), top=99.0) == (99.0, 19800)


def test_gauge_rescales_by_the_probes_nearest_in_time():
    gauge = speed.Gauge()
    gauge.times = [float(t) for t in range(10)]
    gauge.lengths = [speed.REFERENCE_S] * 5 + [2 * speed.REFERENCE_S] * 5
    assert gauge.scale(0.0, 1.0) == 1.0
    assert gauge.scale(8.0, 9.0) == 0.5
    assert gauge.scale(4.4, 4.6) == pytest.approx(2 / 3)
