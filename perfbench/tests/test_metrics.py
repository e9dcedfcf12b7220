"""Metric names: well formed, declared in BENCHMARK.json, and emitted."""

import json
import re
from pathlib import Path

import layers
import pytest
import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_every_declared_name_is_well_formed_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_every_row_label_reads_a_declared_metric():
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for rows in run.ROW_NAMES.values():
        for label, key, _unit in rows:
            assert NAME.match(label)
            assert key is None or key in declared


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


def _tiny(monkeypatch, count):
    corpus, scale = workloads.corpus_round, workloads.scalefam.make_round
    monkeypatch.setattr(workloads, "corpus_round", lambda *a: corpus(*a)[:count])
    monkeypatch.setattr(workloads.scalefam, "make_round", lambda *a: scale(*a)[:count])
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 1)


def _emitted(outcome):
    return {name for name in outcome.metrics if not name.startswith("_")}


def test_closed_loop_emits_every_end_to_end_metric(monkeypatch, tmp_path):
    _tiny(monkeypatch, 3)
    outcome = workloads.run_closed("corpus", 1, 0.001, tmp_path, tracer=layers.Tracer(),
                                   log=lambda line: None)
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert _emitted(outcome) | {"setup_s"} == declared
    assert outcome.unsound == 0 and outcome.attempted == 3 * workloads.PASS_ROUNDS
    assert set(outcome.layers) == {name for name, _unit in layers.PER_LAYER}
    assert outcome.layers["lang.cfg_nodes"] > 0
    # every corpus program is submitted twice; the second is a cache hit
    assert outcome.layers["serve.cache_hit_ratio"] == 0.5
    assert outcome.notes["mismatched_hits"] == 0


def test_passes_are_matched_by_program_across_orders(monkeypatch):
    first = workloads.corpus_round(1, 0, 0)[:3]
    orders = {0: first, 1: first[::-1]}
    monkeypatch.setattr(workloads, "work_set", lambda _w, _s, index: orders[index % 2])
    checked = []
    monkeypatch.setattr(workloads, "_unsound",
                        lambda program, claimed, _np: checked.append(claimed) or False)
    exact = {"claimed": [[1, 2]], "confidence": "exact", "error": ""}
    partial = {"claimed": [[3, 4]], "confidence": "partial", "error": ""}

    def record(seconds, answers):
        return {"seconds": seconds, "answers": answers, "rss_mb": 100.0, "mismatched": 0}

    # the first program is exact in every pass; pass 1 runs the three in reverse
    records = [record([1.0, 2.0, 4.0], [exact, partial, partial]),
               record([4.0, 2.0, 1.0], [partial, partial, exact]),
               record([1.0, 2.0, 8.0], [exact, partial, partial])]
    outcome = workloads.closed_outcome("corpus", 1, records, log=lambda line: None)
    assert outcome.metrics["throughput_per_s"] == 3 / 7.0  # the median pass
    # the mean of the middle half of all nine times, 1 1 [1 2 2 2 4] 4 8
    assert outcome.metrics["p50_ms"] == pytest.approx(2200.0)
    assert outcome.metrics["exact_share"] == 3 / 9
    assert outcome.notes["answers_differing_across_passes"] == 0
    assert outcome.attempted == 9 and outcome.failed == 0
    assert len(checked) == 3  # each distinct answer is checked once
    assert workloads.pass_count(40) == 5 and workloads.pass_count(1) == workloads.MIN_PASSES


def test_traced_service_run_emits_every_metric_and_checks_answers(monkeypatch, tmp_path):
    _tiny(monkeypatch, 4)
    outcome = workloads.run_serve(tmp_path, 1, 2.5, tracer=layers.Tracer(),
                                  log=lambda line: None)
    assert _emitted(outcome) == {m["name"] for m in SPEC["end_to_end"]}
    assert outcome.notes["isolation"].startswith("inline")
    assert outcome.unsound == 0 and outcome.notes["mismatched_hits"] == 0
    assert outcome.layers["serve.cache_hit_ratio"] > 0


def test_results_from_different_hosts_are_not_compared(tmp_path, capsys):
    base = {"workload": "scale", "metrics": {"p50_ms": {"value": 1.0, "unit": "ms"}}}
    old = dict(base, host={"cpu_model": "a", "nproc": 2, "python": "3.11", "numpy": "2"})
    new = dict(base, host={"cpu_model": "b", "nproc": 2, "python": "3.11", "numpy": "2"},
               metrics={"p50_ms": {"value": 9.0, "unit": "ms"}})
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert run.compare(str(tmp_path / "old.json"), str(tmp_path / "new.json")) == 0
    out = capsys.readouterr().out
    assert "different hosts" in out and "+800" not in out
