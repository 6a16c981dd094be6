"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests"""

import json
import sys
import threading
import types

import pytest

import run
import tracer
import workloads
from triemoments import exact

TINY = {
    "exact-p03": workloads.exact_p03(nmax=300),
    "compare-p05-ext": workloads.compare_p05_ext(grid=(16, 64), trials=100),
    "simulate-n16": workloads.simulate_n16(trials=400),
    "whiten-p01": workloads.whiten_p01(trials=100),
}


@pytest.fixture(scope="module")
def ref():
    with open(f"{run.HERE}/reference.json") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes(name, ref):
    records, metrics = run.measure(TINY[name], seed=3, seconds=0, trace=False, ref=ref)
    assert len(records) == 1
    assert records[0]["problems"] == []
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values())


def test_tiny_traced_run_reports_every_layer_metric(ref):
    records, metrics = run.measure(TINY["compare-p05-ext"], seed=3, seconds=0,
                                   trace=True, ref=ref)
    assert [r["traced"] for r in records] == [False, True]
    assert all(r["problems"] == [] for r in records)
    assert set(metrics) == set(run.LAYER_UNITS)
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["exact.compute_calls"] == 1
    assert value["exact.dp_cells"] == 64 * 63 // 2
    assert value["dd.ops"] > 0 and value["gammafn.calls"] > 0
    assert value["trie.sample_shape_calls"] == 2 * 100
    assert value["mc.trials_per_s"] > 0
    assert value["trace.absent"] == 0
    assert 0.5 < value["trace.coverage"] <= 1.0


def _corrupt_var_k_at_64(data: bytes) -> bytes:
    lines = data.decode().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("64,"):
            cells = line.split(",")
            cells[5] = repr(float(cells[5]) * (1 + 1e-6))   # VarK
            lines[i] = ",".join(cells)
    return "\n".join(lines).encode()


def test_corrupted_output_counts_as_failed(ref, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "exact-p03", TINY["exact-p03"])
    check = run.Runner.check
    monkeypatch.setattr(run.Runner, "check",
                        lambda self, data, rec: check(self, _corrupt_var_k_at_64(data), rec))
    assert run.main(["--workload", "exact-p03", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_failing_command_counts_as_failed(ref):
    bad = workloads.Workload("bad", "p out of range", lambda seed: [
        "exact", "--p", "1.5", "--nmax", "8"], TINY["exact-p03"].check)
    records, _ = run.measure(bad, seed=0, seconds=0, trace=False, ref=ref)
    assert "exit code 2" in records[0]["problems"]


def test_self_times_on_nested_spans():
    #  a [0, 100): b [10, 40) holding c [15, 25), then b [50, 90)
    spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 15, 25, 1),
             ("b", 50, 90, 0)]
    assert tracer.self_times(spans) == [30, 20, 10, 40]
    summary = tracer.summarise(spans, {1: {"cells": 5}, 3: {"cells": 7}})
    assert summary["b"]["calls"] == 2
    assert summary["b"]["self_s"] == pytest.approx(60e-9)
    assert summary["b"]["incl_s"] == pytest.approx(70e-9)
    assert summary["b"]["cells"] == 12
    assert tracer.top_level_s(spans, "a") == pytest.approx(70e-9)


def test_nested_same_name_counts_inclusive_time_once():
    # d [0, 10) calls d [2, 5), as DD.__sub__ calls DD.__add__
    spans = [("d", 0, 10, -1), ("d", 2, 5, 0)]
    summary = tracer.summarise(spans, {0: {"trials": 4}, 1: {"trials": 4}})
    assert summary["d"]["incl_s"] == pytest.approx(10e-9)
    assert summary["d"]["self_s"] == pytest.approx(10e-9)
    assert summary["d"]["trials"] == 4


def test_missing_names_are_absent_and_the_rest_traced():
    original = exact.compute
    t = tracer.Tracer(targets=[
        ("triemoments.exact", "no_such_function", "exact.x"),
        ("triemoments.exact", "MomentTable.no_such_method", "exact.y"),
        ("no_such_module", "f", "z.f"),
        ("triemoments.exact", "compute", "exact.compute"),
        ("triemoments.exact", "cdot", "dd.cdot"),
    ]).install()
    try:
        exact.compute(0.3, 10)
    finally:
        t.uninstall()
    assert exact.compute is original
    assert t.absent == ["triemoments.exact.no_such_function",
                        "triemoments.exact.MomentTable.no_such_method",
                        "no_such_module.f"]
    spans = t.spans()
    assert [s[0] for s in spans] == ["exact.compute"] + ["dd.cdot"] * 9
    assert all(s[3] == 0 for s in spans[1:])
    summary = tracer.summarise(spans, t.extra)
    metrics = tracer.layer_metrics(summary, 0.0, 1.0, 0, len(t.absent))
    assert metrics["exact.dp_cells"] == 45
    assert metrics["dd.cdot_calls"] == 9
    assert metrics["trace.absent"] == 3
    assert metrics["mc.trials_per_s"] == 0.0


def test_spans_stay_consistent_across_threads(monkeypatch):
    layer = types.ModuleType("fake_layer")
    layer.inner = lambda: None
    layer.outer = lambda: layer.inner()
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    t = tracer.Tracer(targets=[("fake_layer", "outer", "x.outer"),
                               ("fake_layer", "inner", "x.inner")]).install()
    calls, workers = 2000, 4

    def work():
        for _ in range(calls):
            layer.outer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        t.uninstall()
    spans = t.spans()
    assert len(spans) == 2 * calls * workers
    for name, s, e, p in spans:
        assert 0 < s <= e
        if name == "x.inner":
            outer = spans[p]
            assert outer[0] == "x.outer" and outer[1] <= s and e <= outer[2]
        else:
            assert p == -1
