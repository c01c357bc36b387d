"""Tests of the benchmark's own helpers, plus a tiny run of each workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from common import BenchError, Tally, percentile  # noqa: E402
from tracing import Recorder, Trace, covered_length  # noqa: E402


# ----------------------------------------------------------------------
# percentile helper
def test_percentile_nearest_rank_and_count_beyond():
    values = list(range(1, 1001))
    assert percentile(values, 99) == (990, 10)
    assert percentile(values, 50) == (500, 500)
    assert percentile(values, 100) == (1000, 0)


def test_percentile_counts_only_samples_strictly_above():
    assert percentile([1, 1, 1, 2], 50) == (1, 1)
    assert percentile([5, 5, 5, 5], 99) == (5, 0)


def test_percentile_is_order_independent():
    assert percentile([3, 1, 2], 50) == percentile([1, 2, 3], 50) == (2, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(BenchError):
        percentile([], 50)
    with pytest.raises(BenchError):
        percentile([1.0], 0)


# ----------------------------------------------------------------------
# self time
def _span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "attrs": {}}


def test_self_time_subtracts_nested_and_back_to_back_children():
    trace = Trace([
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),       # back to back with a
        _span("grand", 1.5, 2.0, parent=1),   # nested in a, not outer
    ])
    assert trace.self_time(0) == pytest.approx(5.0)
    assert trace.self_time(1) == pytest.approx(1.5)
    assert trace.self_time(2) == pytest.approx(3.0)
    assert trace.self_time(3) == pytest.approx(0.5)
    assert trace.self_total("outer") == pytest.approx(5.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    trace = Trace([
        _span("outer", 0.0, 10.0),
        _span("c", 2.0, 5.0, parent=0),
        _span("c", 4.0, 7.0, parent=0),   # overlaps the first child
        _span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ])
    assert trace.self_time(0) == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_length_merges_intervals():
    assert covered_length([(0, 1), (1, 2), (5, 6), (5.5, 7)]) == 4
    assert covered_length([]) == 0
    assert covered_length([(3, 3)]) == 0


def test_outermost_counts_reentrant_calls_once():
    trace = Trace([
        _span("store.read", 0.0, 4.0),
        _span("store.read", 1.0, 2.0, parent=0),
        _span("store.read", 5.0, 6.0),
    ])
    assert trace.count("store.read") == 2
    assert trace.inclusive_total("store.read") == pytest.approx(5.0)


def test_window_keeps_spans_that_began_inside_and_relinks_parents():
    trace = Trace([
        _span("setup", 0.0, 1.0),
        _span("outer", 2.0, 5.0),
        _span("inner", 3.0, 4.0, parent=1),
        _span("late", 4.5, 4.6, parent=0),
    ])
    window = trace.window(2.0)
    assert [s["name"] for s in window.spans] == ["outer", "inner", "late"]
    assert window.spans[1]["parent"] == 0
    assert window.spans[2]["parent"] == -1
    assert [s["name"] for s in trace.window(0.0, 2.0).spans] == ["setup"]


# ----------------------------------------------------------------------
# recorder and wrappers
def test_wrapped_calls_nest_per_thread_and_write_once(tmp_path):
    rec = Recorder()

    def inner(x):
        return x + 1

    wrapped_inner = tracing._wrap(rec, "inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracing._wrap(rec, "outer", outer)
    rec.op = 7
    assert wrapped_outer(1) == 4
    rec.enabled = False
    assert wrapped_outer(1) == 4  # disabled: no spans
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    trace = Trace.load(path)
    assert [s["name"] for s in trace.spans] == ["outer", "inner"]
    assert trace.spans[1]["parent"] == 0
    assert all(s["op"] == 7 for s in trace.spans)
    assert trace.self_time(0) <= trace.duration(0)


def test_coroutine_spans_have_no_parent_and_name_their_batch(tmp_path):
    rec = Recorder()

    class Batcher:
        async def submit(self, x):
            index = rec.begin("serving.predict")
            rec.end(index)
            return x

    submit = tracing._wrap(rec, "serving.submit", Batcher.submit)
    assert asyncio.run(submit(Batcher(), [[1.0, 2.0]])) == [[1.0, 2.0]]
    rec.write(tmp_path / "spans.jsonl")
    trace = Trace.load(tmp_path / "spans.jsonl")
    (i,) = trace.indices("serving.submit")
    span = trace.spans[i]
    assert span["parent"] == -1
    assert span["attrs"]["digest"] == tracing.row_digest([[1.0, 2.0]])
    assert trace.spans[span["attrs"]["batch"]]["name"] == "serving.predict"


def test_layer_metrics_of_an_idle_trace_read_zero():
    empty = Trace([])
    values = layers.layer_metrics(empty, empty, ops=4, op_s=0.5)
    assert set(values) < set(layers.UNITS)
    assert values["store.writes"] == values["kernels.share"] == 0
    with pytest.raises(ValueError):
        layers.layer_metrics(empty, empty, ops=0, op_s=0.5)


# ----------------------------------------------------------------------
# accounting
def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.record(True)
    tally.record(False)
    tally.record(True, ops=16)
    tally.record(False, ops=32)
    assert (tally.attempted, tally.failed) == (50, 33)


class _FakeSweeps:
    """Sweeps of four ops each; odd sweeps produce a wrong digest."""

    name = "fake"
    ops_per_sweep = 4

    def __init__(self, log):
        self.log = log

    def sweep(self, seed, index):
        self.log.append("sweep")
        time.sleep(0.02)
        return index

    def check(self, index):
        return 4, "good" if index % 2 == 0 else "bad"


def test_run_sweeps_gates_each_sweep_and_spreads_setups(monkeypatch):
    log = []
    monkeypatch.setattr(
        run, "setup_child", lambda name, seed: log.append("setup") or 1.0)
    tally, setups = Tally(), []
    times, passed = run.run_sweeps(_FakeSweeps(log), 0, 0.1, "good", tally,
                                   setups=setups)
    assert sum(times) >= 0.1
    assert setups == [1.0] * run.SETUPS
    assert passed == (len(times) + 1) // 2
    assert tally.attempted == 4 * len(times)
    assert tally.failed == 4 * (len(times) - passed)
    # set-ups are interleaved with the sweeps, not bunched at one end
    assert log[:2] == ["setup", "sweep"]
    assert "setup" in log[2:]


# ----------------------------------------------------------------------
# the benchmark description agrees with the code
def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)


# ----------------------------------------------------------------------
# end to end
def _run(workload, trace, cwd=BENCH.parent, seconds="0.3"):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("mc-campaign", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _ in layers.PER_LAYER]
    assert result["metrics"]["store.writes"]["value"] == 1.0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("serve-mlp1", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
