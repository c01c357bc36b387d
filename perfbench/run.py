"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mlp1 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, ops per
second, median latency, peak memory).  ``--trace 1`` measures the
workload untraced for ``--seconds`` and then, for half as long, with
span wrappers around each layer's public entry points, and reports the
per-layer metrics.  The
last line of standard output is the result object; the lines before it
repeat every metric with its unit for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import ROOT, WORK, BenchError, Tally  # noqa: E402

WORKLOADS = ("serve-mlp1", "serve-cnn1", "mc-fig7", "mc-campaign")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB"))
#: set-ups timed per run, spread over its measuring window; setup_s is
#: their median
SETUPS = 7
#: untimed load on each daemon before it is measured
WARMUP_S = 0.25


class Result:
    """What one run reports."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.gates_ok = True
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def emit(self, units: Dict[str, str]) -> None:
        for line in self.notes:
            print(line)
        out = {}
        for name, unit in units.items():
            value = self.metrics[name]
            out[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
        print(f"attempted = {self.tally.attempted}, "
              f"failed = {self.tally.failed}")
        print(json.dumps({
            "correct": self.gates_ok and self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": out,
        }))


# ----------------------------------------------------------------------
# serving workloads
def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              result: Result) -> None:
    import serve
    from layers import layer_metrics, serving_metrics, tail_metrics
    from tracing import Trace

    requests = serve.prepare(workload, seed)
    model = requests.model

    def measure(daemon, window: float) -> "tuple[list, int, float]":
        """Warm up, then a closed loop of ``window`` seconds; returns
        the samples, the correct answers completed in the window and
        its start."""
        serve.closed_loop(daemon.port, requests, WARMUP_S)
        start = time.perf_counter()
        samples = serve.closed_loop(daemon.port, requests, window)
        for sample in samples:
            result.tally.record(sample.ok)
        answered = sum(1 for s in samples if s.ok and s.done <= start + window)
        return samples, answered, start

    if not trace:
        # One daemon per set-up; the measuring window is shared out
        # between them, so set-ups and load sample the same stretch of
        # host time.
        setups, rss, samples, answered = [], [], [], 0
        for k in range(SETUPS):
            daemon = serve.Daemon(model, seed, f"{workload}-{k}")
            try:
                setups.append(daemon.wait_ready())
                chunk, ok, _ = measure(daemon, seconds / SETUPS)
                rss.append(daemon.peak_rss_mb())
            finally:
                daemon.stop()
            samples += chunk
            answered += ok
        latencies = [s.client_ms for s in samples if s.ok]
        tail = tail_metrics(latencies)
        result.metrics.update(
            setup_s=statistics.median(setups), ops_per_s=answered / seconds,
            latency_p50_ms=statistics.median(latencies),
            peak_rss_mb=statistics.median(rss))
        result.notes.append(
            f"{len(latencies)} latency samples; p99 "
            f"{tail['latency_p99_ms']:.3f} ms with "
            f"{tail['latency_beyond_p99']} beyond it")
        return

    # The whole window untraced (its client p99 needs the samples),
    # then half of it traced.
    half = seconds / 2
    daemon = serve.Daemon(model, seed, f"{workload}-plain")
    try:
        daemon.wait_ready()
        plain, plain_ok, _ = measure(daemon, seconds)
    finally:
        daemon.stop()
    spans = WORK / "trace" / f"{workload}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    daemon = serve.Daemon(model, seed, f"{workload}-traced", trace_out=spans)
    try:
        daemon.wait_ready()
        ready = time.perf_counter()
        samples, ok, start = measure(daemon, half)
        rejected = serve.get(daemon.port, "/metrics")[1]["totals"]["rejected"]
    finally:
        daemon.stop()
    full = Trace.load(spans)
    window = full.window(start)
    result.metrics.update(layer_metrics(
        window, full.window(0.0, ready),
        ops=len(window.indices("serving.submit")),
        op_s=half / max(ok, 1)))
    result.metrics.update(serving_metrics(
        samples, serve.batch_compute_ms(window, requests, samples),
        [window.duration(i) * 1e3
         for i in window.indices("serving.predict")],
        rejected))
    result.metrics.update(tail_metrics(
        [s.client_ms for s in plain if s.ok]))
    result.metrics["trace.overhead_ratio"] = (
        (ok / half) / (max(plain_ok, 1) / seconds))


# ----------------------------------------------------------------------
# Monte-Carlo workloads
def setup_child(workload: str, seed: int,
                trace_out: Optional[Path] = None) -> float:
    """Seconds from spawning a set-up process to its ``ready`` line."""
    cmd = [sys.executable, str(Path(__file__).parent / "child.py"), "setup",
           "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed ({proc.returncode})")
    return elapsed


def run_sweeps(w, seed: int, seconds: float, reference: str, tally: Tally,
               rec=None, setups: Optional[List[float]] = None,
               ) -> "tuple[List[float], int]":
    """Sweep until ``seconds`` of sweeping have passed; returns each
    sweep's time and the number of sweeps that passed their gate.

    Output checks run after each sweep, outside its timed part.  Given
    a ``setups`` list, ``SETUPS`` set-up processes are timed into it,
    spread evenly between the sweeps."""
    times: List[float] = []
    passed = 0
    while True:
        swept = sum(times)
        if (setups is not None and len(setups) < SETUPS
                and swept >= len(setups) * seconds / SETUPS):
            setups.append(setup_child(w.name, seed))
            continue
        if times and swept >= seconds:
            return times, passed
        if rec is not None:
            rec.op = len(times)
        start = time.perf_counter()
        outcome = w.sweep(seed, len(times))
        times.append(time.perf_counter() - start)
        if rec is not None:
            rec.enabled = False
        ok = w.check(outcome) == (w.ops_per_sweep, reference)
        if rec is not None:
            rec.enabled = True
        passed += ok
        tally.record(ok, w.ops_per_sweep)


def run_mc(workload: str, seed: int, seconds: float, trace: bool,
           result: Result) -> None:
    import mc
    import tracing
    from layers import layer_metrics

    w = mc.WORKLOADS[workload]
    setup_child(workload, seed)  # untimed: trains a cold model cache
    ops, reference = w.reference(seed)
    result.gates_ok = ops == w.ops_per_sweep
    result.notes.append(f"reference digest {reference[:16]} "
                        "(serial trial path)")
    if not trace:
        setups: List[float] = []
        times, passed = run_sweeps(w, seed, seconds, reference,
                                   result.tally, setups=setups)
        result.notes.append(f"{len(times)} sweeps of {w.ops_per_sweep} ops")
        result.metrics.update(
            setup_s=statistics.median(setups),
            ops_per_s=w.ops_per_sweep * passed / sum(times),
            latency_p50_ms=statistics.median(times) * 1e3,
            peak_rss_mb=common.read_vm_hwm_mb("self"))
        return

    # The whole window untraced, then half of it traced.
    setup_spans = WORK / "trace" / f"{workload}-setup.jsonl"
    setup_spans.parent.mkdir(parents=True, exist_ok=True)
    setup_child(workload, seed, trace_out=setup_spans)
    plain, plain_passed = run_sweeps(w, seed, seconds, reference,
                                     result.tally)
    rec = tracing.install()
    traced, passed = run_sweeps(w, seed, seconds / 2, reference,
                                result.tally, rec)
    spans = WORK / "trace" / f"{workload}.jsonl"
    rec.write(spans)
    loop = tracing.Trace.load(spans)
    # Simulated statistics must repeat exactly: every sweep bills the
    # same MVM launches.
    launches: Dict[int, int] = {}
    for name in tracing.LAUNCH_SPANS:
        for i in loop.outermost(name):
            span = loop.spans[i]
            launches[span["op"]] = (launches.get(span["op"], 0)
                                    + span["attrs"]["launches"])
    result.gates_ok &= len(set(launches.values())) == 1
    ops = len(traced) * w.ops_per_sweep
    result.metrics.update(layer_metrics(
        loop, tracing.Trace.load(setup_spans), ops=ops,
        op_s=sum(traced) / ops))
    result.metrics["trace.overhead_ratio"] = (
        (passed / sum(traced)) / (max(plain_passed, 1) / sum(plain)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    # A terminated run still stops the daemon it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        common.prepare_environment()
        from layers import PER_LAYER

        result = Result()
        runner = run_serve if args.workload.startswith("serve") else run_mc
        runner(args.workload, args.seed, args.seconds, bool(args.trace),
               result)
        if args.trace:
            units = dict(PER_LAYER)
            for name in units:
                result.metrics.setdefault(name, 0.0)
        else:
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result.emit(units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
