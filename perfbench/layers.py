"""Per-layer metrics of a traced run, one definition each.

``*_s`` times marked "s/op" are totals over the traced measuring
window divided by the ops completed in it; ``mapping.compile_s``,
``experiments.load_s`` and ``store.read_s`` are totals over one traced
set-up.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from common import percentile
from tracing import Trace

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serving.server_ms_p50", "ms"),
    ("serving.wire_ms_p50", "ms"),
    ("serving.wait_ms_p50", "ms"),
    ("serving.compute_ms_p50", "ms"),
    ("serving.batch_requests_mean", "count"),
    ("serving.rejected", "count"),
    ("latency_p99_ms", "ms"),
    ("latency_samples", "count"),
    ("latency_beyond_p99", "count"),
    ("mapping.predict_ms_p50", "ms"),
    ("mapping.tile_calls_per_predict", "count"),
    ("mapping.stacked_s", "s/op"),
    ("mapping.compile_s", "s"),
    ("mapping.mvm_launches_per_op", "count"),
    ("core.encode_s", "s/op"),
    ("core.decode_s", "s/op"),
    ("core.cog_s", "s/op"),
    ("core.mvm_self_s", "s/op"),
    ("core.decode_calls_per_op", "count"),
    ("kernels.matmul_s", "s/op"),
    ("kernels.op_s", "s/op"),
    ("kernels.share", "ratio"),
    ("reram.perturb_s", "s/op"),
    ("datasets.synth_s", "s/op"),
    ("experiments.load_s", "s"),
    ("faults.inject_s", "s/op"),
    ("faults.remap_s", "s/op"),
    ("store.write_s", "s/op"),
    ("store.writes", "count"),
    ("store.read_s", "s"),
    ("runtime.scheduler_overhead_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS: Dict[str, str] = dict(PER_LAYER)


def _p50_ms(durations: List[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(loop: Trace, setup: Trace, ops: int,
                  op_s: float) -> Dict[str, float]:
    """Program-layer metrics from the spans of the traced measuring
    window (``loop``, ``ops`` ops of ``op_s`` seconds each) and of one
    traced set-up."""
    if ops < 1:
        raise ValueError("traced window completed no ops")

    def per_op(seconds: float) -> float:
        return seconds / ops

    predicts = [i for i in loop.indices("mapping.predict")
                if loop.spans[i]["attrs"].get("launches", 0) > 0]
    launches = (loop.attr_total("mapping.predict", "launches")
                + loop.attr_total("mapping.stacked", "launches"))
    matmul_s = per_op(loop.inclusive_total("kernels.matmul"))
    return {
        "mapping.predict_ms_p50": _p50_ms(
            [loop.duration(i) for i in predicts]),
        "mapping.tile_calls_per_predict": (
            loop.count_under("mapping.tile", "mapping.predict")
            / len(predicts) if predicts else 0.0),
        "mapping.stacked_s": per_op(loop.self_total("mapping.stacked")),
        "mapping.compile_s": setup.inclusive_total("mapping.compile"),
        "mapping.mvm_launches_per_op": launches / ops,
        "core.encode_s": per_op(loop.inclusive_total("core.encode")),
        "core.decode_s": per_op(loop.inclusive_total("core.decode")),
        "core.cog_s": per_op(loop.inclusive_total("core.cog")),
        "core.mvm_self_s": per_op(loop.self_total("core.mvm")),
        "core.decode_calls_per_op": loop.count("core.decode") / ops,
        "kernels.matmul_s": matmul_s,
        "kernels.op_s": op_s,
        "kernels.share": matmul_s / op_s,
        "reram.perturb_s": per_op(loop.inclusive_total("reram.perturb")),
        "datasets.synth_s": per_op(loop.inclusive_total("datasets.synth")),
        "experiments.load_s": setup.inclusive_total("experiments.load"),
        "faults.inject_s": per_op(loop.inclusive_total("faults.inject")),
        "faults.remap_s": per_op(loop.inclusive_total("faults.remap")),
        "store.write_s": per_op(loop.inclusive_total("store.write")),
        "store.writes": loop.count("store.write") / ops,
        "store.read_s": setup.inclusive_total("store.read"),
        "runtime.scheduler_overhead_s": per_op(
            loop.self_total("runtime.scheduler")),
    }


def serving_metrics(samples, compute_ms: Dict[int, float],
                    batch_ms: List[float], rejected: int) -> Dict[str, float]:
    """Serving-layer metrics of the traced window's answered requests.

    ``compute_ms`` maps a sample index to its batch's
    ``ModelEntry.predict`` time; ``batch_ms`` lists every batch's."""
    ok = [s for s in samples if s.ok]
    waits = [ok_s.server_ms - compute_ms[k]
             for k, ok_s in enumerate(samples)
             if ok_s.ok and k in compute_ms]
    return {
        "serving.server_ms_p50": statistics.median(s.server_ms for s in ok),
        "serving.wire_ms_p50": statistics.median(
            s.client_ms - s.server_ms for s in ok),
        "serving.wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "serving.compute_ms_p50": (
            statistics.median(batch_ms) if batch_ms else 0.0),
        "serving.batch_requests_mean": statistics.fmean(
            s.batch_requests for s in ok),
        "serving.rejected": float(rejected),
    }


def tail_metrics(latencies_ms: Optional[List[float]]) -> Dict[str, float]:
    """Client p99 with its sample count and the samples beyond it."""
    if not latencies_ms:
        return {}
    p99, beyond = percentile(latencies_ms, 99)
    return {"latency_p99_ms": p99, "latency_samples": len(latencies_ms),
            "latency_beyond_p99": beyond}
