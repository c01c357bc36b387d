"""Span recording around calls into the program's layers.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of each layer with wrappers that record a span
(name, start, end, parent, op id) per call into an in-memory
:class:`Recorder`.  Spans are written once, at the end of a run, and
:class:`Trace` turns them into per-layer numbers (inclusive time, self
time, call counts).

All times are ``time.perf_counter`` readings; on Linux that clock is
``CLOCK_MONOTONIC``, shared by every process, so spans recorded in the
serving daemon line up with the client's own timestamps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import zlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (module, attribute path, span name) of every wrapped entry point,
#: grouped by layer.  A span name is shared by the calls it merges
#: (serial and stacked MVM, JSON and npz store writes).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serving.registry", "ModelEntry.predict", "serving.predict"),
    ("repro.serving.batcher", "MicroBatcher.submit", "serving.submit"),
    ("repro.mapping.executor", "PIMExecutor.predict", "mapping.predict"),
    ("repro.mapping.executor", "PIMExecutor.accuracy_trials",
     "mapping.stacked"),
    ("repro.mapping.compiler", "compile_network", "mapping.compile"),
    ("repro.core.engine", "ReSiPEEngine.mvm_values", "mapping.tile"),
    ("repro.core.encoding", "SingleSpikeCodec.times_from_values",
     "core.encode"),
    ("repro.core.global_decoder", "GlobalDecoder.voltages_from_times",
     "core.decode"),
    ("repro.core.cog", "ColumnOutputGenerator.times_from_voltages",
     "core.cog"),
    ("repro.core.mvm", "SingleSpikeMVM.evaluate", "core.mvm"),
    ("repro.core.mvm", "SingleSpikeMVM.evaluate_stacked", "core.mvm"),
    ("repro.kernels.numpy_backend", "NumpyBackend.matmul", "kernels.matmul"),
    ("repro.mapping.executor", "PIMExecutor.perturbed", "reram.perturb"),
    ("repro.datasets.synthetic_mnist", "make_mnist_like", "datasets.synth"),
    ("repro.experiments.networks", "get_benchmark_networks",
     "experiments.load"),
    ("repro.mapping.executor", "PIMExecutor.faulted", "faults.inject"),
    ("repro.mapping.remap", "detect_and_remap", "faults.remap"),
    ("repro.store.artifacts", "ArtifactStore.put_json", "store.write"),
    ("repro.store.artifacts", "ArtifactStore.put_npz", "store.write"),
    ("repro.store.artifacts", "ArtifactStore.get_json", "store.read"),
    ("repro.store.artifacts", "ArtifactStore.get_npz", "store.read"),
    ("repro.runtime.scheduler", "CampaignScheduler.run", "runtime.scheduler"),
)

#: spans that also record the executor's MVM-launch delta (``stats()``)
LAUNCH_SPANS = ("mapping.predict", "mapping.stacked")


class Recorder:
    """In-memory span store shared by every thread of one process.

    Synchronous calls nest through a per-thread stack; coroutine spans
    (which interleave on the event loop) are recorded without a parent.
    """

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, attrs]
        self.spans: List[list] = []
        #: op id stamped on new spans (the workload sets it per op)
        self.op = -1
        #: index of the most recently finished span of each name
        self.last_end: Dict[str, int] = {}
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, nest: bool = True) -> int:
        stack = self._stack()
        parent = stack[-1] if (stack and nest) else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, self.op, {}])
        if nest:
            stack.append(index)
        return index

    def end(self, index: int, nest: bool = True) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        if nest:
            self._stack().pop()
        self.last_end[span[0]] = index

    def write(self, path) -> None:
        """Write every span as one JSON line, in recording order (parent
        links are line indices)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")


def _launches(executor) -> int:
    return sum(executor.stats().values())


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    if inspect.iscoroutinefunction(fn):
        # MicroBatcher.submit(self, x, ...): the row digest links the
        # span to the client's request, and the last finished
        # ModelEntry.predict when it returns is its batch (one compute
        # thread runs batches in order).
        @functools.wraps(fn)
        async def traced_async(self, x, *args, **kwargs):
            if not rec.enabled:
                return await fn(self, x, *args, **kwargs)
            index = rec.begin(name, nest=False)
            rec.spans[index][5]["digest"] = row_digest(x)
            try:
                return await fn(self, x, *args, **kwargs)
            finally:
                rec.spans[index][5]["batch"] = rec.last_end.get(
                    "serving.predict", -1
                )
                rec.end(index, nest=False)

        return traced_async

    if name in LAUNCH_SPANS:
        @functools.wraps(fn)
        def traced_launches(self, *args, **kwargs):
            if not rec.enabled:
                return fn(self, *args, **kwargs)
            before = _launches(self)
            index = rec.begin(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.spans[index][5]["launches"] = _launches(self) - before
                rec.end(index)

        return traced_launches

    if name == "runtime.scheduler":
        # Cells are the callables the scheduler was built with; wrapping
        # them for the duration of run() lets the scheduler's own
        # overhead be the run span minus its cells.
        @functools.wraps(fn)
        def traced_scheduler(self, *args, **kwargs):
            if not rec.enabled:
                return fn(self, *args, **kwargs)
            saved = (self.worker_fn, self.local_fn)
            self.worker_fn = _wrap(rec, "runtime.cell", self.worker_fn)
            if self.local_fn is not None:
                self.local_fn = _wrap(rec, "runtime.cell", self.local_fn)
            index = rec.begin(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.end(index)
                self.worker_fn, self.local_fn = saved

        return traced_scheduler

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(index)

    return traced


def row_digest(x) -> int:
    """CRC32 of a request's float64 rows, as the daemon parses them."""
    import numpy as np

    return zlib.crc32(np.ascontiguousarray(x, dtype=float).tobytes())


def install() -> Recorder:
    """Wrap every target and return the recorder the wrappers feed.

    A module-level function is replaced in every loaded ``repro``
    module that imported it by name, so call sites bound with
    ``from ... import f`` are traced too.
    """
    rec = Recorder()
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, fn_name, _wrap(rec, name, owner.__dict__[fn_name]))
            continue
        original = getattr(module, fn_name)
        wrapped = _wrap(rec, name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    return rec


# ----------------------------------------------------------------------
# analysis
def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Trace:
    """Queries over the spans of one process."""

    def __init__(self, spans: List[dict]) -> None:
        self.spans = spans
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span["parent"] >= 0:
                self.children[span["parent"]].append(index)

    @classmethod
    def load(cls, path) -> "Trace":
        """The spans of one span file."""
        spans: List[dict] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if row["end"] is None:  # still open when written
                    row["end"] = row["start"]
                spans.append(row)
        return cls(spans)

    def window(self, start: float, end: float = float("inf")) -> "Trace":
        """The spans that began in ``[start, end)``; links to spans
        outside the window are dropped."""
        keep = [i for i, s in enumerate(self.spans)
                if start <= s["start"] < end]
        new_index = {old: new for new, old in enumerate(keep)}
        spans = []
        for old in keep:
            span = dict(self.spans[old], attrs=dict(self.spans[old]["attrs"]))
            span["parent"] = new_index.get(span["parent"], -1)
            if "batch" in span["attrs"]:
                span["attrs"]["batch"] = new_index.get(
                    span["attrs"]["batch"], -1
                )
            spans.append(span)
        return Trace(spans)

    def indices(self, name: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def self_time(self, index: int) -> float:
        """Duration minus the part of it covered by child spans."""
        span = self.spans[index]
        covered = covered_length(
            (max(self.spans[c]["start"], span["start"]),
             min(self.spans[c]["end"], span["end"]))
            for c in self.children.get(index, ())
        )
        return self.duration(index) - covered

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index]["parent"]
        while parent >= 0:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def outermost(self, name: str) -> List[int]:
        """Spans of ``name`` not nested inside another span of ``name``
        (re-entrant calls are counted once)."""
        return [i for i in self.indices(name)
                if not self.has_ancestor(i, name)]

    def inclusive_total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.outermost(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(i) for i in self.indices(name))

    def count(self, name: str) -> int:
        return len(self.outermost(name))

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i in self.indices(name)
                   if self.has_ancestor(i, ancestor))

    def attr_total(self, name: str, key: str) -> Any:
        return sum(self.spans[i]["attrs"].get(key, 0)
                   for i in self.outermost(name))
