"""The two serving workloads: a ``repro serve`` daemon in a child
process under a closed loop of two connections.

``serve-mlp1``
    mlp-1: the forward pass is a small part of the round trip, so HTTP,
    JSON and the batch window (the ``serving`` layer) dominate.
``serve-cnn1``
    cnn-1 (LeNet): the serial LINEAR forward pass (``mapping`` and
    ``core``) dominates.  Same serving layer as ``serve-mlp1``, so a
    change that moves only one of the two is localised.

Each connection sends single-row predicts round-robin over its own
half of ``make_mnist_like(seed)`` rows and waits for each answer
before sending the next.  One op is one predict answered 200 with the
label the in-process ``PIMExecutor.predict`` gives that row and the
MVM-launch count it bills.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import ROOT, WORK, BenchError, read_vm_hwm_mb

MODELS = {"serve-mlp1": "mlp-1", "serve-cnn1": "cnn-1"}
ROWS = 128
CONNECTIONS = 2
HOST = "127.0.0.1"
_LISTENING = re.compile(rb"listening on http://[^\s]+:(\d+) ")


@dataclasses.dataclass
class Sample:
    """One request as the client saw it."""

    row: int
    sent: float
    done: float
    ok: bool
    server_ms: float = 0.0
    batch_requests: int = 0

    @property
    def client_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclasses.dataclass
class Requests:
    """Pre-encoded request bytes and the answers they must get."""

    model: str
    raw: List[bytes]
    labels: List[int]
    launches: float
    digests: List[int]


def prepare(workload: str, seed: int) -> Requests:
    """Generate the rows, encode each as one predict request and
    compute its expected label in-process (untimed).  Loading the model
    here also trains and caches it if the cache is cold."""
    from repro.datasets import make_mnist_like
    from repro.serving import ModelRegistry

    import tracing

    model = MODELS[workload]
    entry = ModelRegistry.from_benchmarks([model], seed=seed).get(model)
    images = make_mnist_like(ROWS, seed=seed).images
    rows = images.reshape((ROWS,) + entry.input_shape)
    executor = entry.executor
    labels = [int(v) for v in executor.predict(rows)]
    executor.reset_stats()
    executor.predict(rows[:1])
    launches = float(executor.total_mvm_launches())
    raw, digests = [], []
    for row in rows:
        body = json.dumps({"model": model, "inputs": [row.tolist()]})
        raw.append(
            b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body.encode()
        )
        digests.append(tracing.row_digest(json.loads(body)["inputs"]))
    return Requests(model, raw, labels, launches, digests)


def exchange(port: int, raw: bytes, timeout: float = 30.0) -> Tuple[int, dict]:
    """One HTTP/1.1 exchange on a fresh connection (the daemon closes
    every connection after its response)."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else {}


def get(port: int, path: str) -> Tuple[int, dict]:
    return exchange(port, f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                    .encode(), timeout=5.0)


class Daemon:
    """A ``repro serve`` child process on an ephemeral port.

    A thread copies the daemon's stderr into its log file and picks the
    port out of the ``listening on`` line, so readiness is waited for
    without polling the log."""

    def __init__(self, model: str, seed: int, tag: str,
                 trace_out: Optional[Path] = None) -> None:
        args = ["serve", "--models", model, "--port", "0",
                "--seed", str(seed)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).parent / "child.py"),
                   "serve", "--trace-out", str(trace_out), "--", *args[1:]]
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.log_path = logs / f"{tag}.log"
        self.port: Optional[int] = None
        self._listening = threading.Event()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self._copier = threading.Thread(target=self._copy_log, daemon=True)
        self._copier.start()

    def _copy_log(self) -> None:
        with open(self.log_path, "wb") as log:
            for line in self.proc.stderr:
                log.write(line)
                if self.port is None:
                    match = _LISTENING.search(line)
                    if match:
                        self.port = int(match.group(1))
                        self._listening.set()
        self._listening.set()  # stderr closed: the daemon has exited

    def wait_ready(self, timeout: float = 150.0) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = self.started + timeout
        if not self._listening.wait(timeout):
            raise BenchError(f"daemon not listening after {timeout:g} s")
        if self.port is None:
            self.proc.wait(timeout=5)
            self._copier.join()
            raise BenchError(
                f"daemon exited with {self.proc.returncode}: "
                f"{self.log_path.read_text(errors='replace')[-2000:]}"
            )
        while time.perf_counter() < deadline:
            try:
                if get(self.port, "/healthz")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.001)
        raise BenchError(f"daemon not ready after {timeout:g} s")

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._copier.join()


def closed_loop(port: int, requests: Requests, seconds: float) -> List[Sample]:
    """``CONNECTIONS`` clients, each sending its next request only once
    the previous one is answered, until ``seconds`` have passed."""
    stop_at = time.perf_counter() + seconds

    def client(first: int) -> List[Sample]:
        samples = []
        index = first
        while time.perf_counter() < stop_at:
            row = index % len(requests.raw)
            index += CONNECTIONS
            sent = time.perf_counter()
            try:
                status, doc = exchange(port, requests.raw[row])
            except (OSError, ValueError):
                status, doc = 0, {}
            done = time.perf_counter()
            ok = (
                status == 200
                and doc.get("predictions") == [requests.labels[row]]
                and math.isclose(doc.get("mvm_launches", -1.0),
                                 requests.launches, rel_tol=1e-12)
            )
            samples.append(Sample(
                row, sent, done, ok,
                server_ms=float(doc.get("latency_ms", 0.0)),
                batch_requests=int(doc.get("batch_requests", 0)),
            ))
        return samples

    with ThreadPoolExecutor(CONNECTIONS) as pool:
        futures = [pool.submit(client, c) for c in range(CONNECTIONS)]
        per_client = [f.result() for f in futures]
    return sorted((s for group in per_client for s in group),
                  key=lambda s: s.sent)


def batch_compute_ms(trace, requests: Requests,
                     samples: List[Sample]) -> Dict[int, float]:
    """For each sample index, the ``ModelEntry.predict`` time of the
    batch its request rode in, linked through the daemon's
    ``MicroBatcher.submit`` spans (same row digest, inside the client's
    send/receive window)."""
    by_digest: Dict[int, List[dict]] = {}
    for i in trace.indices("serving.submit"):
        span = trace.spans[i]
        by_digest.setdefault(span["attrs"]["digest"], []).append(span)
    out = {}
    for k, sample in enumerate(samples):
        for span in by_digest.get(requests.digests[sample.row], ()):
            if sample.sent <= span["start"] and span["end"] <= sample.done:
                batch = span["attrs"]["batch"]
                if batch >= 0:
                    out[k] = trace.duration(batch) * 1e3
                break
    return out
