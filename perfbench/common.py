"""Shared plumbing of the benchmark: paths, environment, statistics.

The measuring process calls :func:`prepare_environment` before numpy is
imported, and the serving daemons and set-up processes it starts
inherit that environment, so BLAS/OpenMP run one thread everywhere and
the model cache, temporary files and work files stay inside the
checkout.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run."""


def prepare_environment() -> None:
    """Pin threads, point the model cache and temp files into the
    checkout and put ``src`` first on the import path.

    Raises :class:`BenchError` when the checkout has no ``src/repro``.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro package under {ROOT}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE"] = str(WORK / "cache")
    os.environ["PYTHONPATH"] = str(src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# statistics
def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples
    strictly above it, which says whether the sample supports it."""
    if not values:
        raise BenchError("percentile of no samples")
    if not 0 < q <= 100:
        raise BenchError(f"percentile must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond


class Tally:
    """Attempted/failed op accounting: a failed or wrong op is counted
    against the attempted ones, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops


def read_vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of a live process (a pid or
    ``"self"``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM for pid {pid}")

