"""Pluggable compute backends for the crossbar matmul.

Every crossbar product of the signal chain — a lone ``(rows, cols)``
array or a ``(T, rows, cols)`` Monte-Carlo trial stack — runs through
one primitive, :meth:`ComputeBackend.matmul`.  Everything else in the
chain is numpy glue that a backend never changes.

* :class:`NumpyBackend` — the default; ``np.matmul`` itself, so results
  are the reference bytes.
* :class:`NumbaBackend` — JIT-compiled ``prange`` over trial slices,
  each slice dispatching to the same BLAS GEMM numpy uses (preserving
  per-slice bit-identity).  Lazily imported; selecting it without
  numba installed raises :class:`~repro.errors.ConfigurationError`.

Backends are *execution knobs*, never spec: campaign fingerprints,
persisted store bytes and CLI stdout are identical across backends
(the kernels contract suite pins this down).  Select one per run via
:func:`get_backend` — ``"auto"`` degrades gracefully to numpy with a
single warning when the ``perf`` extra is missing.
"""

from .backend import ComputeBackend, available_backends, get_backend
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "NumbaBackend",
    "get_backend",
    "available_backends",
]
