"""The default numpy backend — the reference bytes.

``matmul`` is ``np.matmul``.  numpy evaluates a broadcast trial product
slice by slice with the same 2-D GEMM kernel it uses for a lone array,
which is what makes slice ``t`` of a stacked product bit-identical to
the 2-D product of realization ``t``.
"""

from __future__ import annotations

import numpy as np

from .backend import ComputeBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ComputeBackend):
    """Pure-numpy kernels (the reproducibility reference)."""

    name = "numpy"

    def matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.matmul(x, w)
