"""Pluggable hardware backends for the mapping executor.

A backend programs weight tiles in ``[0, 1]`` and returns
:class:`ProgrammedTile` objects that compute ``x @ w`` through the
hardware's signal chain.  Monte-Carlo process variation (the Fig. 7
protocol) happens at tile level via :meth:`ProgrammedTile.perturbed`.

Backends provided:

* :class:`IdealBackend` — exact numpy matmul (the software reference).
* :class:`ReSiPEBackend` — the single-spiking engine with exact circuit
  equations; supports variation and saturation compensation.
* :class:`DesignBackend` — any Table II :class:`~repro.baselines.base.PIMDesign`
  functional model (quantisation effects only; variation is a no-op).

:func:`stack_tiles` folds ``T`` Monte-Carlo clones of one tile into a
tile of the same type holding ``(T, rows, cols)`` arrays, whose
``matmul`` returns ``(T, batch, cols)`` through the same code; tile
types without a broadcast kernel fall back to one per-trial loop.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

import numpy as np

from ..baselines.base import PIMDesign
from ..config import CircuitParameters
from ..core.engine import ReSiPEEngine
from ..core.mvm import MVMMode
from ..errors import MappingError
from ..kernels import get_backend
from ..reram.crossbar import StackedCrossbar
from ..reram.device import DeviceSpec

__all__ = ["HardwareBackend", "ProgrammedTile", "IdealBackend",
           "ReSiPEBackend", "DesignBackend", "stack_tiles"]


class ProgrammedTile(abc.ABC):
    """One programmed crossbar tile, or a trial stack of one (see
    :func:`stack_tiles`)."""

    @abc.abstractmethod
    def matmul(self, x: np.ndarray, backend=None) -> np.ndarray:
        """Compute ``x @ w`` through the hardware (``x`` in ``[0, 1]``).

        A trial stack also accepts per-trial ``(T, batch, rows)`` input
        and returns ``(T, batch, cols)``.  ``backend`` (a
        :class:`~repro.kernels.ComputeBackend`; default numpy) runs the
        crossbar product and never changes results.
        """

    @abc.abstractmethod
    def perturbed(self, rng: np.random.Generator, sigma: float) -> "ProgrammedTile":
        """A Monte-Carlo clone with conductance variation ``sigma``."""

    def aged(
        self, retention, elapsed: float, rng: "np.random.Generator | None" = None
    ) -> "ProgrammedTile":
        """A clone after ``elapsed`` seconds of retention drift.

        Tiles whose backend has no device state (ideal / baseline
        functional models) return themselves.
        """
        return self

    def faulted(
        self, injector, rng: np.random.Generator
    ) -> "ProgrammedTile":
        """A clone disturbed by a
        :class:`~repro.faults.injectors.FaultInjector`.

        Tiles without device state (baseline functional models) return
        themselves — they model quantisation, not cell placement.
        """
        return self


class HardwareBackend(abc.ABC):
    """Factory for programmed tiles."""

    @abc.abstractmethod
    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        """Program a tile with weights in ``[0, 1]``."""

    @property
    @abc.abstractmethod
    def max_tile_shape(self) -> tuple:
        """Largest ``(rows, cols)`` a single tile may have."""


# ----------------------------------------------------------------------
# Ideal software backend
# ----------------------------------------------------------------------
class _IdealTile(ProgrammedTile):
    def __init__(self, weights: np.ndarray) -> None:
        self._w = np.asarray(weights, dtype=float)

    def matmul(self, x: np.ndarray, backend=None) -> np.ndarray:
        if backend is None:
            backend = get_backend()
        return backend.matmul(np.asarray(x, dtype=float), self._w)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "_IdealTile":
        if sigma == 0:
            return self
        return _IdealTile(self._w * rng.normal(1.0, sigma, self._w.shape))

    def faulted(self, injector, rng: np.random.Generator) -> "_IdealTile":
        # spec=None: the injector operates on the normalised unit window.
        return _IdealTile(injector.apply(self._w, rng, spec=None))


class IdealBackend(HardwareBackend):
    """Exact numpy matmul; optionally with unbounded tile size."""

    def __init__(self, max_rows: int = 32, max_cols: int = 32) -> None:
        if max_rows < 1 or max_cols < 1:
            raise MappingError("tile dimensions must be >= 1")
        self._shape = (max_rows, max_cols)

    @property
    def max_tile_shape(self) -> tuple:
        return self._shape

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        return _IdealTile(weights01)


# ----------------------------------------------------------------------
# ReSiPE backend
# ----------------------------------------------------------------------
class _ReSiPETile(ProgrammedTile):
    """Wraps one or more redundant :class:`ReSiPEEngine` copies,
    correcting the conductance-window offset so the tile computes
    against nominal ``[0, 1]`` weights.

    With ``redundancy > 1`` the same weights are programmed into R
    independent engines and outputs are averaged, cutting the standard
    deviation of device-variation error by √R (the mapping-redundancy
    robustness extension; see the redundancy ablation bench).
    """

    def __init__(self, engines: list) -> None:
        if not engines:
            raise MappingError("a tile needs at least one engine")
        self._engines = engines
        spec = engines[0].array.spec
        self._offset_ratio = spec.g_min / spec.g_max

    def matmul(self, x: np.ndarray, backend=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.mean(
            [np.asarray(e.mvm_values(x, backend), dtype=float)
             for e in self._engines],
            axis=0,
        )
        x_sum = x.sum(axis=-1)
        corrected = (y - np.expand_dims(x_sum, -1) * self._offset_ratio) / (
            1.0 - self._offset_ratio
        )
        return corrected

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "_ReSiPETile":
        if sigma == 0:
            return self
        return _ReSiPETile([e.perturbed(rng, sigma) for e in self._engines])

    def aged(
        self, retention, elapsed: float, rng: "np.random.Generator | None" = None
    ) -> "_ReSiPETile":
        if elapsed == 0:
            return self
        return _ReSiPETile(
            [e.aged(retention, elapsed, rng) for e in self._engines]
        )

    def faulted(self, injector, rng: np.random.Generator) -> "_ReSiPETile":
        return _ReSiPETile([e.faulted(injector, rng) for e in self._engines])


@dataclasses.dataclass
class ReSiPEBackend(HardwareBackend):
    """Single-spiking hardware backend.

    Parameters
    ----------
    params:
        Circuit operating point; defaults to the calibrated point (the
        regime the accuracy studies run in — see DESIGN.md §1).
    mode:
        EXACT (non-linear circuit equations, default) or LINEAR.
    spec:
        Device window; defaults to the paper's linear range.
    compensate:
        Apply per-column saturation compensation at decode.
    redundancy:
        Number of independent engine copies per tile whose outputs are
        averaged (1 = the paper's plain mapping).  Costs ``R×`` area and
        energy, buys ``√R`` lower variation error.
    """

    params: Optional[CircuitParameters] = None
    mode: MVMMode = MVMMode.EXACT
    spec: Optional[DeviceSpec] = None
    compensate: bool = False
    redundancy: int = 1

    def __post_init__(self) -> None:
        if self.params is None:
            self.params = CircuitParameters.calibrated()
        if self.spec is None:
            self.spec = DeviceSpec.paper_linear_range()
        if self.redundancy < 1:
            raise MappingError(f"redundancy must be >= 1, got {self.redundancy!r}")

    @property
    def max_tile_shape(self) -> tuple:
        return (self.params.rows, self.params.cols)

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        w = np.asarray(weights01, dtype=float)
        rows, cols = w.shape
        if rows > self.params.rows or cols > self.params.cols:
            raise MappingError(
                f"tile {w.shape} exceeds crossbar "
                f"{self.params.rows}x{self.params.cols}"
            )
        engines = [
            ReSiPEEngine.from_normalised_weights(
                w, self.params, spec=self.spec, mode=self.mode,
                compensate=self.compensate,
            )
            for _ in range(self.redundancy)
        ]
        return _ReSiPETile(engines)


# ----------------------------------------------------------------------
# Baseline-design backend
# ----------------------------------------------------------------------
class _DesignTile(ProgrammedTile):
    def __init__(self, design: PIMDesign, weights: np.ndarray) -> None:
        self._design = design
        self._w = np.asarray(weights, dtype=float)

    def matmul(self, x: np.ndarray, backend=None) -> np.ndarray:
        return np.asarray(self._design.mvm_values(x, self._w), dtype=float)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "_DesignTile":
        # Baseline functional models capture quantisation, not device
        # placement; variation studies target ReSiPE (Fig. 7).
        return self


class DesignBackend(HardwareBackend):
    """Run tiles through a Table II baseline's functional model.

    The design factory is called per tile shape so each tile gets a
    correctly-sized design instance.
    """

    def __init__(self, design_factory, max_rows: int = 32, max_cols: int = 32) -> None:
        if max_rows < 1 or max_cols < 1:
            raise MappingError("tile dimensions must be >= 1")
        self._factory = design_factory
        self._shape = (max_rows, max_cols)

    @property
    def max_tile_shape(self) -> tuple:
        return self._shape

    def program(self, weights01: np.ndarray) -> ProgrammedTile:
        w = np.asarray(weights01, dtype=float)
        design = self._factory(w.shape[0], w.shape[1])
        if not isinstance(design, PIMDesign):
            raise MappingError("design_factory must return a PIMDesign")
        return _DesignTile(design, w)


# ----------------------------------------------------------------------
# Trial stacks (the Monte-Carlo fast path)
# ----------------------------------------------------------------------
class _TrialLoopTile(ProgrammedTile):
    """Trial stack of a tile type with no broadcast kernel (baseline
    functional models, bit-sliced tiles): one per-trial loop."""

    def __init__(self, tiles: list) -> None:
        self._tiles = tiles

    def matmul(self, x: np.ndarray, backend=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 3:
            return np.stack([tile.matmul(x[t], backend)
                             for t, tile in enumerate(self._tiles)])
        return np.stack([tile.matmul(x, backend) for tile in self._tiles])

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "ProgrammedTile":
        raise MappingError("a trial stack cannot be re-perturbed")


def stack_tiles(tiles) -> ProgrammedTile:
    """Collapse per-trial clones of one tile position into one tile.

    Ideal tiles stack their weight matrices and ReSiPE tiles stack
    their engines' conductances per redundancy slot (codec, operating
    point and output scale come from the first trial — Monte-Carlo
    clones share them by construction), so the stack runs the same
    ``matmul`` code with a leading trial axis and each output slice
    ``t`` is bit-identical to ``tiles[t].matmul``.  Other tile types
    run a per-trial loop.
    """
    tiles = list(tiles)
    if not tiles:
        raise MappingError("cannot stack an empty sequence of tiles")
    first_type = type(tiles[0])
    if any(type(t) is not first_type for t in tiles):
        raise MappingError("cannot stack tiles of mixed backend types")
    if first_type is _IdealTile:
        return _IdealTile(np.stack([t._w for t in tiles]))
    if first_type is _ReSiPETile:
        redundancies = {len(t._engines) for t in tiles}
        if len(redundancies) > 1:
            raise MappingError(
                f"tiles disagree on redundancy: {sorted(redundancies)}"
            )
        return _ReSiPETile([
            engine._with_array(StackedCrossbar.from_arrays(
                [t._engines[r].array for t in tiles]
            ))
            for r, engine in enumerate(tiles[0]._engines)
        ])
    return _TrialLoopTile(tiles)
