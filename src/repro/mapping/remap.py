"""Detect-and-remap graceful degradation for mapped networks.

Without this module a single stuck-on column silently corrupts every
inference through the layer that owns it.  The recovery flow is the
classic spare-row/column repair of memory BIST, transplanted to the
single-spiking PIM pipeline:

1. **Detect** — a :class:`~repro.faults.probe.HealthProbe` fires known
   calibration vectors through each mapped layer of the (possibly
   faulted) network and compares the response against the pristine
   reference, flagging deviating logical columns.
2. **Remap** — each flagged column (worst first, up to the spare
   budget reserved at :func:`~repro.mapping.deployment.plan_deployment`
   time) is re-programmed onto a spare column strip through the same
   backend.  Spares live on the same faulty silicon, so the fresh
   programming is itself fault-injected and re-probed; a bad spare is
   retried up to ``max_retries`` times.
3. **Degrade, never corrupt** — columns beyond the spare budget, or
   whose spares keep failing, fall back to an explicit software MVM on
   the stored differential weights.  The answer stays correct; only
   the analog speed/energy advantage is lost for those columns, and
   the fallback is recorded so operators can see the degradation.

Everything is returned as a :class:`RemapResult`: a drop-in network
clone (flagged columns served by spares or software) plus a structured
remap log that feeds ``DeploymentReport.remap_events`` and the fault
campaign's trial records.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..telemetry import session as _telemetry
from .backends import HardwareBackend
from .compiler import MappedNetwork
from .tiling import TileGrid, tile_matrix

__all__ = [
    "RemapRecord",
    "RemapResult",
    "PatchedLayer",
    "detect_and_remap",
    "spare_columns_for",
]


def spare_columns_for(cols: int, spare_fraction: float) -> int:
    """Spare-column budget for a layer of ``cols`` logical columns."""
    if cols < 1:
        raise MappingError(f"cols must be >= 1, got {cols!r}")
    if not 0 <= spare_fraction <= 1:
        raise MappingError(
            f"spare fraction must be in [0, 1], got {spare_fraction!r}"
        )
    if spare_fraction == 0:
        return 0
    return int(math.ceil(cols * spare_fraction))


def _augment(x: np.ndarray, bias_level: float, has_bias_row: bool) -> np.ndarray:
    """Prepend the folded-bias drive (mirrors ``MappedLayer``)."""
    if not has_bias_row:
        return x
    ones_shape = x.shape[:-1] + (1,)
    return np.concatenate([np.full(ones_shape, bias_level), x], axis=-1)


@dataclasses.dataclass(frozen=True)
class RemapRecord:
    """One recovery decision for one logical column.

    Attributes
    ----------
    layer:
        Owning layer name.
    column:
        Logical output-column index.
    action:
        ``"spare"`` (re-programmed onto a spare strip) or
        ``"software"`` (digital-MVM degraded mode).
    attempts:
        Spare programming attempts consumed (0 when the column went
        straight to software because the budget was exhausted).
    deviation:
        The probe deviation that triggered the recovery.
    """

    layer: str
    column: int
    action: str
    attempts: int
    deviation: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class _ColumnPatch:
    """One logical column re-programmed onto a spare strip.

    The strip reuses the layer's row-band tiling (a width-1 tile per
    row band and polarity) so partial sums accumulate exactly as in
    the original mapping.
    """

    def __init__(
        self,
        column: int,
        pos_grid: TileGrid,
        pos_tiles: List[List],
        neg_grid: TileGrid,
        neg_tiles: List[List],
    ) -> None:
        self.column = column
        self.pos_grid = pos_grid
        self.pos_tiles = pos_tiles
        self.neg_grid = neg_grid
        self.neg_tiles = neg_tiles

    @property
    def num_tiles(self) -> int:
        return self.pos_grid.num_tiles + self.neg_grid.num_tiles

    def output(self, x_aug: np.ndarray, scale: float, gain: float) -> np.ndarray:
        """The patched column's signed output for augmented input."""
        pos = self.pos_grid.matmul_through(
            x_aug, lambda xb, i, j: self.pos_tiles[i][j].matmul(xb)
        )
        neg = self.neg_grid.matmul_through(
            x_aug, lambda xb, i, j: self.neg_tiles[i][j].matmul(xb)
        )
        return gain * scale * (pos - neg)[..., 0]


class PatchedLayer:
    """A mapped layer whose unhealthy columns are served elsewhere.

    Duck-types :class:`~repro.mapping.compiler.MappedLayer` for the
    executor: geometry, naming and tile accounting delegate to the
    wrapped (faulted) base layer; flagged columns are overridden by
    spare-strip hardware or the digital fallback at matmul time.
    """

    def __init__(
        self,
        base,
        patches: Sequence[_ColumnPatch] = (),
        software_cols: Sequence[int] = (),
    ) -> None:
        self.base = base
        self.patches = list(patches)
        self.software_cols = tuple(sorted(set(int(c) for c in software_cols)))
        overlap = set(p.column for p in self.patches) & set(self.software_cols)
        if overlap:
            raise MappingError(
                f"columns {sorted(overlap)} assigned to both spare and "
                f"software paths"
            )
        diff = base.diff
        if self.software_cols:
            signed = diff.scale * (diff.positive - diff.negative)
            self._w_soft = signed[:, list(self.software_cols)]
        else:
            self._w_soft = None

    # -- MappedLayer protocol ------------------------------------------
    @property
    def source(self):
        return self.base.source

    @property
    def diff(self):
        return self.base.diff

    @property
    def gain(self) -> float:
        return self.base.gain

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def num_tiles(self) -> int:
        """Active tiles including the spare strips in use."""
        return self.base.num_tiles + sum(p.num_tiles for p in self.patches)

    def matmul(self, x01: np.ndarray) -> np.ndarray:
        return self.matmul_with_bias_level(x01, bias_level=1.0)

    def matmul_with_bias_level(
        self, x01: np.ndarray, bias_level: float, backend=None
    ) -> np.ndarray:
        out = np.asarray(
            self.base.matmul_with_bias_level(x01, bias_level, backend),
            dtype=float,
        )
        if not self.patches and self._w_soft is None:
            return out
        x_aug = _augment(
            np.asarray(x01, dtype=float), bias_level, self.diff.has_bias_row
        )
        for patch in self.patches:
            out[..., patch.column] = patch.output(
                x_aug, self.diff.scale, self.gain
            )
        if self._w_soft is not None:
            soft = self.gain * (x_aug @ self._w_soft)
            out[..., list(self.software_cols)] = soft
        return out

    # Remapped layers are terminal: they model a repaired chip, not a
    # substrate for further Monte-Carlo draws.
    def perturbed(self, rng, sigma):
        raise MappingError("remapped layers cannot be re-perturbed")

    def aged(self, retention, elapsed, rng=None):
        raise MappingError("remapped layers cannot be re-aged")

    def faulted(self, injector, rng):
        raise MappingError("remapped layers cannot be re-faulted")


@dataclasses.dataclass
class RemapResult:
    """Outcome of one detect-and-remap pass.

    Attributes
    ----------
    network:
        Drop-in network clone; flagged columns are served by spares or
        the software fallback.  Bind it to a calibrated executor with
        ``executor._clone_with_network(result.network)``.
    records:
        One :class:`RemapRecord` per recovered column.
    reports:
        The detection-phase probe reports, by layer name.
    """

    network: MappedNetwork
    records: List[RemapRecord]
    reports: Dict[str, object]

    @property
    def spare_cols(self) -> int:
        """Columns recovered onto spare strips."""
        return sum(1 for r in self.records if r.action == "spare")

    @property
    def software_cols(self) -> int:
        """Columns degraded to the software-MVM fallback."""
        return sum(1 for r in self.records if r.action == "software")

    @property
    def flagged_cols(self) -> int:
        """Columns the probe flagged (== len(records))."""
        return len(self.records)

    def events(self) -> List[dict]:
        """JSON-serialisable remap log (worst deviations first)."""
        return [
            r.to_dict()
            for r in sorted(self.records, key=lambda r: -r.deviation)
        ]


def _program_column_patch(
    diff,
    column: int,
    backend: HardwareBackend,
    injector,
    rng: Optional[np.random.Generator],
) -> _ColumnPatch:
    """Program one logical column onto a fresh spare strip.

    The spare lives on the same silicon, so when an ``injector`` is
    given the fresh programming is disturbed by a new fault draw.
    """
    max_rows, max_cols = backend.max_tile_shape

    def _program(matrix: np.ndarray) -> Tuple[TileGrid, List[List]]:
        grid = tile_matrix(matrix, max_rows, max_cols)
        tiles = [[backend.program(t) for t in row] for row in grid.tiles]
        if injector is not None and rng is not None:
            tiles = [[t.faulted(injector, rng) for t in row] for row in tiles]
        return grid, tiles

    pos_grid, pos_tiles = _program(diff.positive[:, [column]])
    neg_grid, neg_tiles = _program(diff.negative[:, [column]])
    return _ColumnPatch(column, pos_grid, pos_tiles, neg_grid, neg_tiles)


def detect_and_remap(
    reference: MappedNetwork,
    candidate: MappedNetwork,
    backend: HardwareBackend,
    probe,
    injector=None,
    rng: Optional[np.random.Generator] = None,
    spare_fraction: float = 0.1,
    max_retries: int = 2,
) -> RemapResult:
    """Probe ``candidate`` against ``reference`` and repair what fails.

    Parameters
    ----------
    reference:
        The pristine network recorded at deployment time (golden
        responses).
    candidate:
        The same network after faults struck (e.g. from
        :meth:`MappedNetwork.faulted`).
    backend:
        Backend used to program spare strips — the same one the
        network was compiled with.
    probe:
        A :class:`~repro.faults.probe.HealthProbe` (any object with
        ``stimulus``/``probe_layer``/``threshold``).
    injector:
        The fault model afflicting the silicon; spares are disturbed
        by fresh draws from it.  ``None`` = spares are clean.
    rng:
        Random source for spare fault draws (required when
        ``injector`` is given).
    spare_fraction:
        Per-layer spare-column budget as a fraction of the layer's
        logical columns (matches ``plan_deployment``'s reservation).
    max_retries:
        Extra spare programming attempts per column before giving up
        and degrading to software.
    """
    if injector is not None and rng is None:
        raise MappingError("rng is required when an injector is given")
    if max_retries < 0:
        raise MappingError(f"max_retries must be >= 0, got {max_retries!r}")

    stages_out: List = []
    records: List[RemapRecord] = []
    reports: Dict[str, object] = {}

    for ref_stage, cand_stage in zip(reference.stages, candidate.stages):
        if ref_stage is None or cand_stage is None:
            if (ref_stage is None) != (cand_stage is None):
                raise MappingError("mapped/unmapped stages do not align")
            stages_out.append(None)
            continue

        report = probe.probe_layer(ref_stage, cand_stage)
        reports[ref_stage.name] = report
        if report.healthy:
            stages_out.append(cand_stage)
            continue

        diff = ref_stage.diff
        budget = spare_columns_for(diff.cols, spare_fraction)
        flagged = list(report.flagged)  # worst deviation first
        spare_bound = flagged[:budget]
        software_bound = flagged[budget:]

        # Golden column responses for spare verification.
        width = diff.rows - 1 if diff.has_bias_row else diff.rows
        x = probe.stimulus(width)
        x_aug = _augment(x, 1.0, diff.has_bias_row)
        golden = np.asarray(ref_stage.matmul(x), dtype=float)
        layer_scale = max(float(np.abs(golden).max()), 1e-12)

        patches: List[_ColumnPatch] = []
        for column in spare_bound:
            accepted = None
            attempts = 0
            for _ in range(max_retries + 1):
                attempts += 1
                patch = _program_column_patch(
                    diff, column, backend, injector, rng
                )
                observed = patch.output(x_aug, diff.scale, cand_stage.gain)
                deviation = float(
                    np.abs(observed - golden[:, column]).max() / layer_scale
                )
                if deviation <= probe.threshold:
                    accepted = patch
                    break
            if accepted is not None:
                patches.append(accepted)
                records.append(RemapRecord(
                    layer=ref_stage.name, column=column, action="spare",
                    attempts=attempts,
                    deviation=float(report.deviations[column]),
                ))
            else:
                software_bound.append(column)
                records.append(RemapRecord(
                    layer=ref_stage.name, column=column, action="software",
                    attempts=attempts,
                    deviation=float(report.deviations[column]),
                ))
        for column in flagged[budget:]:
            records.append(RemapRecord(
                layer=ref_stage.name, column=column, action="software",
                attempts=0, deviation=float(report.deviations[column]),
            ))

        stages_out.append(
            PatchedLayer(cand_stage, patches, software_bound)
        )

    session = _telemetry.active()
    if session is not None:
        worst = max(
            (float(rep.worst()) for rep in reports.values()), default=0.0
        )
        session.set_gauge("remap.probe_deviation", worst)
        session.count("remap.flagged", len(records))
        session.count(
            "remap.spare",
            sum(1 for r in records if r.action == "spare"),
        )
        session.count(
            "remap.software",
            sum(1 for r in records if r.action == "software"),
        )

    return RemapResult(
        network=MappedNetwork(model=candidate.model, stages=stages_out),
        records=records,
        reports=reports,
    )
