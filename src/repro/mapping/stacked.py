"""Trial stacks of mapped networks (the Monte-Carlo fast path).

A Fig. 7 / fault-campaign sweep evaluates the *same* programmed network
under ``T`` independent conductance draws.  Serially that is ``T`` full
forward passes over tiny per-tile matrices, and Python call overhead
dominates.  :func:`stack_networks` collapses the per-trial
:class:`~repro.mapping.compiler.MappedNetwork` clones into one
``MappedNetwork`` (with ``trials = T``) whose tiles hold
``(T, rows, cols)`` arrays (see :func:`~repro.mapping.backends.stack_tiles`),
so all trials ride through a single broadcast ``np.matmul`` per tile and
the same layer, tile and signal-chain code as one realization.

Bit-identity contract: every stacked output slice ``t`` equals the
serial forward pass of trial ``t`` down to the last ulp — numpy runs the
same 2-D GEMM kernel per broadcast slice and every other stage is
elementwise.  The reproducibility suite pins this down by hashing
persisted campaign records across both paths.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..errors import MappingError
from .backends import stack_tiles
from .compiler import MappedLayer, MappedNetwork

__all__ = ["stack_networks"]


def _stack_grids(layers: Sequence[MappedLayer], attr: str) -> List[list]:
    grids = [getattr(layer, attr) for layer in layers]
    return [
        [stack_tiles([grid[i][j] for grid in grids])
         for j in range(len(row))]
        for i, row in enumerate(grids[0])
    ]


def _stack_layers(layers: Sequence[MappedLayer]) -> MappedLayer:
    names = {layer.name for layer in layers}
    if len(names) > 1:
        raise MappingError(f"cannot stack different layers: {sorted(names)}")
    gains = {layer.gain for layer in layers}
    if len(gains) > 1:
        raise MappingError(
            f"per-trial clones disagree on calibrated gain: {sorted(gains)}"
        )
    return dataclasses.replace(
        layers[0],
        pos_tiles=_stack_grids(layers, "pos_tiles"),
        neg_tiles=_stack_grids(layers, "neg_tiles"),
    )


def stack_networks(networks: Sequence[MappedNetwork]) -> MappedNetwork:
    """Collapse per-trial :class:`MappedNetwork` clones into one trial
    stack.

    The clones must share a model and stage structure — which they do by
    construction, being ``perturbed``/``aged``/``faulted`` copies of one
    compiled network.
    """
    networks = list(networks)
    if not networks:
        raise MappingError("cannot stack an empty sequence of networks")
    first = networks[0]
    if any(net.model is not first.model for net in networks[1:]):
        raise MappingError("per-trial networks must share one model")
    stage_counts = {len(net.stages) for net in networks}
    if len(stage_counts) > 1:
        raise MappingError(
            f"networks disagree on stage count: {sorted(stage_counts)}"
        )
    stages: List[Optional[MappedLayer]] = []
    for idx, stage in enumerate(first.stages):
        if stage is None:
            if any(net.stages[idx] is not None for net in networks):
                raise MappingError(
                    f"stage {idx} is mapped in some trials but not others"
                )
            stages.append(None)
        else:
            stages.append(
                _stack_layers([net.stages[idx] for net in networks])
            )
    return MappedNetwork(
        model=first.model, stages=stages, trials=len(networks)
    )
