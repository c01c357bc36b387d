"""The two in-process Monte-Carlo workloads.

``mc-fig7``
    One Fig. 7 sweep: mlp-1 and cnn-1 at σ ∈ {0, 0.1}, 8 trials each,
    64 evaluation samples, stacked EXACT evaluation at T = 8.  The only
    workload on the stacked trial path, where dataset synthesis and
    variation-clone drawing also show.  One op is one trial (32/sweep).
``mc-campaign``
    One fault campaign on mlp-1 (4 stuck-at rates × 4 trials) into a
    fresh store, with detect-and-remap.  The only workload that writes
    records and reprograms crossbars.  One op is one persisted trial
    record (16/sweep).

A sweep is gated by a digest: of the :class:`Fig7Result` rows, or of
the bytes the campaign persisted.  The reference digest comes from the
same config run untimed through the serial trial path
(``trial_batch=1``), which the program guarantees bit-identical to the
stacked path the timed sweeps take.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from typing import Any, Dict

from common import WORK


class Fig7:
    name = "mc-fig7"
    ops_per_sweep = 32  # 2 networks x 2 sigmas x 8 trials
    trial_batch = 8

    @staticmethod
    def config(seed: int):
        from repro.experiments.fig7_accuracy import Fig7Config

        return Fig7Config(networks=("mlp-1", "cnn-1"), sigmas=(0.0, 0.1),
                          trials=8, eval_samples=64, seed=seed)

    def ready(self, seed: int) -> None:
        """The sweep's own preparation: load, compile and calibrate."""
        from repro.experiments.fig7_accuracy import _prepare_network
        from repro.experiments.networks import get_benchmark_networks

        config = self.config(seed)
        for net in get_benchmark_networks(keys=config.networks,
                                          n_samples=config.n_samples,
                                          seed=config.seed):
            _prepare_network(net, config)

    def sweep(self, seed: int, index: int, trial_batch: int = trial_batch):
        from repro.experiments.fig7_accuracy import run_fig7

        return run_fig7(self.config(seed), workers=1,
                        trial_batch=trial_batch)

    def check(self, result) -> "tuple[int, str]":
        """(ops completed, digest) of one sweep."""
        rows = [[r.display, r.software_accuracy, sorted(r.by_sigma.items())]
                for r in result.rows]
        text = json.dumps(rows)
        return self.ops_per_sweep, hashlib.sha256(text.encode()).hexdigest()

    def reference(self, seed: int) -> "tuple[int, str]":
        return self.check(self.sweep(seed, -1, trial_batch=1))


class Campaign:
    name = "mc-campaign"
    ops_per_sweep = 16  # 4 stuck-at rates x 4 trials
    trial_batch = 4

    @staticmethod
    def spec(seed: int):
        from repro.faults.campaign import CampaignSpec

        return CampaignSpec(network="mlp-1", trials=4, seed=seed)

    def ready(self, seed: int) -> None:
        """The campaign's own preparation: load, compile, calibrate and
        build the health probe."""
        from repro.faults.campaign import FaultCampaign

        FaultCampaign(self.spec(seed))._prepare()

    def sweep(self, seed: int, index: int, trial_batch: int = trial_batch):
        from repro.faults.campaign import FaultCampaign
        from repro.store import ArtifactStore

        root = WORK / "stores" / f"campaign-{index}"
        shutil.rmtree(root, ignore_errors=True)
        store = ArtifactStore(str(root))
        campaign = FaultCampaign(self.spec(seed), store=store)
        return campaign.run(trial_batch=trial_batch), root

    def check(self, outcome) -> "tuple[int, str]":
        """(records computed, digest of the persisted store bytes)."""
        result, root = outcome
        digest = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name.endswith(".lock"):
                continue
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
        shutil.rmtree(root, ignore_errors=True)
        return result.computed, digest.hexdigest()

    def reference(self, seed: int) -> "tuple[int, str]":
        return self.check(self.sweep(seed, -1, trial_batch=1))


WORKLOADS: Dict[str, Any] = {w.name: w for w in (Fig7(), Campaign())}
