"""Frozen golden outputs of the mapped signal chain.

Every other byte-identity test compares two paths of the program with
each other (serial against stacked, one backend against another).
These cases instead compare against values recorded once and
committed (``golden_signal_chain.json``), so a change that moves both
paths together still shows.

Recorded for mlp-1 and cnn-1 at fixed seeds (weights from the
architecture factory, inputs from the synthetic MNIST generator):

* serial LINEAR ``predict`` labels and ``forward`` outputs (the serving
  path);
* serial EXACT labels and outputs;
* stacked EXACT at σ = 0.1, T = 4 (clones drawn from ``trial_rng``):
  per-trial labels, accuracies and outputs.

Labels and accuracies must match exactly.  Float64 outputs must match
byte for byte on the numpy/BLAS build they were recorded with; on any
other build (a different GEMM kernel may sum in another order) they
must match to ``np.allclose(rtol=1e-9, atol=1e-12)``.

Regenerate (only when a change is *meant* to move the numbers)::

    PYTHONPATH=src python -m tests.mapping.test_golden_signal_chain
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.datasets.synthetic_mnist import make_mnist_like
from repro.experiments.networks import NETWORK_SPECS
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.runtime import trial_rng

GOLDEN = Path(__file__).with_name("golden_signal_chain.json")
SEED = 7
SAMPLES = 12
TRIALS = 4
SIGMA = 0.1
NETWORKS = ("mlp-1", "cnn-1")


def _build_identity() -> dict:
    """The numpy/BLAS build the byte comparison is valid on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _executor(key: str, mode: MVMMode):
    spec = NETWORK_SPECS[key]
    model = spec.build(np.random.default_rng(SEED))
    data = make_mnist_like(64 + SAMPLES, seed=SEED)
    images = data.images.reshape(len(data.images), -1) if spec.flatten_input \
        else data.images[:, None, :, :]
    backend = ReSiPEBackend(params=CircuitParameters.calibrated(), mode=mode)
    executor = PIMExecutor(compile_network(model, backend), images[:64])
    return executor, images[64:], data.labels[64:]


def compute() -> dict:
    """Every recorded quantity, as JSON-ready lists."""
    out = {}
    for key in NETWORKS:
        entry = {}
        for mode in (MVMMode.LINEAR, MVMMode.EXACT):
            executor, x, _y = _executor(key, mode)
            entry[f"{mode.value}_labels"] = executor.predict(x).tolist()
            entry[f"{mode.value}_outputs"] = executor.forward(x).tolist()
        executor, x, y = _executor(key, MVMMode.EXACT)
        networks = [
            executor.perturbed(
                trial_rng(SEED, f"{key}|{SIGMA:.4f}|{t}"), SIGMA
            ).network
            for t in range(TRIALS)
        ]
        entry["stacked_labels"] = executor.predict_trials(x, networks).tolist()
        entry["stacked_accuracies"] = executor.accuracy_trials(
            x, y, networks).tolist()
        entry["stacked_outputs"] = executor.forward_trials(
            x, networks).tolist()
        out[key] = entry
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return compute()


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", [
    "linear_labels", "exact_labels", "stacked_labels", "stacked_accuracies",
])
def test_labels_and_accuracies_exact(golden, current, network, name):
    assert current[network][name] == golden["values"][network][name]


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("name", [
    "linear_outputs", "exact_outputs", "stacked_outputs",
])
def test_outputs_bytes(golden, current, network, name):
    got = np.asarray(current[network][name], dtype=np.float64)
    want = np.asarray(golden["values"][network][name], dtype=np.float64)
    assert got.shape == want.shape
    if _build_identity() == golden["build"]:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_golden_labels_are_not_degenerate(golden):
    """The recorded labels span several classes, so a label check can
    fail on a wrong answer rather than pass on a constant one."""
    for network in NETWORKS:
        for name in ("linear_labels", "exact_labels"):
            assert len(set(golden["values"][network][name])) >= 3


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"build": _build_identity(), "values": compute()},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
