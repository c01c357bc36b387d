"""Monte-Carlo engine throughput: serial vs stacked vs parallel.

Times a Fig. 7-style 16-trial variation sweep three ways and writes the
numbers to ``BENCH_mc.json`` at the repository root:

* **serial** — one forward pass per trial (``trial_batch=1``), the
  pre-vectorization behaviour;
* **stacked** — all trials through the ``(T, rows, cols)`` broadcast
  kernels in one pass (``trial_batch=trials``);
* **parallel** — the ``repro fig7 --workers 4 --trial-batch 8``
  configuration end to end, asserted byte-identical to the serial run;
* **backends** — the stacked evaluation re-timed per compute backend
  (``--backends``), reporting each engine's x-factor against the numpy
  baseline.  JIT backends get one untimed warmup call so compilation
  never pollutes the medians; missing engines are recorded as
  ``available: false`` instead of failing the run.

Two phases are reported separately because they scale differently:

* ``evaluate`` — the stacked-kernel inner loop (accuracy of T
  pre-drawn realizations), where vectorization shines;
* ``sweep`` — clone drawing + evaluation, i.e. the full per-sigma
  column including the per-trial RNG work that must stay serial for
  bit-reproducibility.

Run directly (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_perf_mc.py
"""

import argparse
import json
import os
import statistics
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _median_time(fn, repeats, warmup=0):
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs.

    ``warmup`` extra calls run first and are excluded from the samples
    (JIT compilation must never pollute a median).
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _fig7_rows(result):
    """Comparable projection of a Fig7Result (plain floats only)."""
    return [
        (row.display, row.software_accuracy, sorted(row.by_sigma.items()))
        for row in result.rows
    ]


def run_backend_sweep(executor, x_eval, y_eval, networks, backends,
                      repeats):
    """Time the stacked evaluation per compute backend.

    Returns ``{name: entry}`` where an entry is either
    ``{"available": false}`` (engine not importable — recorded, not
    fatal) or timings plus ``x_vs_numpy``, the x-factor against the
    numpy baseline measured in the same process.  One warmup call per
    backend is excluded from the medians, so JIT compilation cost never
    skews an x-factor.
    """
    import hashlib

    import numpy as np

    from repro.kernels import available_backends, get_backend

    availability = available_backends()
    trials = len(networks)

    def _hash(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    # numpy always runs first: it is the x-factor baseline.
    ordered = ["numpy"] + [b for b in backends if b != "numpy"]
    sweep = {}
    baseline_s = None
    baseline_hash = None
    for name in ordered:
        if not availability.get(name, False):
            sweep[name] = {"available": False}
            continue
        backend = get_backend(name)
        out = executor.predict_trials(x_eval, networks, backend=backend)
        median_s = _median_time(
            lambda: executor.accuracy_trials(
                x_eval, y_eval, networks, backend=backend
            ),
            repeats,
            warmup=1,
        )
        entry = {
            "available": True,
            "stacked_s": median_s,
            "trials_per_sec": trials / median_s,
            "predictions_sha256": _hash(out),
        }
        if name == "numpy":
            baseline_s = median_s
            baseline_hash = entry["predictions_sha256"]
        if baseline_s is not None:
            entry["x_vs_numpy"] = baseline_s / median_s
        if baseline_hash is not None:
            entry["matches_numpy"] = (
                entry["predictions_sha256"] == baseline_hash
            )
        sweep[name] = entry
    return sweep


def run_benchmark(network="mlp-1", sigma=0.10, trials=16, n_samples=600,
                  eval_samples=50, seed=0, workers=4, trial_batch=8,
                  repeats=7, backends=("numpy", "numba")):
    from repro.experiments.fig7_accuracy import (
        Fig7Config,
        _prepare_network,
        _sigma_column,
        run_fig7,
    )
    from repro.experiments.networks import get_benchmark_networks
    from repro.runtime import trial_rng

    config = Fig7Config(
        networks=(network,), sigmas=(sigma,), trials=trials,
        n_samples=n_samples, eval_samples=eval_samples, seed=seed,
    )
    net = get_benchmark_networks(
        keys=[network], n_samples=n_samples, seed=seed
    )[0]
    executor, x_eval, y_eval = _prepare_network(net, config)

    # Phase 1 — evaluate: accuracy of T pre-drawn realizations.  The
    # same clones feed both paths, so this isolates the stacked kernels.
    clones = [
        executor.perturbed(
            trial_rng(seed, f"{net.spec.key}|{sigma:.4f}|{t}"), sigma
        )
        for t in range(trials)
    ]
    networks = [c.network for c in clones]
    serial_eval = _median_time(
        lambda: [c.accuracy(x_eval, y_eval) for c in clones], repeats
    )
    stacked_eval = _median_time(
        lambda: executor.accuracy_trials(x_eval, y_eval, networks), repeats
    )

    # Phase 2 — sweep: clone drawing + evaluation (one sigma column).
    def sweep(batch):
        _sigma_column(net, executor, config, sigma, x_eval, y_eval, batch)

    serial_sweep = _median_time(lambda: sweep(1), repeats)
    stacked_sweep = _median_time(lambda: sweep(trials), repeats)

    # Per-backend stacked evaluation (x-factors against numpy).
    backend_sweep = run_backend_sweep(
        executor, x_eval, y_eval, networks, backends, repeats
    )

    # Phase 3 — the documented CLI configuration, end to end, checked
    # byte-identical to the serial run.
    serial_result = run_fig7(config)
    parallel_wall = [None]

    def parallel():
        start = time.perf_counter()
        result = run_fig7(config, workers=workers, trial_batch=trial_batch)
        parallel_wall[0] = time.perf_counter() - start
        return result

    matches = _fig7_rows(parallel()) == _fig7_rows(serial_result)
    serial_wall = _median_time(lambda: run_fig7(config), 3)

    evaluate_speedup = serial_eval / stacked_eval
    return {
        "config": {
            "network": network,
            "sigma": sigma,
            "trials": trials,
            "n_samples": n_samples,
            "eval_samples": eval_samples,
            "seed": seed,
            "mode": config.mode.value,
            "repeats": repeats,
        },
        "evaluate": {
            "serial_s": serial_eval,
            "stacked_s": stacked_eval,
            "serial_trials_per_sec": trials / serial_eval,
            "stacked_trials_per_sec": trials / stacked_eval,
            "speedup": evaluate_speedup,
        },
        "sweep": {
            "serial_s": serial_sweep,
            "stacked_s": stacked_sweep,
            "serial_trials_per_sec": trials / serial_sweep,
            "stacked_trials_per_sec": trials / stacked_sweep,
            "speedup": serial_sweep / stacked_sweep,
        },
        "backends": backend_sweep,
        "parallel": {
            "workers": workers,
            "trial_batch": trial_batch,
            "wall_s": parallel_wall[0],
            "serial_wall_s": serial_wall,
            "speedup": serial_wall / parallel_wall[0],
            "matches_serial": matches,
        },
        # Headline numbers: the stacked-kernel evaluation of the
        # 16-trial sweep, the throughput it sustains, and the worker
        # count the equivalence was verified at.
        "speedup": evaluate_speedup,
        "trials_per_sec": trials / stacked_eval,
        "worker_count": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--network", default="mlp-1")
    parser.add_argument("--sigma", type=float, default=0.10)
    parser.add_argument("--trials", type=int, default=16)
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--eval-samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--trial-batch", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--backends", default="numpy,numba",
        help="comma-separated compute backends to sweep (numpy is "
             "always included as the x-factor baseline; missing "
             "engines are recorded as available: false)",
    )
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_mc.json"
    ))
    args = parser.parse_args(argv)

    backends = tuple(
        name.strip() for name in args.backends.split(",") if name.strip()
    )
    report = run_benchmark(
        network=args.network, sigma=args.sigma, trials=args.trials,
        n_samples=args.samples, eval_samples=args.eval_samples,
        seed=args.seed, workers=args.workers, trial_batch=args.trial_batch,
        repeats=args.repeats, backends=backends,
    )
    out_dir = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"[bench_perf_mc] {args.trials}-trial sweep on {args.network} "
          f"(sigma={args.sigma:g}, {args.eval_samples} eval samples)")
    for phase in ("evaluate", "sweep"):
        p = report[phase]
        print(f"  {phase:<9} serial {p['serial_s'] * 1e3:7.1f} ms   "
              f"stacked {p['stacked_s'] * 1e3:7.1f} ms   "
              f"x{p['speedup']:.2f}")
    for name, entry in report["backends"].items():
        if not entry["available"]:
            print(f"  backend   {name:<7} unavailable")
            continue
        factor = entry.get("x_vs_numpy")
        suffix = f"   x{factor:.2f} vs numpy" if factor is not None else ""
        print(f"  backend   {name:<7} stacked "
              f"{entry['stacked_s'] * 1e3:7.1f} ms{suffix}")
    par = report["parallel"]
    print(f"  parallel  workers={par['workers']} "
          f"trial_batch={par['trial_batch']}  wall {par['wall_s']:.2f}s  "
          f"matches_serial={par['matches_serial']}")
    print(f"  -> {args.output}")
    if not par["matches_serial"]:
        print("[bench_perf_mc] FAIL: parallel run diverged from serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
