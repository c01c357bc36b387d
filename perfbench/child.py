"""Launcher for the benchmark's child processes.

``child.py serve --trace-out FILE -- ARGS``
    Installs the span wrappers, then runs the normal ``repro serve``
    entry point with ARGS; the spans are written to FILE when the
    daemon has drained (SIGTERM).  Untraced runs start the daemon with
    ``python -m repro serve`` instead.
``child.py setup --workload NAME --seed N [--trace-out FILE]``
    Imports the program, runs the workload's own preparation (load,
    compile and calibrate its networks), prints ``ready`` and exits:
    the Monte-Carlo workloads' set-up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("mode", choices=("serve", "setup"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out")
    argv = list(sys.argv[1:] if argv is None else argv)
    rest: list = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    common.prepare_environment()
    rec = None
    if args.trace_out:
        import tracing

        rec = tracing.install()
    try:
        if args.mode == "serve":
            from repro.cli import main as repro_main

            return repro_main(["serve", *rest])
        import mc

        mc.WORKLOADS[args.workload].ready(args.seed)
        print("ready", flush=True)
        return 0
    finally:
        if rec is not None:
            rec.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
