"""Host-time benchmark of distributed triangle counting.

Run from the repository root::

    python3 perfbench/run.py --workload rgg2d16-p32-ditric --seed 1 --seconds 40 --trace 0

Set-up (generate, distribute, resolve the kernel backend) runs three
to fifteen times, until about two seconds were spent in it; then
``run_algorithm`` is sampled until ``--seconds`` have passed.  Every
sample is checked: its triangle count and simulated metrics must equal
the values pinned in ``pinned.json`` for the seed, or, for a seed not
pinned there, the sequential oracle's count and the first sample's
simulated metrics.

``--trace 0`` prints the end-to-end metrics.  Set-up and samples run
under ``speed.SpeedProbe``, which times a fixed reference chunk every
5 ms while they run; the timed metrics count work in those chunks, so
host speed drift cancels.  ``--trace 1``
alternates untraced samples with samples run under
``layers.LayerTimer`` and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every sample was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def clean_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable; returns the names dropped.

    Protocol checks, the kernel-backend choice and transport knobs
    change what a run measures, so samples run with the defaults.  Call
    this before ``repro`` is imported.
    """
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Host-time benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources in {SRC}", file=sys.stderr)
        return 2
    dropped = clean_environment()
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    if dropped:
        print(f"cleared {', '.join(dropped)}")
    gate, metrics = measure.run(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    correct = gate.ok and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
