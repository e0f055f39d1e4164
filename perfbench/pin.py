"""Record the outputs ``run.py`` checks samples against.

Run from the repository root after a change that is meant to move the
simulated metrics (never after a host-only change)::

    python3 perfbench/pin.py [workload ...]

For every pinned seed it runs the workload once, requires the count to
equal the sequential oracle's, and writes the fingerprint to
``pinned.json``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from run import SRC, clean_environment


def main(names: list[str]) -> int:
    clean_environment()
    sys.path.insert(0, str(SRC))
    from workloads import (
        PINNED_PATH, PINNED_SEEDS, WORKLOADS, oracle_triangles, run_sample, set_up)

    table = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        table[name] = {}
        for seed in PINNED_SEEDS:
            setup = set_up(wl, seed)
            _, fp = run_sample(wl, setup.dist)
            oracle = oracle_triangles(setup.graph)
            if fp.triangles != oracle:
                print(f"{name} seed {seed}: {fp.triangles} != oracle {oracle}")
                return 1
            table[name][str(seed)] = asdict(fp)
            print(name, seed, fp, flush=True)
    PINNED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
