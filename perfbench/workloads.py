"""Benchmark workloads, their set-up, one timed sample, and the pinned
outputs that samples are checked against.

Each workload is a generated graph, a PE count and an algorithm, run on
the defaults a user gets: ``Machine`` with the alpha-beta network and
the default kernel backend.  ``repro`` must be importable (``src`` on
``sys.path``); clear ``REPRO_*`` variables before importing this module
(``run.clean_environment``), because the program reads them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.analysis.runner import run_algorithm
from repro.core.backends import resolve_backend
from repro.core.edge_iterator import edge_iterator
from repro.graphs import generators
from repro.graphs.csr import CSRGraph
from repro.graphs.distributed import DistGraph, distribute

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: The default of ``run.py --seed``; tune a change on this seed.
DEFAULT_SEED = 1
#: Seed to confirm a claimed gain on, never used while writing it.
HELD_OUT_SEED = 1001
#: Seeds whose outputs ``pinned.json`` records.
PINNED_SEEDS = (*range(16), HELD_OUT_SEED)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], CSRGraph]
    num_pes: int
    algorithm: str


#: Why each workload was chosen is in ``BENCHMARK.json``.  Sizes keep a
#: sample at 1-11 s on a 2-vCPU host, so a 40 s run takes several.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rmat12-p256-cetric2",
            lambda seed: generators.rmat(12, 16, seed=seed),
            256,
            "cetric2",
        ),
        Workload(
            "rgg2d16-p32-ditric",
            lambda seed: generators.rgg2d(2**16, expected_edges=16 * 2**16, seed=seed),
            32,
            "ditric",
        ),
    )
}


@dataclass(frozen=True)
class Fingerprint:
    """The count and simulated metrics of one run; deterministic per seed."""

    triangles: int
    sim_time_s: float
    total_messages: int
    total_words: int
    max_messages: int
    bottleneck_words: int
    peak_buffer_words: int

    def matches(self, other: "Fingerprint") -> bool:
        mine, theirs = asdict(self), asdict(other)
        return all(
            math.isclose(mine[k], theirs[k], rel_tol=1e-9)
            if isinstance(mine[k], float)
            else mine[k] == theirs[k]
            for k in mine
        )


@dataclass
class Setup:
    graph: CSRGraph
    dist: DistGraph
    seconds: float


def set_up(workload: Workload, seed: int) -> Setup:
    """Generate and distribute the input and resolve the kernel backend."""
    t0 = time.perf_counter()
    graph = workload.generate(seed)
    dist = distribute(graph, num_pes=workload.num_pes)
    resolve_backend()
    return Setup(graph, dist, time.perf_counter() - t0)


def run_sample(workload: Workload, dist: DistGraph) -> tuple[float, Fingerprint]:
    """One timed ``run_algorithm`` call and its fingerprint."""
    t0 = time.perf_counter()
    res = run_algorithm(dist, workload.algorithm)
    seconds = time.perf_counter() - t0
    if not res.ok:
        raise RuntimeError(f"{workload.name}: run failed ({res.failed})")
    return seconds, Fingerprint(
        triangles=int(res.triangles),
        sim_time_s=float(res.time),
        total_messages=res.total_messages,
        total_words=res.total_volume,
        max_messages=res.max_messages,
        bottleneck_words=res.bottleneck_volume,
        peak_buffer_words=res.peak_buffer_words,
    )


def oracle_triangles(graph: CSRGraph) -> int:
    """The sequential edge-iterator count."""
    return edge_iterator(graph).triangles


def load_pinned() -> dict[str, dict[str, Fingerprint]]:
    """``workload -> seed (as str) -> pinned fingerprint``."""
    raw = json.loads(PINNED_PATH.read_text())
    return {
        name: {seed: Fingerprint(**fp) for seed, fp in seeds.items()}
        for name, seeds in raw.items()
    }


def pinned(workload: Workload, seed: int) -> Fingerprint | None:
    return load_pinned().get(workload.name, {}).get(str(seed))
