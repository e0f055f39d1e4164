"""The packed frame exchange at benchmark scale.

Each PE posts its surrogate-filtered cut-neighborhood batch (RMAT scale
14, p = 16, aggregation on) through the buffered queue with one
``post_many(dest_ranks, frame)`` call, and the receiver consumes the
received frames' arrays directly.

Asserted: the received records, simulated time and per-PE
words/messages equal the golden fingerprint (section ``bench_frames``
of ``tests/golden/fingerprints.json``), which was recorded from one
``post`` per record — so the packed path changes speed only.  The wall
time lands in ``frames_exchange.txt`` and, as a ``wall_seconds`` row,
in ``BENCH_<date>.json``.
"""

import json
import time
from pathlib import Path

import harness
import numpy as np
import pytest
from conftest import run_once, save_artifact

from repro.core.engine import _surrogate_filter
from repro.core.intersect import gather_blocks
from repro.core.orientation import orient_by_degree
from repro.graphs import generators as gen
from repro.graphs.distributed import distribute
from repro.net import BufferedMessageQueue, Machine, RecordFrame

SCALE = 14
NUM_PES = 16
#: The exchange as one post per record computed it (section
#: ``bench_frames`` of the golden fingerprints).
GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tests" / "golden" / "fingerprints.json").read_text()
)["bench_frames"]


def exchange_fingerprint(result):
    """Received (records, neighbor words) per PE and the exact charges."""
    return {
        "values": [list(v) for v in result.values],
        "time": result.time,
        "words_sent": [m.words_sent for m in result.metrics.per_pe],
        "messages_sent": [m.messages_sent for m in result.metrics.per_pe],
    }


@pytest.fixture(scope="module")
def cut_batches():
    """Per-rank cut-arc batches of an oriented RMAT graph (scale 14).

    The orientation is computed globally (no simulated exchange needed
    for a sender benchmark); per rank we keep the surrogate-filtered
    cut arcs — exactly the record stream the engine's global phase
    posts.
    """
    g = gen.rmat(SCALE, 16, seed=1)
    dist = distribute(g, num_pes=NUM_PES)
    og = orient_by_degree(g)
    batches = []
    threshold = 0
    for rank in range(NUM_PES):
        lg = dist.view(rank)
        vlo, vhi = lg.vlo, lg.vhi
        src = np.repeat(
            np.arange(vlo, vhi, dtype=np.int64), np.diff(og.xadj[vlo : vhi + 1])
        )
        dst = og.adjncy[og.xadj[vlo] : og.xadj[vhi]]
        cut = lg.partition.rank_of(dst) != rank
        c_src, c_dst = src[cut], dst[cut]
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        sends = _surrogate_filter(c_src, dst_ranks, enabled=True)
        slots = c_src[sends]
        neighbors, xadj = gather_blocks(og.xadj, og.adjncy, slots)
        targets = np.full(slots.size, -1, dtype=np.int64)
        batches.append((dst_ranks[sends], RecordFrame(slots, targets, xadj, neighbors)))
        threshold = max(threshold, int(lg.num_local_arcs))
    return batches, threshold


def exchange_program(ctx, batches, threshold):
    dests, frame = batches[ctx.rank]
    q = BufferedMessageQueue(ctx, "nbh", threshold_words=threshold)
    q.post_many(dests, frame)
    received = RecordFrame.concat((yield from q.finalize()))
    return received.num_records, int(received.neighbors.size)


def test_bench_frame_exchange(benchmark, cut_batches, results_dir):
    batches, threshold = cut_batches
    posted = sum(b[0].size for b in batches)

    def exchange():
        t0 = time.perf_counter()
        res = Machine(NUM_PES).run(exchange_program, batches, threshold)
        return res, time.perf_counter() - t0

    res, wall = run_once(benchmark, exchange)

    # Contents, charges and clock of one post per record.
    assert exchange_fingerprint(res) == GOLDEN

    harness.emit(
        "frames:packed_frames",
        wall_seconds=wall,
        simulated_time=res.time,
        graph=f"rmat{SCALE}",
        p=NUM_PES,
        records=posted,
    )
    text = (
        f"frame wire format, rmat scale {SCALE}, p={NUM_PES}, "
        f"{posted} records\n"
        f"  packed frame exchange: {wall:8.3f} s wall\n"
    )
    save_artifact(results_dir, "frames_exchange.txt", text)
