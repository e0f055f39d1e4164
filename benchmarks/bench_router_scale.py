"""Message plane at large p: the grid router's host work per PE.

CETRIC² (grid-routed global phase) on RMAT scale 10, edge factor 16, at
p = 256 — a 16×16 grid where every proxy receives row messages from
many senders.

Asserted:

* count, simulated time, machine events, per-PE clock, message/word
  counters and buffer peaks equal the golden fingerprint
  (``tests/golden/fingerprints.json``, section ``router_scale`` →
  ``bench``), so the message plane's speed changes nothing simulated;
* exact host-work counters, where wall clock is too noisy to gate:
  each PE calls ``GridRouter._repost`` at most once (one re-post of
  the whole row inbox), each PE calls ``BufferedMessageQueue.post_many``
  at most three times (row and column post of the application batch,
  plus the re-post), and each ``post_many`` gathers with one
  ``select`` per flush segment plus one for self-addressed records.
"""

import json
import time
from collections import Counter
from pathlib import Path

import harness
from conftest import run_once, save_artifact

from repro.analysis.runner import _ENGINE_CONFIGS
from repro.analysis.tables import format_table
from repro.core.engine import counting_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import BufferedMessageQueue, GridRouter, Machine, RecordFrame

SCALE = 10
EDGE_FACTOR = 16
NUM_PES = 256
GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tests" / "golden" / "fingerprints.json").read_text()
)["router_scale"]["bench"][f"cetric2/p{NUM_PES}"]


def fingerprint(result):
    """What the golden ``router_scale`` section pins for one run."""
    per_pe = result.metrics.per_pe
    return {
        "count": result.values[0].triangles_total,
        "time": result.time,
        "events": result.events,
        "clock": [m.clock for m in per_pe],
        "messages_sent": [m.messages_sent for m in per_pe],
        "words_sent": [m.words_sent for m in per_pe],
        "messages_received": [m.messages_received for m in per_pe],
        "words_received": [m.words_received for m in per_pe],
        "peak_buffer_words": [m.peak_buffer_words for m in per_pe],
    }


class HostWork:
    """Counts the message plane's host calls while installed."""

    def __init__(self):
        self.reposts = Counter()
        self.posts = Counter()
        self.selects = 0
        self.allowed_selects = 0

    def run(self, *args):
        repost = GridRouter._repost
        post_many = BufferedMessageQueue.post_many
        router_post_many = GridRouter.post_many
        select = RecordFrame.select
        work = self

        def counted_repost(router, *a):
            work.reposts[router.ctx.rank] += 1
            return repost(router, *a)

        def counted_post_many(queue, dest_ranks, frame):
            work.posts[queue.ctx.rank] += 1
            flushes = queue.flushes
            post_many(queue, dest_ranks, frame)
            # One gather per flush segment, one for self-addressed records.
            work.allowed_selects += queue.flushes - flushes + 2

        def counted_router_post_many(router, dest_ranks, frame):
            # The split into direct and row-hop records.
            work.allowed_selects += 2
            return router_post_many(router, dest_ranks, frame)

        def counted_select(frame, idx):
            work.selects += 1
            return select(frame, idx)

        GridRouter._repost = counted_repost
        BufferedMessageQueue.post_many = counted_post_many
        GridRouter.post_many = counted_router_post_many
        RecordFrame.select = counted_select
        try:
            return Machine(NUM_PES).run(*args)
        finally:
            GridRouter._repost = repost
            BufferedMessageQueue.post_many = post_many
            GridRouter.post_many = router_post_many
            RecordFrame.select = select


def _experiment():
    dist = distribute(gen.rmat(SCALE, EDGE_FACTOR, seed=1), num_pes=NUM_PES)
    work = HostWork()
    t0 = time.perf_counter()
    res = work.run(counting_program, dist, _ENGINE_CONFIGS["cetric2"])
    wall = time.perf_counter() - t0
    return res, work, wall


def test_router_scale_host_work(benchmark, results_dir):
    res, work, wall = run_once(benchmark, _experiment)
    row = {
        "p": NUM_PES,
        "wall s": wall,
        "reposts": sum(work.reposts.values()),
        "post_many": sum(work.posts.values()),
        "selects": work.selects,
        "messages": res.metrics.total_messages,
        "simulated time": res.time,
    }
    save_artifact(results_dir, "router_scale.txt", format_table([row], list(row)))
    harness.emit(
        "router_scale",
        simulated_time=res.time,
        wall_seconds=wall,
        p=NUM_PES,
        scale=SCALE,
    )

    assert json.loads(json.dumps(fingerprint(res))) == GOLDEN
    assert max(work.reposts.values()) == 1
    assert max(work.posts.values()) <= 3
    assert work.selects <= work.allowed_selects
