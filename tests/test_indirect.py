"""Tests for grid-based indirect message delivery (Section IV-B)."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.analysis.runner import _ENGINE_CONFIGS
from repro.core.engine import counting_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import (
    BufferedMessageQueue,
    ForwardFrame,
    Grid,
    GridRouter,
    Machine,
    RecordFrame,
)
from repro.net.frames import BROADCAST


def _rec(v, size=2):
    """A one-record broadcast frame ``(v, [0, size))``."""
    return RecordFrame(
        np.array([v], dtype=np.int64),
        np.array([BROADCAST], dtype=np.int64),
        np.array([0, size], dtype=np.int64),
        np.arange(size, dtype=np.int64),
    )


# ---------------------------------------------------------------- Grid
def test_grid_columns_round_to_nearest_sqrt():
    assert Grid.of(16).cols == 4
    assert Grid.of(17).cols == 4
    assert Grid.of(12).cols == 3  # floor(sqrt(12)+0.5) = floor(3.96) = 3
    assert Grid.of(7).cols == 3
    assert Grid.of(2).cols == 1
    assert Grid.of(1).cols == 1


def test_grid_rows_cover_all_pes():
    for p in range(1, 40):
        g = Grid.of(p)
        assert g.rows * g.cols >= p
        assert (g.rows - 1) * g.cols < p


def test_position_rank_roundtrip():
    g = Grid.of(13)
    for rank in range(13):
        r, c = g.position(rank)
        assert g.rank_at(r, c) == rank
    with pytest.raises(ValueError):
        g.position(13)
    with pytest.raises(ValueError):
        g.rank_at(0, g.cols)


def test_proxy_same_row_or_column_is_direct():
    g = Grid.of(16)  # 4x4
    assert g.proxy(0, 3) == 3  # same row
    assert g.proxy(0, 12) == 12  # same column
    assert g.proxy(5, 5) == 5


def test_proxy_two_hop_geometry():
    g = Grid.of(16)  # 4x4
    # src (0,1)=1 -> dest (2,3)=11: proxy = (0,3)=3
    assert g.proxy(1, 11) == 3
    # proxy shares the row of src and the column of dest
    pr, pc = g.position(3)
    assert pr == g.position(1)[0]
    assert pc == g.position(11)[1]


def test_proxy_partial_last_row_transposition():
    # p=7 -> 3x3 grid with last row = {6} only.
    g = Grid.of(7)
    # src 6 = (2,0); dest 5 = (1,2). Natural proxy (2,2)=8 doesn't exist;
    # transposed: src column 0 -> proxy = (0,2) = 2.
    assert g.proxy(6, 5) == 2
    # Reverse direction works without the fix (5 -> 6 proxy (1,0)=3).
    assert g.proxy(5, 6) == 3


def test_proxy_never_returns_invalid_pe():
    for p in (2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 23):
        g = Grid.of(p)
        for s in range(p):
            for d in range(p):
                hop = g.proxy(s, d)
                assert 0 <= hop < p


def test_max_peers_bounded_by_grid_dims():
    """Each PE's possible first hops lie in its row/virtual row — O(sqrt p)."""
    for p in (9, 16, 25, 36):
        g = Grid.of(p)
        for s in range(p):
            hops = {g.proxy(s, d) for d in range(p) if d != s}
            assert len(hops) <= g.rows + g.cols


# ---------------------------------------------------------------- Router
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 25])
def test_router_delivers_exactly_once(p):
    def prog(ctx):
        r = GridRouter(ctx, "x", threshold_words=64)
        for d in range(p):
            r.post(d, _rec(ctx.rank * 100 + d))
        recs = RecordFrame.concat((yield from r.finalize()))
        return sorted(recs.vertices.tolist())

    res = Machine(p).run(prog)
    for rank, got in enumerate(res.values):
        assert got == sorted(s * 100 + rank for s in range(p))


def test_router_reduces_peer_count_on_hotspot():
    """All PEs message PE 0: direct => p-1 senders hit it; grid => sqrt(p)."""
    p = 16

    def direct(ctx):
        from repro.net import BufferedMessageQueue

        q = BufferedMessageQueue(ctx, "d", threshold_words=10_000)
        if ctx.rank != 0:
            q.post(0, _rec(ctx.rank))
        yield from q.finalize()
        return None

    def indirect(ctx):
        r = GridRouter(ctx, "i", threshold_words=10_000)
        if ctx.rank != 0:
            r.post(0, _rec(ctx.rank))
        yield from r.finalize()
        return None

    res_d = Machine(p).run(direct)
    res_i = Machine(p).run(indirect)
    log_p = int(math.log2(p))
    # Subtract barrier control traffic: one dissemination barrier for the
    # direct queue, two (row + column) for the grid router.
    data_direct = res_d.metrics.per_pe[0].messages_received - log_p
    data_indirect = res_i.metrics.per_pe[0].messages_received - 2 * log_p
    assert data_direct == p - 1
    # Grid: same-row senders post directly (3 on a 4x4 grid), other rows
    # funnel through one proxy each (3 proxies) => 6 instead of 15.
    assert data_indirect <= 2 * (int(math.sqrt(p)) - 1)


def test_router_at_most_doubles_volume():
    p = 9

    def prog(ctx):
        r = GridRouter(ctx, "x", threshold_words=10_000)
        for d in range(p):
            if d != ctx.rank:
                r.post(d, _rec(d, size=8))
        yield from r.finalize()
        return None

    res = Machine(p).run(prog)
    vol = res.metrics.total_volume
    rec_words = _rec(0, 8).words
    direct_vol = p * (p - 1) * rec_words
    # two hops max, plus the 1-word forward header and barrier traffic
    assert vol <= 2 * direct_vol + p * (p - 1) * 2 + 200


def test_forward_record_words():
    fr = ForwardFrame(np.array([3], dtype=np.int64), _rec(0, size=4))
    assert fr.record_words().tolist() == [_rec(0, size=4).words + 1]


def test_router_records_posted_counter():
    def prog(ctx):
        r = GridRouter(ctx, "x", threshold_words=64)
        # On a 2x2 grid rank+1 is a direct (same row) or a row-hop
        # destination depending on the rank: both count.
        r.post((ctx.rank + 1) % ctx.num_pes, _rec(1))
        r.post_many(np.array([0, 3], dtype=np.int64), RecordFrame.concat([_rec(2), _rec(3)]))
        posted = r.records_posted
        yield from r.finalize()
        return posted

    res = Machine(4).run(prog)
    assert res.values == [3, 3, 3, 3]


# ------------------------------------------------- Host work per proxy
def _cetric2_run(p):
    dist = distribute(gen.rmat(9, 8, seed=3), num_pes=p)
    return Machine(p).run(counting_program, dist, _ENGINE_CONFIGS["cetric2"])


@pytest.mark.parametrize("p", [10, 27])
def test_proxy_reposts_once_and_queues_post_three_times(monkeypatch, p):
    """Exact host-work counters: one re-post per proxy, and per PE at most
    the row and column post of the application batch plus that re-post."""
    reposts, posts = Counter(), Counter()
    repost, post_many = GridRouter._repost, BufferedMessageQueue.post_many

    def counted_repost(self, *args):
        reposts[self.ctx.rank] += 1
        return repost(self, *args)

    def counted_post_many(self, *args):
        posts[self.ctx.rank] += 1
        return post_many(self, *args)

    monkeypatch.setattr(GridRouter, "_repost", counted_repost)
    monkeypatch.setattr(BufferedMessageQueue, "post_many", counted_post_many)
    _cetric2_run(p)
    assert sum(reposts.values()) == p  # every PE finalizes its router once
    assert max(reposts.values()) == 1
    assert max(posts.values()) <= 3


def test_proxy_drops_row_inbox_before_column_hop(monkeypatch):
    """The row inbox must be garbage once the column hop starts: holding
    it across the column barrier keeps every forwarded frame alive."""
    refs: dict[int, list] = {}
    leaked: dict[int, int] = {}
    repost, finalize = GridRouter._repost, BufferedMessageQueue.finalize

    def tracked_repost(self, inbox):
        refs[self.ctx.rank] = [weakref.ref(f) for f in inbox]
        return repost(self, inbox)

    def checked_finalize(self):
        if self.tag[0] == "grid-col":
            gc.collect()
            leaked[self.ctx.rank] = sum(r() is not None for r in refs[self.ctx.rank])
        return (yield from finalize(self))

    monkeypatch.setattr(GridRouter, "_repost", tracked_repost)
    monkeypatch.setattr(BufferedMessageQueue, "finalize", checked_finalize)
    _cetric2_run(10)
    assert sum(len(r) for r in refs.values()) > 0  # proxies did receive frames
    assert leaked == dict.fromkeys(range(10), 0)
