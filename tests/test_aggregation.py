"""Tests for the dynamic buffered message queue (Section IV-A)."""

import numpy as np
import pytest

from repro.net import BufferedMessageQueue, HEADER_WORDS, Machine, RecordFrame
from repro.net.frames import BROADCAST


def _rec(v, size=3, target=BROADCAST):
    """A one-record frame ``(v, target, [0, size))``."""
    return RecordFrame(
        np.array([v], dtype=np.int64),
        np.array([target], dtype=np.int64),
        np.array([0, size], dtype=np.int64),
        np.arange(size, dtype=np.int64),
    )


def test_record_words():
    assert _rec(0, 5).words == 5 + HEADER_WORDS
    assert _rec(0, 5, target=7).words == 5 + HEADER_WORDS + 1
    assert _rec(0, 0).words == HEADER_WORDS
    assert _rec(0, 5, target=7).record_words().tolist() == [5 + HEADER_WORDS + 1]


def test_no_aggregation_sends_one_message_per_record():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=0)
        if ctx.rank == 0:
            for i in range(5):
                q.post(1, _rec(i))
        recs = RecordFrame.concat((yield from q.finalize()))
        return recs.num_records

    res = Machine(2).run(prog)
    assert res.values[1] == 5
    assert res.metrics.per_pe[0].messages_sent >= 5  # one per record (+barrier)


def test_aggregation_batches_into_single_message():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=10_000)
        if ctx.rank == 0:
            for i in range(50):
                q.post(1, _rec(i))
        recs = RecordFrame.concat((yield from q.finalize()))
        return recs.num_records

    res = Machine(2).run(prog)
    assert res.values[1] == 50
    # 1 data message + barrier traffic.
    data_msgs = res.metrics.per_pe[0].messages_sent
    import math

    assert data_msgs == 1 + math.ceil(math.log2(2))


def test_threshold_triggers_flush():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=3 * _rec(0).words)
        if ctx.rank == 0:
            for i in range(10):
                q.post(1, _rec(i))
            flushes_before_finalize = q.flushes
        else:
            flushes_before_finalize = 0
        yield from q.finalize()
        return flushes_before_finalize

    res = Machine(2).run(prog)
    assert res.values[0] >= 2  # multiple mid-run flushes


def test_buffer_high_water_mark_bounded_by_threshold():
    def prog(ctx):
        threshold = 40
        q = BufferedMessageQueue(ctx, "t", threshold_words=threshold)
        if ctx.rank == 0:
            for i in range(100):
                q.post(1, _rec(i))
        yield from q.finalize()
        return None

    res = Machine(2).run(prog)
    peak = res.metrics.per_pe[0].peak_buffer_words
    # Peak exceeds the threshold by at most one record (flush happens
    # right after the overflowing post) -- the linear-memory guarantee.
    assert peak <= 40 + _rec(0).words


def test_self_posts_bypass_network():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=100)
        q.post(ctx.rank, _rec(42))
        recs = RecordFrame.concat((yield from q.finalize()))
        return recs.vertices.tolist()

    res = Machine(3).run(prog)
    assert res.values == [[42]] * 3
    for m in res.metrics.per_pe:
        # only barrier traffic
        assert m.words_sent <= 2 * 2


def test_records_keep_payload_integrity():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=0)
        if ctx.rank == 0:
            q.post(
                1,
                RecordFrame(
                    np.array([7], dtype=np.int64),
                    np.array([BROADCAST], dtype=np.int64),
                    np.array([0, 3], dtype=np.int64),
                    np.array([1, 4, 9], dtype=np.int64),
                ),
            )
        recs = RecordFrame.concat((yield from q.finalize()))
        if ctx.rank == 1:
            assert recs.num_records == 1
            return (int(recs.vertices[0]), recs.neighbors.tolist())
        return None

    res = Machine(2).run(prog)
    assert res.values[1] == (7, [1, 4, 9])


def test_negative_threshold_rejected():
    def prog(ctx):
        with pytest.raises(ValueError):
            BufferedMessageQueue(ctx, "t", threshold_words=-1)
        return None
        yield  # pragma: no cover

    Machine(1).run(prog)


def test_volume_matches_record_words():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=10_000)
        if ctx.rank == 0:
            for i in range(10):
                q.post(1, _rec(i, size=4))
        yield from q.finalize()
        return None

    res = Machine(2).run(prog)
    sent = res.metrics.per_pe[0].words_sent
    expected = 10 * (4 + HEADER_WORDS)
    # plus barrier control words
    assert sent == expected + 1


@pytest.mark.parametrize("with_self", [False, True])
def test_post_many_without_flush_gathers_once(monkeypatch, with_self):
    """One ``select`` per flush segment (plus one for self-addressed
    records), however many destinations the segment spans."""
    selects = []
    select = RecordFrame.select

    def counted_select(self, idx):
        selects.append(len(idx))
        return select(self, idx)

    monkeypatch.setattr(RecordFrame, "select", counted_select)
    p = 6

    def prog(ctx):
        q = BufferedMessageQueue(ctx, "g", threshold_words=10_000)
        if ctx.rank == 0:
            dests = np.array([5, 1, 3, 1, 2, 5, 4, 3, 4, 2], dtype=np.int64)
            if with_self:
                dests[8] = 0
            frame = RecordFrame.concat([_rec(v) for v in range(dests.size)])
            selects.clear()
            q.post_many(dests, frame)
            assert q.flushes == 0
        yield from q.finalize()
        return None

    Machine(p).run(prog)
    assert selects == ([1, 9] if with_self else [10])
