"""Property-style suite for the packed frame wire format.

The contract under test (``docs/PERFORMANCE.md``): a frame charges the
sum of its per-record words, ``select``/``concat`` preserve record
order, and the aggregation queue's frame path reproduces the outcomes of
posting one record at a time — same received contents, same charged
words, same flush boundaries — on the simulated :class:`Machine` and on
the real process backend :class:`ProcessMachine`.  The one-record-at-a-
time outcomes are pinned in the ``queue_reference`` section of
``tests/golden/fingerprints.json``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amq import BloomFilter
from repro.core.approx import AmqFrame
from repro.net import (
    HEADER_WORDS,
    BufferedMessageQueue,
    ForwardFrame,
    FrameBuilder,
    Machine,
    RecordFrame,
)
from repro.net.frames import BROADCAST
from repro.net.parallel import ProcessMachine

QUEUE_REFERENCE = json.loads(
    (Path(__file__).parent / "golden" / "fingerprints.json").read_text()
)["queue_reference"]


def _random_batch(rng, num_pes, n):
    """A messy record batch: mixed shapes, empty neighborhoods, self posts."""
    dests = rng.integers(0, num_pes, size=n).astype(np.int64)
    vertices = rng.integers(0, 500, size=n).astype(np.int64)
    # Roughly half broadcast (-1), half targeted.
    targets = np.where(
        rng.random(n) < 0.5, BROADCAST, rng.integers(0, 500, size=n)
    ).astype(np.int64)
    sizes = rng.integers(0, 7, size=n).astype(np.int64)  # includes empty
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    neighbors = rng.integers(0, 1000, size=int(xadj[-1])).astype(np.int64)
    return dests, RecordFrame(vertices, targets, xadj, neighbors)


def _canon(frame):
    """Order-preserving canonical form of a frame's records."""
    return [
        (
            int(frame.vertices[i]),
            int(frame.targets[i]),
            tuple(frame.neighbors[frame.xadj[i] : frame.xadj[i + 1]].tolist()),
        )
        for i in range(frame.num_records)
    ]


# ---------------------------------------------------------------------------
# Pure frame properties (no machine).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_frame_words_equal_record_word_sum(seed):
    rng = np.random.default_rng(seed)
    _, frame = _random_batch(rng, 4, 40)
    per_record = [
        len(nbh) + HEADER_WORDS + (1 if t != BROADCAST else 0)
        for _, t, nbh in _canon(frame)
    ]
    assert frame.record_words().tolist() == per_record
    assert frame.words == sum(per_record)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_concat_roundtrip_and_select(seed):
    rng = np.random.default_rng(seed)
    _, frame = _random_batch(rng, 4, 25)
    singles = [frame.select([i]) for i in range(frame.num_records)]
    assert _canon(RecordFrame.concat(singles)) == _canon(frame)
    idx = np.sort(rng.permutation(frame.num_records)[:10])
    sub = frame.select(idx)
    assert _canon(sub) == [_canon(frame)[i] for i in idx]
    assert sub.words == sum(frame.record_words()[idx])


def test_concat_preserves_order_and_words():
    rng = np.random.default_rng(7)
    frames = [_random_batch(rng, 4, 10)[1] for _ in range(3)]
    merged = RecordFrame.concat(frames)
    assert _canon(merged) == [r for f in frames for r in _canon(f)]
    assert merged.words == sum(f.words for f in frames)
    assert RecordFrame.concat([]).num_records == 0


def test_builder_matches_concat():
    rng = np.random.default_rng(11)
    _, frame = _random_batch(rng, 4, 20)
    b = FrameBuilder()
    for lo, hi in ((0, 3), (3, 4), (4, 20)):
        b.append(frame.select(np.arange(lo, hi)))
    assert _canon(b.build()) == _canon(frame)


def test_forward_frame_charges_routing_word_and_keeps_order():
    rng = np.random.default_rng(13)
    _, frame = _random_batch(rng, 4, 12)
    fwd = ForwardFrame(np.arange(12, dtype=np.int64) % 3, frame)
    assert fwd.record_words().tolist() == (frame.record_words() + 1).tolist()
    parts = [fwd.select(np.arange(0, 5)), fwd.select(np.arange(5, 12))]
    again = ForwardFrame.concat(parts)
    assert again.final_dests.tolist() == fwd.final_dests.tolist()
    assert _canon(again.frame) == _canon(frame)


def _amq_frame(rng, n):
    """An ``AmqFrame`` with random target lists and one filter per record."""
    sizes = rng.integers(0, 5, size=n).astype(np.int64)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    filters = np.empty(n, dtype=object)
    for i in range(n):
        filters[i] = BloomFilter.for_elements(int(sizes[i]) + 1, seed=i)
    return AmqFrame(
        rng.integers(0, 500, size=n).astype(np.int64),
        xadj,
        rng.integers(0, 500, size=int(xadj[-1])).astype(np.int64),
        filters,
    )


def _frames_of_every_kind(n, seed=17):
    rng = np.random.default_rng(seed)
    _, records = _random_batch(rng, 4, n)
    amq = _amq_frame(rng, n)
    dests = rng.integers(0, 9, size=n).astype(np.int64)
    return {
        "record": records,
        "amq": amq,
        "forward-record": ForwardFrame(dests, records),
        "forward-amq": ForwardFrame(dests, amq),
    }


def _columns(frame):
    """Every array of a frame, nested frames flattened, in field order."""
    out = []
    for field in dataclasses.fields(frame):
        value = getattr(frame, field.name)
        out.extend([value] if isinstance(value, np.ndarray) else _columns(value))
    return out


def _same_column(a, b):
    if a.dtype == object:
        return b.dtype == object and [id(x) for x in a] == [id(x) for x in b]
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["record", "amq", "forward-record", "forward-amq"])
def test_slice_equals_select_of_range(kind):
    n = 13
    frame = _frames_of_every_kind(n)[kind]
    for start, stop in ((0, 0), (5, 5), (n, n), (0, 1), (4, 5), (n - 1, n), (3, 9), (0, n)):
        got = frame.slice(start, stop)
        want = frame.select(np.arange(start, stop))
        assert type(got) is type(want)
        assert got.num_records == stop - start
        assert got.record_words().tolist() == want.record_words().tolist()
        got_cols, want_cols = _columns(got), _columns(want)
        assert len(got_cols) == len(want_cols)
        for g, w in zip(got_cols, want_cols):
            assert _same_column(g, w), (kind, start, stop)


@pytest.mark.parametrize("kind", ["record", "amq", "forward-record", "forward-amq"])
def test_shared_buffers_are_read_only(kind):
    """Slices of one gather are views of it: none of them can be written."""
    frame = _frames_of_every_kind(13)[kind]
    grouped = frame.select(np.arange(12, -1, -1))
    for view in (grouped, grouped.slice(0, 4), grouped.slice(4, 13)):
        for column in _columns(view):
            if column.size == 0:
                continue
            with pytest.raises(ValueError):
                column[0] = column[-1]


def test_frames_sent_by_the_queue_are_read_only():
    """Two destinations of one flush segment share a buffer but cannot
    write into each other's records."""

    def prog(ctx):
        q = BufferedMessageQueue(ctx, "ro", threshold_words=10_000)
        if ctx.rank == 0:
            rng = np.random.default_rng(3)
            _, frame = _random_batch(rng, 3, 12)
            q.post_many(np.arange(12, dtype=np.int64) % 2 + 1, frame)
        frames = yield from q.finalize()
        return [
            not col.flags.writeable
            for f in frames
            for col in (f.vertices, f.targets, f.neighbors)
        ]

    res = Machine(3).run(prog)
    assert res.values[0] == []
    assert res.values[1] and all(res.values[1])
    assert res.values[2] and all(res.values[2])


# ---------------------------------------------------------------------------
# Machine: the frame path reproduces one-record-at-a-time posting.
# ---------------------------------------------------------------------------

#: Thresholds covering no aggregation, frequent mid-run flushes, and a
#: single big flush at finalize.
THRESHOLDS = [0, 25, 10_000]


def exchange_program(ctx, seed, threshold, mode, n=60):
    """Post a pseudo-random batch and drain.

    ``mode`` "frames" posts the batch with one ``post_many``; "legacy"
    keeps the one-record-at-a-time calling pattern, one ``post`` per
    record.
    """
    rng = np.random.default_rng(seed * 1000 + ctx.rank)
    dests, frame = _random_batch(rng, ctx.num_pes, n)
    q = BufferedMessageQueue(ctx, "t", threshold_words=threshold)
    if mode == "frames":
        q.post_many(dests, frame)
    else:
        for i, dest in enumerate(dests.tolist()):
            q.post(dest, frame.select([i]))
    flushes = q.flushes
    received = RecordFrame.concat((yield from q.finalize()))
    return (flushes, _canon(received), q.records_posted)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def queue_key(num_pes, n, seed, threshold) -> str:
    """Key of one ``exchange_program`` run in ``queue_reference``."""
    return f"p{num_pes}/n{n}/s{seed}/t{threshold}"


def queue_fingerprint(result):
    """What ``queue_reference`` pins of one ``exchange_program`` run.

    Received records as digests of the arrival-ordered and of the
    sorted canonical sequence (a process backend may interleave
    sources differently), plus the exact charges.
    """
    per_pe = result.metrics.per_pe
    return {
        "flushes": [v[0] for v in result.values],
        "records_posted": [v[2] for v in result.values],
        "num_received": [len(v[1]) for v in result.values],
        "received": [_digest(v[1]) for v in result.values],
        "received_sorted": [_digest(sorted(v[1])) for v in result.values],
        "time": result.time,
        "messages_sent": [m.messages_sent for m in per_pe],
        "words_sent": [m.words_sent for m in per_pe],
        "peak_buffer_words": [m.peak_buffer_words for m in per_pe],
    }


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_machine_frame_path_is_bit_identical_to_legacy(seed, threshold):
    frames = Machine(4).run(exchange_program, seed, threshold, "frames")
    # Same received contents in the same order, same flush boundaries,
    # same per-record bookkeeping, same words, messages, buffer peaks
    # and simulated time as one post per record.
    assert queue_fingerprint(frames) == QUEUE_REFERENCE[queue_key(4, 60, seed, threshold)]


@pytest.mark.parametrize("seed", [1, 2])
def test_machine_equivalence_with_empty_and_self_only_batches(seed):
    def prog(ctx, mode):
        q = BufferedMessageQueue(ctx, "t", threshold_words=50)
        mine = RecordFrame(
            np.array([9], dtype=np.int64),
            np.array([BROADCAST], dtype=np.int64),
            np.array([0, 2], dtype=np.int64),
            np.array([4, 5], dtype=np.int64),
        )
        if mode == "frames":
            # Empty batch, then a self-post-only batch.
            q.post_many(np.empty(0, dtype=np.int64), RecordFrame.empty())
            q.post_many(np.array([ctx.rank], dtype=np.int64), mine)
        else:
            q.post(ctx.rank, mine)
        received = RecordFrame.concat((yield from q.finalize()))
        return _canon(received)

    for mode in ("frames", "legacy"):
        res = Machine(3).run(prog, mode)
        assert res.values == [[(9, BROADCAST, (4, 5))]] * 3


# ---------------------------------------------------------------------------
# Kernel totals: a frame counts what its records count one at a time.
# ---------------------------------------------------------------------------


def _sorted_blocks(rng, n, universe, max_size):
    """CSR of ``n`` sorted-unique blocks over ``[0, universe)``."""
    chunks = [
        np.sort(rng.choice(universe, size=int(s), replace=False)).astype(np.int64)
        for s in rng.integers(0, max_size, size=n)
    ]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([c.size for c in chunks], out=xadj[1:])
    return xadj, np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_count_record_pairs_frame_equals_record_list(seed):
    from repro.core.kernels import count_record_pairs

    rng = np.random.default_rng(seed)
    n = 30
    xadj, neighbors = _sorted_blocks(rng, n, 100, 7)
    # Targets clamped into the receiver's local window [0, 50).
    targets = np.where(
        rng.random(n) < 0.5, BROADCAST, rng.integers(0, 50, size=n)
    ).astype(np.int64)
    frame = RecordFrame(rng.integers(0, 500, size=n).astype(np.int64), targets, xadj, neighbors)
    lx, ladj = _sorted_blocks(rng, 50, 100, 6)

    # The record list, one record at a time: a targeted record pairs
    # with its target, a broadcast one with every local neighbor.
    expected = 0
    for _, t, nbh in _canon(frame):
        owned = [t] if t != BROADCAST else [u for u in nbh if u < 50]
        for u in owned:
            expected += len(set(nbh) & set(ladj[lx[u] : lx[u + 1]].tolist()))

    def prog(ctx):
        return count_record_pairs(ctx, frame, lx, ladj, 0, 50, 101)
        yield  # pragma: no cover

    assert Machine(1).run(prog).values == [expected]


# ---------------------------------------------------------------------------
# ProcessMachine: the frame path survives real pickling across processes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["legacy", "frames"])
def test_process_machine_exchange_matches_simulator(mode):
    sim = Machine(2).run(exchange_program, 4, 25, mode, 30)
    par = ProcessMachine(2).run(exchange_program, 4, 25, mode, 30)
    assert queue_fingerprint(sim) == QUEUE_REFERENCE[queue_key(2, 30, 4, 25)]
    # Contents are set-identical per PE (real delivery may interleave
    # sources differently); flush counts and words are exact.
    for (sf, sc, sp), (pf, pc, pp) in zip(sim.values, par.values):
        assert sf == pf
        assert sp == pp
        assert sorted(sc) == sorted(pc)
    for sm, pm in zip(sim.metrics.per_pe, par.metrics.per_pe):
        assert sm.words_sent == pm.words_sent
        assert sm.messages_sent == pm.messages_sent


def test_process_machine_frame_path_matches_legacy_words():
    frames = ProcessMachine(2).run(exchange_program, 9, 25, "frames", 30)
    want = QUEUE_REFERENCE[queue_key(2, 30, 9, 25)]
    for rank, (f, c, posted) in enumerate(frames.values):
        assert (f, posted) == (want["flushes"][rank], want["records_posted"][rank])
        assert _digest(sorted(c)) == want["received_sorted"][rank]
    assert [m.words_sent for m in frames.metrics.per_pe] == want["words_sent"]
    assert [m.messages_sent for m in frames.metrics.per_pe] == want["messages_sent"]
