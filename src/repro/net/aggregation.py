"""Dynamic buffered message queues (paper Section IV-A).

DITRIC's message aggregation: each PE keeps one growable buffer per
communication partner and appends application *records* (a vertex id
plus its out-neighborhood) to them.  When the total buffered size
exceeds a threshold ``delta``, all buffers are flushed as one
aggregated message per destination, implemented in the real system
with double buffering over non-blocking sends.

Setting ``delta = O(|E_i|)`` bounds the memory used for aggregation by
the local input size — the paper's linear-memory guarantee, in contrast
to TriC's static single-shot buffers (reproduced in
:mod:`repro.baselines.tric`) which can exceed memory because the
*total* communication volume is superlinear.

In the simulation a non-blocking send completes instantly at
alpha+beta*l model cost, so double buffering has no separate timing
effect; what the queue faithfully reproduces is message *counts*,
aggregated message *sizes*, and the buffer high-water mark (the
memory claim).

A ``threshold_words`` of 0 degenerates to one message per record —
exactly the "no aggregation" configuration of Fig. 2.

Wire format
-----------
The queue buffers, sends and returns only frames
(:mod:`repro.net.frames`).  :meth:`BufferedMessageQueue.post_many`
appends whole sub-frames per destination without ever materializing
per-record objects; each flushed message is one frame, the
concatenation of everything buffered for its destination.  Flush
boundaries are computed from the per-record cumulative word counts, so
message counts, sizes, and the buffer high-water mark are the same as
if the records were posted one at a time (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from .comm import barrier, drain
from .frames import FrameBuilder
from .machine import PEContext
from .messages import Tag

__all__ = ["BufferedMessageQueue"]


class BufferedMessageQueue:
    """Per-destination aggregation buffers with a global flush threshold.

    Parameters
    ----------
    ctx:
        The owning PE's context.
    tag:
        Tag for the aggregated messages.
    threshold_words:
        Flush when the *total* buffered words exceed this (the paper's
        ``delta``).  0 means flush on every post (no aggregation).
    """

    def __init__(self, ctx: PEContext, tag: Tag, threshold_words: int):
        if threshold_words < 0:
            raise ValueError("threshold must be non-negative")
        self.ctx = ctx
        self.tag = tag
        self.threshold_words = int(threshold_words)
        self._builders: dict[int, FrameBuilder] = {}
        self._buffer_words: dict[int, int] = {}
        self._total_words = 0
        self._local: list = []
        self.flushes = 0
        self.records_posted = 0

    @property
    def buffered_words(self) -> int:
        """Current total buffered size ``B = sum_j |B_j|``."""
        return self._total_words

    def post(self, dest: int, frame) -> None:
        """Post every record of ``frame`` to ``dest`` (see :meth:`post_many`)."""
        self.post_many(np.full(frame.num_records, dest, dtype=np.int64), frame)

    def post_many(self, dest_ranks: np.ndarray, frame) -> None:
        """Post record ``i`` of ``frame`` to ``dest_ranks[i]``, for every ``i``.

        ``frame`` is any frame kind (:mod:`repro.net.frames`).  Records
        addressed to the posting PE itself bypass the network (handed
        back by :meth:`finalize` at zero wire cost).  The rest are
        appended to the buffers ``B_dest`` in batch order, and the queue
        flushes whenever the total buffered words exceed the threshold.

        Equivalent to posting the records one at a time in batch order —
        same flush boundaries, per-destination record order, buffer
        high-water marks, and wire words — without a Python loop over
        records.  Flush boundaries are found by ``searchsorted`` on the
        cumulative word counts; each threshold-crossing record closes a
        segment whose per-destination sub-frames are appended to the
        frame builders.
        """
        dest_ranks = np.asarray(dest_ranks, dtype=np.int64)
        k = int(dest_ranks.size)
        if k == 0:
            return
        self.records_posted += k

        self_mask = dest_ranks == self.ctx.rank
        if np.any(self_mask):
            self._local.append(frame.select(np.flatnonzero(self_mask)))

        ridx = np.flatnonzero(~self_mask)
        n = int(ridx.size)
        if n == 0:
            return
        dests = dest_ranks[ridx]
        rw = frame.record_words()[ridx]
        cw = np.cumsum(rw)

        start = 0
        prev = 0  # cumulative words consumed by earlier segments
        base = self._total_words
        while start < n:
            # First record whose cumulative total strictly exceeds the
            # threshold closes the segment (the one-record-at-a-time rule).
            end = int(np.searchsorted(cw, self.threshold_words - base + prev, "right"))
            crosses = end < n
            stop = end + 1 if crosses else n
            self._append_segment(frame, ridx[start:stop], dests[start:stop], rw[start:stop])
            self._total_words = base + int(cw[stop - 1]) - prev
            # Running totals rise monotonically within a segment, so one
            # high-water sample at the segment end equals per-post sampling.
            self.ctx.metrics.note_buffer(self._total_words)
            if not crosses:
                break
            self.flush()
            base = 0
            prev = int(cw[end])
            start = stop

    def _append_segment(self, frame, idx, dests, rw) -> None:
        """Append one flush segment's records to per-destination builders.

        One ``select`` gathers the segment grouped by destination (stable,
        so each destination keeps batch order); every destination's
        builder then gets a ``slice`` of that read-only gather.
        """
        order = np.argsort(dests, kind="stable")
        d_sorted = dests[order]
        grouped = frame.select(idx[order])
        cw = [0, *np.cumsum(rw[order]).tolist()]
        bounds = (np.flatnonzero(np.diff(d_sorted)) + 1).tolist()
        starts = [0, *bounds]
        ends = [*bounds, int(order.size)]
        for dest, s, e in zip(d_sorted[starts].tolist(), starts, ends):
            self._builders.setdefault(dest, FrameBuilder()).append(grouped.slice(s, e))
            self._buffer_words[dest] = self._buffer_words.get(dest, 0) + cw[e] - cw[s]

    def flush(self) -> None:
        """Send every non-empty buffer as one aggregated message.

        Each destination's buffered records leave as one frame.  These
        sends use the machine's configured transport, so under a
        :mod:`repro.faults` plan the reliable layer sequences and
        retransmits them — fault-tolerant programs may use the queue
        freely (no :func:`~repro.net.reliable.reliable_send` wrapper
        needed; lint rule R5 only patrols hand-written ``ctx.send``).
        """
        if not self._builders:
            return
        for dest in sorted(self._builders):
            payload = self._builders[dest].build()
            self.ctx.send(dest, self.tag, payload, self._buffer_words[dest])
        self._builders = {}
        self._buffer_words = {}
        self._total_words = 0
        self.flushes += 1

    def finalize(self) -> Generator[None, None, list]:
        """Flush remaining buffers, synchronize, and drain received frames.

        The barrier plays the role of NBX termination detection: after
        it completes, every PE has posted (and, in the simulation,
        delivered) all its sends, so the inbox drain is complete.
        Must be called by all PEs (collectively).

        Returns the received frames as a list: the messages in arrival
        order, then the self-posted sub-frames in post order.  Callers
        that need one frame call ``concat`` of the frame kind, e.g.
        ``RecordFrame.concat(frames)``.
        """
        self.flush()
        # NBX discipline (see sparse_alltoall): our flushed frames must
        # finish delivery before the barrier concludes the exchange.
        yield from self.ctx.sync_sends()
        yield from barrier(self.ctx)
        frames = [msg.payload for msg in drain(self.ctx, self.tag)]
        frames.extend(self._local)
        self._local = []
        return frames
