"""Flat packed message frames: the one wire format of the message plane.

Everything a :class:`~repro.net.aggregation.BufferedMessageQueue` or a
:class:`~repro.net.indirect.GridRouter` buffers, sends or returns is a
*frame*: a batch of records stored struct-of-arrays, the same layout
the intersection kernels already use.  The sender builds a frame with
array ops, the wire carries a few arrays instead of one object per
record (which is also what :class:`ProcessMachine` pickles), and the
receiver feeds it straight into the batched kernels.

The frame protocol
------------------
A frame kind provides

* ``num_records`` — the number of records;
* ``record_words()`` — the charged wire size of each record, the
  quantity the aggregation queue's δ threshold is measured in;
* ``select(idx)`` — the sub-frame of the records listed in ``idx``, in
  that order, in fresh read-only arrays;
* ``slice(start, stop)`` — the records ``start:stop`` as views of the
  frame's arrays (only the CSR offsets are rebased, into a new
  read-only array);
* ``concat(parts)`` — a classmethod packing frames of that kind into
  one, in order.

Aliasing: slices share read-only buffers.  The aggregation queue
gathers a flush segment with one ``select`` and hands each destination
a ``slice`` of it, so frames sent to different PEs may be views of one
buffer; ``select`` marks its arrays read-only, so no receiver can
write through its view into a sibling's records.

Three kinds exist: :class:`RecordFrame` (a vertex and a neighborhood
per record), :class:`ForwardFrame` (any frame plus a final destination
per record, for the grid router's row hop) and
:class:`~repro.core.approx.AmqFrame` (an approximate-membership filter
in place of the neighborhood, Section IV-E).

The accounting invariant
------------------------
``RecordFrame.record_words()`` charges, per record, the neighborhood
entries plus :data:`~repro.net.messages.HEADER_WORDS` (vertex id +
length field), plus one word when the record is targeted.  A forwarded
record costs one routing word more.  The queue charges a message the
sum over its records, so simulated costs, volume metrics and flush
boundaries do not depend on how records are batched into ``post_many``
calls (see ``docs/PERFORMANCE.md``).

A broadcast record (the surrogate shape ``(v, A(v))``) stores a
``target`` of −1; a targeted record (the Algorithm 2 shape
``((v, u), A(v))``) stores the owned endpoint ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .messages import HEADER_WORDS

__all__ = [
    "BROADCAST",
    "RecordFrame",
    "ForwardFrame",
    "FrameBuilder",
    "csr_select",
    "csr_slice",
    "csr_concat",
    "freeze",
]

#: Sentinel in ``RecordFrame.targets`` marking a broadcast record.
BROADCAST = -1


def _as_i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


def freeze(*arrays: np.ndarray) -> None:
    """Mark ``arrays`` read-only (views of them are read-only too)."""
    for a in arrays:
        a.flags.writeable = False


def csr_slice(xadj: np.ndarray, values: np.ndarray, start: int, stop: int):
    """Blocks ``start:stop`` of a CSR: read-only rebased offsets and a view
    of ``values``."""
    offsets = xadj[start : stop + 1]
    lo = int(offsets[0])
    rebased = offsets - lo
    freeze(rebased)
    return rebased, values[lo : int(offsets[-1])]


def csr_select(xadj: np.ndarray, values: np.ndarray, idx: np.ndarray):
    """Blocks ``idx`` of a CSR, in that order, as a fresh ``(xadj, values)``."""
    sizes = xadj[idx + 1] - xadj[idx]
    out_xadj = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out_xadj[1:])
    total = int(out_xadj[-1])
    if not total:
        return out_xadj, values[:0].copy()
    starts = np.repeat(xadj[idx], sizes)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_xadj[:-1], sizes)
    return out_xadj, values[starts + within]


def csr_concat(xadjs: Sequence[np.ndarray], values: Sequence[np.ndarray]):
    """Concatenate CSRs block-wise into one fresh ``(xadj, values)``."""
    xadj = np.zeros(sum(x.size - 1 for x in xadjs) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(x) for x in xadjs]), out=xadj[1:])
    return xadj, np.concatenate(values)


@dataclass(frozen=True)
class RecordFrame:
    """A batch of records packed as four contiguous arrays.

    Record ``i`` is ``(vertices[i], targets[i],
    neighbors[xadj[i]:xadj[i+1]])`` with ``targets[i] == -1`` meaning
    broadcast.  Frames are frozen; ``select`` allocates fresh read-only
    arrays and ``slice`` returns views of them, so slices sent to
    different PEs of the simulated machine share read-only buffers and
    cannot write into each other's records.
    """

    vertices: np.ndarray
    targets: np.ndarray
    xadj: np.ndarray
    neighbors: np.ndarray

    @classmethod
    def empty(cls) -> "RecordFrame":
        """The zero-record frame."""
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), np.zeros(1, dtype=np.int64), z.copy())

    @classmethod
    def concat(cls, parts: Sequence["RecordFrame"]) -> "RecordFrame":
        """All records of ``parts``, in order, as one frame."""
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        xadj, neighbors = csr_concat(
            [p.xadj for p in parts], [p.neighbors for p in parts]
        )
        return cls(
            np.concatenate([p.vertices for p in parts]),
            np.concatenate([p.targets for p in parts]),
            xadj,
            neighbors,
        )

    @property
    def num_records(self) -> int:
        """Number of records in the frame."""
        return int(self.vertices.size)

    @property
    def words(self) -> int:
        """Charged wire size: the sum of :meth:`record_words`."""
        return (
            int(self.neighbors.size)
            + HEADER_WORDS * self.num_records
            + int(np.count_nonzero(self.targets >= 0))
        )

    def record_words(self) -> np.ndarray:
        """Per-record charged words (the flush-threshold quantity)."""
        return (
            np.diff(self.xadj)
            + np.int64(HEADER_WORDS)
            + (self.targets >= 0).astype(np.int64)
        )

    def select(self, idx: np.ndarray) -> "RecordFrame":
        """Sub-frame of the records listed in ``idx`` (in that order)."""
        idx = _as_i64(idx)
        xadj, neighbors = csr_select(self.xadj, self.neighbors, idx)
        out = RecordFrame(self.vertices[idx], self.targets[idx], xadj, neighbors)
        freeze(out.vertices, out.targets, out.xadj, out.neighbors)
        return out

    def slice(self, start: int, stop: int) -> "RecordFrame":
        """Records ``start:stop`` as views of this frame's arrays."""
        xadj, neighbors = csr_slice(self.xadj, self.neighbors, start, stop)
        return RecordFrame(
            self.vertices[start:stop], self.targets[start:stop], xadj, neighbors
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecordFrame({self.num_records} records, "
            f"{int(self.neighbors.size)} neighbor words)"
        )


@dataclass(frozen=True)
class ForwardFrame:
    """A frame of any kind plus a final destination per record.

    The grid router's row hop: the proxy regroups the records by
    ``final_dests`` without unpacking them.  The destination field
    costs one routing word per record.
    """

    final_dests: np.ndarray
    #: The forwarded records (any frame kind).
    frame: Any

    @classmethod
    def concat(cls, parts: Sequence["ForwardFrame"]) -> "ForwardFrame":
        """All records of ``parts`` (which share an inner kind), in order."""
        if len(parts) == 1:
            return parts[0]
        inner = type(parts[0].frame)
        return cls(
            np.concatenate([p.final_dests for p in parts]),
            inner.concat([p.frame for p in parts]),
        )

    @property
    def num_records(self) -> int:
        """Number of records in the frame."""
        return int(self.final_dests.size)

    def record_words(self) -> np.ndarray:
        """Per-record words: the inner record plus the routing word."""
        return self.frame.record_words() + np.int64(1)

    def select(self, idx: np.ndarray) -> "ForwardFrame":
        """Sub-frame of the records listed in ``idx`` (in that order)."""
        idx = _as_i64(idx)
        final_dests = self.final_dests[idx]
        freeze(final_dests)
        return ForwardFrame(final_dests, self.frame.select(idx))

    def slice(self, start: int, stop: int) -> "ForwardFrame":
        """Records ``start:stop`` as views of this frame's arrays."""
        return ForwardFrame(self.final_dests[start:stop], self.frame.slice(start, stop))


class FrameBuilder:
    """Buffers frames of one kind and packs them into one on :meth:`build`."""

    def __init__(self) -> None:
        self._parts: list = []

    def append(self, frame) -> None:
        """Buffer ``frame`` behind everything appended so far."""
        self._parts.append(frame)

    def build(self):
        """Everything appended so far as one frame (and reset).

        At least one frame must have been appended: the builder takes
        the frame kind from the first one.
        """
        parts, self._parts = self._parts, []
        return type(parts[0]).concat(parts)
