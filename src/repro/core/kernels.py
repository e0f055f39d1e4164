"""Batched counting kernels shared by all distributed algorithms.

Each helper performs many ``|A ∩ B|`` intersections in one vectorized
batch (per the HPC-Python guidance) and charges the merge-model cost to
the PE's simulated clock.  Work is chunked so temporary arrays stay
bounded even when a PE processes millions of arc pairs.

Received record batches arrive as a
:class:`~repro.net.frames.RecordFrame` — already in the CSR layout the
batch kernels consume — so the receiver side runs without any
per-record Python iteration.

The ``csr_intersect_*`` dispatchers read both sides of every pair in
place — the local CSR and the received frame's record CSR, indexed
through slot arrays — so nothing here copies a neighborhood before it
is intersected.  They run the kernel backend selected via
:mod:`repro.core.backends` (``REPRO_KERNEL_BACKEND`` /
``repro-tc --kernel-backend``): the compiled C kernels of ``native``
by default, or ``numpy``.  The charged ops are computed by the
dispatcher before any backend runs, so everything in this module is
backend-agnostic — see ``docs/KERNELS.md``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..net.frames import RecordFrame
from ..net.machine import PEContext
# ``batch_intersect_count`` is unused here but stays importable as
# ``repro.core.kernels.batch_intersect_count``: perfbench's test of its
# layer timer checks that this ``from``-imported binding is rebound.
from .intersect import (  # noqa: F401
    batch_intersect_count,
    csr_intersect_count,
    csr_intersect_count_elements,
)

__all__ = [
    "count_csr_pairs",
    "count_record_pairs",
    "record_pairs_elements",
    "chunked",
]

#: Default number of arc pairs per vectorized batch.
CHUNK_PAIRS = 1 << 18


def chunked(total: int, chunk: int = CHUNK_PAIRS) -> Iterator[slice]:
    """Yield slices covering ``range(total)`` in ``chunk``-sized pieces."""
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


def count_csr_pairs(
    ctx: PEContext,
    left_xadj: np.ndarray,
    left_adj: np.ndarray,
    left_slots: np.ndarray,
    right_xadj: np.ndarray,
    right_adj: np.ndarray,
    right_slots: np.ndarray,
    bound: int,
) -> int:
    """Sum of ``|L_i ∩ R_i|`` over pairs of CSR blocks.

    Pair ``i`` intersects block ``left_slots[i]`` of the left CSR with
    block ``right_slots[i]`` of the right CSR.  Charges merge cost.
    """
    if left_slots.size != right_slots.size:
        raise ValueError("slot arrays must align")
    total = 0
    for sl in chunked(left_slots.size):
        res = csr_intersect_count(
            left_xadj, left_adj, left_slots[sl], right_xadj, right_adj, right_slots[sl], bound
        )
        ctx.charge(res.ops)
        total += res.total
    return total


def _expand_record_pairs(
    ctx: PEContext,
    frame: RecordFrame,
    vlo: int,
    vhi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For received records, enumerate the (record, local target) pairs.

    A record with an explicit target (Algorithm 2 shape) yields exactly
    one pair for that edge.  A broadcast record (surrogate shape)
    yields one pair per owned ``u ∈ A(v)``.  Returns
    ``(rxadj, radj, rec_idx, targets)``: the record-CSR plus, per pair,
    its record index and owned ``u``.  Works entirely on the frame's
    arrays — no per-record iteration.
    """
    rxadj = frame.xadj
    radj = frame.neighbors
    has_target = frame.targets >= 0
    rec_idx_parts: list[np.ndarray] = []
    target_parts: list[np.ndarray] = []
    if np.any(has_target):
        idx = np.flatnonzero(has_target)
        tg = frame.targets[idx]
        ok = (tg >= vlo) & (tg < vhi)
        rec_idx_parts.append(idx[ok])
        target_parts.append(tg[ok])
        ctx.charge(idx.size)
    if not np.all(has_target):
        # Entries of broadcast records only.
        rec_of_entry = np.repeat(
            np.arange(frame.num_records, dtype=np.int64), np.diff(rxadj)
        )
        bmask = ~has_target[rec_of_entry]
        cand_rec = rec_of_entry[bmask]
        cand_u = radj[bmask]
        local_mask = (cand_u >= vlo) & (cand_u < vhi)
        rec_idx_parts.append(cand_rec[local_mask])
        target_parts.append(cand_u[local_mask])
        ctx.charge(cand_u.size)  # scan for local targets (Algorithm 3 line 15)
    rec_idx = (
        np.concatenate(rec_idx_parts) if rec_idx_parts else np.empty(0, dtype=np.int64)
    )
    targets = (
        np.concatenate(target_parts) if target_parts else np.empty(0, dtype=np.int64)
    )
    return rxadj, radj, rec_idx, targets


def count_record_pairs(
    ctx: PEContext,
    frame: RecordFrame,
    local_xadj: np.ndarray,
    local_adj: np.ndarray,
    vlo: int,
    vhi: int,
    bound: int,
) -> int:
    """Receiver-side counting: ``sum |A(v) ∩ A(u)|`` for received records.

    ``local_xadj``/``local_adj`` is the receiver's oriented (or
    contracted) CSR over owned-vertex slots.  For every record
    ``(v, A(v))`` and every ``u ∈ A(v) ∩ V_i``, intersect the record's
    array with the local ``A(u)`` (Algorithm 2 lines 6-7 /
    Algorithm 3 lines 14-16).
    """
    rxadj, radj, rec_idx, targets = _expand_record_pairs(ctx, frame, vlo, vhi)
    if rec_idx.size == 0:
        return 0
    total = 0
    for sl in chunked(rec_idx.size):
        # Left side: each pair re-reads its record's full array.
        res = csr_intersect_count(
            rxadj, radj, rec_idx[sl], local_xadj, local_adj, targets[sl] - vlo, bound
        )
        ctx.charge(res.ops)
        total += res.total
    return total


def record_pairs_elements(
    ctx: PEContext,
    frame: RecordFrame,
    local_xadj: np.ndarray,
    local_adj: np.ndarray,
    vlo: int,
    vhi: int,
    bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`count_record_pairs` but returning the triangles.

    Returns ``(v_ids, u_ids, w_ids)`` — one entry per triangle found at
    this receiver, where ``v`` is the record vertex, ``u`` the owned
    middle vertex and ``w`` the closing vertex.  Needed by the LCC
    extension, which must credit all three corners.
    """
    rxadj, radj, rec_idx, targets = _expand_record_pairs(ctx, frame, vlo, vhi)
    if rec_idx.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    vertices = frame.vertices
    v_out, u_out, w_out = [], [], []
    for sl in chunked(rec_idx.size):
        counts, _, closing, ops = csr_intersect_count_elements(
            rxadj, radj, rec_idx[sl], local_xadj, local_adj, targets[sl] - vlo, bound
        )
        ctx.charge(ops)
        # The hit stream is in (pair, element) order, so expanding the
        # per-pair endpoints by the fused counts reproduces the
        # endpoint-per-hit gather without indexing through pair_idx.
        v_out.append(np.repeat(vertices[rec_idx[sl]], counts))
        u_out.append(np.repeat(targets[sl], counts))
        w_out.append(closing)
    return (
        np.concatenate(v_out),
        np.concatenate(u_out),
        np.concatenate(w_out),
    )
