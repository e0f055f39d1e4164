"""Neighborhood set-intersection kernels with work accounting.

The inner loop of every EDGEITERATOR variant is
``|N_v^+ ∩ N_u^+|`` over sorted arrays.  The paper implements the
merge-based intersection of COMPACT-FORWARD and charges each
intersection ``|a| + |b|`` comparisons; GPU codes use binary-search
(``searchsorted``) variants instead (Section III-C).

The batch kernels read each side in place, as a CSR plus a slot array
``(xadj, adjncy, slots)``: pair ``i`` intersects block ``slots[i]`` of
the A side, ``adjncy[xadj[s]:xadj[s + 1]]``, with block ``slots[i]`` of
the B side — like the paper's kernels, which run on the adjacency
arrays without copying neighborhoods first.  Work is *accounted* in the
merge model (``|a| + |b|`` per pair), independent of how the kernel
executes it, so the simulated cost model matches the paper's analysis
rather than Python's constant factors.

``csr_intersect_count`` / ``csr_intersect_elements`` /
``csr_intersect_count_elements`` are *dispatchers*: they own int64
coercion, slot alignment and bounds validation, the ops accounting,
the empty fast path and the small-into-large side swap, then hand the
validated sides to the kernel backend selected via
:mod:`repro.core.backends`: the compiled C merge and galloping kernels
of ``native`` wherever they build, else ``numpy``, which gathers the
blocks (:func:`gather_blocks`) and resolves every membership test of
the batch with one offset-keyed ``searchsorted``.  The fused variant
returns per-pair counts *and* the hit streams from one backend
traversal — the shape the enumeration/LCC paths consume.  Because
everything the cost model sees is computed *before* the backend runs,
simulated accounting is identical for every backend by construction —
see ``docs/KERNELS.md``.

The concat-form ``batch_intersect_*`` functions, for blocks already
gathered into one buffer, are wrappers over the CSR form with
``slots = arange(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "intersect_count",
    "intersect_sorted",
    "merge_cost",
    "BatchIntersections",
    "CsrBlocks",
    "csr_intersect_count",
    "csr_intersect_elements",
    "csr_intersect_count_elements",
    "batch_intersect_count",
    "batch_intersect_elements",
    "batch_intersect_count_elements",
    "concat_xadj",
    "gather_blocks",
]


def gather_blocks(
    xadj: np.ndarray, adjncy: np.ndarray, block_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR blocks ``adjncy[xadj[i]:xadj[i+1]]`` for many ``i`` at once.

    Returns ``(concat, out_xadj)``, the concat layout of a record
    frame — the vectorized equivalent of looping
    ``[adjncy[xadj[i]:xadj[i+1]] for i in block_ids]``.
    """
    xadj = np.asarray(xadj, dtype=np.int64)
    adjncy = np.asarray(adjncy, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    sizes = xadj[block_ids + 1] - xadj[block_ids]
    out_xadj = concat_xadj(sizes)
    total = int(out_xadj[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), out_xadj
    # Global positions: start of each block repeated, plus the offset
    # of each element within its block.
    starts = np.repeat(xadj[block_ids], sizes)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_xadj[:-1], sizes)
    return adjncy[starts + within], out_xadj


def merge_cost(size_a: int, size_b: int) -> int:
    """Comparison count charged for one merge-based intersection."""
    return int(size_a) + int(size_b)


def intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` for two sorted unique arrays (scalar kernel)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:  # search the smaller array in the bigger one
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx_clipped = np.minimum(idx, b.size - 1)
    return int(np.count_nonzero((idx < b.size) & (b[idx_clipped] == a)))


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ∩ b`` as a sorted array (used by enumeration / LCC paths)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx_clipped = np.minimum(idx, b.size - 1)
    hit = (idx < b.size) & (b[idx_clipped] == a)
    return a[hit]


def concat_xadj(sizes: np.ndarray) -> np.ndarray:
    """Offsets array for a batch of variable-length blocks."""
    sizes = np.asarray(sizes, dtype=np.int64)
    xadj = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    return xadj


@dataclass(frozen=True)
class BatchIntersections:
    """Result of a batched intersection.

    Attributes
    ----------
    counts:
        ``counts[i] = |A_i ∩ B_i|`` for pair ``i``.
    ops:
        Total charged comparisons, ``sum_i (|A_i| + |B_i|)`` — the
        quantity fed to the simulated cost model.
    """

    counts: np.ndarray
    ops: int

    @property
    def total(self) -> int:
        """Sum of all per-pair counts."""
        return int(self.counts.sum())


class CsrBlocks(NamedTuple):
    """One validated side of a batch: pair ``i`` reads block ``slots[i]``.

    ``xadj``, ``adjncy`` and ``slots`` are C-contiguous ``int64``;
    every block ``adjncy[xadj[s]:xadj[s + 1]]`` named by a slot lies
    inside ``adjncy``.  ``total`` is the sum of those block sizes.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    slots: np.ndarray
    total: int


def _csr_side(name: str, xadj, adjncy, slots) -> CsrBlocks:
    """Coerce and bounds-check one side; raises ``ValueError`` if bad.

    After this, a kernel indexing ``adjncy`` through ``xadj[slots]``
    and ``xadj[slots + 1]`` cannot read outside the arrays.
    """
    xadj = np.ascontiguousarray(xadj, dtype=np.int64)
    adjncy = np.ascontiguousarray(adjncy, dtype=np.int64)
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    if xadj.ndim != 1 or adjncy.ndim != 1 or slots.ndim != 1 or xadj.size == 0:
        raise ValueError(f"{name} side: xadj, adjncy and slots must be 1-D, xadj nonempty")
    if xadj[-1] > adjncy.size:
        raise ValueError(
            f"{name} side: xadj[-1] = {int(xadj[-1])} exceeds adjncy.size = {adjncy.size}"
        )
    if slots.size == 0:
        return CsrBlocks(xadj, adjncy, slots, 0)
    if slots.min() < 0 or slots.max() >= xadj.size - 1:
        raise ValueError(f"{name} side: slots must lie in [0, {xadj.size - 1})")
    starts = xadj[slots]
    ends = xadj[slots + 1]
    sizes = ends - starts
    if starts.min() < 0 or sizes.min() < 0 or ends.max() > adjncy.size:
        raise ValueError(f"{name} side: a slot's block lies outside adjncy")
    return CsrBlocks(xadj, adjncy, slots, int(sizes.sum()))


def _csr_sides(
    a_xadj, a_adjncy, a_slots, b_xadj, b_adjncy, b_slots
) -> tuple[CsrBlocks, CsrBlocks, int, bool]:
    """Validate both sides; returns ``(a, b, ops, empty)``.

    ``a`` is the side with fewer elements; ``empty`` says the batch has
    no pairs or a side with no elements, so no backend needs to run.

    The swap searches the smaller side in the bigger one (the scalar
    kernels' small-into-large rule, chosen per batch by total size).
    It is output-identical: hits are the common values, counted per
    pair and emitted in (pair, element) order, whichever side is
    searched, because blocks are sorted unique; the charged ops stay
    the symmetric merge cost.
    """
    a = _csr_side("A", a_xadj, a_adjncy, a_slots)
    b = _csr_side("B", b_xadj, b_adjncy, b_slots)
    if a.slots.size != b.slots.size:
        raise ValueError("A and B sides must have the same pair count")
    ops = merge_cost(a.total, b.total)
    empty = a.slots.size == 0 or a.total == 0 or b.total == 0
    if a.total > b.total:
        a, b = b, a
    return a, b, ops, empty


def _active_backend():
    # Imported lazily: backends.py pulls the numpy kernels from this
    # module at import time, so the dependency must point one way at
    # module load.
    from .backends import get_backend

    return get_backend()


def csr_intersect_count(
    a_xadj: np.ndarray,
    a_adjncy: np.ndarray,
    a_slots: np.ndarray,
    b_xadj: np.ndarray,
    b_adjncy: np.ndarray,
    b_slots: np.ndarray,
    vertex_bound: int,
) -> BatchIntersections:
    """Count ``|A_i ∩ B_i|`` for many pairs of CSR blocks, in place.

    Parameters
    ----------
    a_xadj, a_adjncy, a_slots:
        The A-side CSR and, per pair, the block it reads:
        ``a_adjncy[a_xadj[s]:a_xadj[s + 1]]`` for ``s = a_slots[i]``.
        Each block is sorted ascending, values in ``[0, vertex_bound)``.
        Slots may repeat and need not be sorted.
    b_xadj, b_adjncy, b_slots:
        Same for the B side; ``b_slots`` must align with ``a_slots``.
    vertex_bound:
        Exclusive upper bound on element values (usually ``n``); used
        by the numpy backend's offset keying.

    Raises
    ------
    ValueError
        Misaligned slot arrays, a slot outside ``[0, len(xadj) - 1)``,
        ``xadj[-1] > adjncy.size`` or a slot's block outside ``adjncy``.

    Notes
    -----
    Validation, the ops accounting (block sizes summed from ``xadj``),
    the empty fast path and the side swap happen here; only the final
    counts come from the selected kernel backend, so the simulated
    cost is backend-independent.
    """
    a, b, ops, empty = _csr_sides(a_xadj, a_adjncy, a_slots, b_xadj, b_adjncy, b_slots)
    if empty:
        return BatchIntersections(np.zeros(a.slots.size, dtype=np.int64), ops)
    return BatchIntersections(_active_backend().count(a, b, vertex_bound), ops)


def csr_intersect_elements(
    a_xadj: np.ndarray,
    a_adjncy: np.ndarray,
    a_slots: np.ndarray,
    b_xadj: np.ndarray,
    b_adjncy: np.ndarray,
    b_slots: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Like :func:`csr_intersect_count` but return the hits themselves.

    Returns
    -------
    (pair_idx, elements, ops):
        For every common element ``w`` of pair ``i``, one entry with
        ``pair_idx == i`` and ``elements == w``, in (pair, ascending
        element) order.  Needed by triangle *enumeration* and the
        per-vertex Δ counters of the LCC extension, where the identity
        of the closing vertex matters.
    """
    a, b, ops, empty = _csr_sides(a_xadj, a_adjncy, a_slots, b_xadj, b_adjncy, b_slots)
    if empty:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), ops
    pair_idx, elements = _active_backend().elements(a, b, vertex_bound)
    return pair_idx, elements, ops


def csr_intersect_count_elements(
    a_xadj: np.ndarray,
    a_adjncy: np.ndarray,
    a_slots: np.ndarray,
    b_xadj: np.ndarray,
    b_adjncy: np.ndarray,
    b_slots: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fused counts + hits for many pairs in one backend traversal.

    Returns
    -------
    (counts, pair_idx, elements, ops):
        ``counts[i] = |A_i ∩ B_i|`` per pair **and** the
        ``(pair_idx, elements)`` hit streams of
        :func:`csr_intersect_elements`, consistent by construction
        (``counts == bincount(pair_idx, minlength=k)``).  Used by the
        enumeration / LCC / per-vertex-Δ paths, which need the closing
        vertices *and* per-pair multiplicities: one fused call replaces
        a count pass plus an elements pass.

    Notes
    -----
    Backends without a fused kernel (``count_elements is None``) run
    their elements kernel and the dispatcher derives the counts.
    """
    a, b, ops, empty = _csr_sides(a_xadj, a_adjncy, a_slots, b_xadj, b_adjncy, b_slots)
    k = a.slots.size
    if empty:
        e = np.empty(0, dtype=np.int64)
        return np.zeros(k, dtype=np.int64), e, e.copy(), ops
    backend = _active_backend()
    if backend.count_elements is not None:
        counts, pair_idx, elements = backend.count_elements(a, b, vertex_bound)
    else:
        pair_idx, elements = backend.elements(a, b, vertex_bound)
        counts = np.bincount(pair_idx, minlength=k).astype(np.int64)
    return counts, pair_idx, elements, ops


def _every_block(xadj: np.ndarray) -> np.ndarray:
    """Slots ``0 .. k-1`` of a concat layout with ``k + 1`` offsets."""
    return np.arange(len(xadj) - 1, dtype=np.int64)


def batch_intersect_count(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> BatchIntersections:
    """Concat form of :func:`csr_intersect_count`: pair ``i`` intersects
    block ``i`` of ``a_concat`` with block ``i`` of ``b_concat``."""
    return csr_intersect_count(
        a_xadj, a_concat, _every_block(a_xadj), b_xadj, b_concat, _every_block(b_xadj),
        vertex_bound,
    )


def batch_intersect_elements(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Concat form of :func:`csr_intersect_elements`."""
    return csr_intersect_elements(
        a_xadj, a_concat, _every_block(a_xadj), b_xadj, b_concat, _every_block(b_xadj),
        vertex_bound,
    )


def batch_intersect_count_elements(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Concat form of :func:`csr_intersect_count_elements`."""
    return csr_intersect_count_elements(
        a_xadj, a_concat, _every_block(a_xadj), b_xadj, b_concat, _every_block(b_xadj),
        vertex_bound,
    )


# ---------------------------------------------------------------------------
# numpy backend kernels (dispatcher preconditions apply)
# ---------------------------------------------------------------------------


def _numpy_search(
    a: CsrBlocks, b: CsrBlocks, vertex_bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather both sides and resolve every membership test at once.

    Each block is offset-keyed into its own range ``[i * bound, (i + 1)
    * bound)``.  The keyed B concatenation is then globally sorted —
    every block is sorted and blocks occupy increasing key ranges — so
    one ``searchsorted`` answers all of A's probes.  Returns the
    gathered A side as ``(pair_of_entry, a_concat)`` and the hit mask
    over it; masking both gives the hits in (pair, element) order.
    """
    a_concat, a_xadj = gather_blocks(a.xadj, a.adjncy, a.slots)
    b_concat, b_xadj = gather_blocks(b.xadj, b.adjncy, b.slots)
    pairs = np.arange(a.slots.size, dtype=np.int64)
    pair_a = np.repeat(pairs, np.diff(a_xadj))
    keyed_a = a_concat + pair_a * np.int64(vertex_bound)
    keyed_b = b_concat + np.repeat(pairs, np.diff(b_xadj)) * np.int64(vertex_bound)
    idx = np.searchsorted(keyed_b, keyed_a)
    idx_clipped = np.minimum(idx, keyed_b.size - 1)
    hit = (idx < keyed_b.size) & (keyed_b[idx_clipped] == keyed_a)
    return pair_a, a_concat, hit


def _numpy_count(a: CsrBlocks, b: CsrBlocks, vertex_bound: int) -> np.ndarray:
    pair_a, _, hit = _numpy_search(a, b, vertex_bound)
    return np.bincount(pair_a[hit], minlength=a.slots.size).astype(np.int64)


def _numpy_elements(
    a: CsrBlocks, b: CsrBlocks, vertex_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    pair_a, a_concat, hit = _numpy_search(a, b, vertex_bound)
    return pair_a[hit], a_concat[hit]


def _numpy_count_elements(
    a: CsrBlocks, b: CsrBlocks, vertex_bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pair_idx, elements = _numpy_elements(a, b, vertex_bound)
    counts = np.bincount(pair_idx, minlength=a.slots.size).astype(np.int64)
    return counts, pair_idx, elements
