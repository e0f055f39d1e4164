"""The in-place CSR form of the batch intersection dispatchers.

Each side of a batch is ``(xadj, adjncy, slots)``: pair ``i``
intersects block ``slots[i]`` of side A with block ``slots[i]`` of
side B, read where it lies.  The dispatcher validates every slot and
block bound before any kernel runs, so bad input raises ``ValueError``
on every backend and the C kernels never index outside their arrays.
The native CSR kernels, the numpy backend (which gathers internally)
and the concat form over ``gather_blocks`` must agree on outputs and
charged ops, and under ``native`` the local phase copies no
neighborhood at all.
"""

import multiprocessing as mp
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import count_triangles, local_clustering_coefficients
from repro.core import intersect
from repro.core.backends import set_backend, use_backend
from repro.core.engine import EngineConfig
from repro.core.intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
    csr_intersect_count,
    csr_intersect_count_elements,
    csr_intersect_elements,
    gather_blocks,
)
from repro.core.native import native_available
from repro.graphs import generators as gen
from repro.net.frames import BROADCAST, RecordFrame, freeze
from repro.net.shm import SharedFramePool, shm_supported

HAVE_NATIVE = native_available()
BACKENDS = ["numpy", "native"] if HAVE_NATIVE else ["numpy"]

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C toolchain / cffi: native backend unavailable"
)

DISPATCHERS = {
    "count": csr_intersect_count,
    "elements": csr_intersect_elements,
    "count_elements": csr_intersect_count_elements,
}


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _csr(blocks):
    """``(xadj, adjncy)`` of a list of blocks."""
    xadj = concat_xadj([len(b) for b in blocks])
    adjncy = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks] + [[]])
    return xadj, adjncy.astype(np.int64)


def _outputs(kind, result):
    """Dispatcher result as a tuple of arrays plus the ops, comparable."""
    if kind == "count":
        return (result.counts,), result.ops
    return tuple(result[:-1]), result[-1]


def _assert_same(got, ref, label):
    (arrays, ops), (ref_arrays, ref_ops) = got, ref
    assert ops == ref_ops, label
    for g, r in zip(arrays, ref_arrays):
        np.testing.assert_array_equal(g, r, err_msg=label)


# ---------------------------------------------------------------------------
# Fail loudly on bad slots
# ---------------------------------------------------------------------------

XADJ, ADJ = _csr([[1, 4], [0, 2, 3], [], [1, 5]])
GOOD = dict(
    a_xadj=XADJ, a_adjncy=ADJ, a_slots=np.array([0, 1, 3]),
    b_xadj=XADJ, b_adjncy=ADJ, b_slots=np.array([1, 3, 0]),
)

BAD = {
    "negative slot": dict(a_slots=np.array([0, -1, 3])),
    "slot == len(xadj) - 1": dict(a_slots=np.array([0, 4, 3])),
    "slot past the end on B": dict(b_slots=np.array([1, 3, 99])),
    "misaligned slots": dict(b_slots=np.array([1, 3])),
    "xadj[-1] > adjncy.size": dict(b_adjncy=ADJ[:-1]),
    "decreasing xadj": dict(a_xadj=np.array([0, 6, 5, 5, 7])),
    "negative offset": dict(a_xadj=np.array([-3, 2, 5, 5, 7])),
    "empty xadj": dict(a_xadj=np.empty(0, dtype=np.int64), a_slots=np.empty(0)),
    "2-D slots": dict(a_slots=np.array([[0, 1, 3]])),
}


def _call(dispatcher, args):
    return dispatcher(
        args["a_xadj"], args["a_adjncy"], args["a_slots"],
        args["b_xadj"], args["b_adjncy"], args["b_slots"], 8,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", list(DISPATCHERS))
@pytest.mark.parametrize("case", list(BAD))
def test_bad_slots_raise_value_error(backend, kind, case):
    with use_backend(backend):
        _call(DISPATCHERS[kind], GOOD)  # the unbroken batch is fine
        with pytest.raises(ValueError):
            _call(DISPATCHERS[kind], {**GOOD, **BAD[case]})


def test_validation_runs_before_any_kernel(monkeypatch):
    """A bad batch raises in the dispatcher, before a backend is chosen."""
    seen = []
    monkeypatch.setattr(intersect, "_active_backend", lambda: seen.append(1))
    for case in BAD.values():
        for dispatcher in DISPATCHERS.values():
            with pytest.raises(ValueError):
                _call(dispatcher, {**GOOD, **case})
    assert not seen


def _frozen_sides():
    """A frame's frozen ``select`` result as side A, a frozen local CSR
    with frozen slots as side B."""
    rng = np.random.default_rng(3)
    blocks = [np.sort(rng.choice(60, size=rng.integers(0, 12), replace=False))
              for _ in range(30)]
    xadj, adjncy = _csr(blocks)
    frame = RecordFrame(
        np.arange(30, dtype=np.int64), np.full(30, BROADCAST, dtype=np.int64), xadj, adjncy
    ).select(np.arange(29, -1, -1))
    local_xadj, local_adj = _csr(blocks[:10])
    slots = rng.integers(0, 10, size=30)
    freeze(local_xadj, local_adj, slots)
    return frame, (local_xadj, local_adj, slots)


def _expected_counts(frame, local):
    lx, la, ls = local
    return [
        np.intersect1d(frame.neighbors[frame.xadj[i]:frame.xadj[i + 1]],
                       la[lx[s]:lx[s + 1]]).size
        for i, s in enumerate(ls)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_only_frame_views_are_accepted(backend):
    frame, local = _frozen_sides()
    assert not frame.neighbors.flags.writeable and not local[1].flags.writeable
    a = (frame.xadj, frame.neighbors, np.arange(frame.num_records))
    with use_backend(backend):
        res = csr_intersect_count(*a, *local, 60)
        counts, _, elems, ops = csr_intersect_count_elements(*a, *local, 60)
    np.testing.assert_array_equal(res.counts, _expected_counts(frame, local))
    np.testing.assert_array_equal(counts, res.counts)
    assert elems.size == res.total and ops == res.ops


@pytest.mark.skipif(not shm_supported(), reason="multiprocessing.shared_memory unavailable")
@pytest.mark.parametrize("backend", BACKENDS)
def test_read_only_shm_views_are_accepted(backend):
    frame, local = _frozen_sides()
    pool = SharedFramePool(2, 1 << 16, mp.Lock())
    try:
        descriptor, _, spilled = pool.encode(frame)
        assert not spilled
        view = pool.decode(descriptor)
        assert not view.neighbors.flags.writeable
        with use_backend(backend):
            res = csr_intersect_count(
                view.xadj, view.neighbors, np.arange(view.num_records), *local, 60
            )
        np.testing.assert_array_equal(res.counts, _expected_counts(frame, local))
        del view
    finally:
        pool.destroy()


# ---------------------------------------------------------------------------
# CSR equivalence: native CSR == numpy CSR == concat form over gather_blocks
# ---------------------------------------------------------------------------


@st.composite
def csr_sides(draw, bound):
    """One CSR mixing empty, small (1-4) and big (up to ``bound``)
    sorted unique blocks; returns ``(xadj, adjncy, num_blocks)``."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, min(4, bound)), st.integers(0, bound)),
        min_size=1, max_size=8,
    ))
    blocks = [np.sort(rng.choice(bound, size=s, replace=False)) for s in sizes]
    xadj, adjncy = _csr(blocks)
    return xadj, adjncy, len(blocks)


@st.composite
def csr_batches(draw):
    """Two CSR sides and aligned slot arrays with repeats, in any order,
    possibly as strided (non-contiguous) views."""
    # Small value ranges make hits common; blocks of up to `bound`
    # elements next to 1-4 element ones give the >= 16x skew that
    # takes the galloping branch of the native kernel.
    bound = draw(st.integers(1, 300))
    a_xadj, a_adj, a_blocks = draw(csr_sides(bound))
    b_xadj, b_adj, b_blocks = draw(csr_sides(bound))
    k = draw(st.integers(0, 40))
    a_slots = np.array(draw(st.lists(st.integers(0, a_blocks - 1), min_size=k, max_size=k)),
                       dtype=np.int64)
    b_slots = np.array(draw(st.lists(st.integers(0, b_blocks - 1), min_size=k, max_size=k)),
                       dtype=np.int64)
    if draw(st.booleans()):
        # Non-contiguous views: every other entry of a padded array.
        pad_a = np.full(2 * k, -7, dtype=np.int64)
        pad_b = np.full(2 * k, 10**9, dtype=np.int64)
        pad_a[::2], pad_b[::2] = a_slots, b_slots
        a_slots, b_slots = pad_a[::2], pad_b[::2]
        assert k < 2 or not a_slots.flags.c_contiguous
    return (a_xadj, a_adj, a_slots, b_xadj, b_adj, b_slots), bound


CONCAT = {
    "count": batch_intersect_count,
    "elements": batch_intersect_elements,
    "count_elements": batch_intersect_count_elements,
}


@settings(max_examples=60, deadline=None)
@given(batch=csr_batches())
def test_csr_backends_and_concat_form_agree(batch):
    (a_xadj, a_adj, a_slots, b_xadj, b_adj, b_slots), bound = batch
    a_cat, a_cx = gather_blocks(a_xadj, a_adj, a_slots)
    b_cat, b_cx = gather_blocks(b_xadj, b_adj, b_slots)
    expected_counts = [
        np.intersect1d(a_cat[a_cx[i]:a_cx[i + 1]], b_cat[b_cx[i]:b_cx[i + 1]]).size
        for i in range(a_slots.size)
    ]
    expected_ops = a_cat.size + b_cat.size
    for kind in DISPATCHERS:
        ref = None
        for backend in BACKENDS:
            with use_backend(backend):
                for form, got in (
                    ("csr", DISPATCHERS[kind](a_xadj, a_adj, a_slots,
                                              b_xadj, b_adj, b_slots, bound)),
                    ("concat", CONCAT[kind](a_cat, a_cx, b_cat, b_cx, bound)),
                    # The side swap must not change anything either.
                    ("csr-swapped", DISPATCHERS[kind](b_xadj, b_adj, b_slots,
                                                      a_xadj, a_adj, a_slots, bound)),
                ):
                    out = _outputs(kind, got)
                    if ref is None:
                        ref = out
                    _assert_same(out, ref, f"{kind}/{backend}/{form}")
        arrays, ops = ref
        assert ops == expected_ops
        counts = arrays[0] if kind != "elements" else np.bincount(
            arrays[0], minlength=a_slots.size)
        np.testing.assert_array_equal(counts, expected_counts)


# ---------------------------------------------------------------------------
# Host work: the local phase gathers nothing under native
# ---------------------------------------------------------------------------


@needs_native
def test_native_runs_gather_only_cut_neighborhoods(monkeypatch):
    """Under native, ``gather_blocks`` is called only to build the frames
    of cut-arc neighborhoods — never from the counting kernels."""
    original = intersect.gather_blocks
    callers = Counter()

    def spy(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(*args, **kwargs)

    # Rebind every ``from ... import gather_blocks`` binding too.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "gather_blocks", None) is original):
            monkeypatch.setattr(module, "gather_blocks", spy)
    graph = gen.rmat(9, 8, seed=5)
    with use_backend("native"):
        res = count_triangles(graph, algorithm="ditric", num_pes=8)
        for config in (EngineConfig(), EngineConfig(contraction=True)):
            local_clustering_coefficients(graph, num_pes=8, config=config)
    assert res.triangles > 0
    assert callers["_post_cut_neighborhoods"] > 0
    assert set(callers) == {"_post_cut_neighborhoods"}, callers
