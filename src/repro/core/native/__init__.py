"""``repro.core.native`` — the cffi/C intersection kernel backend.

Implements the in-place CSR ``count`` / ``elements`` / fused
``count_elements`` kernel contract of ``docs/KERNELS.md`` in C
(``kernels.c``): per-pair merge loops plus a galloping binary-search
variant for skewed ``|A_i| << |B_i|`` pairs, each pair reading its two
blocks straight out of the callers' CSR arrays through the slot
arrays.  It is the default backend wherever it builds.  The extension
is compiled on demand at first use and cached (see :mod:`.builder` for
the cache location and rebuild knobs); environments without cffi or a
C compiler degrade to the ``numpy`` backend through the registry.

Wrappers here only allocate output arrays and hand zero-copy buffer
views to the C functions — inputs may be read-only (e.g. frozen frame
views from ``repro.net.frames`` and ``repro.net.shm``), which
``ffi.from_buffer`` accepts as const pointers.  They trust the
dispatcher's bounds validation (:class:`repro.core.intersect.CsrBlocks`).
"""

from __future__ import annotations

import numpy as np

from .builder import build_dir, build_key, cache_root, load_lib

__all__ = [
    "load_native_kernels",
    "native_available",
    "build_dir",
    "build_key",
    "cache_root",
]


def native_available() -> bool:
    """Whether the native backend can be built/loaded here (quietly)."""
    try:
        load_lib()
        return True
    except ImportError:
        return False


def load_native_kernels():
    """``(count, elements, count_elements)`` callables over the C lib.

    Raises ``ImportError`` when the extension cannot be built — the
    registry turns that into the numpy fallback.
    """
    module = load_lib()
    lib, ffi = module.lib, module.ffi

    def _in(arr: np.ndarray):
        # require_writable=False: received frames are read-only views.
        return ffi.from_buffer("int64_t[]", arr, require_writable=False)

    def _out(arr: np.ndarray):
        return ffi.from_buffer("int64_t[]", arr, require_writable=True)

    def _sides(a, b):
        return (_in(a.xadj), _in(a.adjncy), _in(a.slots),
                _in(b.xadj), _in(b.adjncy), _in(b.slots), a.slots.size)

    def count(a, b, vertex_bound):
        counts = np.empty(a.slots.size, dtype=np.int64)
        lib.repro_csr_count(*_sides(a, b), _out(counts))
        return counts

    def elements(a, b, vertex_bound):
        # Hits per pair are bounded by the smaller block, so the A side
        # (the smaller side overall) bounds the total.
        pair_out = np.empty(a.total, dtype=np.int64)
        elem_out = np.empty(a.total, dtype=np.int64)
        n = lib.repro_csr_elements(*_sides(a, b), _out(pair_out), _out(elem_out))
        return pair_out[:n], elem_out[:n]

    def count_elements(a, b, vertex_bound):
        counts = np.empty(a.slots.size, dtype=np.int64)
        pair_out = np.empty(a.total, dtype=np.int64)
        elem_out = np.empty(a.total, dtype=np.int64)
        n = lib.repro_csr_count_elements(
            *_sides(a, b), _out(counts), _out(pair_out), _out(elem_out)
        )
        return counts, pair_out[:n], elem_out[:n]

    return count, elements, count_elements
