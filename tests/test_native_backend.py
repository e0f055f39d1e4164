"""The cffi/C ``native`` kernel backend: build, cache, contract, fallback.

Split from ``test_kernel_backends.py`` because everything here depends
on a working C toolchain; the whole module skips cleanly (except the
fallback tests) when cffi or a compiler is missing, which is itself a
supported configuration — the registry degrades to numpy with one
warning and the rest of the suite stays green.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core import backends
from repro.core.backends import resolve_backend, set_backend, use_backend
from repro.core.intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
)
from repro.core.native import build_key, builder, native_available

HAVE_NATIVE = native_available()

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C toolchain / cffi: native backend unavailable"
)


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _batch(rng, k, bound, max_len, min_len=0):
    blocks_a = [
        np.unique(rng.integers(0, bound, size=rng.integers(min_len, max_len + 1)))
        for _ in range(k)
    ]
    blocks_b = [
        np.unique(rng.integers(0, bound, size=rng.integers(min_len, max_len + 1)))
        for _ in range(k)
    ]
    a = np.concatenate(blocks_a) if k else np.empty(0, dtype=np.int64)
    b = np.concatenate(blocks_b) if k else np.empty(0, dtype=np.int64)
    ax = concat_xadj([blk.size for blk in blocks_a])
    bx = concat_xadj([blk.size for blk in blocks_b])
    return a.astype(np.int64), ax, b.astype(np.int64), bx


@needs_native
def test_native_backend_loads_and_reports_fused():
    backend = resolve_backend("native")
    assert backend.name == "native"
    assert backend.count_elements is not None


@needs_native
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_native_matches_numpy_on_random_batches(seed):
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _batch(rng, 50, 2000, 40)
    ref_cnt = batch_intersect_count(a, ax, b, bx, 2000)
    ref_pair, ref_elem, _ = batch_intersect_elements(a, ax, b, bx, 2000)
    with use_backend("native"):
        cnt = batch_intersect_count(a, ax, b, bx, 2000)
        pair, elem, _ = batch_intersect_elements(a, ax, b, bx, 2000)
        fused = batch_intersect_count_elements(a, ax, b, bx, 2000)
    np.testing.assert_array_equal(cnt.counts, ref_cnt.counts)
    assert cnt.ops == ref_cnt.ops
    np.testing.assert_array_equal(pair, ref_pair)
    np.testing.assert_array_equal(elem, ref_elem)
    np.testing.assert_array_equal(fused[0], ref_cnt.counts)
    np.testing.assert_array_equal(fused[1], ref_pair)
    np.testing.assert_array_equal(fused[2], ref_elem)


@needs_native
def test_native_gallop_path_matches_merge_results():
    """Heavily skewed pairs take the galloping branch (>=16x imbalance)."""
    rng = np.random.default_rng(9)
    small = np.sort(rng.choice(100_000, size=5, replace=False))
    big = np.sort(rng.choice(100_000, size=20_000, replace=False))
    # force some guaranteed hits
    small[:3] = big[[10, 500, 19_000]]
    small = np.unique(small)
    for a, ax, b, bx in [
        (small, concat_xadj([small.size]), big, concat_xadj([big.size])),
        (big, concat_xadj([big.size]), small, concat_xadj([small.size])),
    ]:
        ref = batch_intersect_count(a, ax, b, bx, 100_000)
        with use_backend("native"):
            got = batch_intersect_count(a, ax, b, bx, 100_000)
            pair, elem, _ = batch_intersect_elements(a, ax, b, bx, 100_000)
        np.testing.assert_array_equal(got.counts, ref.counts)
        assert elem.size == int(ref.counts.sum())
        assert np.all(np.isin(elem, small)) and np.all(np.isin(elem, big))


@needs_native
def test_native_accepts_readonly_inputs():
    """Received shm frames surface as read-only views; the C wrappers
    must take them without copying (require_writable=False)."""
    rng = np.random.default_rng(4)
    a, ax, b, bx = _batch(rng, 8, 300, 10)
    for arr in (a, ax, b, bx):
        arr.setflags(write=False)
    ref = batch_intersect_count(a, ax, b, bx, 300)
    with use_backend("native"):
        got = batch_intersect_count(a, ax, b, bx, 300)
    np.testing.assert_array_equal(got.counts, ref.counts)


@needs_native
def test_native_handles_duplicate_hits_across_pairs():
    """Same element matching in many pairs keeps (pair, element) order."""
    blk = np.array([3, 7, 11], dtype=np.int64)
    a = np.tile(blk, 4)
    ax = concat_xadj([3, 3, 3, 3])
    with use_backend("native"):
        counts, pair, elem, _ = batch_intersect_count_elements(a, ax, a, ax, 16)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    np.testing.assert_array_equal(pair, np.repeat(np.arange(4), 3))
    np.testing.assert_array_equal(elem, np.tile(blk, 4))


# ---------------------------------------------------------------------------
# Build cache
# ---------------------------------------------------------------------------


@needs_native
def test_build_artifact_cached_and_reused(tmp_path, monkeypatch):
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)
    module = builder.load_lib()
    artifact = builder._artifact_path(tmp_path)
    assert artifact.exists()
    stamp = artifact.stat().st_mtime_ns
    # a fresh process (simulated by clearing the memo) reuses the file
    monkeypatch.setattr(builder, "_LIB", None)
    compiled = []
    real_compile = builder._compile
    monkeypatch.setattr(
        builder, "_compile", lambda d: compiled.append(d) or real_compile(d)
    )
    again = builder.load_lib()
    assert not compiled, "existing artifact must be reused, not rebuilt"
    assert artifact.stat().st_mtime_ns == stamp
    assert again.lib is module.lib  # same extension module via sys.modules


@needs_native
def test_build_tooling_stays_out_of_the_calling_process(tmp_path):
    """The compile runs in a child interpreter: the build tooling it
    imports (setuptools, ~15 MiB) never enters the process that selected
    native, so a fresh checkout's first run peaks no higher than later
    runs."""
    code = (
        "import sys; from repro.core.native import builder; builder.load_lib(); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('setuptools', 'distutils')))"
    )
    env = {
        **os.environ,
        builder.ENV_BUILD_DIR: str(tmp_path),
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
    }
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert builder._artifact_path(tmp_path).exists()
    assert out.stdout.strip() == "[]"


@needs_native
def test_forced_rebuild(tmp_path, monkeypatch):
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)
    builder.load_lib()
    stamp = builder._artifact_path(tmp_path).stat().st_mtime_ns
    monkeypatch.setenv(builder.ENV_REBUILD, "1")
    monkeypatch.setattr(builder, "_LIB", None)
    builder.load_lib()
    assert builder._artifact_path(tmp_path).stat().st_mtime_ns > stamp


def test_build_key_tracks_source():
    key = build_key()
    assert len(key) == 16
    # stable within a process (same source, same toolchain)
    assert build_key() == key


# ---------------------------------------------------------------------------
# Graceful degradation (runs everywhere, including toolchain-less CI)
# ---------------------------------------------------------------------------


def test_native_fallback_warns_once_when_unbuildable(monkeypatch, caplog):
    """An unbuildable native backend degrades to numpy with one warning."""
    import repro.core.native as native_pkg

    def boom():
        raise ImportError("native kernel build failed: no compiler")

    monkeypatch.setattr(native_pkg, "load_native_kernels", boom)
    monkeypatch.delenv(backends.ENV_FALLBACK_WARNED, raising=False)
    monkeypatch.delitem(backends._BACKENDS, "native", raising=False)
    backends._FAILED.pop("native", None)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert resolve_backend("native").name == "numpy"
            assert resolve_backend("native").name == "numpy"  # second resolve
        warnings = [
            r for r in caplog.records if "falling back to numpy" in r.message
        ]
        assert len(warnings) == 1, "warn-once violated"
        assert "native" in os.environ[backends.ENV_FALLBACK_WARNED].split(",")
    finally:
        backends._FAILED.pop("native", None)


def test_selecting_native_never_raises():
    """Known-backend selection must not raise, available or not."""
    set_backend("native")
    assert backends.get_backend().name in ("native", "numpy")


def test_load_lib_raises_importerror_on_compile_failure(tmp_path, monkeypatch):
    pytest.importorskip("cffi", exc_type=ImportError)
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)

    def broken_compile(directory):
        raise RuntimeError("cc: command not found")

    monkeypatch.setattr(builder, "_compile", broken_compile)
    with pytest.raises(ImportError, match="native kernel build failed"):
        builder.load_lib()
