"""Kernel backend registry: selection, fallback, and bit-identity.

The ``csr_intersect_*`` dispatchers own validation, the side swap and
the charged ops; a backend only produces counts / hit streams.  These
tests pin the registry semantics (env/explicit selection, the native
default and its silent fallback, logged fallback of a selected backend
to numpy, third-party registration) and the contract itself —
every loadable backend must return byte-identical results on the same
pre-conditioned inputs.
"""

import logging
import os

import numpy as np
import pytest
from backend_utils import register_pymerge

from repro.core import backends
from repro.core.backends import (
    available_backends,
    backend_status,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.core.intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
)
from repro.core.native import native_available

HAVE_NATIVE = native_available()


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _random_batch(rng, k, bound, max_len):
    """k pairs of sorted-unique blocks over [0, bound)."""
    a_blocks = [
        np.unique(rng.integers(0, bound, size=rng.integers(0, max_len)))
        for _ in range(k)
    ]
    b_blocks = [
        np.unique(rng.integers(0, bound, size=rng.integers(0, max_len)))
        for _ in range(k)
    ]
    a = np.concatenate(a_blocks) if k else np.empty(0, dtype=np.int64)
    b = np.concatenate(b_blocks) if k else np.empty(0, dtype=np.int64)
    ax = concat_xadj([blk.size for blk in a_blocks])
    bx = concat_xadj([blk.size for blk in b_blocks])
    return a.astype(np.int64), ax, b.astype(np.int64), bx


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


def test_registry_lists_shipped_backends():
    names = available_backends()
    for shipped in ("numpy", "native"):
        assert shipped in names
    assert backend_status()["numpy"] == "ok"


#: What resolves when nothing is selected.
DEFAULT = "native" if HAVE_NATIVE else "numpy"


@pytest.fixture()
def no_env_selection(monkeypatch):
    monkeypatch.delenv(backends.ENV_BACKEND, raising=False)


def test_default_backend_is_native_where_it_loads(no_env_selection):
    assert backends.DEFAULT_BACKEND == "native"
    assert get_backend().name == DEFAULT


def test_unknown_backend_raises(no_env_selection):
    with pytest.raises(KeyError, match="unknown kernel backend"):
        set_backend("no-such-backend")
    # and the selection was not clobbered by the failed attempt
    assert get_backend().name == DEFAULT


def test_env_selection(monkeypatch):
    name = register_pymerge()
    monkeypatch.setenv(backends.ENV_BACKEND, name)
    assert get_backend().name == name


def test_explicit_selection_beats_env(monkeypatch):
    name = register_pymerge()
    monkeypatch.setenv(backends.ENV_BACKEND, name)
    set_backend("numpy")
    assert get_backend().name == "numpy"


def test_use_backend_restores_previous(no_env_selection):
    name = register_pymerge()
    with use_backend(name):
        assert get_backend().name == name
    assert get_backend().name == DEFAULT
    set_backend("numpy")
    with use_backend(name):
        assert get_backend().name == name
    assert get_backend().name == "numpy"


def test_env_numpy_forces_numpy(monkeypatch):
    monkeypatch.setenv(backends.ENV_BACKEND, "numpy")
    assert get_backend().name == "numpy"


@pytest.fixture()
def native_unloadable(monkeypatch):
    """The native loader fails, as without cffi or a C compiler; counts
    how often it is tried."""
    calls = []

    def loader():
        calls.append(1)
        raise ImportError("native kernel build failed: no compiler")

    monkeypatch.setitem(backends._LOADERS, "native", loader)
    monkeypatch.delitem(backends._BACKENDS, "native", raising=False)
    # setenv (not delenv) so the warned-flag the test sets is undone.
    monkeypatch.setenv(backends.ENV_FALLBACK_WARNED, "")
    backends._FAILED.pop("native", None)
    yield calls
    backends._FAILED.pop("native", None)


def test_default_falls_back_to_numpy_without_warning(
    caplog, no_env_selection, native_unloadable
):
    with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
        assert get_backend().name == "numpy"
        assert get_backend().name == "numpy"
        res = batch_intersect_count(*_random_batch(np.random.default_rng(1), 5, 50, 9), 50)
    assert res.counts.size == 5
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    debug = [r for r in caplog.records if "default kernel backend" in r.getMessage()]
    assert len(debug) == 1 and debug[0].levelno == logging.DEBUG
    assert "native" not in os.environ.get(backends.ENV_FALLBACK_WARNED, "").split(",")
    # A failed build is tried once, not on every dispatch.
    assert len(native_unloadable) == 1


@pytest.mark.parametrize("channel", ["set_backend", "env"])
def test_explicit_native_still_warns_once(caplog, monkeypatch, native_unloadable, channel):
    monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
    with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
        assert get_backend().name == "numpy"  # silent default fallback first
        if channel == "env":
            monkeypatch.setenv(backends.ENV_BACKEND, "native")
        else:
            set_backend("native")
        assert get_backend().name == "numpy"
        assert resolve_backend("native").name == "numpy"
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1 and "falling back to numpy" in warnings[0].getMessage()


@pytest.fixture()
def unloadable_backend():
    """A registered backend whose loader raises ImportError, like an
    accelerator whose toolchain is missing."""
    name = "nope-backend"
    backends._FAILED.pop(name, None)
    backends.register_backend(
        name, lambda: (_ for _ in ()).throw(ImportError("missing"))
    )
    yield name
    backends._LOADERS.pop(name, None)
    backends._FAILED.pop(name, None)


def test_unloadable_backend_falls_back_with_logged_warning(
    caplog, monkeypatch, unloadable_backend
):
    monkeypatch.delenv(backends.ENV_FALLBACK_WARNED, raising=False)
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        backend = resolve_backend(unloadable_backend)
        # warn-once: a second resolve stays silent
        resolve_backend(unloadable_backend)
    assert backend.name == "numpy"
    warnings = [r for r in caplog.records if "falling back to numpy" in r.message]
    assert len(warnings) == 1
    # the warning is recorded in the environment for child processes
    assert unloadable_backend in os.environ[backends.ENV_FALLBACK_WARNED].split(",")
    # selecting it process-wide degrades the same way instead of raising
    set_backend(unloadable_backend)
    assert get_backend().name == "numpy"


def test_fallback_warning_suppressed_when_env_flag_set(
    caplog, monkeypatch, unloadable_backend
):
    """A process whose parent already warned stays silent."""
    monkeypatch.setenv(backends.ENV_FALLBACK_WARNED, unloadable_backend)
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        backend = resolve_backend(unloadable_backend)
    assert backend.name == "numpy"
    assert not any("falling back to numpy" in r.message for r in caplog.records)


def test_third_backend_registration_and_dispatch():
    name = register_pymerge()
    a, ax, b, bx = _random_batch(np.random.default_rng(7), 13, 100, 12)
    base = batch_intersect_count(a, ax, b, bx, 100)
    with use_backend(name):
        assert get_backend().name == name
        got = batch_intersect_count(a, ax, b, bx, 100)
    np.testing.assert_array_equal(got.counts, base.counts)
    assert got.ops == base.ops


# ---------------------------------------------------------------------------
# Cross-backend bit-identity on the kernel contract
# ---------------------------------------------------------------------------


def _loadable_backends():
    names = ["numpy", register_pymerge()]
    if HAVE_NATIVE:
        names.append("native")
    return names


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backends_agree_on_random_batches(seed):
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _random_batch(rng, 40, 1000, 30)
    results = {}
    for name in _loadable_backends():
        with use_backend(name):
            cnt = batch_intersect_count(a, ax, b, bx, 1000)
            pair, elem, ops = batch_intersect_elements(a, ax, b, bx, 1000)
        results[name] = (cnt.counts, cnt.ops, pair, elem, ops)
    ref = results["numpy"]
    for name, got in results.items():
        np.testing.assert_array_equal(got[0], ref[0], err_msg=name)
        assert got[1] == ref[1], name
        np.testing.assert_array_equal(got[2], ref[2], err_msg=name)
        np.testing.assert_array_equal(got[3], ref[3], err_msg=name)
        assert got[4] == ref[4], name


def test_backends_agree_on_lopsided_sides():
    """The dispatcher's side swap must be backend-invariant."""
    rng = np.random.default_rng(3)
    a, ax, b, bx = _random_batch(rng, 10, 200, 4)
    big, bigx, _, _ = _random_batch(rng, 10, 200, 60)
    for left in [(a, ax, big, bigx), (big, bigx, a, ax)]:
        ref = None
        for name in _loadable_backends():
            with use_backend(name):
                got = batch_intersect_count(*left, 200)
            if ref is None:
                ref = got
            np.testing.assert_array_equal(got.counts, ref.counts)
            assert got.ops == ref.ops


def test_empty_and_degenerate_batches_never_reach_backends():
    """The dispatcher's fast path answers k=0 / empty sides itself."""
    e = np.empty(0, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    for name in _loadable_backends():
        with use_backend(name):
            res = batch_intersect_count(e, z, e, z, 10)
            assert res.counts.size == 0 and res.ops == 0
            pair, elem, ops = batch_intersect_elements(e, z, e, z, 10)
            assert pair.size == 0 and elem.size == 0 and ops == 0


# ---------------------------------------------------------------------------
# Fused count+elements dispatcher
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_dispatcher_consistent_with_unfused(seed):
    """Fused outputs must equal the two unfused calls, on every backend.

    ``pymerge`` ships no fused kernel, so it pins the dispatcher's
    derivation path (counts rebuilt from the hit stream); the others
    pin the genuinely fused kernels against the same reference.
    """
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _random_batch(rng, 40, 1000, 30)
    ref_cnt = batch_intersect_count(a, ax, b, bx, 1000)
    ref_pair, ref_elem, ref_ops = batch_intersect_elements(a, ax, b, bx, 1000)
    for name in _loadable_backends():
        with use_backend(name):
            counts, pair, elem, ops = batch_intersect_count_elements(
                a, ax, b, bx, 1000
            )
        np.testing.assert_array_equal(counts, ref_cnt.counts, err_msg=name)
        np.testing.assert_array_equal(pair, ref_pair, err_msg=name)
        np.testing.assert_array_equal(elem, ref_elem, err_msg=name)
        assert ops == ref_cnt.ops == ref_ops, name
        # internal consistency: counts are the pair_idx multiplicities
        np.testing.assert_array_equal(
            counts, np.bincount(pair, minlength=counts.size), err_msg=name
        )


def test_fused_dispatcher_empty_fast_path():
    e = np.empty(0, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    counts, pair, elem, ops = batch_intersect_count_elements(e, z, e, z, 10)
    assert counts.size == 0 and pair.size == 0 and elem.size == 0 and ops == 0


def test_fused_dispatcher_side_swap_invariant():
    rng = np.random.default_rng(5)
    small, sx, _, _ = _random_batch(rng, 12, 300, 4)
    big, bx, _, _ = _random_batch(rng, 12, 300, 50)
    fwd = batch_intersect_count_elements(small, sx, big, bx, 300)
    rev = batch_intersect_count_elements(big, bx, small, sx, 300)
    for got, ref in zip(rev, fwd):
        np.testing.assert_array_equal(got, ref)
