"""Runtime-selected kernel backends for the batch intersection hot path.

``csr_intersect_count`` / ``csr_intersect_elements`` /
``csr_intersect_count_elements`` in :mod:`repro.core.intersect` are
the compute hot path of every algorithm variant.  This module makes
their *execution strategy* pluggable while keeping their *accounting*
fixed:

* The dispatcher in ``intersect.py`` owns everything observable by the
  simulation — int64 coercion, slot alignment and bounds validation,
  the empty fast path, the small-into-large side swap, and the charged
  merge-model ops (``|A| + |B|`` per pair, summed from ``xadj``).  A
  backend only supplies the raw kernels that produce counts/elements,
  so simulated accounting is *structurally* bit-identical across
  backends (pinned by ``tests/test_equivalence.py``).
* A backend receives each side in place as a validated
  :class:`~repro.core.intersect.CsrBlocks` ``(xadj, adjncy, slots,
  total)``: pair ``i`` intersects block ``slots[i]`` of side A with
  block ``slots[i]`` of side B.  The dispatcher guarantees contiguous
  ``int64`` arrays, ``k >= 1`` aligned slots, every block inside its
  ``adjncy``, both sides holding at least one element, and
  ``a.total <= b.total``.  ``count`` returns an ``int64`` array of
  ``k`` per-pair counts; ``elements`` returns ``(pair_idx, elements)``
  hit streams in (pair, ascending element) order — the canonical order
  both shipped backends emit naturally.

Two backends ship:

``native`` (the default wherever it builds)
    The cffi/C extension of :mod:`repro.core.native`: the paper's merge
    loops plus a galloping binary-search variant for skewed pairs
    (Section III-C), reading the blocks in place.  Compiled on demand
    at first use and cached; needs cffi and a C compiler.
``numpy`` (always available)
    The portable fallback: gathers the blocks into concat buffers and
    runs one offset-keyed global ``searchsorted``.

Selection (first match wins):

1. :func:`set_backend` / :func:`use_backend` in code,
2. the ``REPRO_KERNEL_BACKEND`` environment variable (which is how the
   ``repro-tc --kernel-backend`` CLI flag and ``ProcessMachine``
   workers propagate the choice),
3. ``native``, then ``numpy`` if ``native`` cannot load.

A known backend that cannot load never fails a run: it degrades to
``numpy``.  When ``native`` is only the default, that fallback is
logged at DEBUG level; a backend selected through (1) or (2) logs one
WARNING per process tree instead.  Unknown names raise ``KeyError``.

Registering another backend is two calls — see ``docs/KERNELS.md`` for
a worked example and the exact kernel contract.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intersect import _numpy_count, _numpy_count_elements, _numpy_elements

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "backend_status",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "ENV_FALLBACK_WARNED",
]

log = logging.getLogger("repro.kernels")

#: Environment variable naming the preferred backend.
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Backend used when none is selected; ``numpy`` if it cannot load.
DEFAULT_BACKEND = "native"

#: Comma-separated backend names whose fallback warning was already
#: emitted by this process tree.  Set when the warning fires, inherited
#: through the environment by ``ProcessMachine`` workers (fork *and*
#: spawn), so a driver-side warning is never repeated per worker.
ENV_FALLBACK_WARNED = "REPRO_KERNEL_FALLBACK_WARNED"


@dataclass(frozen=True)
class KernelBackend:
    """The raw kernels behind the ``csr_intersect_*`` dispatchers.

    ``count(a, b, vertex_bound)``, with ``a`` and ``b`` the validated
    :class:`~repro.core.intersect.CsrBlocks` sides, returns per-pair
    intersection counts; ``elements(...)`` returns the
    ``(pair_idx, elements)`` hit streams.  ``count_elements(...)`` —
    optional — returns ``(counts, pair_idx, elements)`` from one fused
    traversal; when a backend leaves it ``None`` the dispatcher derives
    the counts from the hit stream instead (same outputs either way).
    See the module docstring for the preconditions the dispatcher
    guarantees.
    """

    name: str
    count: Callable[..., np.ndarray]
    elements: Callable[..., tuple[np.ndarray, np.ndarray]]
    count_elements: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None


#: name -> loader returning a KernelBackend (may raise ImportError).
_LOADERS: dict[str, Callable[[], KernelBackend]] = {}
#: Successfully built backends, by name.
_BACKENDS: dict[str, KernelBackend] = {}
#: Explicit in-process selection (overrides the environment).
_ACTIVE: str | None = None
#: Backends whose load already failed, with the reason; not retried.
_FAILED: dict[str, str] = {}


def register_backend(name: str, loader: Callable[[], KernelBackend]) -> None:
    """Register a backend under ``name``.

    ``loader`` is called lazily on first selection and may raise
    ``ImportError`` — the dispatcher then falls back to ``numpy``.
    """
    _LOADERS[name] = loader


def available_backends() -> list[str]:
    """All registered backend names (loadable or not)."""
    return sorted(_LOADERS)


def backend_status() -> dict[str, str]:
    """Map of backend name -> ``"ok"`` or the load-failure reason."""
    status = {}
    for name in available_backends():
        try:
            _load(name)
            status[name] = "ok"
        except ImportError as exc:
            status[name] = f"unavailable ({exc})"
    return status


def _load(name: str) -> KernelBackend:
    if name in _BACKENDS:
        return _BACKENDS[name]
    if name not in _LOADERS:
        raise KeyError(
            f"unknown kernel backend {name!r}; registered: {available_backends()}"
        )
    if name in _FAILED:
        # A failed build is not retried on every dispatch.
        raise ImportError(_FAILED[name])
    try:
        backend = _LOADERS[name]()
    except ImportError as exc:
        _FAILED[name] = str(exc)
        raise
    _BACKENDS[name] = backend
    return backend


def _fallback_warned(name: str) -> bool:
    """Whether some process in this tree already warned about ``name``."""
    return name in os.environ.get(ENV_FALLBACK_WARNED, "").split(",")


def _mark_fallback_warned(name: str) -> None:
    """Record the warning in the environment for child processes.

    ``ProcessMachine`` workers inherit the environment under both fork
    and spawn, so once the driver has warned, workers resolving the
    same unavailable backend stay silent instead of re-warning once
    per process (see also the eager driver-side resolve in
    ``ProcessMachine.run``).
    """
    warned = [n for n in os.environ.get(ENV_FALLBACK_WARNED, "").split(",") if n]
    if name not in warned:
        warned.append(name)
        os.environ[ENV_FALLBACK_WARNED] = ",".join(warned)


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve ``name`` (or the current selection) to a loaded backend.

    Unknown names raise ``KeyError``.  Known-but-unloadable backends
    (e.g. ``native`` without a C compiler) degrade to ``numpy`` — runs
    never fail because an accelerator is missing.  A selected backend
    warns once per process tree; the unselected default logs at DEBUG.
    """
    selected = name or _ACTIVE or os.environ.get(ENV_BACKEND, "").strip()
    name = selected or DEFAULT_BACKEND
    first_failure = name not in _FAILED
    try:
        return _load(name)
    except ImportError as exc:
        if not selected:
            if first_failure:
                log.debug(
                    "default kernel backend %r unavailable (%s); using numpy", name, exc
                )
        elif not _fallback_warned(name):
            log.warning(
                "kernel backend %r unavailable (%s); falling back to numpy",
                name,
                exc,
            )
            _mark_fallback_warned(name)
        return _load("numpy")


def get_backend() -> KernelBackend:
    """The backend the dispatcher will use for the next batch call."""
    return resolve_backend(None)


def set_backend(name: str | None) -> None:
    """Select a backend process-wide (``None`` reverts to env/default).

    Validates eagerly: unknown names raise immediately rather than at
    the first intersection.
    """
    global _ACTIVE
    if name is not None:
        resolve_backend(name)
    _ACTIVE = name


@contextmanager
def use_backend(name: str | None):
    """Temporarily select a backend (tests, benchmarks)."""
    global _ACTIVE
    prev = _ACTIVE
    set_backend(name)
    try:
        yield
    finally:
        _ACTIVE = prev


# ---------------------------------------------------------------------------
# numpy backend (always available)
# ---------------------------------------------------------------------------


def _load_numpy() -> KernelBackend:
    return KernelBackend("numpy", _numpy_count, _numpy_elements, _numpy_count_elements)


register_backend("numpy", _load_numpy)


# ---------------------------------------------------------------------------
# native backend (optional: cffi + a C compiler, built on demand)
# ---------------------------------------------------------------------------


def _load_native() -> KernelBackend:
    # Builds the extension at first use; any failure (no cffi wheel,
    # no compiler) surfaces as ImportError -> numpy fallback.
    from .native import load_native_kernels

    count, elements, count_elements = load_native_kernels()
    return KernelBackend("native", count, elements, count_elements)


register_backend("native", _load_native)

