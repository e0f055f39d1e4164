"""Host speed measured while a computation runs.

On a shared host the speed of a core drifts by up to 2x within seconds
(neighbours contend for the core and its caches; the guest sees no
steal time), so raw wall time of a multi-second sample spreads widely
from run to run.  :class:`SpeedProbe` interrupts the computation every
``INTERVAL_S`` of wall time (``SIGALRM``) and times one
:func:`reference_chunk`, a fixed piece of work that uses none of the
program.  The chunks sample the host's speed at the same moments the
computation runs, so::

    ref_units = program_s / mean(chunk_s)

counts the computation's work in reference chunks, and host speed drift
cancels to first order.  The chunk mixes what the program spends its
time on: small numpy sorts, dict updates and generator-driven object
creation.

The probe costs about 5 % of a sample's wall time; ``program_s`` is the
wall time with the chunks taken out.  Signal handlers run between
bytecodes, so a chunk never interrupts a numpy call; it waits for the
call to return.  Use the probe from the main thread only.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy

#: Wall seconds between two chunks.
INTERVAL_S = 0.005
#: About the seconds one chunk takes inside a running sample (its caches
#: cold from the program) on an idle core of the 2-vCPU Xeon (Sapphire
#: Rapids) KVM guest the bounds were set on; converts reference units
#: back to seconds.
REF_CHUNK_S = 2.0e-4

_SORTED = numpy.random.default_rng(12345).integers(0, 1 << 40, 2048)


class _Record:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _records(n: int):
    for i in range(n):
        yield _Record(i)


def reference_chunk() -> int:
    """A fixed computation of about 0.1-0.3 ms that uses none of the program."""
    numpy.sort(_SORTED)
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i & 63] = counts.get(i & 63, 0) + i
    total = 0
    for record in _records(300):
        total += record.value
    return total + len(counts)


def warm_up() -> None:
    """Run the chunk until its code and data are warm."""
    for _ in range(100):
        reference_chunk()


class SpeedProbe:
    """``with SpeedProbe() as probe:`` times chunks while the block runs.

    One chunk also runs on entry and one on exit, so even a block
    shorter than ``INTERVAL_S`` has two speed readings next to it.
    """

    def __init__(self) -> None:
        self.chunk_s: list[float] = []
        self.wall_s = 0.0

    def _chunk(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        self.chunk_s.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._chunk()
        self._handler = signal.signal(signal.SIGALRM, self._chunk)
        self._t0 = time.perf_counter()
        self._timer = signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, *self._timer)
        # A tick that arrived before the timer stopped has run by now.
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._handler)
        self._chunk()

    @property
    def program_s(self) -> float:
        """Wall seconds of the block without the chunks run inside it."""
        return self.wall_s - sum(self.chunk_s[1:-1])

    @property
    def ref_units(self) -> float:
        """The block's work in reference chunks."""
        return self.program_s / statistics.fmean(self.chunk_s)

    @property
    def norm_s(self) -> float:
        """The block's work in seconds of a host at the reference speed."""
        return self.ref_units * REF_CHUNK_S
