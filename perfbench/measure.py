"""One benchmark run: set-up, timed samples, the per-sample gate, and
the end-to-end or per-layer metrics (see ``run.py`` for the command)."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy

import layers
import speed
import workloads
from workloads import (
    Fingerprint,
    Workload,
    oracle_triangles,
    pinned,
    resolve_backend,
    run_sample,
    set_up,
)

#: Set-up runs at least ``SETUP_MIN`` and at most ``SETUP_MAX`` times,
#: and stops repeating once ``SETUP_SECONDS`` have been spent in it.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 2.0

END_TO_END_UNITS = {
    "run_ref": "ref",
    "arcs_per_ref": "arcs/ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_time_s": "s",
    "max_messages": "messages",
}

#: Layers that move records between PEs.
MESSAGE_PLANE = ("msgq.post", "msgq.flush", "msgq.finalize", "frames.build",
                 "frames.select", "router", "transport.send", "transport.try_recv")
#: Layers of the local intersection work.
LOCAL_PHASE = ("kernel", "local.gather")


class Gate:
    """Checks every sample and counts attempts and failures.

    A sample fails if it raises or if its fingerprint differs from the
    expected one: the pinned fingerprint of the seed, or for an unpinned
    seed the first sample whose count equals the oracle's.
    """

    def __init__(self, expected: Fingerprint | None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self._unchecked: list[Fingerprint] = []

    def sample(self, workload: Workload, dist) -> float | None:
        """Run one sample; returns its wall seconds, or None if it raised."""
        self.attempted += 1
        try:
            seconds, fp = run_sample(workload, dist)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.expected is None:
            self._unchecked.append(fp)
        elif not fp.matches(self.expected):
            print(f"mismatch: {fp} != {self.expected}", file=sys.stderr)
            self.failed += 1
        return seconds

    def settle(self, graph) -> None:
        """Check samples of an unpinned seed, once timing is over."""
        oracle = oracle_triangles(graph) if self._unchecked else None
        for fp in self._unchecked:
            if fp.triangles != oracle:
                print(f"wrong count: {fp.triangles} != oracle {oracle}", file=sys.stderr)
                self.failed += 1
            elif self.expected is None:
                self.expected = fp
            elif not fp.matches(self.expected):
                print(f"nondeterministic: {fp} != {self.expected}", file=sys.stderr)
                self.failed += 1
        self._unchecked = []

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.expected is not None


def _until(deadline: float, min_attempts: int, gate: Gate, step) -> None:
    while gate.attempted < min_attempts or time.perf_counter() < deadline:
        step()


def end_to_end(wl: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    """Median end-to-end metrics; prints one line per metric.

    Set-up and every sample run under a :class:`speed.SpeedProbe`, and
    the timed metrics are in host-speed-normalized units (see
    ``speed``); every sample starts from a collected heap.
    """
    speed.warm_up()
    setup_s: list[float] = []
    setup_wall_s: list[float] = []
    while len(setup_s) < SETUP_MIN or (
            sum(setup_wall_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX):
        setup = None  # free the previous input before making the next
        gc.collect()
        with speed.SpeedProbe() as probe:
            setup = set_up(wl, seed)
        setup_s.append(probe.norm_s)
        setup_wall_s.append(setup.seconds)
    run_ref: list[float] = []
    run_s: list[float] = []
    chunk_s: list[float] = []

    def step() -> None:
        gc.collect()
        with speed.SpeedProbe() as probe:
            sec = gate.sample(wl, setup.dist)
        if sec is not None:
            run_ref.append(probe.ref_units)
            run_s.append(sec)
            chunk_s.append(statistics.median(probe.chunk_s))

    _until(time.perf_counter() + seconds, 1, gate, step)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate.settle(setup.graph)
    if not run_ref or not gate.ok:
        return {}
    fp, arcs = gate.expected, setup.graph.num_arcs
    metrics = {
        "run_ref": statistics.median(run_ref),
        "arcs_per_ref": arcs / statistics.median(run_ref),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": peak_rss_mib,
        "sim_time_s": fp.sim_time_s,
        "max_messages": fp.max_messages,
    }
    samples = {"setup_s": len(setup_s), "peak_rss_mib": 1}
    for name, value in metrics.items():
        print(f"{name:<18} {value:>16.6g} {END_TO_END_UNITS[name]:<9} "
              f"median of {samples.get(name, len(run_ref))}")
    # Wall time as measured (probe chunks included); not reported,
    # because host drift moves it.
    print(f"{'run_s':<18} {statistics.median(run_s):>16.6g} s         "
          f"median of {len(run_s)}, min {min(run_s):.4f} max {max(run_s):.4f}")
    print(f"{'arcs_per_s':<18} {arcs / statistics.median(run_s):>16.6g} arcs/s")
    print(f"{'setup_wall_s':<18} {statistics.median(setup_wall_s):>16.6g} s         "
          f"median of {len(setup_wall_s)}")
    print(f"{'chunk_us':<18} {1e6 * statistics.median(chunk_s):>16.6g} us        "
          f"median over samples of each sample's median chunk")
    print(f"{'run_ref samples':<18} {' '.join(f'{v:.6g}' for v in run_ref)}")
    # Pinned, not reported: across seeds they spread by up to a quarter.
    print(f"{'bottleneck_words':<18} {fp.bottleneck_words:>16} words     simulated")
    print(f"{'peak_buffer_words':<18} {fp.peak_buffer_words:>16} words     simulated")
    print(f"{'triangles':<18} {fp.triangles:>16}   arcs {arcs}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(wl: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    """Per-layer metrics, each the (low) median over traced samples;
    prints a profile.

    Untraced and traced samples alternate, so the overhead ratio
    compares samples taken under the same host conditions.
    """
    setup_timer = layers.LayerTimer()
    with setup_timer.installed(extra=(workloads,)):
        setup = set_up(wl, seed)
    untraced: list[float] = []
    traced: list[tuple[float, layers.LayerTimer]] = []

    def step() -> None:
        if gate.attempted % 2 == 0:
            sec = gate.sample(wl, setup.dist)
            if sec is not None:
                untraced.append(sec)
            return
        timer = layers.LayerTimer()
        with timer.installed(extra=(workloads,)):
            sec = gate.sample(wl, setup.dist)
        if sec is not None:
            traced.append((sec, timer))

    _until(time.perf_counter() + seconds, 2, gate, step)
    gate.settle(setup.graph)
    if not traced or not untraced or not gate.ok:
        return {}

    samples = [layers.layer_metrics(timer) for _, timer in traced]
    setup_layers = layers.layer_metrics(setup_timer)
    metrics: dict[str, dict] = {}
    for name, (_, unit) in samples[0].items():
        if name.startswith(("gen.", "distribute.")):
            value = setup_layers[name][0]
        else:
            value = statistics.median_low(s[name][0] for s in samples)
        metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.median(sec for sec, _ in traced)
    metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_s / statistics.median(untraced), "unit": "ratio"}
    metrics["trace.unaccounted_s"] = {
        "value": statistics.median(sec - timer.total_s() for sec, timer in traced),
        "unit": "s"}

    for group, names in (("local_phase", LOCAL_PHASE), ("message_plane", MESSAGE_PLANE)):
        metrics[f"{group}.share"] = {
            "value": sum(metrics[f"{n}.s"]["value"] for n in names) / traced_s,
            "unit": "ratio"}
    for name, m in metrics.items():
        pct = ""
        if name.endswith(".s") and not name.startswith(("gen.", "distribute.", "trace.")):
            pct = f"{100 * m['value'] / traced_s:6.2f} %"
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']:<13} {pct}")
    print(f"traced samples {len(traced)}, untraced samples {len(untraced)}; "
          f"local_phase = {' + '.join(LOCAL_PHASE)}; "
          f"message_plane = {' + '.join(MESSAGE_PLANE)}")
    # Printed, not reported: the router's time is exactly 0 on workloads
    # without grid indirection, and a time that never varies is no metric.
    del metrics["router.s"]
    return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Gate, dict]:
    """One benchmark run; returns the gate and the metrics."""
    gate = Gate(pinned(wl, seed))
    print(f"workload {wl.name} seed {seed} seconds {seconds} trace {int(trace)}: "
          f"p={wl.num_pes} {wl.algorithm}, alpha-beta network, "
          f"{'pinned outputs' if gate.expected else 'oracle count'}")
    if trace:
        metrics = per_layer(wl, seed, seconds, gate)
    else:
        metrics = end_to_end(wl, seed, seconds, gate)
    print(f"provenance: backend {resolve_backend().name} "
          f"python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {len(os.sched_getaffinity(0))}")
    print(f"failed_frac {gate.failed / max(gate.attempted, 1):.4f} "
          f"({gate.failed} of {gate.attempted})")
    return gate, metrics
