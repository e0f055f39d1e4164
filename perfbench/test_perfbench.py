"""Tests of the benchmark itself: pinned outputs, the layer timer, and
the metric names ``BENCHMARK.json`` declares.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time

import pytest

import run

run.clean_environment()
sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, pinned, run_sample, set_up  # noqa: E402

BENCHMARK_JSON = run.SRC.parent / "BENCHMARK.json"


@pytest.fixture(scope="module", params=list(WORKLOADS))
def seed1(request):
    """Set-up of each workload at the default seed."""
    wl = WORKLOADS[request.param]
    return wl, set_up(wl, workloads.DEFAULT_SEED)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_counts_match_oracle(name):
    wl = WORKLOADS[name]
    table = workloads.load_pinned()[name]
    assert set(table) == {str(s) for s in workloads.PINNED_SEEDS}
    for seed in workloads.PINNED_SEEDS:
        graph = wl.generate(seed)
        assert table[str(seed)].triangles == workloads.oracle_triangles(graph), seed


def _traced(wl, dist):
    timer = layers.LayerTimer()
    with timer.installed(extra=(workloads,)):
        seconds, fp = run_sample(wl, dist)
    return seconds, fp, timer


def test_traced_runs_match_pins_and_repeat_counts(seed1):
    wl, setup = seed1
    expected = pinned(wl, workloads.DEFAULT_SEED)
    _, untraced = run_sample(wl, setup.dist)
    sec_a, fp_a, timer_a = _traced(wl, setup.dist)
    _, fp_b, timer_b = _traced(wl, setup.dist)
    assert untraced == expected
    assert fp_a == expected and fp_b == expected
    a, b = layers.layer_metrics(timer_a), layers.layer_metrics(timer_b)
    counts = {k for k, (_, unit) in a.items() if unit != "s"}
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["kernel.calls"][0] > 0 and a["transport.messages"][0] > 0
    # The taxonomy covers the run: what no layer claims is tiny.
    assert sec_a - timer_a.total_s() < 0.02 * sec_a


def test_counts_agree_with_program_metrics(seed1):
    wl, setup = seed1
    timer = layers.LayerTimer()
    with timer.installed(extra=(workloads,)):
        res = workloads.run_algorithm(setup.dist, wl.algorithm)
    assert timer.counts["transport.messages"] == res.total_messages
    assert timer.counts["transport.words"] == res.total_volume
    assert timer.counts["kernel.ops"] <= res.total_ops


def test_from_imports_are_rebound_and_restored():
    import repro.analysis.runner as runner
    import repro.core.engine as engine
    import repro.core.intersect as intersect
    import repro.core.kernels as kernels

    originals = (engine.gather_blocks, kernels.batch_intersect_count,
                 runner.counting_program)
    with layers.LayerTimer().installed():
        rebound = (engine.gather_blocks, kernels.batch_intersect_count,
                   runner.counting_program)
        assert engine.gather_blocks is intersect.gather_blocks
        assert runner.counting_program.__fault_tolerant__
    assert all(new is not old for new, old in zip(rebound, originals))
    assert (engine.gather_blocks, kernels.batch_intersect_count,
            runner.counting_program) == originals


def test_generators_are_timed_per_resume_and_nesting_is_exclusive():
    timer = layers.LayerTimer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = timer.wrap(lambda: busy(0.02), "inner", None)

    def program():
        for _ in range(3):
            busy(0.01)
            inner()
            yield

    timed = timer.wrap(program, "outer", None)
    gen = timed()
    for _ in gen:
        busy(0.03)  # between resumes: not the generator's time
    assert timer.calls == {"outer": 1, "inner": 3}
    assert 0.03 <= timer.self_s["outer"] < 0.06
    assert 0.06 <= timer.self_s["inner"] < 0.09


def test_thrown_exceptions_reach_the_wrapped_generator():
    timer = layers.LayerTimer()

    def program():
        try:
            yield 1
        except KeyError:
            yield 2
        return 3

    gen = timer.wrap(program, "g", None)()
    assert next(gen) == 1
    assert gen.throw(KeyError()) == 2
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == 3
    assert not timer._stack


def test_speed_probe_samples_during_the_block_and_restores_the_timer():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        busy(0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Entry and exit chunks plus about one tick per interval.
    assert 2 + 0.2 / speed.INTERVAL_S / 2 < len(probe.chunk_s) <= 3 + 0.2 / speed.INTERVAL_S
    assert 0.2 <= probe.wall_s and 0 < probe.program_s < probe.wall_s
    assert probe.ref_units * statistics.fmean(probe.chunk_s) == pytest.approx(probe.program_s)
    with speed.SpeedProbe() as probe:
        pass
    assert len(probe.chunk_s) == 2 and probe.ref_units >= 0


def test_benchmark_json_names_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    per_layer = {k: unit for k, (_, unit) in
                 layers.layer_metrics(layers.LayerTimer()).items()}
    per_layer.update({"trace.run_s": "s", "trace.overhead_ratio": "ratio",
                      "trace.unaccounted_s": "s", "local_phase.share": "ratio",
                      "message_plane.share": "ratio"})
    del per_layer["router.s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_clean_environment(monkeypatch):
    monkeypatch.setenv("REPRO_PROTOCOL_CHECK", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
    assert run.clean_environment() == ["REPRO_KERNEL_BACKEND", "REPRO_PROTOCOL_CHECK"]
    assert not any(k.startswith("REPRO_") for k in os.environ)
