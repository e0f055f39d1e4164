"""Golden fingerprints of the simulator's reference schedule.

``tests/golden/fingerprints.json`` freezes what the machine computes on
a fixed set of runs.  The numbers were recorded from the strict
round-robin polling schedule (every round visits every live PE in rank
order and checks its crash schedule), which the event engine's default
``compat-heap`` discipline replays exactly under the alpha-beta
network.  Each section below recomputes one part of the file:

* ``variant_matrix`` — 2 generators × 3 seeds × 8 algorithm variants:
  count, simulated time, machine events, per-PE clock and
  message/word counters;
* ``wakeup_mid_round`` — a lower rank's send wakes a parked higher
  rank inside the same round;
* ``fault_injection`` — drops, duplicates and delays under the reliable
  transport: the fault-decision stream and the repair costs;
* ``crash_sweep`` — crash coordinates, restarts and the surviving run
  over a (variant, p, rank, fraction) sweep on the chaos graph, plus
  two-crash global restarts;
* ``chaos`` — the ``make chaos`` campaign, outcome by outcome, and its
  printed table;
* ``amq`` — the AMQ global phase (Bloom and single-shot Bloom filters,
  direct and over the grid router) and the approximate LCC: the float
  estimates as ``repr``, per-PE remote parts or a digest of the
  per-vertex Δ, simulated time, per-PE messages/words and buffer peaks.
  These estimates are float sums, so they pin the order in which
  records are posted and received;
* ``router_scale`` (its ``cases``) — CETRIC² and DITRIC² over the grid
  router at p ∈ {10, 27, 64} (non-square grids with a partial last
  row) with a flush threshold small enough that proxies' column queues
  flush while re-posting: count, simulated time, machine events, per-PE
  clock, message/word counters and buffer peaks.

Three sections are checked where the code they pin lives:
``queue_reference`` (the aggregation queue's outcomes on random record
batches, recorded from one ``post`` per record) by
``tests/test_frames.py``; ``engine_scale`` (simulated time and engine
steps per p of the idle-PE benchmark) by
``benchmarks/bench_engine_scale.py``; ``bench_frames`` (the exchange
of the frame benchmark, recorded from its per-record arm) by
``benchmarks/bench_frames.py``; ``router_scale`` ``bench`` (CETRIC² on
RMAT scale 10 at p = 256) by ``benchmarks/bench_router_scale.py``.

Nothing regenerates the file.  A change that alters the model edits the
JSON and says why.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.runner import _ENGINE_CONFIGS
from repro.baselines.havoqgt import havoqgt_program
from repro.baselines.tric import tric_program
from repro.core.approx import amq_cetric_program, amq_lcc_program
from repro.core.checkpoint import CheckpointStore, run_with_recovery
from repro.core.engine import counting_program
from repro.faults import CrashEvent, FaultPlan, format_campaign, run_campaign
from repro.faults.chaos import CHAOS_ALGORITHMS, default_chaos_graph
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import GridRouter, Machine

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "fingerprints.json").read_text()
)

VARIANTS = (*_ENGINE_CONFIGS, "tric", "havoqgt")
MATRIX_CASES = [(g, s) for g in ("rmat", "rgg3d") for s in (101, 102, 103)]

CRASH_VARIANTS = ("ditric", "cetric")
CRASH_PES = (3, 4)
CRASH_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: (p, ((rank, fraction), (rank, fraction))) two-crash global restarts.
TWO_CRASH_CASES = (
    (3, ((1, 0.3), (1, 0.6))),
    (4, ((0, 0.2), (3, 0.5))),
    (4, ((2, 0.5), (2, 0.5))),
    (4, ((3, 0.8), (1, 0.1))),
)

AMQ_KINDS = ("bloom", "ssbf")
AMQ_PES = (4, 7, 9)
#: Direct queue (CETRIC) and grid router (CETRIC²) global phases.
AMQ_ROUTES = ("cetric", "cetric2")

ROUTER_VARIANTS = ("cetric2", "ditric2")
#: Grids of 4×3 and 6×5 PEs, both with a partial last row, and 8×8.
ROUTER_PES = (10, 27, 64)
#: Small enough that a proxy's column queue flushes while it re-posts.
ROUTER_THRESHOLD_FACTOR = 0.25


def _plain(obj):
    """JSON round trip: tuples become lists, numpy scalars Python ones."""
    return json.loads(json.dumps(obj, default=lambda x: x.item()))


def _triangles_of(value):
    return getattr(value, "triangles_total", None) or getattr(value, "triangles", value)


def _run_fingerprint(result):
    per_pe = result.metrics.per_pe
    return {
        "count": _triangles_of(result.values[0]),
        "time": result.time,
        "events": result.events,
        "clock": [m.clock for m in per_pe],
        "messages_sent": [m.messages_sent for m in per_pe],
        "words_sent": [m.words_sent for m in per_pe],
        "messages_received": [m.messages_received for m in per_pe],
        "words_received": [m.words_received for m in per_pe],
    }


def _program_of(variant, dist):
    if variant in _ENGINE_CONFIGS:
        return counting_program, (dist, _ENGINE_CONFIGS[variant])
    if variant == "tric":
        return tric_program, (dist,)
    return havoqgt_program, (dist,)


def _matrix_graph(generator, seed):
    if generator == "rmat":
        return gen.rmat(8, 8, seed=seed)
    return gen.rgg3d(300, expected_edges=2400, seed=seed)


def variant_matrix_case(generator, seed):
    dist = distribute(_matrix_graph(generator, seed), num_pes=4)
    out = {}
    for variant in VARIANTS:
        program, args = _program_of(variant, dist)
        out[variant] = _run_fingerprint(Machine(4).run(program, *args))
    return _plain(out)


def _wakeup_program(ctx):
    if ctx.rank == 0:
        ctx.charge(10)
        ctx.send(2, "t", "x", 1)
    elif ctx.rank == 2:
        msg = yield from ctx.recv("t")
        return msg.payload
    return None
    yield  # pragma: no cover


def wakeup_mid_round():
    res = Machine(3).run(_wakeup_program)
    return _plain({"values": res.values, "time": res.time, "events": res.events})


def fault_injection():
    dist = distribute(default_chaos_graph(), num_pes=3)
    plan = FaultPlan(31, drop_rate=0.08, duplicate_rate=0.04, delay_rate=0.03)
    res = Machine(3, fault_plan=plan, transport="reliable").run(
        counting_program, dist, CHAOS_ALGORITHMS["ditric"]
    )
    return _plain(
        {
            "count": res.values[0].triangles_total,
            "time": res.time,
            "events": res.events,
            "summary": res.metrics.summary(),
        }
    )


def _recovered_run(dist, config, crashes):
    p = dist.num_pes
    plan = FaultPlan(1, drop_rate=0.05, crashes=crashes)
    machine = Machine(
        p, fault_plan=plan, transport="reliable", checkpoint_store=CheckpointStore(p)
    )
    rec = run_with_recovery(machine, counting_program, dist, config)
    return {
        "crashes": rec.crashes,
        "restarts": rec.restarts,
        "attempt_times": rec.attempt_times,
        "count": rec.values[0].triangles_total,
        "time": rec.time,
        "events": rec.result.events,
        "retransmits": rec.result.metrics.total_retransmits,
    }


def crash_sweep():
    graph = default_chaos_graph()
    out = {}
    for variant in CRASH_VARIANTS:
        config = CHAOS_ALGORITHMS[variant]
        for p in CRASH_PES:
            dist = distribute(graph, num_pes=p)
            total = Machine(p).run(counting_program, dist, config).events
            for rank in range(p):
                for frac in CRASH_FRACTIONS:
                    crash = (CrashEvent(rank, int(total * frac)),)
                    out[f"{variant}/p{p}/r{rank}/f{frac}"] = _recovered_run(
                        dist, config, crash
                    )
            for case_p, pair in TWO_CRASH_CASES:
                if case_p != p:
                    continue
                crashes = tuple(CrashEvent(r, int(total * f)) for r, f in pair)
                key = ",".join(f"r{r}f{f}" for r, f in pair)
                out[f"{variant}/p{p}/two/{key}"] = _recovered_run(dist, config, crashes)
    return _plain(out)


def chaos_campaign():
    """``make chaos``: 3 seeds × drops {0, 5 %} × DITRIC/CETRIC, one crash."""
    outcomes = run_campaign(
        algorithms=("ditric", "cetric"), seeds=range(3), drop_rates=(0.0, 0.05)
    )
    return _plain(
        {
            "outcomes": [dataclasses.asdict(o) for o in outcomes],
            "table": format_campaign(outcomes),
        }
    )


def _amq_graph():
    return gen.rmat(9, 8, seed=5)


def _amq_fingerprint(res):
    per_pe = res.metrics.per_pe
    return {
        "estimate": repr(res.values[0].estimate_total),
        "time": res.time,
        "messages_sent": [m.messages_sent for m in per_pe],
        "words_sent": [m.words_sent for m in per_pe],
        "peak_buffer_words": [m.peak_buffer_words for m in per_pe],
    }


def amq_runs():
    graph = _amq_graph()
    out = {}
    for p in AMQ_PES:
        dist = distribute(graph, num_pes=p)
        for kind in AMQ_KINDS:
            for route in AMQ_ROUTES:
                res = Machine(p).run(
                    amq_cetric_program, dist, amq_kind=kind, config=_ENGINE_CONFIGS[route]
                )
                fp = _amq_fingerprint(res)
                fp["approx_remote"] = [repr(v.approx_remote) for v in res.values]
                out[f"cetric/{kind}/{route}/p{p}"] = fp
            res = Machine(p).run(amq_lcc_program, dist, amq_kind=kind)
            fp = _amq_fingerprint(res)
            delta = b"".join(v.delta.astype("<f8").tobytes() for v in res.values)
            fp["delta_sha256"] = hashlib.sha256(delta).hexdigest()
            out[f"lcc/{kind}/p{p}"] = fp
    return _plain(out)


def router_scale_runs():
    """The ``router_scale`` cases; also returns the ranks whose column
    queue flushed inside a ``GridRouter._repost`` call."""
    graph = gen.rmat(9, 8, seed=7)
    out = {}
    flushed_mid_repost = set()
    repost = GridRouter._repost

    def observed_repost(router, *args):
        before = router._col_queue.flushes
        repost(router, *args)
        if router._col_queue.flushes > before:
            flushed_mid_repost.add((router.ctx.num_pes, router.ctx.rank))

    GridRouter._repost = observed_repost
    try:
        for p in ROUTER_PES:
            dist = distribute(graph, num_pes=p)
            for variant in ROUTER_VARIANTS:
                config = dataclasses.replace(
                    _ENGINE_CONFIGS[variant], threshold_factor=ROUTER_THRESHOLD_FACTOR
                )
                res = Machine(p).run(counting_program, dist, config)
                fp = _run_fingerprint(res)
                fp["peak_buffer_words"] = [m.peak_buffer_words for m in res.metrics.per_pe]
                out[f"{variant}/p{p}"] = fp
    finally:
        GridRouter._repost = repost
    return _plain(out), flushed_mid_repost


def _assert_matches(got, want, label):
    assert set(got) == set(want), label
    for key in want:
        assert got[key] == want[key], f"{label}: {key} differs from the golden fingerprint"


@pytest.mark.parametrize("generator,seed", MATRIX_CASES)
def test_variant_matrix_matches_golden(generator, seed):
    key = f"{generator}/{seed}"
    _assert_matches(variant_matrix_case(generator, seed), GOLDEN["variant_matrix"][key], key)


def test_wakeup_mid_round_matches_golden():
    assert wakeup_mid_round() == GOLDEN["wakeup_mid_round"]


def test_fault_injection_matches_golden():
    _assert_matches(fault_injection(), GOLDEN["fault_injection"], "fault_injection")


def test_crash_sweep_matches_golden():
    _assert_matches(crash_sweep(), GOLDEN["crash_sweep"], "crash_sweep")


def test_chaos_campaign_matches_golden():
    got = chaos_campaign()
    assert got["table"] == GOLDEN["chaos"]["table"]
    assert got["outcomes"] == GOLDEN["chaos"]["outcomes"]


def test_amq_matches_golden():
    _assert_matches(amq_runs(), GOLDEN["amq"], "amq")


def test_router_scale_matches_golden():
    got, flushed_mid_repost = router_scale_runs()
    _assert_matches(got, GOLDEN["router_scale"]["cases"], "router_scale")
    # The cases exercise a column-queue flush in the middle of a re-post.
    assert flushed_mid_repost
