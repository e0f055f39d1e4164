"""Outside-in per-layer wall-time profile of one benchmark run.

The program is not edited: :class:`LayerTimer` wraps the public
functions of each module named in :data:`LAYERS` for the duration of a
``with timer.installed():`` block and restores the originals on exit.

Three details make the attribution right:

* Generator functions (SPMD programs, collectives, queue finalizers)
  are timed per resume, not at creation: the wrapper is itself a
  generator that re-enters the layer around every ``send``/``throw``
  into the wrapped one.  Time a PE spends parked in the engine is thus
  charged to the engine, not to the generator that yielded.
* A layer's self time excludes the time of layers nested inside it,
  so the self times of all layers plus ``unaccounted`` add up to the
  wall time of the traced call.
* Names bound by ``from module import name`` are separate references.
  Every loaded ``repro`` module (and any module passed as ``extra``)
  is scanned for attributes that are the original object, and each is
  rebound, e.g. ``repro.core.engine.gather_blocks``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Hook = Callable[["LayerTimer", tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_gen(t: "LayerTimer", args, kwargs, graph) -> None:
    t.counts["gen.arcs"] += graph.num_arcs


def _count_gather(t: "LayerTimer", args, kwargs, out) -> None:
    concat, out_xadj = out
    t.counts["local.gather.blocks"] += out_xadj.size - 1
    t.counts["local.gather.bytes"] += concat.nbytes + out_xadj.nbytes


def _count_kernel(t: "LayerTimer", args, kwargs, out) -> None:
    a_concat = _arg(args, kwargs, 0, "a_concat")
    a_xadj = _arg(args, kwargs, 1, "a_xadj")
    b_concat = _arg(args, kwargs, 2, "b_concat")
    t.counts["kernel.pairs"] += len(a_xadj) - 1
    # The merge model's charge, as the dispatcher computes it.
    t.counts["kernel.ops"] += len(a_concat) + len(b_concat)


def _count_post(t: "LayerTimer", args, kwargs, out) -> None:
    t.counts["msgq.post.records"] += 1


def _count_post_many(t: "LayerTimer", args, kwargs, out) -> None:
    t.counts["msgq.post.records"] += len(_arg(args, kwargs, 1, "dest_ranks"))


def _count_build(t: "LayerTimer", args, kwargs, frame) -> None:
    frame = getattr(frame, "frame", frame)  # a ForwardFrame wraps its records
    t.counts["frames.records"] += frame.num_records


def _count_send(t: "LayerTimer", args, kwargs, out) -> None:
    t.counts["transport.messages"] += 1
    t.counts["transport.words"] += int(_arg(args, kwargs, 4, "words"))


def _count_recv(t: "LayerTimer", args, kwargs, msg) -> None:
    if msg is not None:
        t.counts["transport.received"] += 1


def _count_engine(t: "LayerTimer", args, kwargs, out) -> None:
    stats = args[0].stats
    t.counts["engine.steps"] += stats.steps
    t.counts["engine.events"] += stats.events
    t.counts["engine.wakeups"] += stats.wakeups


@dataclass(frozen=True)
class Layer:
    """One timed callable: ``module:qualname`` charged to ``layer``."""

    module: str
    qualname: str
    layer: str
    hook: Hook | None = None


_COMM = ("barrier", "reduce_to_root", "bcast", "allreduce", "alltoallv_dense",
         "sparse_alltoall", "drain")

#: The layer taxonomy, named after the modules that implement it.
LAYERS: tuple[Layer, ...] = (
    Layer("repro.graphs.generators.rmat", "rmat", "gen", _count_gen),
    Layer("repro.graphs.generators.rgg", "rgg2d", "gen", _count_gen),
    Layer("repro.graphs.distributed", "distribute", "distribute"),
    Layer("repro.core.preprocessing", "exchange_ghost_degrees", "preprocess.degree_exchange"),
    Layer("repro.core.preprocessing", "build_oriented", "preprocess.orient"),
    Layer("repro.core.intersect", "gather_blocks", "local.gather", _count_gather),
    Layer("repro.core.intersect", "batch_intersect_count", "kernel", _count_kernel),
    Layer("repro.core.intersect", "batch_intersect_elements", "kernel", _count_kernel),
    Layer("repro.core.intersect", "batch_intersect_count_elements", "kernel", _count_kernel),
    Layer("repro.core.kernels", "count_csr_pairs", "local.count_csr_pairs"),
    Layer("repro.core.kernels", "count_record_pairs", "global.count_record_pairs"),
    Layer("repro.core.engine", "counting_program", "program"),
    Layer("repro.net.aggregation", "BufferedMessageQueue.post", "msgq.post", _count_post),
    Layer("repro.net.aggregation", "BufferedMessageQueue.post_many", "msgq.post",
          _count_post_many),
    Layer("repro.net.aggregation", "BufferedMessageQueue.flush", "msgq.flush"),
    Layer("repro.net.aggregation", "BufferedMessageQueue.finalize", "msgq.finalize"),
    Layer("repro.net.frames", "FrameBuilder.build", "frames.build", _count_build),
    Layer("repro.net.frames", "RecordFrame.select", "frames.select"),
    *(Layer("repro.net.indirect", f"GridRouter.{name}", "router")
      for name in ("__init__", "post", "post_many", "_repost", "finalize")),
    *(Layer("repro.net.comm", name, "collectives") for name in _COMM),
    Layer("repro.net.machine", "PEContext.send", "transport.send", _count_send),
    Layer("repro.net.machine", "PEContext.try_recv", "transport.try_recv", _count_recv),
    Layer("repro.sim.engine", "SimEngine.run", "engine", _count_engine),
)

#: Every layer name, in taxonomy order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(spec.layer for spec in LAYERS))


class LayerTimer:
    """Accumulates self time, calls and counts per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: [layer, start, time covered by nested spans].
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def total_s(self) -> float:
        """Sum of all self times."""
        return sum(self.self_s.values())

    def wrap(self, fn: Callable, layer: str, hook: Hook | None) -> Callable:
        """A stand-in for ``fn`` that charges its time to ``layer``."""
        timer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def timed_gen(*args, **kwargs):
                timer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                sent: Any = None
                thrown: BaseException | None = None
                while True:
                    timer.enter(layer)
                    try:
                        if thrown is None:
                            out = inner.send(sent)
                        else:
                            out, thrown = inner.throw(thrown), None
                    except StopIteration as stop:
                        if hook is not None:
                            hook(timer, args, kwargs, stop.value)
                        return stop.value
                    finally:
                        timer.exit()
                    try:
                        sent = yield out
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into the wrapped generator
                        sent, thrown = None, exc

            return timed_gen

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            timer.calls[layer] += 1
            timer.enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                timer.exit()
            if hook is not None:
                hook(timer, args, kwargs, out)
            return out

        return timed

    @contextlib.contextmanager
    def installed(self, extra: tuple = ()) -> Iterator["LayerTimer"]:
        """Wrap every layer callable; restore all originals on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for spec in LAYERS:
                module = importlib.import_module(spec.module)
                owner_name, _, attr = spec.qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                wrapped = self.wrap(original, spec.layer, spec.hook)
                if owner_name:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for ns in _namespaces(extra):
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            undo.append((ns, name, original))
                            setattr(ns, name, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _namespaces(extra: tuple) -> list:
    """Every loaded ``repro`` module plus ``extra`` modules."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]
    return mods + [m for m in extra if m not in mods]


#: Counts recorded by the hooks and reported as they are, with units.
COUNTS: dict[str, str] = {
    "gen.arcs": "arcs",
    "local.gather.blocks": "blocks",
    "local.gather.bytes": "bytes",
    "kernel.pairs": "pairs",
    "kernel.ops": "ops",
    "msgq.post.records": "records",
    "transport.messages": "messages",
    "transport.words": "words",
    "engine.steps": "steps",
    "engine.events": "events",
    "engine.wakeups": "wakeups",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timer: LayerTimer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one traced run."""
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.s"] = (timer.self_s.get(layer, 0.0), "s")
        out[f"{layer}.calls"] = (timer.calls.get(layer, 0), "calls")
    for name, unit in COUNTS.items():
        out[name] = (timer.counts.get(name, 0), unit)
    calls, counts = timer.calls, timer.counts
    out["kernel.pairs_per_call"] = (
        _ratio(counts["kernel.pairs"], calls["kernel"]), "pairs/call")
    out["frames.records_per_build"] = (
        _ratio(counts["frames.records"], calls["frames.build"]), "records/build")
    out["transport.recv_hit_ratio"] = (
        _ratio(counts["transport.received"], calls["transport.try_recv"]), "ratio")
    return out
