"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of the ``repro``
modules (class attributes, patched for the duration of a ``with``
block) and records one span per call.  Generator entry points are
timed per *resumption*: the wrapper drives the original generator and
records a span around each ``send``/``throw``, because calling a
generator function only creates the generator.

A span's self time is its duration minus the time covered by the
wrapped spans nested inside it; the kernel's run loop is itself
wrapped, so ``sim`` self time is the dispatch cost left after every
wrapped layer is taken out.  Spans are kept in memory (compact arrays)
and written out once, by :meth:`LayerTracer.dump`, after the run.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.analysis.metrics import MetricsCollector, StreamingMetricsCollector
from repro.cluster.builder import Cluster
from repro.cluster.client import ClientProcess
from repro.cluster.server import MetadataServer, _HandlerSlot
from repro.core.recovery import CxRecovery
from repro.core.role import CxRole
from repro.fs.namespace import NamespaceShard
from repro.net.network import Network
from repro.sim import Simulator
from repro.storage.wal import WriteAheadLog
from repro.workloads import SynthWorkload, TraceWorkload

#: (span name, class, attribute, is_generator).  The span name's
#: prefix before the first dot is the layer.
ENTRY_POINTS: List[Tuple[str, type, str, bool]] = [
    ("sim.run", Simulator, "run", False),
    ("sim.run", Simulator, "run_until", False),
    ("sim.run", Simulator, "step", False),
    ("net.send", Network, "send", False),
    ("cluster.build", Cluster, "build", False),
    ("cluster.dispatch", MetadataServer, "_main_loop", True),
    ("cluster.dispatch", MetadataServer, "spawn_handler", False),
    ("cluster.dispatch", _HandlerSlot, "_start", False),
    ("cluster.dispatch", _HandlerSlot, "_resume", False),
    ("cluster.perform", ClientProcess, "perform", True),
    ("workloads.gen", TraceWorkload, "build", False),
    ("workloads.gen", SynthWorkload, "setup", False),
    ("workloads.gen", SynthWorkload, "streams", False),
    ("core.handle", CxRole, "handle", True),
    ("core.handle", CxRole, "handle_fast", False),
    ("core.handle", CxRole, "handle_rename", True),
    ("core.recovery", CxRecovery, "run", True),
    ("wal.append", WriteAheadLog, "append", False),
    ("wal.append", WriteAheadLog, "append_h", False),
    ("fs.execute", NamespaceShard, "execute", False),
    ("analysis.record", MetricsCollector, "record_op", False),
    ("analysis.record", StreamingMetricsCollector, "record_op", False),
]

#: Span name of one ``next()`` on a streaming workload generator.
NEXT_OP = "workloads.next_op"

_MISSING = object()


class LayerTracer:
    """Installs the wrappers, records spans, aggregates self time."""

    def __init__(self) -> None:
        self.names: List[str] = sorted(
            {name for name, *_ in ENTRY_POINTS} | {NEXT_OP}
        )
        self._index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        # One row per span, indexed by span id (order of entry): name
        # index, parent span (-1 = none), start (seconds since the
        # tracer was made) and duration.  Self time is aggregated only.
        self.span_name = array("B")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_dur = array("f")
        # Open spans: [span id, child time, start].
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object]] = []
        self._t0 = time.perf_counter()

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, idx: int) -> list:
        sid = len(self.span_name)
        stack = self._stack
        self.span_name.append(idx)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_dur.append(0.0)
        frame = [sid, 0.0, time.perf_counter()]
        self.span_start.append(frame[2] - self._t0)
        stack.append(frame)
        return frame

    def _exit(self, idx: int, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[2]
        own = dur - frame[1]
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += own
        self.span_dur[frame[0]] = dur
        if stack:
            stack[-1][1] += dur

    def wrap_call(self, fn: Callable, name: str) -> Callable:
        idx = self._index[name]
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, frame)

        return traced

    def drive(self, gen, name: str):
        """Generator that runs ``gen``, one span per resumption."""
        idx = self._index[name]
        enter, exit_ = self._enter, self._exit
        value = None
        exc = None
        while True:
            frame = enter(idx)
            try:
                if exc is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(exc)
            except StopIteration as stop:
                exit_(idx, frame)
                return stop.value
            except BaseException:
                exit_(idx, frame)
                raise
            exit_(idx, frame)
            try:
                value = yield yielded
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                value = None
                exc = thrown

    def wrap_gen(self, fn: Callable, name: str) -> Callable:
        drive = self.drive

        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs), name)

        return traced

    def wrap_streams(self, fn: Callable) -> Callable:
        """``SynthWorkload.streams`` whose per-process streams are timed."""
        inner = self.wrap_call(fn, "workloads.gen")
        drive = self.drive

        def traced(*args, **kwargs):
            streams = inner(*args, **kwargs)
            return {p: drive(s, NEXT_OP) for p, s in streams.items()}

        return traced

    # -- install / remove --------------------------------------------------

    def _patch(self, cls: type, attr: str, replacement) -> None:
        self._patched.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        for name, cls, attr, is_gen in ENTRY_POINTS:
            raw = cls.__dict__.get(attr, _MISSING)
            if isinstance(raw, classmethod):
                fn = raw.__func__
                self._patch(cls, attr, classmethod(self.wrap_call(fn, name)))
                continue
            fn = getattr(cls, attr)
            if cls is SynthWorkload and attr == "streams":
                wrapped = self.wrap_streams(fn)
            elif is_gen:
                wrapped = self.wrap_gen(fn, name)
            else:
                wrapped = self.wrap_call(fn, name)
            self._patch(cls, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Span name -> calls, total seconds, self seconds."""
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> int:
        """Write every span to ``path`` (a compressed ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint8),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            dur=np.frombuffer(self.span_dur, dtype=np.float32),
        )
        return len(self.span_name)
