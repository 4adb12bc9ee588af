"""The simulator: virtual clock plus a struct-of-arrays event timeline.

Timeline design (see DESIGN.md "Performance")
---------------------------------------------

Events are logically ordered by ``(time, priority, sequence)``; the
sequence number is assigned at scheduling time, making runs fully
reproducible for fixed RNG seeds.  Physically the timeline is built
around three ideas:

* **Integer event handles over struct-of-arrays state.**  The hot
  internal events of a replay — timeouts, store wakeups, process
  bootstraps, message deliveries — have exactly one waiter and are
  never referenced after they fire.  They are represented not as
  objects but as integer *handles* indexing parallel state columns on
  the simulator (``_ast`` state flags, ``_aval`` value/exception,
  ``_acb`` the single waiter callback, ``_aq`` lane sequence).  A
  handle is recycled onto a free list the moment its dispatch
  completes, so steady-state replay allocates nothing per event: the
  columns reach their high-water mark once and every later event reuses
  a slot.  :class:`~repro.sim.events.Event` remains as a thin object
  wrapper kept only at API boundaries — process returns, ``AllOf`` /
  ``AnyOf`` conditions, RPC replies, triggers — where user code holds a
  reference across the fire.  The heap, the same-instant FIFO lanes,
  and the run loop carry both currencies and discriminate with
  a single ``type(x) is int`` test.

  (The state columns are plain Python lists rather than ``array('d')``
  / ``array('q')``: under CPython, reading an ``array`` element boxes a
  fresh ``float``/``int`` object per access, which benchmarks *slower*
  than a list of already-boxed values on this loop.)

* **Same-timestamp FIFO fast lanes + pooled-node heap.**  Most
  schedules are ``delay=0`` wakeups whose sort key ``(now, priority,
  fresh-seq)`` orders after every queued event of the instant and
  before everything later — so they go to a plain deque per priority,
  O(1), no heap sift.  Real delays use a binary heap of reusable
  4-slot ``[time, priority, seq, handle-or-event]`` nodes drawn from a
  free pool.  (A hand-rolled heap over the state columns was measured
  and rejected: interpreted sift loops lose badly to C ``heapq``.)

* **One run loop.**  :meth:`Simulator.run` and
  :meth:`Simulator.run_until` are thin front ends over a single loop,
  ``_loop``, and every event it pops goes through the same
  ``_dispatch`` body that :meth:`Simulator.step` uses, so the three
  drivers cannot disagree on order or on the event count.  Between
  two events the loop checks the event-index probe (one attribute
  test while disarmed) and the caller's stop condition.  It then tests
  the heap's front entry: lane traffic pops straight off its deque
  unless a heap entry is due at the current instant, and only then
  does ``_pop_next`` arbitrate by sequence number.  The test is made
  per event, not per instant, because a positive delay can round to
  ``now`` (``1.0 + 1e-17 == 1.0``) and land a heap entry on an instant
  whose lane traffic is still draining.

Pop order — and therefore every replay result — is bit-identical to
the previous object-per-event kernel: handles burn sequence numbers
exactly where ``Event`` objects did, and the golden-replay suite
(``tests/golden``) pins the complete schedule for all three bench
protocols.  Nothing here may import simulation layers above ``sim/``.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    Timeout,
)
from repro.sim.process import Process

#: Anonymous-handle state flag bits (``_ast`` column).
H_OK = 1        #: triggered successfully
H_FAIL = 2      #: triggered with an exception (held in ``_aval``)
H_DEFUSED = 4   #: failure was handled (throw delivered / defused)


class SimulationError(RuntimeError):
    """An event failed with nobody waiting on it."""


@contextmanager
def kernel_sprint() -> Iterator[None]:
    """Pause the cyclic garbage collector for the duration of a replay.

    The kernel's hot path is allocation-light and creates no reference
    cycles: handler frames, wrapper events and finished processes die
    by refcount (a :class:`Process` drops its self-referencing resume
    callback when its generator ends), and handle state is pooled.  So
    the collector's periodic full-generation scans are pure overhead
    while a replay is driving millions of events.  Pausing it is worth
    ~10-20% of replay wall time and has no effect on simulation results.
    Code that runs inside a sprint must keep to the same rule: anything
    that finishes while the collector is paused has to be freeable by
    refcount alone, or it stays in memory until the sprint ends.

    Only touches the collector if it was enabled on entry (so nested
    sprints and externally-disabled GC are safe); re-enables it and
    collects once on exit so cycles created by the workload itself
    cannot accumulate across replays.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class Simulator:
    """Deterministic discrete-event simulator.

    Events are processed in ``(time, priority, sequence)`` order; see
    the module docstring for how the timeline realizes that order with
    integer handles and without a heap operation per event.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Delayed events: pooled ``[time, priority, seq, x]`` nodes,
        #: where ``x`` is an int handle or an :class:`Event`.
        self._heap: list[list] = []
        #: Recycled heap nodes (bounded by the high-water heap size).
        self._free_nodes: list[list] = []
        #: delay=0 fast lanes; every queued entry has ``time == now``.
        self._lane_urgent: deque = deque()
        self._lane_normal: deque = deque()
        # Plain int counter: ``next(itertools.count())`` costs a call per
        # schedule(), which is measurable at millions of events per replay.
        self._seq = 0
        # -- anonymous-handle state columns (struct-of-arrays) ----------
        #: state flags (0 pending, else H_OK / H_FAIL / H_DEFUSED bits)
        self._ast: list[int] = []
        #: success value, or the failure exception when H_FAIL is set
        self._aval: list = []
        #: the single waiter callback (``cb(handle)``), or None
        self._acb: list = []
        #: lane sequence stamp (arbitration vs. heap entries due now)
        self._aq: list[int] = []
        #: recycled handles; popped before the columns ever grow again
        self._afree: list[int] = []
        # -- event accounting -------------------------------------------
        #: events popped off the timeline and dispatched
        self._n_dispatched = 0
        #: extra logical events carried by batched dispatches (a batched
        #: network delivery of N messages is one pop but N events)
        self._n_extra = 0
        # -- event-index probe (fault-schedule injection) ---------------
        #: event index at which the armed probe fires; -1 when disarmed.
        self._probe_at = -1
        self._probe_cb: Optional[Callable[[], None]] = None

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events processed so far (diagnostics / tests)."""
        return self._n_dispatched + self._n_extra

    # -- scheduling -----------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue a triggered event for processing ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            event._qseq = seq
            if priority:  # PRIORITY_NORMAL
                self._lane_normal.append(event)
            else:
                self._lane_urgent.append(event)
            return
        free = self._free_nodes
        if free:
            node = free.pop()
            node[0] = self._now + delay
            node[1] = priority
            node[2] = seq
            node[3] = event
        else:
            node = [self._now + delay, priority, seq, event]
        heapq.heappush(self._heap, node)

    # -- anonymous handle API ---------------------------------------------
    #
    # Handles are single-waiter, internal-use events: created, yielded /
    # waited at most once, and never referenced after their dispatch (the
    # slot is recycled the moment the dispatch completes).  They burn
    # sequence numbers exactly like object events, so mixing the two
    # currencies cannot perturb the schedule.

    def _alloc_h(self) -> int:
        """A fresh pending handle (recycled slots are reset on recycle)."""
        free = self._afree
        if free:
            return free.pop()
        h = len(self._ast)
        self._ast.append(0)
        self._aval.append(None)
        self._acb.append(None)
        self._aq.append(0)
        return h

    def event_h(self) -> int:
        """A pending anonymous handle (the handle analogue of event())."""
        return self._alloc_h()

    def timeout_h(self, delay: float, value: Any = None) -> int:
        """Handle analogue of :meth:`timeout`: fires ``delay`` from now.

        Schedules exactly like ``Timeout`` (normal priority, same seq
        burn) but allocates nothing in steady state.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        afree = self._afree
        h = afree.pop() if afree else self._alloc_h()
        self._ast[h] = H_OK
        self._aval[h] = value
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._aq[h] = seq
            self._lane_normal.append(h)
        else:
            free = self._free_nodes
            if free:
                node = free.pop()
                node[0] = self._now + delay
                node[1] = 1
                node[2] = seq
                node[3] = h
            else:
                node = [self._now + delay, 1, seq, h]
            heapq.heappush(self._heap, node)
        return h

    def succeed_h(self, h: int, value: Any = None) -> None:
        """Trigger pending handle ``h`` successfully (delay=0 lane)."""
        self._ast[h] = H_OK
        self._aval[h] = value
        seq = self._seq
        self._seq = seq + 1
        self._aq[h] = seq
        self._lane_normal.append(h)

    def fail_h(self, h: int, exc: BaseException, defused: bool = False) -> None:
        """Trigger pending handle ``h`` with an exception (delay=0 lane)."""
        self._ast[h] = (H_FAIL | H_DEFUSED) if defused else H_FAIL
        self._aval[h] = exc
        seq = self._seq
        self._seq = seq + 1
        self._aq[h] = seq
        self._lane_normal.append(h)

    def init_h(self, callback: Callable[[int], None]) -> int:
        """An urgent already-succeeded handle with ``callback`` attached.

        The handle analogue of a process-bootstrap event: it dispatches
        at the current instant ahead of normal-priority traffic.
        """
        h = self._alloc_h()
        self._ast[h] = H_OK
        self._acb[h] = callback
        seq = self._seq
        self._seq = seq + 1
        self._aq[h] = seq
        self._lane_urgent.append(h)
        return h

    def value_h(self, h: int) -> Any:
        """The value (or failure exception) of a triggered handle."""
        return self._aval[h]

    def count_extra_events(self, n: int) -> None:
        """Account ``n`` extra logical events carried by one dispatch.

        Batched dispatch paths (the network's delivery fan-out) pop one
        timeline entry for N logical events; they report the other
        ``N - 1`` here so ``events_processed`` stays comparable with the
        unbatched kernel (and with the committed golden counts).
        """
        self._n_extra += n

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when the first of ``events`` does."""
        return AnyOf(self, events)

    # -- execution --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if idle."""
        if self._lane_urgent or self._lane_normal:
            return self._now  # lane entries are due at the current instant
        return self._heap[0][0] if self._heap else float("inf")

    def _lane_front_qseq(self, x: Any) -> int:
        """Lane-front sequence stamp for heap arbitration."""
        return self._aq[x] if type(x) is int else x._qseq

    def _pop_next(self) -> Any:
        """Remove and return the next entry in (time, priority, seq) order.

        Returns an int handle or an :class:`Event`.  Advances the clock
        when the winner comes off the heap at a later time.  Raises
        :class:`IndexError` when the queue is empty.
        """
        heap = self._heap
        lane = self._lane_urgent
        if lane:
            if heap:
                h = heap[0]
                # An urgent heap entry due now that was scheduled before
                # the lane's front pops first.
                if (h[0] == self._now and h[1] == 0
                        and h[2] < self._lane_front_qseq(lane[0])):
                    x = h[3]
                    h[3] = None
                    self._free_nodes.append(heapq.heappop(heap))
                    return x
            return lane.popleft()
        lane = self._lane_normal
        if lane:
            if heap:
                h = heap[0]
                # Urgent beats normal at the same instant regardless of
                # sequence; equal priority falls back to schedule order.
                if (h[0] == self._now
                        and (h[1] == 0
                             or h[2] < self._lane_front_qseq(lane[0]))):
                    x = h[3]
                    h[3] = None
                    self._free_nodes.append(heapq.heappop(heap))
                    return x
            return lane.popleft()
        node = heapq.heappop(heap)
        self._now = node[0]
        x = node[3]
        node[3] = None
        self._free_nodes.append(node)
        return x

    def _dispatch(self, x: Any) -> None:
        """Run one popped entry's callbacks; recycle handles."""
        if type(x) is int:
            ast = self._ast
            cb = self._acb[x]
            if cb is not None:
                self._acb[x] = None
                cb(x)
            st = ast[x]
            if st & 6 == 2:  # failed and nobody defused it
                exc = self._aval[x]
                raise SimulationError(
                    f"unhandled failure of handle {x} at "
                    f"t={self._now:.6f}: {exc!r}"
                ) from exc
            ast[x] = 0
            self._aval[x] = None
            self._afree.append(x)
            return
        callbacks = x.callbacks
        x.callbacks = None  # mark processed
        for cb in callbacks:
            cb(x)
        if x._ok is False and not x._defused:
            exc = x._exc
            raise SimulationError(
                f"unhandled failure of {x!r} at t={self._now:.6f}: {exc!r}"
            ) from exc

    def step(self) -> None:
        """Process exactly one event."""
        x = self._pop_next()
        self._n_dispatched += 1
        self._dispatch(x)

    def cancel_h(self, h: int) -> None:
        """Recycle a still-pending handle that will never be triggered.

        Crash paths use this for handles parked on destroyed structures
        (a WAL flush queue drained by ``crash()``, capacity waiters that
        will never be woken): a pending handle is in neither the lanes
        nor the heap, so nothing else references it and the slot can go
        straight back to the free list.  Without this, every crash leaks
        one SoA column slot per parked handle — and worse, a stale
        callback left on the slot could fire against whatever event is
        recycled into it later.

        No-op when ``h`` has already been triggered (it is queued and
        will recycle itself at dispatch).
        """
        if self._ast[h] == 0:
            self._acb[h] = None
            self._aval[h] = None
            self._afree.append(h)

    # -- event-index probe ------------------------------------------------

    def arm_probe(self, at_index: int, callback: Callable[[], None]) -> None:
        """Fire ``callback`` once ``events_processed`` reaches ``at_index``.

        The fault explorer's injection point: the callback runs *between*
        events, at the first instant the processed-event count (including
        batched-delivery extras) is ``>= at_index``, from inside
        :meth:`run` / :meth:`run_until`.  The callback may re-arm the
        probe to chain injections.  Only one probe can be armed at a
        time.  The run loop checks the probe before every event, so the
        count is exact at every boundary whether the probe was armed
        before the run or by a callback during it; a disarmed probe costs
        one attribute test per event.  :meth:`step` does not check it.
        """
        if at_index < 0:
            raise ValueError(f"negative probe index {at_index!r}")
        if self._probe_at >= 0:
            raise RuntimeError("an event-index probe is already armed")
        self._probe_at = at_index
        self._probe_cb = callback

    def disarm_probe(self) -> None:
        """Cancel the armed probe (no-op if none is armed)."""
        self._probe_at = -1
        self._probe_cb = None

    def _loop(self, until: Optional[float], event: Optional[Event]) -> None:
        """Pop and dispatch events until the caller's stop condition.

        ``run(until)`` passes ``event=None`` and stops when the queue
        drains or the next event is later than ``until``;
        ``run_until(event)`` stops once ``event`` is processed and
        raises if the queue drains first.  Same-instant lane traffic
        pops without arbitration unless a heap entry is due now.
        """
        heap = self._heap
        lane_u = self._lane_urgent
        lane_n = self._lane_normal
        free = self._free_nodes
        pop = heapq.heappop
        dispatch = self._dispatch
        while True:
            if (self._probe_at >= 0
                    and self._n_dispatched + self._n_extra >= self._probe_at):
                cb = self._probe_cb
                self.disarm_probe()
                assert cb is not None
                cb()  # may re-arm for a later index
                continue
            if event is not None and event.callbacks is None:  # processed
                return
            if lane_u or lane_n:
                if heap and heap[0][0] == self._now:
                    x = self._pop_next()
                elif lane_u:
                    x = lane_u.popleft()
                else:
                    x = lane_n.popleft()
            elif heap:
                node = heap[0]
                if until is not None and node[0] > until:
                    return
                pop(heap)
                self._now = node[0]
                x = node[3]
                node[3] = None
                free.append(node)
            elif event is not None:
                raise SimulationError(
                    f"queue drained before {event!r} was processed"
                )
            else:
                return
            self._n_dispatched += 1
            dispatch(x)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        With ``until`` given, the clock is advanced to exactly ``until``
        even if the queue drains early, so periodic measurements line up.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
        self._loop(until, None)
        if until is not None:
            self._now = until

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` is processed; return its value.

        Acts as the event's waiter: a failure is defused here and
        re-raised to the caller instead of crashing the simulation.
        """
        if not event.processed and event.callbacks is not None:
            event.callbacks.append(
                lambda e: e.defuse() if e._ok is False else None
            )
        self._loop(None, event)
        if event._ok is False:
            event.defuse()
            raise event._exc  # type: ignore[misc]
        return event._value
