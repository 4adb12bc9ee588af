"""Unit tests for the simulator core: clock, ordering, run modes."""

import pytest

from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.sim.events import PRIORITY_URGENT


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_schedule_into_past_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            sim.schedule(ev, delay=-0.1)

    def test_peek_idle_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(4.0)
        sim.timeout(2.0)
        assert sim.peek() == 2.0

    def test_run_until_queue_drains_early_clock_lands_on_until(self, sim):
        # Queue empties at t=1 but the clock must still end at `until`
        # so periodic measurements line up across runs.
        t = sim.timeout(1.0)
        sim.run(until=5.0)
        assert t.processed
        assert sim.now == 5.0
        assert sim.events_processed == 1

    def test_run_until_leaves_later_events_queued(self, sim):
        early, late = sim.timeout(1.0), sim.timeout(9.0)
        sim.run(until=5.0)
        assert early.processed and not late.processed
        assert sim.now == 5.0
        sim.run()
        assert late.processed
        assert sim.now == 9.0

    def test_run_without_until_stops_at_last_event(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5


class TestOrdering:
    def test_fifo_within_same_instant(self, sim):
        order = []
        for i in range(5):
            t = sim.timeout(1.0, i)
            t.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_beats_insertion_order(self, sim):
        order = []
        late = sim.event()
        late.callbacks.append(lambda e: order.append("normal"))
        late.succeed()
        urgent = sim.event()
        urgent.callbacks.append(lambda e: order.append("urgent"))
        urgent._ok = True
        urgent._value = None
        sim.schedule(urgent, priority=PRIORITY_URGENT)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_time_ordering(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = sim.timeout(delay, delay)
            t.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 7


class TestRunUntilEvent:
    def test_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(2.0)
            return "answer"

        p = sim.process(proc(sim))
        assert sim.run_until(p) == "answer"
        assert sim.now == 2.0

    def test_raises_event_exception(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            raise KeyError("inner")

        p = sim.process(proc(sim))
        with pytest.raises(KeyError):
            sim.run_until(p)

    def test_drained_queue_raises(self, sim):
        ev = sim.event()  # never triggered
        with pytest.raises(SimulationError):
            sim.run_until(ev)


class TestDeterminism:
    def test_identical_runs_identical_histories(self):
        def trace_run():
            sim = Simulator()
            log = []

            def worker(sim, name, delays):
                for d in delays:
                    yield sim.timeout(d)
                    log.append((round(sim.now, 9), name))

            sim.process(worker(sim, "a", [0.1, 0.3, 0.2]))
            sim.process(worker(sim, "b", [0.2, 0.2, 0.2]))
            sim.process(worker(sim, "c", [0.3, 0.1, 0.2]))
            sim.run()
            return log

        assert trace_run() == trace_run()


DRIVERS = ("run", "run_until", "step")


def _drive(sim, driver, until_event):
    """Run ``sim`` to exhaustion with one of the three drivers."""
    if driver == "run":
        sim.run()
    elif driver == "run_until":
        sim.run_until(until_event)
    else:
        while sim.peek() != float("inf"):
            sim.step()


class TestDriversAgree:
    """``run``, ``run_until`` and a ``step()`` loop share one dispatch
    order and one event count."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_delay_rounding_to_now_orders_by_sequence(self, driver):
        # At now == 1.0, B's timeout(1e-17) lands on the heap *at* 1.0,
        # scheduled before C's delay-0 lane timeout.  (time, priority,
        # seq) order puts B first even though lane traffic is draining.
        assert 1.0 + 1e-17 == 1.0
        sim = Simulator()
        order = []

        def b():
            yield sim.timeout(1e-17)
            order.append("B")

        def c():
            yield sim.timeout(0)
            order.append("C")

        def starter():
            yield sim.timeout(1.0)
            sim.process(b())
            sim.process(c())

        sim.process(starter())
        done = sim.event()

        def finish():
            yield sim.timeout(2.0)
            done.succeed()

        sim.process(finish())
        _drive(sim, driver, done)
        assert order == ["B", "C"]

    @pytest.mark.parametrize("currency", ("handle", "event"))
    def test_unhandled_failure_counts_the_failing_event(self, currency):
        def build():
            sim = Simulator()

            def crasher():
                for _ in range(3):
                    yield sim.timeout(0.5)
                if currency == "handle":
                    sim.fail_h(sim.event_h(), RuntimeError("boom"))
                else:
                    sim.event().fail(RuntimeError("boom"))
                yield sim.timeout(1.0)

            sim.process(crasher())
            return sim

        counts = []
        for driver in DRIVERS:
            sim = build()
            with pytest.raises(SimulationError, match="unhandled failure"):
                _drive(sim, driver, sim.event())
            counts.append(sim.events_processed)
        # bootstrap + three timeouts + the failed event itself
        assert counts == [5, 5, 5]
