"""Unit tests for the discrete-event kernel, its clock and events."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.kernel import Kernel


class TestClock:
    """Simulated time is ``Kernel.now``; only ``run()`` moves it."""

    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_advance(self, kernel):
        kernel.schedule(5.0, lambda: None)
        kernel.schedule(5.0, lambda: None)  # staying put is fine
        assert kernel.run() == 5.0
        assert kernel.now == 5.0

    def test_never_moves_backwards(self, kernel):
        kernel.schedule(10.0, lambda: None)
        kernel.run()
        # Behind schedule_at's guard: only a corrupted queue gets here.
        kernel.queue.push(9.0, lambda: None)
        with pytest.raises(SimulationError, match="backwards"):
            kernel.run()


def _drain(queue):
    while (event := queue.pop_next()) is not None:
        event.callback(*event.args)


class TestEventQueue:
    def test_fifo_within_same_time(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.push(1.0, order.append, (i,))
        _drain(queue)
        assert order == [0, 1, 2, 3, 4]

    def test_time_ordering(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, order.append, ("late",))
        queue.push(1.0, order.append, ("early",))
        queue.push(2.0, order.append, ("mid",))
        _drain(queue)
        assert order == ["early", "mid", "late"]

    def test_cancellation(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, (1,))
        event.cancel()
        queue.push(2.0, fired.append, (2,))
        _drain(queue)
        assert fired == [2]

    def test_pop_next_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.pop_next(until=1.5) is None
        assert queue.pop_next().time == 2.0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(-1.0, lambda: None)


class TestKernel:
    def test_schedule_relative_and_absolute(self, kernel):
        times = []
        kernel.schedule(5.0, lambda: times.append(kernel.now))
        kernel.schedule_at(2.0, lambda: times.append(kernel.now))
        kernel.run()
        assert times == [2.0, 5.0]

    def test_call_soon_runs_at_current_time(self, kernel):
        seen = []
        kernel.schedule(3.0, lambda: kernel.call_soon(lambda: seen.append(kernel.now)))
        kernel.run()
        assert seen == [3.0]

    def test_run_until_advances_clock_to_horizon(self, kernel):
        kernel.schedule(100.0, lambda: None)
        end = kernel.run(until=10.0)
        assert end == 10.0
        assert kernel.now == 10.0
        # The far event is still pending.
        assert kernel.queue.pop_next().time == 100.0

    def test_stop_terminates_run(self, kernel):
        fired = []
        kernel.schedule(1.0, lambda: (fired.append(1), kernel.stop("test")))
        kernel.schedule(2.0, lambda: fired.append(2))
        kernel.run()
        assert fired == [1]
        assert kernel.stop_reason == "test"

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, kernel):
        kernel.schedule(5.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(1.0, lambda: None)

    def test_event_budget_guards_livelock(self):
        kernel = Kernel(seed=0, max_events=100)

        def rearm():
            kernel.schedule(0.1, rearm)

        rearm()
        with pytest.raises(SimulationError, match="budget"):
            kernel.run()

    def test_dispatched_counter(self, kernel):
        for _ in range(4):
            kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert kernel.dispatched == 4
