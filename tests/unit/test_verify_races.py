"""Unit tests for the entry-consistency race detector."""

from functools import partial

from repro.observers import Observers
from repro.sim.tracing import TraceLog
from repro.types import Tid
from repro.verify.races import RaceDetector, VectorClock
from repro.verify.seeded import _mem, seeded_race


def scan(build):
    """Publish the events ``build`` makes to a detector listening on a
    registry -- the road the engine's events take -- and return it."""
    detector = RaceDetector()
    build(partial(_mem, Observers(detector), TraceLog(enabled=True)))
    return detector


def races(build):
    return scan(build).races


class TestVectorClock:
    def test_tick_and_get(self):
        clock = VectorClock()
        assert clock.get("a") == 0
        clock.tick("a")
        clock.tick("a")
        assert clock.get("a") == 2
        assert clock.get("b") == 0

    def test_join_takes_pointwise_max(self):
        left, right = VectorClock(), VectorClock()
        left.tick("a")
        right.tick("b")
        right.tick("b")
        left.join(right)
        assert left.get("a") == 1
        assert left.get("b") == 2

    def test_copy_is_independent(self):
        clock = VectorClock()
        clock.tick("a")
        snap = clock.copy()
        clock.tick("a")
        assert snap.get("a") == 1
        assert clock.get("a") == 2


class TestGuardedAccessesAreClean:
    def test_two_writers_through_the_guard(self):
        def build(mem):
            for i, tid in enumerate((Tid(0, 0), Tid(1, 0))):
                mem(1.0 + 3 * i, "acquire", tid, 1, "x", "W")
                mem(2.0 + 3 * i, "write", tid, 1, "x", "W")
                mem(3.0 + 3 * i, "release", tid, 1, "x", "W")

        assert races(build) == []

    def test_concurrent_readers_through_the_guard(self):
        def build(mem):
            mem(1.0, "acquire", Tid(0, 0), 1, "x", "W")
            mem(2.0, "write", Tid(0, 0), 1, "x", "W")
            mem(3.0, "release", Tid(0, 0), 1, "x", "W")
            # Overlapping read brackets: fine under CREW.
            mem(4.0, "acquire", Tid(1, 0), 1, "x", "R")
            mem(4.5, "acquire", Tid(2, 0), 1, "x", "R")
            mem(5.0, "read", Tid(1, 0), 1, "x", "R")
            mem(5.5, "read", Tid(2, 0), 1, "x", "R")
            mem(6.0, "release", Tid(1, 0), 1, "x", "R")
            mem(6.5, "release", Tid(2, 0), 1, "x", "R")

        assert races(build) == []


class TestUnguardedAccessesRace:
    def test_seeded_race_is_found(self):
        found = seeded_race()
        assert len(found) == 1
        assert found[0].obj_id == "x"

    def test_unguarded_read_vs_guarded_write(self):
        def build(mem):
            mem(1.0, "acquire", Tid(0, 0), 1, "x", "W")
            mem(2.0, "write", Tid(0, 0), 1, "x", "W")
            mem(3.0, "release", Tid(0, 0), 1, "x", "W")
            # Read with no bracket at all: mode "-" marks it unguarded.
            mem(4.0, "read", Tid(1, 0), 1, "x", "-")

        found = races(build)
        assert len(found) == 1
        assert found[0].second.kind == "read"

    def test_hb_through_guard_transfer_orders_unguarded_read(self):
        def build(mem):
            # t0 writes under guard "g"; t1 acquires "g" afterwards --
            # the release->acquire edge orders t1's later unguarded read
            # of x even though the read itself holds nothing.
            mem(1.0, "acquire", Tid(0, 0), 1, "x", "W", sync_id="g")
            mem(2.0, "write", Tid(0, 0), 1, "x", "W", sync_id="g")
            mem(3.0, "release", Tid(0, 0), 1, "x", "W", sync_id="g")
            mem(4.0, "acquire", Tid(1, 0), 1, "y", "R", sync_id="g")
            mem(5.0, "release", Tid(1, 0), 1, "y", "R", sync_id="g")
            mem(6.0, "read", Tid(1, 0), 2, "x", "-")

        assert races(build) == []

    def test_program_order_never_races(self):
        def build(mem):
            mem(1.0, "write", Tid(0, 0), 1, "x", "-")
            mem(2.0, "read", Tid(0, 0), 2, "x", "-")
            mem(3.0, "write", Tid(0, 0), 3, "x", "-")

        assert races(build) == []


class TestReplayDedup:
    def test_replayed_duplicate_events_are_dropped(self):
        def build(mem):
            for replayed in (False, True):
                mem(1.0, "acquire", Tid(0, 0), 1, "x", "W",
                    replayed=replayed)
                mem(2.0, "write", Tid(0, 0), 1, "x", "W",
                    replayed=replayed)
                mem(3.0, "release", Tid(0, 0), 1, "x", "W",
                    replayed=replayed)

        detector = scan(build)
        assert detector.events_seen == 3
        assert detector.races == []
