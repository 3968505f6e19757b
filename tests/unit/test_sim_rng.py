"""Unit tests for deterministic RNG streams and tracing."""

from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceLog


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(7)
        r2 = RngRegistry(7)
        # Touch an extra stream in r2 first; 'x' must be unaffected.
        r2.stream("other").random()
        a = [r1.stream("x").random() for _ in range(5)]
        b = [r2.stream("x").random() for _ in range(5)]
        assert a == b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_different_names_differ(self):
        registry = RngRegistry(1)
        assert registry.stream("x").random() != registry.stream("y").random()

    def test_fresh_stream_restarts_from_seed(self):
        registry = RngRegistry(3)
        stream = registry.stream("t")
        first = [stream.random() for _ in range(3)]
        fresh = registry.fresh_stream("t")
        replay = [fresh.random() for _ in range(3)]
        assert first == replay

    def test_derive_seed_stable(self):
        assert RngRegistry(5).derive_seed("n") == RngRegistry(5).derive_seed("n")


class TestTraceLog:
    def test_disabled_records_nothing(self):
        log = TraceLog(enabled=False)
        log.emit(1.0, "cat", "hello")
        assert log.records == []

    def test_emit_and_filter(self):
        log = TraceLog()
        log.emit(1.0, "net", "send x")
        log.emit(2.0, "checkpoint", "ckpt 1")
        log.emit(3.0, "net", "recv x")
        assert log.count("net") == 2
        assert log.count(contains="ckpt") == 1
        assert [r.time for r in log.filter("net")] == [1.0, 3.0]

    def test_bounded_log_drops_oldest(self):
        log = TraceLog(max_records=10)
        for i in range(25):
            log.emit(float(i), "c", f"m{i}")
        assert log.dropped > 0
        assert len(log.records) <= 11
        # Newest record always retained.
        assert log.records[-1].message == "m24"

    def test_fields_rendered(self):
        log = TraceLog()
        log.emit(1.5, "cat", "msg", n=3)
        assert "n=3" in str(log.records[0])
