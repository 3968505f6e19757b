"""Unit-level tests of the baseline protocol mechanics."""

from collections import Counter
from functools import partial

import pytest

from repro.baselines import (
    ALL_BASELINES,
    CoordinatedProtocol,
    JanssensFuchsProtocol,
    NullProtocol,
    ReceiverMessageLogging,
    RichardSinghalProtocol,
    SenderMessageLogging,
    StummZhouProtocol,
)
from repro.baselines.base import FaultToleranceProtocol
from repro.errors import ConfigError, ProtocolError
from repro.memory.model import CONSISTENCY_MODELS, consistency_backends
from repro.net.message import Message, MessageKind

from tests.conftest import counter_system, incrementer, make_system, reader


class TestInterfaceDefaults:
    def test_base_defaults_are_noops(self):
        class Host:
            pid = 0

        protocol = FaultToleranceProtocol(Host())
        assert protocol.collect_piggyback(1) == ([], [])
        assert protocol.filter_incoming(
            Message(1, 0, MessageKind.APP)) is True
        assert not protocol.handlers
        assert protocol.overhead_summary() == {}
        protocol.on_piggyback(1, [], [])
        protocol.on_start()
        protocol.stop_timer()

    def test_a_kind_no_layer_claims_is_a_protocol_error(self):
        # DUMMY_SHIP belongs to the DiSOM protocol: a process running
        # another scheme must not swallow it.
        system = make_system(processes=2, protocol_factory=NullProtocol)
        with pytest.raises(ProtocolError, match="unhandled message"):
            system.processes[0].deliver(
                Message(1, 0, MessageKind.DUMMY_SHIP))

    def test_only_a_scheme_with_stored_checkpoints_restarts_cold(self):
        system = make_system(processes=2, protocol_factory=NullProtocol)
        with pytest.raises(ConfigError, match="cannot restart"):
            system.recover_all_from_storage()

    def test_names_and_recovery_flags(self):
        assert NullProtocol.name == "none"
        # Only the coordinated scheme recovers; the cost models keep the
        # base class's abort.
        base = FaultToleranceProtocol.recover_crashed
        assert CoordinatedProtocol.recover_crashed is not base
        for cls in (NullProtocol, RichardSinghalProtocol, StummZhouProtocol,
                    ReceiverMessageLogging, SenderMessageLogging,
                    JanssensFuchsProtocol):
            assert cls.recover_crashed is base

    def test_base_recovery_aborts(self):
        aborts = []

        class System:
            def abort(self, reason, from_pid):
                aborts.append((reason, from_pid))

        protocol = NullProtocol(object())
        protocol.recover_crashed(System(), 2)
        assert aborts == [
            ("process 2 crashed and scheme 'none' cannot recover it", 2)]


def _layer_classes():
    """Every class a process can host as a layer, with its bases."""
    roots = [*consistency_backends().values(), *ALL_BASELINES.values()]
    return {cls for root in roots for cls in root.__mro__}


class TestRouting:
    def test_every_kind_has_exactly_one_row(self):
        rows = Counter(kind for cls in _layer_classes()
                       for kind in vars(cls).get("handlers", {}))
        # APP is raw-network traffic: tests deliver it to their own
        # network sinks, never to DisomProcess.deliver, so no layer owns it.
        assert set(MessageKind) - set(rows) == {MessageKind.APP}
        assert {kind: n for kind, n in rows.items() if n != 1} == {}

    # Every backend x scheme pair but DiSOM on the sequential backend,
    # which process construction rejects (ConfigError).
    @pytest.mark.parametrize("consistency, scheme", [
        (consistency, scheme) for consistency in CONSISTENCY_MODELS
        for scheme in sorted(ALL_BASELINES)
        if scheme != "disom" or consistency == "entry"])
    def test_a_process_routes_exactly_its_layers_kinds(self, consistency,
                                                        scheme):
        system = make_system(processes=2, consistency=consistency,
                             protocol_factory=ALL_BASELINES[scheme])
        process = system.processes[0]
        assert set(process._routes) == (
            set(process.engine.handlers)
            | set(process.checkpoint_protocol.handlers))


class TestRichardSinghalMechanics:
    def test_page_floor_dominates_small_objects(self):
        system = make_system(
            processes=2, interval=None,
            protocol_factory=partial(RichardSinghalProtocol, page_size=8192))
        system.add_object("tiny", initial=1, home=0)
        system.spawn(1, reader("tiny", rounds=1))
        result = system.run()
        protocol = system.processes[1].checkpoint_protocol
        assert protocol.logged_entries_total == 1
        assert protocol.logged_bytes_total >= 8192

    def test_no_flush_without_modified_transfer(self):
        system = make_system(
            processes=2, interval=None,
            protocol_factory=partial(RichardSinghalProtocol, checkpoint_interval=None))
        system.add_object("x", initial=1, home=0)
        system.spawn(1, reader("x", rounds=2))
        result = system.run()
        flushes = sum(p.checkpoint_protocol.stable_flushes
                      for p in system.processes.values())
        assert flushes == 0  # reads only: nothing dirty was transferred


class TestStummZhouMechanics:
    def test_dirty_set_cleared_after_ship(self):
        system = make_system(
            processes=2, interval=None,
            protocol_factory=partial(StummZhouProtocol, page_size=1024))
        system.add_object("x", initial=0, home=0)
        system.spawn(0, incrementer("x", rounds=3, gap=4.0))
        system.spawn(1, reader("x", rounds=3, gap=4.0))
        result = system.run()
        protocol = system.processes[0].checkpoint_protocol
        # Each shipped replica corresponds to one dirtying write at most.
        assert 1 <= protocol.replication_pages <= 3
        assert not protocol._dirty


class TestCoordinatedMechanics:
    def test_round_completes_and_epoch_advances(self):
        system = counter_system(
            processes=3, rounds=10, interval=None,
            protocol_factory=partial(CoordinatedProtocol, interval=15.0))
        result = system.run()
        assert result.completed
        epochs = {p.checkpoint_protocol.epoch
                  for p in system.processes.values()}
        assert len(epochs) == 1  # lockstep
        assert epochs.pop() >= 1
        coordinator = system.processes[0].checkpoint_protocol
        assert coordinator.rounds_completed >= 1

    def test_snapshots_keep_last_two_epochs(self):
        system = counter_system(
            processes=2, rounds=12, interval=None,
            protocol_factory=partial(CoordinatedProtocol, interval=10.0))
        system.run()
        for process in system.processes.values():
            snapshots = process.checkpoint_protocol.snapshots
            epoch = process.checkpoint_protocol.epoch
            assert epoch >= 1
            assert sorted(snapshots) == [epoch - 1, epoch]

    def test_message_kinds_routed(self):
        assert set(CoordinatedProtocol.handlers) == {
            MessageKind.COORD_CKPT_REQUEST, MessageKind.COORD_CKPT_READY,
            MessageKind.COORD_CKPT_COMMIT, MessageKind.COORD_CKPT_ACK}


class TestMessageLoggingMechanics:
    def test_receiver_counts_equal_deliveries(self):
        system = counter_system(
            processes=2, rounds=4, interval=None,
            protocol_factory=ReceiverMessageLogging)
        result = system.run()
        logged = sum(p.checkpoint_protocol.logged_messages
                     for p in system.processes.values())
        delivered = result.net["total_messages"] - result.net["dropped_to_crashed"]
        assert logged == delivered

    def test_sender_never_touches_stable_storage(self):
        system = counter_system(
            processes=2, rounds=4, interval=None,
            protocol_factory=SenderMessageLogging)
        result = system.run()
        assert result.stable_writes == 0
        assert result.metrics.total_log_bytes > 0
