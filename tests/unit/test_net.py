"""Unit tests for messages, channels, sizing and the network."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.net.channel import Channel, LatencyModel
from repro.checkpoint.dummy import DummyEntry
from repro.net.message import (
    LAYER_CHECKPOINT,
    LAYER_COHERENCE,
    NO_PAYLOAD,
    AppData,
    GrantControl,
    Invalidate,
    Message,
    MessageKind,
    Piggyback,
    RequestControl,
    layer_of,
)
from repro.net.network import Network
from repro.net.sizing import HEADER_BYTES, payload_size
from repro.sim.kernel import Kernel
from repro.types import ep


class TestSizing:
    def test_primitives(self):
        assert payload_size(None) == 0
        assert payload_size(b"abcd") == 4
        assert payload_size("abc") == 3
        assert payload_size(7) == 8
        assert payload_size(1.5) == 8
        assert payload_size(True) == 1

    def test_structures_are_positive_and_monotone(self):
        small = payload_size({"a": 1})
        large = payload_size({"a": 1, "b": list(range(100))})
        assert 0 < small < large


class TestMessage:
    def test_layers(self):
        assert layer_of(MessageKind.ACQUIRE_REQUEST) == LAYER_COHERENCE
        assert layer_of(MessageKind.CKPT_GC) == LAYER_CHECKPOINT

    def test_byte_accounting_splits_piggyback(self):
        _, network, _ = _net()
        pig = Piggyback(control=GrantControl(1, ep(1, 0, 1)),
                        dummies=[DummyEntry("x", ep(0, 0, 2), ep(0, 0, 1))],
                        ckp_sets=[])
        msg = Message(0, 1, MessageKind.INVALIDATE, Invalidate("k", 0, 1), pig)
        network.send(msg)
        assert msg.payload_bytes == HEADER_BYTES + payload_size(
            {"obj_id": "k", "new_owner": 0, "version": 1})
        assert msg.piggyback_bytes == pig.size() > 0
        assert msg.total_bytes() == msg.payload_bytes + msg.piggyback_bytes
        assert network.stats.total_bytes == msg.total_bytes()
        assert network.stats.piggyback_bytes == msg.piggyback_bytes

    def test_piggyback_empty(self):
        assert Piggyback().is_empty()
        assert not Piggyback(control=RequestControl(ep(0, 0, 1))).is_empty()

    def test_ids_unique(self):
        _, network, _ = _net()
        sent = [Message(src, (src + 1) % 3, MessageKind.APP)
                for src in (0, 1, 2, 0)]
        for message in sent:
            network.send(message)
        assert [message.msg_id for message in sent] == [1, 2, 3, 4]
        # Each network numbers its own messages: no count leaks across runs.
        _, other, _ = _net()
        first = Message(1, 0, MessageKind.APP)
        other.send(first)
        assert first.msg_id == 1


class _Sink:
    def __init__(self):
        self.received = []

    def deliver(self, message):
        self.received.append(message)


def _net():
    kernel = Kernel(seed=1)
    network = Network(kernel)
    sinks = {pid: _Sink() for pid in range(3)}
    for pid, sink in sinks.items():
        network.register(pid, sink)
    return kernel, network, sinks


class TestLatencyModel:
    def test_deterministic_without_jitter(self):
        model = LatencyModel(base=1.0, per_byte=0.01, jitter=0.0)
        assert model.latency_for(100, None) == pytest.approx(2.0)

    def test_jitter_requires_rng(self):
        model = LatencyModel(jitter=0.5)
        with pytest.raises(ConfigError):
            model.latency_for(10, None)

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(base=-1.0)


class TestChannel:
    def test_fifo_preserved(self):
        model = LatencyModel(base=1.0, per_byte=0.1, jitter=0.0)
        channel = Channel(0, 1, model)
        big = Message(0, 1, MessageKind.APP, payload_bytes=532)
        small = Message(0, 1, MessageKind.APP, payload_bytes=32)
        t_big = channel.delivery_time(0.0, big)
        t_small = channel.delivery_time(0.1, small)
        # The small message would naturally arrive earlier; FIFO forbids it.
        assert t_small >= t_big


class TestNetwork:
    def test_delivery(self):
        kernel, network, sinks = _net()
        network.send(Message(0, 1, MessageKind.APP, AppData({"n": 1})))
        kernel.run()
        assert len(sinks[1].received) == 1
        assert network.stats.total_messages == 1

    def test_self_send_rejected(self):
        _, network, _ = _net()
        with pytest.raises(ConfigError):
            network.send(Message(0, 0, MessageKind.APP))

    def test_send_to_unknown_rejected(self):
        _, network, _ = _net()
        with pytest.raises(SimulationError):
            network.send(Message(0, 9, MessageKind.APP))

    def test_crashed_destination_drops(self):
        kernel, network, sinks = _net()
        network.send(Message(0, 1, MessageKind.APP))
        network.mark_crashed(1)
        kernel.run()
        assert sinks[1].received == []
        assert network.stats.dropped_to_crashed == 1

    def test_crashed_source_cannot_send(self):
        _, network, _ = _net()
        network.mark_crashed(0)
        with pytest.raises(SimulationError):
            network.send(Message(0, 1, MessageKind.APP))

    def test_in_flight_from_crashed_source_still_delivered(self):
        # Fail-stop: messages already on the wire are delivered.
        kernel, network, sinks = _net()
        network.send(Message(0, 1, MessageKind.APP))
        network.mark_crashed(0)
        kernel.run()
        assert len(sinks[1].received) == 1

    def test_recovery_reregistration(self):
        kernel, network, sinks = _net()
        network.mark_crashed(1)
        fresh = _Sink()
        network.mark_recovered(1, fresh)
        network.send(Message(0, 1, MessageKind.APP))
        kernel.run()
        assert len(fresh.received) == 1
        # The recovered process may send again.
        network.send(Message(1, 0, MessageKind.APP))
        kernel.run()
        assert len(sinks[0].received) == 1

    def test_broadcast_skips_self_and_crashed(self):
        kernel, network, sinks = _net()
        network.mark_crashed(2)
        sent = network.broadcast(0, lambda pid: Message(0, pid, MessageKind.APP))
        kernel.run()
        assert sent == 1
        assert len(sinks[1].received) == 1
        assert sinks[2].received == []

    def test_per_channel_fifo_across_sizes(self):
        kernel, network, sinks = _net()
        network.send(Message(0, 1, MessageKind.APP,
                             AppData({"pad": "x" * 2000, "seq": 1})))
        network.send(Message(0, 1, MessageKind.APP, AppData({"seq": 2})))
        kernel.run()
        seqs = [m.payload.fields["seq"] for m in sinks[1].received]
        assert seqs == [1, 2]

    def test_stats_by_layer(self):
        kernel, network, sinks = _net()
        network.send(Message(0, 1, MessageKind.ACQUIRE_REQUEST, NO_PAYLOAD))
        network.send(Message(0, 1, MessageKind.CKPT_GC, NO_PAYLOAD))
        kernel.run()
        assert network.stats.coherence_messages == 1
        assert network.stats.checkpoint_messages == 1
        summary = network.stats.as_dict()
        assert summary["total_messages"] == 2
