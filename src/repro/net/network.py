"""Cluster network: endpoint registry, send/broadcast, crash semantics.

Crash semantics follow the fail-stop model (paper section 3):

* a message already in flight *from* a process that subsequently crashes is
  still delivered (it was put on the wire before the halt);
* a message in flight *to* a crashed process is dropped at delivery time;
* after the crashed process is re-registered (recovery reloads it on a free
  processor under the same process identifier), new messages flow normally.

Network partitions are not modelled ("network partitions are not
tolerated").
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Protocol

from repro.errors import ConfigError, SimulationError
from repro.net.channel import Channel, LatencyModel
from repro.net.message import Message, MessageKind, describe
from repro.net.sizing import HEADER_BYTES
from repro.net.stats import NetworkStats
from repro.sim.kernel import Kernel
from repro.sim.tracing import TRACE_GATE
from repro.types import ProcessId


class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    def deliver(self, message: Message) -> None:  # pragma: no cover - protocol
        ...


class Network:
    """Reliable FIFO network connecting all processes of one cluster."""

    def __init__(
        self,
        kernel: Kernel,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency if latency is not None else LatencyModel()
        self.stats = NetworkStats()
        self._msg_ids = itertools.count(1)
        self._endpoints: dict[ProcessId, Endpoint] = {}
        self._channels: dict[tuple[ProcessId, ProcessId], Channel] = {}
        self._crashed: set[ProcessId] = set()
        #: Messages sent but not yet delivered (or dropped).  The system
        #: refuses to declare the run complete while this is non-zero: a
        #: quiescent state with messages on the wire is not quiescent
        #: (e.g. recovery's fire-and-forget re-invalidations).
        self.in_flight = 0
        #: Called whenever ``in_flight`` returns to zero (set by the
        #: system to re-evaluate its completion condition).
        self.drained_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # registration / crash control
    # ------------------------------------------------------------------
    def register(self, pid: ProcessId, endpoint: Endpoint) -> None:
        self._endpoints[pid] = endpoint
        self._crashed.discard(pid)

    def mark_crashed(self, pid: ProcessId) -> None:
        """Fail-stop halt of ``pid``: future deliveries to it are dropped."""
        if pid not in self._endpoints:
            raise SimulationError(f"cannot crash unknown process {pid}")
        self._crashed.add(pid)

    def mark_recovered(self, pid: ProcessId, endpoint: Endpoint) -> None:
        """Re-register ``pid`` after recovery reloads it on a free node."""
        self._endpoints[pid] = endpoint
        self._crashed.discard(pid)

    @property
    def pids(self) -> list[ProcessId]:
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _channel(self, src: ProcessId, dst: ProcessId) -> Channel:
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            rng = None
            if self.latency.jitter > 0:
                rng = self.kernel.rng.stream(f"net/{src}->{dst}")
            channel = Channel(src, dst, self.latency, rng)
            self._channels[key] = channel
        return channel

    def send(self, message: Message) -> None:
        """Send ``message``; delivery is scheduled on the kernel.

        This is the simulator's hottest protocol path (every coherence
        interaction crosses it), so it avoids redundant work: the channel
        lookup is a single dict probe (misses fall back to the builder),
        the message is numbered and sized here, once, before anything
        reads it (each typed record sizes itself in closed form), and a
        trace row -- scalars, rendered when read -- is only built for an
        enabled log.
        """
        src = message.src
        dst = message.dst
        if src == dst:
            raise ConfigError(
                f"self-send not allowed ({message}); local interactions "
                "must not go through the network"
            )
        if dst not in self._endpoints:
            raise SimulationError(f"send to unknown process: {message}")
        if src in self._crashed:
            # A crashed process cannot put new messages on the wire.
            raise SimulationError(f"crashed process {src} tried to send {message}")
        kernel = self.kernel
        message.msg_id = next(self._msg_ids)
        message.send_time = now = kernel.now
        message.payload_bytes = HEADER_BYTES + message.payload.size()
        piggyback = message.piggyback
        if piggyback is not None:
            message.piggyback_bytes = piggyback.size()
        self.stats.record_send(message)
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._channel(src, dst)
        when = channel.delivery_time(now, message)
        self.in_flight += 1
        kernel.queue.push(when, self._deliver, (message,), message.kind.value)
        if TRACE_GATE.active and kernel.trace.enabled:
            kernel.trace.emit(now, "net", net_row, "send",
                              *message.trace_args(), message.total_bytes())

    def broadcast(self, src: ProcessId, make_message: Callable[[ProcessId], Message]) -> int:
        """Logical broadcast: send one message to every other registered process.

        ``make_message`` builds a fresh message per destination (messages are
        mutable and must not be shared).  Crashed destinations are skipped at
        send time -- the fail-stop detector has already announced them.
        Returns the number of messages sent.
        """
        sent = 0
        for pid in self.pids:
            if pid == src or pid in self._crashed:
                continue
            self.send(make_message(pid))
            sent += 1
        return sent

    def _deliver(self, message: Message) -> None:
        self.in_flight -= 1
        endpoint = (None if message.dst in self._crashed
                    else self._endpoints.get(message.dst))
        if TRACE_GATE.active and self.kernel.trace.enabled:
            self.kernel.trace.emit(self.kernel.now, "net", net_row,
                                   "drop" if endpoint is None else "recv",
                                   *message.trace_args(), None)
        if endpoint is None:
            self.stats.record_drop(message)
        else:
            endpoint.deliver(message)
        if self.in_flight == 0:
            for hook in self.drained_hooks:
                hook()


def net_row(verb: str, kind: MessageKind, msg_id: int, src: ProcessId,
            dst: ProcessId, pig: Optional[tuple[int, int]],
            nbytes: Optional[int]) -> tuple[str, dict[str, Any]]:
    """Render a ``send`` / ``recv`` / ``drop`` row from the scalars it was
    emitted with (:meth:`Message.trace_args`; a send adds its bytes)."""
    text = f"{verb} {describe(kind, msg_id, src, dst, pig)}"
    if verb == "drop":
        text += " (dst crashed)"
    return text, {} if nbytes is None else {"bytes": nbytes}
