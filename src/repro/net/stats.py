"""Network accounting.

These counters are the primary measurement surface of experiments E2
(no extra checkpoint messages), E3 (log/transfer volume) and E4
(coordination overhead).  Messages are counted at send time; piggyback
bytes are accounted separately from the carrying message's own payload.

Accounting is batched for the send fast path: :meth:`record_send` only
maintains the per-*kind* counters (plus scalar totals); the per-*layer*
views that experiments read are derived from them on demand via the
static kind->layer mapping.  That halves the counter updates per message
without changing any reported number.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.net.message import Message, layer_of


@dataclass
class NetworkStats:
    """Message and byte counters, split by kind and by protocol layer."""

    messages_by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    piggyback_bytes: int = 0
    piggyback_dummy_entries: int = 0
    piggyback_ckp_sets: int = 0
    dropped_to_crashed: int = 0
    total_messages: int = 0
    total_bytes: int = 0

    def record_send(self, message: Message) -> None:
        pay = message.payload_bytes
        pig = message.piggyback_bytes
        self.messages_by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += pay
        piggyback = message.piggyback
        if piggyback is not None:
            self.piggyback_bytes += pig
            self.piggyback_dummy_entries += len(piggyback.dummies)
            self.piggyback_ckp_sets += len(piggyback.ckp_sets)
        self.total_messages += 1
        self.total_bytes += pay + pig

    def record_drop(self, message: Message) -> None:
        self.dropped_to_crashed += 1

    # -- derived per-layer views ------------------------------------------
    @property
    def messages_by_layer(self) -> Counter:
        """Message counts aggregated by protocol layer (derived)."""
        layers: Counter = Counter()
        for kind, count in self.messages_by_kind.items():
            layers[layer_of(kind)] += count
        return layers

    @property
    def bytes_by_layer(self) -> Counter:
        """Payload bytes aggregated by protocol layer (derived)."""
        layers: Counter = Counter()
        for kind, count in self.bytes_by_kind.items():
            layers[layer_of(kind)] += count
        return layers

    # -- convenience views used by experiments ---------------------------
    @property
    def coherence_messages(self) -> int:
        return self.messages_by_layer["coherence"]

    @property
    def checkpoint_messages(self) -> int:
        """Extra messages sent by the checkpoint layer (paper claims 0
        during the failure-free period when piggybacking is enabled)."""
        return self.messages_by_layer["checkpoint"]

    @property
    def recovery_messages(self) -> int:
        return self.messages_by_layer["recovery"]

    def as_dict(self) -> dict:
        """Flat summary used by reports and EXPERIMENTS.md rows."""
        messages_by_layer = self.messages_by_layer
        bytes_by_layer = self.bytes_by_layer
        return {
            "total_messages": self.total_messages,
            "total_bytes": self.total_bytes,
            "coherence_messages": messages_by_layer["coherence"],
            "coherence_bytes": bytes_by_layer["coherence"],
            "checkpoint_messages": messages_by_layer["checkpoint"],
            "checkpoint_bytes": bytes_by_layer["checkpoint"],
            "recovery_messages": messages_by_layer["recovery"],
            "recovery_bytes": bytes_by_layer["recovery"],
            "piggyback_bytes": self.piggyback_bytes,
            "piggyback_dummy_entries": self.piggyback_dummy_entries,
            "piggyback_ckp_sets": self.piggyback_ckp_sets,
            "dropped_to_crashed": self.dropped_to_crashed,
        }
