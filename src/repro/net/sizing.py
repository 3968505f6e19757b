"""Byte-size model for simulated payloads.

The experiments account message and log sizes in bytes.  Real DiSOM
shipped machine representations; we approximate with a deterministic
*compositional* model: scalars have fixed encodings (ints and floats 8
bytes, strings their UTF-8 length), containers cost an empty-container
base plus a small per-item framing charge plus the sum of their
children, and the repro wire types (Tid, ExecutionPoint, CkpSet, ...)
cost a fixed per-object overhead plus their fields.  The absolute
numbers are arbitrary (the repro band already flags performance as
unrepresentative) but *ratios* between protocols -- which is what the
paper's claims are about -- are preserved because every protocol ships
the same values through the same size model.

Earlier revisions measured ``len(pickle.dumps(value))`` instead.  That
reads nicely but puts a serializer in the hottest path of the
simulator.  The compositional model is pure integer arithmetic and
keeps no state.

Messages are not walked at all: each message kind is a typed record
(:mod:`repro.net.message`) whose ``size()`` is this model written out in
closed form -- the bytes :func:`payload_size` gives for the dict spelling
``{"field": value, ...}`` of the same record, built from the constants
and helpers below.  What is still walked (checkpoint images, log data,
replay records) reaches a wire type through its ``wire_bytes``
attribute: a class constant for the fixed shapes (``Tid``,
``ExecutionPoint``), a value stored at construction for immutable
records (``Dependency``, ``DummyEntry``), a memo (``CkpSet``), or a
walk of the state (:func:`state_bytes`).  A value with none of these is
outside the model and raises ``TypeError``.

This module imports nothing from ``repro``, so the wire types can size
themselves with it.
"""

from __future__ import annotations

import enum
import pickle
from typing import Any

#: Fixed per-message header cost (addresses, kind, sequence numbers).
HEADER_BYTES = 32

#: Size of an empty container, by type.  Kept at the pickled size of the
#: empty container (computed once here) so the model stays anchored to
#: the numbers the earlier pickle-based model produced for the most
#: common case -- most piggybacks carry no dummies or CkpSets at all.
_EMPTY_CONTAINER_BYTES: dict[type, int] = {
    container_type: len(pickle.dumps(container_type(),
                                     protocol=pickle.HIGHEST_PROTOCOL))
    for container_type in (dict, list, tuple, set, frozenset)
}
EMPTY_DICT_BYTES = _EMPTY_CONTAINER_BYTES[dict]
EMPTY_LIST_BYTES = _EMPTY_CONTAINER_BYTES[list]

#: Per-element framing charge inside a container (a dict entry pays it
#: twice: key and value).
ITEM_BYTES = 1

#: Encoded size of an int or a float, and of a bool.
NUMBER_BYTES = 8
BOOL_BYTES = 1

#: Per-object overhead of a repro wire type (class tag + framing).
STATE_BYTES = 6

#: Encoded size of an enum member (small tag).
ENUM_BYTES = 4

#: A Tid's state is two ints; an ExecutionPoint's a Tid and an int.
#: These are what :func:`state_bytes` gives for them (a property test
#: holds the two in step).
TID_BYTES = STATE_BYTES + NUMBER_BYTES + NUMBER_BYTES
EP_BYTES = STATE_BYTES + TID_BYTES + NUMBER_BYTES


def str_bytes(text: str) -> int:
    """Size of a string: its UTF-8 length."""
    return len(text) if text.isascii() else len(text.encode())


def dict_bytes(*keys: str) -> int:
    """Size of a dict with these (ASCII) string keys, values excluded."""
    return EMPTY_DICT_BYTES + sum(2 * ITEM_BYTES + len(key) for key in keys)


class StoredSize:
    """Base of the frozen records that store their size at construction.

    It adds one slot, ``wire_bytes``, outside the subclass's dataclass
    fields, so the stored size stays out of pickles, equality and
    ``dataclasses.fields``.  The subclass sets it in ``__post_init__``
    and again in ``__setstate__``.
    """

    __slots__ = ("wire_bytes",)


def state_bytes(value: Any) -> int:
    """Size of a wire type by walking its state: STATE_BYTES plus its
    state fields.

    ``__getstate__`` returns a list of field values (see
    ``repro.types.Tid.__getstate__``).  Types with a closed form or a
    stored size are held equal to this walk by property tests.
    """
    total = STATE_BYTES
    for item in value.__getstate__():
        total += _sized(item)
    return total


def _sized(value: Any) -> int:
    """Recursive size of ``value`` under the compositional model.

    The container branches inline the scalar cases (string keys, int
    values -- the dominant wire-payload shape) to keep recursion depth
    and call count down; the inlined arms must mirror the scalar
    branches above them exactly.
    """
    cls = value.__class__
    if cls is int or cls is float:
        return NUMBER_BYTES
    if cls is bool:
        return BOOL_BYTES
    if value is None:
        return 0
    if cls is str:
        return len(value) if value.isascii() else len(value.encode())
    if cls is bytes or cls is bytearray:
        return len(value)
    if cls is dict:
        total = _EMPTY_CONTAINER_BYTES[dict] + 2 * ITEM_BYTES * len(value)
        for key, item in value.items():
            kcls = key.__class__
            if kcls is str:
                total += len(key) if key.isascii() else len(key.encode())
            else:
                total += _sized(key)
            icls = item.__class__
            if icls is int or icls is float:
                total += NUMBER_BYTES
            elif icls is str:
                total += len(item) if item.isascii() else len(item.encode())
            else:
                total += _sized(item)
        return total
    if cls is list or cls is tuple or cls is set or cls is frozenset:
        total = _EMPTY_CONTAINER_BYTES[cls] + ITEM_BYTES * len(value)
        for item in value:
            icls = item.__class__
            if icls is int or icls is float:
                total += NUMBER_BYTES
            elif icls is str:
                total += len(item) if item.isascii() else len(item.encode())
            else:
                total += _sized(item)
        return total
    if isinstance(value, enum.Enum):
        return ENUM_BYTES
    size = getattr(value, "wire_bytes", None)
    if size is None:
        raise TypeError(
            f"{cls.__module__}.{cls.__qualname__} is outside the wire-size "
            "model: give it a wire_bytes attribute")
    return size


def blob_size(value: Any) -> int:
    """Size of ``value`` as a *serialized storage blob*.

    Checkpoint images are materialized onto stable storage as one
    serialized blob, so their cost model is the length of an actual
    serialization -- one C-speed pickle per checkpoint, unlike the
    allocation-free walk of :func:`payload_size`.
    Falls back to the compositional model for unpicklable sentinels.
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return payload_size(value)


def payload_size(value: Any) -> int:
    """Approximate wire size in bytes of a value: a scalar, a container,
    an enum member or a wire type (``TypeError`` otherwise)."""
    return _sized(value)
