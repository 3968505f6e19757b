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
simulator: every message is sized at send time, piggybacked CkpSets
carry one execution point per thread, and so the cost of sizing grew
with cluster size exactly where the p=64/256 workloads hurt most.  The
compositional model is pure integer arithmetic and keeps no state: a
value is walked each time it is sized, except that ``Tid`` and
``ExecutionPoint`` have fixed shapes (so fixed sizes) and a wire type
may register its own sizer -- ``CkpSet`` memoizes its size on the
instance, because one is piggybacked to every peer.
"""

from __future__ import annotations

import enum
import pickle
from typing import Any, Callable

from repro.types import Dependency, ExecutionPoint, Tid, WaitObj

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

#: Per-element framing charge inside a container.
ITEM_BYTES = 1

#: Per-object overhead of a repro wire type (class tag + framing).
STATE_BYTES = 6

#: Encoded size of an enum member (small tag).
ENUM_BYTES = 4

#: Flat charge for values outside the model (unknown classes); only
#: tests with sentinel objects hit this.
UNKNOWN_BYTES = 64

#: A Tid's state is two ints; an ExecutionPoint's a Tid and an int.
#: These are what :func:`state_bytes` gives for them (a property test
#: holds the two in step).
TID_BYTES = STATE_BYTES + 8 + 8
EP_BYTES = STATE_BYTES + TID_BYTES + 8


def state_bytes(value: Any) -> int:
    """Size of a registered wire type: STATE_BYTES plus its state fields.

    ``__getstate__`` returns a list of field values (see
    ``repro.types.Tid.__getstate__``).
    """
    total = STATE_BYTES
    for item in value.__getstate__():
        total += _sized(item)
    return total


#: Wire types outside the fixed-shape pair, each with its sizer.  Other
#: modules add theirs via :func:`register_sized_type` so the net layer
#: never imports protocol layers.
_SIZERS: dict[type, Callable[[Any], int]] = {
    WaitObj: state_bytes,
    Dependency: state_bytes,
}


def register_sized_type(
    cls: type, sizer: Callable[[Any], int] = state_bytes
) -> type:
    """Size instances of ``cls`` by ``sizer`` (default :func:`state_bytes`).

    Returns ``cls`` so it can be used as a decorator.
    """
    _SIZERS[cls] = sizer
    return cls


def _sized(value: Any) -> int:
    """Recursive size of ``value`` under the compositional model.

    The container branches inline the scalar cases (string keys, int
    values -- the dominant wire-payload shape) to keep recursion depth
    and call count down; the inlined arms must mirror the scalar
    branches above them exactly.
    """
    cls = value.__class__
    if cls is int or cls is float:
        return 8
    if cls is bool:
        return 1
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
                total += 8
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
                total += 8
            elif icls is str:
                total += len(item) if item.isascii() else len(item.encode())
            else:
                total += _sized(item)
        return total
    if cls is ExecutionPoint:
        return EP_BYTES
    if cls is Tid:
        return TID_BYTES
    sizer = _SIZERS.get(cls)
    if sizer is not None:
        return sizer(value)
    if isinstance(value, enum.Enum):
        return ENUM_BYTES
    return UNKNOWN_BYTES


def blob_size(value: Any) -> int:
    """Size of ``value`` as a *serialized storage blob*.

    Checkpoint images are materialized onto stable storage as one
    serialized blob, so their cost model is the length of an actual
    serialization -- one C-speed pickle per checkpoint, unlike the
    per-message :func:`payload_size` which must stay allocation-free.
    Falls back to the compositional model for unpicklable sentinels.
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return payload_size(value)


def payload_size(value: Any) -> int:
    """Approximate wire size in bytes of an arbitrary payload value."""
    return _sized(value)
