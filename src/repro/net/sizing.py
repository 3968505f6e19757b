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
compositional model is pure integer arithmetic, and because the wire
types are immutable their sizes are cached by identity -- a CkpSet
broadcast to 255 peers is measured once.
"""

from __future__ import annotations

import enum
import pickle
from typing import Any

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

#: Types measured as STATE_BYTES plus the sum of their ``__getstate__``
#: fields (hand-written list states and default dataclass ``__dict__``
#: states both work).  Other modules add their wire types via
#: :func:`register_sized_type` so the net layer never imports protocol
#: layers.
_STATE_TYPES = {Tid, ExecutionPoint, WaitObj, Dependency}

#: Identity cache of sizes for *immutable* objects: registered wire
#: types, enum members (singletons) and the constants None/True/False.
#: Keyed by ``id``; the value keeps a strong reference to the object so
#: the id cannot be recycled while the entry lives.  Cleared when full and
#: when a cluster is built: sizes are cheap to recompute, and an earlier
#: run's entries would keep that run's objects alive.
_OBJ_SIZES: dict[int, tuple[Any, int]] = {}
_OBJ_SIZES_MAX = 65536


def reset_size_cache() -> None:
    """Empty the identity cache, keeping the constants' entries."""
    _OBJ_SIZES.clear()
    _OBJ_SIZES[id(None)] = (None, 0)
    _OBJ_SIZES[id(True)] = (True, 1)
    _OBJ_SIZES[id(False)] = (False, 1)


reset_size_cache()


def register_sized_type(cls: type) -> type:
    """Size ``cls`` through its ``__getstate__`` and cache by identity.

    Only safe for immutable value types: the cache assumes an object's
    size never changes after construction.  Returns ``cls`` so it can
    be used as a decorator.
    """
    _STATE_TYPES.add(cls)
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
                cached = _OBJ_SIZES.get(id(item))
                total += cached[1] if cached is not None else _sized(item)
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
                cached = _OBJ_SIZES.get(id(item))
                total += cached[1] if cached is not None else _sized(item)
        return total
    if cls in _STATE_TYPES:
        ident = id(value)
        cached = _OBJ_SIZES.get(ident)
        if cached is not None:
            return cached[1]
        state = value.__getstate__()
        total = STATE_BYTES
        if state is not None:
            if state.__class__ is list:
                for item in state:
                    total += _sized(item)
            else:
                total += _sized(state)
        if len(_OBJ_SIZES) >= _OBJ_SIZES_MAX:
            reset_size_cache()
        _OBJ_SIZES[ident] = (value, total)
        return total
    if isinstance(value, enum.Enum):
        # Members are singletons; cache so container walks hit inline.
        if len(_OBJ_SIZES) >= _OBJ_SIZES_MAX:
            reset_size_cache()
        _OBJ_SIZES[id(value)] = (value, ENUM_BYTES)
        return ENUM_BYTES
    return UNKNOWN_BYTES


def state_size(value: Any) -> int:
    """:func:`payload_size` of a registered type with a list state, kept
    out of the identity cache (for callers that keep a running total)."""
    return STATE_BYTES + sum(map(_sized, value.__getstate__()))


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
    if value is None:
        return 0
    cls = value.__class__
    if cls is dict or cls is list:
        # The two hot payload shapes; skip the scalar checks.
        if not value:
            return _EMPTY_CONTAINER_BYTES[cls]
        return _sized(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    return _sized(value)
