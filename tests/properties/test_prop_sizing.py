"""Property-based tests of the wire-size shortcuts.

The size model walks a wire value's ``__getstate__`` fields, except
that ``Tid`` and ``ExecutionPoint`` are charged a constant (fixed
shapes), ``CkpSet`` memoizes its size on the instance, ``Dependency``
and ``DummyEntry`` store theirs at construction, and every message
record sizes itself in closed form.  A field added to one of those
types would silently break the shortcut, so the properties: for any
value, the shortcut equals a fresh walk -- of the state, or of the
message's old dict spelling, built here field by field.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint.policy import CkpSet
from repro.net.sizing import ITEM_BYTES, STATE_BYTES, payload_size
from repro.types import ExecutionPoint, Tid

WIRE_TYPES = (Tid, ExecutionPoint, CkpSet)


def walked(value) -> int:
    """The model's walk, re-derived here without any shortcut."""
    if isinstance(value, WIRE_TYPES):
        return STATE_BYTES + sum(map(walked, value.__getstate__()))
    if isinstance(value, tuple):
        return payload_size(()) + sum(ITEM_BYTES + walked(item)
                                      for item in value)
    return payload_size(value)


tids = st.builds(Tid, st.integers(), st.integers())
points = st.builds(ExecutionPoint, tids, st.integers())


@st.composite
def ckp_sets(draw) -> CkpSet:
    pid = draw(st.integers())
    locals_ = draw(st.lists(st.integers(), max_size=8))
    return CkpSet(pid, draw(st.integers()), tuple(
        ExecutionPoint(Tid(pid, local), draw(st.integers()))
        for local in locals_))


@given(st.one_of(tids, points, ckp_sets()))
def test_constant_or_memoized_size_equals_a_fresh_walk(value):
    assert payload_size(value) == walked(value)
    assert payload_size(value) == walked(value)  # CkpSet: from its memo
    assert payload_size([value, value]) == (
        payload_size([]) + 2 * (ITEM_BYTES + walked(value)))


# ----------------------------------------------------------------------
# Typed messages: each record's closed-form size() against the walk of
# its old dict spelling, built here field by field.
# ----------------------------------------------------------------------

from repro.checkpoint.dummy import DummyEntry
from repro.net.message import (
    NO_PAYLOAD,
    RECOVERY_REPLY_DATA_BYTES,
    Abort,
    Ack,
    AcquireReply,
    AcquireRequest,
    AppData,
    CoordRound,
    GrantControl,
    Invalidate,
    MessageKind,
    Piggyback,
    RecoveryDone,
    RecoveryReply,
    RecoveryRequest,
    RequestControl,
    ScRelease,
    ScReleaseDone,
    ScUpdate,
)
from repro.net.sizing import state_bytes
from repro.types import AcquireType, Dependency

texts = st.text(max_size=12)
ints = st.integers()
acquire_types = st.sampled_from(AcquireType)
object_data = st.recursive(
    st.none() | st.booleans() | ints | st.floats(allow_nan=False) | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12)


# ----------------------------------------------------------------------
# Replay records: a plain (kind, value) tuple is charged what the walk
# of a two-field wire type is, STATE_BYTES plus its fields, over every
# syscall kind and the value shapes acquires return.
# ----------------------------------------------------------------------

from repro.threads.syscalls import Syscall

SYSCALL_KINDS = sorted({cls.__name__ for cls in Syscall.__subclasses__()})
atoms = st.none() | st.booleans() | ints | st.floats(allow_nan=False) | texts
numbers = ints | st.floats(allow_nan=False)
record_values = st.one_of(
    st.none(),
    st.dictionaries(texts, atoms, max_size=6),
    st.lists(atoms, max_size=6),
    st.lists(st.lists(numbers, min_size=1, max_size=4), max_size=4),
    object_data,
)


@given(st.sampled_from(SYSCALL_KINDS), record_values)
def test_a_replay_record_is_sized_as_the_walk_of_its_fields(kind, value):
    assert payload_size((kind, value)) == (
        STATE_BYTES + payload_size(kind) + payload_size(value))


@st.composite
def acquire_request(draw):
    obj_id, kind, p_acq, hops = (draw(texts), draw(acquire_types),
                                 draw(ints), draw(ints))
    return (AcquireRequest(obj_id, kind, p_acq, hops),
            {"obj_id": obj_id, "type": kind, "p_acq": p_acq, "hops": hops})


def acquire_reply(with_copy_set: bool):
    @st.composite
    def build(draw):
        obj_id, kind, data, p_prd = (draw(texts), draw(acquire_types),
                                     draw(object_data), draw(ints))
        spelling = {"obj_id": obj_id, "type": kind, "obj_data": data,
                    "p_prd": p_prd}
        record = AcquireReply(obj_id, kind, data, p_prd)
        if with_copy_set and draw(st.booleans()):
            record.copy_set = draw(st.lists(ints, max_size=8))
            spelling["copy_set"] = record.copy_set
        return record, spelling
    return build()


@st.composite
def invalidate(draw):
    obj_id, owner, version = draw(texts), draw(ints), draw(ints)
    return (Invalidate(obj_id, owner, version),
            {"obj_id": obj_id, "new_owner": owner, "version": version})


@st.composite
def ack(draw):
    obj_id, sender, version = draw(texts), draw(ints), draw(ints)
    return (Ack(obj_id, sender, version),
            {"obj_id": obj_id, "from": sender, "version": version})


@st.composite
def sc_release(draw):
    obj_id, p_rel = draw(texts), draw(ints)
    if not draw(st.booleans()):
        return (ScRelease(obj_id, False, p_rel),
                {"obj_id": obj_id, "write": False, "p_rel": p_rel})
    tid, version, data = draw(tids), draw(ints), draw(object_data)
    return (ScRelease(obj_id, True, p_rel, tid, version, data),
            {"obj_id": obj_id, "write": True, "p_rel": p_rel, "tid": tid,
             "version": version, "obj_data": data})


@st.composite
def sc_release_done(draw):
    obj_id, tid = draw(texts), draw(tids)
    return ScReleaseDone(obj_id, tid), {"obj_id": obj_id, "tid": tid}


@st.composite
def sc_update(draw):
    obj_id, version, data = draw(texts), draw(ints), draw(object_data)
    return (ScUpdate(obj_id, version, data),
            {"obj_id": obj_id, "version": version, "obj_data": data})


@st.composite
def recovery_request(draw):
    ckp_set, pid = draw(ckp_sets()), draw(ints)
    return (RecoveryRequest(ckp_set, pid),
            {"ckp_set": ckp_set, "failed_pid": pid})


@st.composite
def recovery_done(draw):
    lts = draw(st.dictionaries(tids, ints, max_size=8))
    return RecoveryDone(lts), {"resume_lts": lts}


@st.composite
def abort(draw):
    reason = draw(st.text(max_size=40))
    return Abort(reason), {"reason": reason}


@st.composite
def coord_round(draw):
    epoch = draw(ints)
    return CoordRound(epoch), {"epoch": epoch}


@st.composite
def app_data(draw):
    fields = draw(st.dictionaries(texts, object_data, max_size=4))
    return AppData(fields), fields


#: The old spelling of a recovery reply, ``{"data": RecoveryReplyData}``,
#: was walked to the model's flat charge for a value outside it: 64 bytes.
_RECOVERY_REPLY_SPELLING = st.just(
    (RecoveryReply(data=None), {"data": b"\0" * 64}))

PAYLOADS = {
    MessageKind.ACQUIRE_REQUEST: acquire_request(),
    MessageKind.ACQUIRE_REPLY: acquire_reply(with_copy_set=True),
    MessageKind.INVALIDATE: invalidate(),
    MessageKind.INVALIDATE_ACK: ack(),
    MessageKind.DUMMY_SHIP: st.just((NO_PAYLOAD, {})),
    MessageKind.CKPT_GC: st.just((NO_PAYLOAD, {})),
    MessageKind.RECOVERY_REQUEST: recovery_request(),
    MessageKind.RECOVERY_REPLY: _RECOVERY_REPLY_SPELLING,
    MessageKind.RECOVERY_DONE: recovery_done(),
    MessageKind.ABORT: abort(),
    MessageKind.COORD_CKPT_REQUEST: coord_round(),
    MessageKind.COORD_CKPT_READY: coord_round(),
    MessageKind.COORD_CKPT_COMMIT: coord_round(),
    MessageKind.COORD_CKPT_ACK: coord_round(),
    MessageKind.SC_ACQUIRE: acquire_request(),
    MessageKind.SC_GRANT: acquire_reply(with_copy_set=False),
    MessageKind.SC_RELEASE: sc_release(),
    MessageKind.SC_RELEASE_DONE: sc_release_done(),
    MessageKind.SC_UPDATE: sc_update(),
    MessageKind.SC_UPDATE_ACK: ack(),
    MessageKind.APP: app_data(),
}


def test_every_message_kind_has_a_spelling():
    assert set(PAYLOADS) == set(MessageKind)
    assert RECOVERY_REPLY_DATA_BYTES == 64


@given(st.sampled_from(sorted(MessageKind, key=lambda kind: kind.value))
       .flatmap(PAYLOADS.__getitem__))
def test_payload_size_equals_the_walk_of_its_dict_spelling(drawn):
    record, spelling = drawn
    assert record.size() == payload_size(spelling)


@st.composite
def controls(draw):
    """A request's or a grant's control record, with its dict spelling;
    a grant's ``ep_prd`` is present or absent."""
    if draw(st.booleans()):
        point = draw(points)
        return RequestControl(point), {"ep_acq": point}
    version, point = draw(ints), draw(points)
    spelling = {"version": version, "ep_acq": point}
    record = GrantControl(version, point)
    if draw(st.booleans()):
        record.ep_prd = spelling["ep_prd"] = draw(points)
    return record, spelling


@given(controls())
def test_control_size_equals_the_walk_of_its_dict_spelling(drawn):
    record, spelling = drawn
    assert record.size() == payload_size(spelling)


dependencies = st.builds(Dependency, texts, acquire_types, points, points,
                         ints, st.booleans())
dummies = st.builds(DummyEntry, texts, points, st.none() | points,
                    st.none() | ints, acquire_types)


@given(st.none() | controls(), st.lists(dummies, max_size=4),
       st.lists(ckp_sets(), max_size=2))
def test_piggyback_size_equals_the_walk_of_its_parts(control, shipped, sets):
    record, spelling = control if control is not None else (None, {})
    piggyback = Piggyback(record, shipped, sets)
    assert piggyback.size() == (payload_size(spelling) + payload_size(shipped)
                                + payload_size(sets))


@given(dependencies, ints)
def test_dependency_stores_the_size_of_its_state(dependency, p_log):
    assert dependency.wire_bytes == state_bytes(dependency)
    moved = dependency.with_p_log(p_log)
    assert moved.wire_bytes == state_bytes(moved)
    assert pickle.loads(pickle.dumps(moved)).wire_bytes == moved.wire_bytes


@given(dummies, ints)
def test_dummy_entry_stores_the_size_of_its_state(dummy, pid):
    assert dummy.wire_bytes == state_bytes(dummy)
    stored = dummy.stored_at(pid)
    assert stored.wire_bytes == state_bytes(stored)
    assert pickle.loads(pickle.dumps(stored)).wire_bytes == stored.wire_bytes


def test_a_value_outside_the_model_is_refused():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="Opaque"):
        payload_size([Opaque()])
