"""Unit tests for identifier and execution-point types, and the
hot-path pickle fast paths the wire-size model relies on."""

import dataclasses
import pickle

import pytest

from repro.checkpoint.dummy import DummyEntry
from repro.checkpoint.log import ThreadSetPair
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectStatus,
    Tid,
    WaitObj,
    ep,
)


class TestTid:
    def test_pid_recoverable_from_tid(self):
        # Paper section 3: "the process identifier can be obtained from
        # the tid".
        tid = Tid(3, 1)
        assert tid.pid == 3
        assert tid.local == 1

    def test_ordering_is_total(self):
        tids = [Tid(1, 0), Tid(0, 2), Tid(0, 1), Tid(2, 0)]
        assert sorted(tids) == [Tid(0, 1), Tid(0, 2), Tid(1, 0), Tid(2, 0)]

    def test_hashable_and_equal(self):
        assert Tid(1, 2) == Tid(1, 2)
        assert len({Tid(1, 2), Tid(1, 2), Tid(1, 3)}) == 2

    def test_str(self):
        assert str(Tid(2, 0)) == "t2.0"


class TestAcquireType:
    def test_flags(self):
        assert AcquireType.WRITE.is_write
        assert not AcquireType.WRITE.is_read
        assert AcquireType.READ.is_read
        assert not AcquireType.READ.is_write

    def test_str_matches_paper_notation(self):
        assert str(AcquireType.READ) == "R"
        assert str(AcquireType.WRITE) == "W"


class TestDependency:
    def test_with_p_log_replaces_only_p(self):
        dep = Dependency("x", AcquireType.READ, ep(0, 0, 1), ep(1, 0, 4), 0,
                         local=True)
        shipped = dep.with_p_log(2)
        assert shipped.p_log == 2
        assert shipped.obj_id == dep.obj_id
        assert shipped.ep_acq == dep.ep_acq
        assert shipped.ep_prd == dep.ep_prd
        assert shipped.local
        assert dep.p_log == 0  # original untouched (frozen)

    def test_str_mentions_locality(self):
        dep = Dependency("x", AcquireType.WRITE, ep(0, 0, 1), ep(1, 0, 4), 3)
        assert "remote" in str(dep)
        assert "local" in str(dep.with_p_log(3).__class__(
            "x", AcquireType.WRITE, ep(0, 0, 1), ep(1, 0, 4), 3, local=True))


class TestWaitObj:
    def test_fields(self):
        wait = WaitObj("obj", AcquireType.WRITE, ep(0, 0, 2))
        assert wait.obj_id == "obj"
        assert wait.type is AcquireType.WRITE
        assert wait.ep_acq.lt == 2


class TestObjectStatus:
    def test_values(self):
        assert str(ObjectStatus.NO_ACCESS) == "no-access"
        assert str(ObjectStatus.OWNED) == "owned"
        assert str(ObjectStatus.READ) == "read"


# ----------------------------------------------------------------------
# hot-path pickle fast paths
# ----------------------------------------------------------------------
PICKLED_HOT_TYPES = [
    Tid(3, 7),
    ExecutionPoint(Tid(1, 2), 9),
    WaitObj("x", AcquireType.WRITE, ep(0, 0, 1)),
    Dependency("x", AcquireType.READ, ep(0, 0, 1), ep(1, 0, 2), 1, True),
    ThreadSetPair(ep(0, 0, 1), ep(1, 0, 2)),
    DummyEntry("x", ep(0, 0, 3), ep(0, 0, 1), 2, AcquireType.WRITE),
]


@pytest.mark.parametrize("obj", PICKLED_HOT_TYPES,
                         ids=[type(o).__name__ for o in PICKLED_HOT_TYPES])
def test_pickle_state_matches_dataclass(obj):
    """The hand-written ``__getstate__`` fast paths must produce exactly
    the state CPython's dataclass machinery would (a list of field
    values in field order) -- that is what keeps the wire bytes, and
    therefore every experiment's byte counts, identical."""
    generated = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    assert obj.__getstate__() == generated


@pytest.mark.parametrize("obj", PICKLED_HOT_TYPES,
                         ids=[type(o).__name__ for o in PICKLED_HOT_TYPES])
def test_pickle_roundtrip(obj):
    clone = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == obj
    assert type(clone) is type(obj)


def test_empty_container_sizing_matches_pickle():
    from repro.net.sizing import payload_size

    for value in ({}, [], (), set(), frozenset()):
        expected = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert payload_size(value) == expected, type(value)
