"""Property-based tests of copy-on-write object images.

``SharedObject.snapshot`` returns the dict it built last time while the
object is unchanged, so checkpoint images share the sections of
untouched objects.  Hypothesis drives random mutation sequences
interleaved with snapshots; the properties: every snapshot is
indistinguishable from a freshly built one (field by field and as
pickled bytes, which is how images are sized and stored), an image
taken earlier never changes afterwards, and restoring from an earlier
image reinstates exactly that image.
"""

import copy
import pickle

from hypothesis import given, settings, strategies as st

from repro.memory.objects import SharedObject, SharedObjectSpec
from repro.threads.thread import snapshot as pristine
from repro.types import ObjectStatus, Tid, ep

OPS = (
    "version", "status", "prob_owner", "ep_dep", "copy_set_add",
    "copy_set_discard", "copy_set_round_trip", "reader_add",
    "reader_discard", "writer", "data_equal_new", "data_new_value",
    "snapshot", "restore",
)

FIELDS = ("obj_id", "version", "prob_owner", "status", "copy_set", "ep_dep",
          "data", "local_readers", "local_writer")


def fresh_snapshot(obj: SharedObject) -> dict:
    """The image section built from scratch, as before copy-on-write."""
    return {
        "obj_id": obj.obj_id,
        "version": obj.version,
        "prob_owner": obj.prob_owner,
        "status": obj.status,
        "copy_set": set(obj.copy_set),
        "ep_dep": obj.ep_dep,
        "data": pristine(obj.data),
        "local_readers": set(obj.local_readers),
        "local_writer": obj.local_writer,
    }


def apply(obj: SharedObject, op: str, n: int, images: list) -> None:
    if op == "version":
        obj.version += 1
    elif op == "status":
        obj.status = list(ObjectStatus)[n % len(ObjectStatus)]
    elif op == "prob_owner":
        obj.prob_owner = n % 4
    elif op == "ep_dep":
        obj.ep_dep = ep(0, n % 2, n)
    elif op == "copy_set_add":
        obj.copy_set.add(n % 4)
    elif op == "copy_set_discard":
        obj.copy_set.discard(n % 4)
    elif op == "copy_set_round_trip":
        # Back to equal contents: the earlier snapshot is still valid.
        if n % 4 in obj.copy_set:
            obj.copy_set.discard(n % 4)
            obj.copy_set.add(n % 4)
        else:
            obj.copy_set.add(n % 4)
            obj.copy_set.discard(n % 4)
    elif op == "reader_add":
        obj.local_readers.add(Tid.of(0, n % 3))
    elif op == "reader_discard":
        obj.local_readers.discard(Tid.of(0, n % 3))
    elif op == "writer":
        obj.local_writer = None if n % 3 == 0 else Tid.of(0, n % 3)
    elif op == "data_equal_new":
        obj.data = copy.deepcopy(obj.data)
    elif op == "data_new_value":
        obj.data = {"v": [n, n + 1], "k": "x" * (n % 5)}
    elif op == "snapshot":
        image = obj.snapshot()
        images.append((image, pickle.dumps(image)))
    elif op == "restore" and images:
        image, _ = images[n % len(images)]
        obj.restore(image)
        assert fresh_snapshot(obj) == image


def assert_same_image(snap: dict, fresh: dict) -> None:
    assert list(snap) == list(FIELDS)
    for name in FIELDS:
        assert snap[name] == fresh[name], name
    assert pickle.dumps(snap) == pickle.dumps(fresh)


class TestCopyOnWriteImages:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 50)),
                          max_size=40))
    def test_snapshot_is_indistinguishable_from_a_fresh_one(self, steps):
        obj = SharedObject(SharedObjectSpec("x", {"v": [0]}, home=0), 0)
        images: list = []
        for op, n in steps:
            apply(obj, op, n, images)
            assert_same_image(obj.snapshot(), fresh_snapshot(obj))
            # Earlier images are never changed by later mutations.
            for image, frozen in images:
                assert pickle.dumps(image) == frozen
        for image, frozen in images:
            obj.restore(image)
            assert_same_image(obj.snapshot(), image)
            assert pickle.dumps(obj.snapshot()) == frozen

    def test_unchanged_object_shares_its_section(self):
        obj = SharedObject(SharedObjectSpec("x", [1], home=0), 0)
        first = obj.snapshot()
        obj.copy_set.add(2)
        obj.copy_set.discard(2)
        assert obj.snapshot() is first
        obj.data = list(obj.data)  # equal but a new object: rebuilt
        second = obj.snapshot()
        assert second is not first and second == first
        obj.version += 1
        assert obj.snapshot()["version"] == first["version"] + 1
        assert first["version"] == 0
