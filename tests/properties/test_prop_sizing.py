"""Property-based tests of the wire-size shortcuts.

The size model walks a wire value's ``__getstate__`` fields, except
that ``Tid`` and ``ExecutionPoint`` are charged a constant (fixed
shapes) and ``CkpSet`` memoizes its size on the instance.  A field
added to one of those types would silently break the shortcut, so the
property: for any value, the shortcut equals a fresh walk of the state,
before and after the memo is filled.
"""

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
