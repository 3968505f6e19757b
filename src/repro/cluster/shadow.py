"""Shadow snapshots of crashed processes (test oracle only).

When the simulator crashes a process it secretly captures the pre-crash
state.  The protocol under test never sees this; integration tests compare
the recovered process against it to validate Theorem 1 beyond black-box
output equivalence.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from repro.types import ProcessId, Tid


@dataclass
class ShadowSnapshot:
    """Deep snapshot of one process at the instant of its crash."""

    pid: ProcessId
    crashed_at: float
    thread_lts: dict[Tid, int]
    objects: dict[str, dict[str, Any]]

    @staticmethod
    def capture(process: Any, now: float) -> "ShadowSnapshot":
        objects = {}
        for obj in process.directory:
            objects[obj.obj_id] = {
                "version": obj.version,
                "status": obj.status,
                "prob_owner": obj.prob_owner,
                "data": copy.deepcopy(obj.data),
                "ep_dep": obj.ep_dep,
            }
        return ShadowSnapshot(
            pid=process.pid,
            crashed_at=now,
            thread_lts={tid: t.lt for tid, t in process.threads.items()},
            objects=objects,
        )
