"""Jacobi successive over-relaxation on a block-partitioned grid.

The classic DSM kernel (Munin/Midway's SOR): the grid is split into
horizontal blocks, one shared object per block and per parity (double
buffering).  Each iteration a worker read-acquires its neighbours'
current blocks, computes its new block, write-acquires the "next" block
object, and meets the others at a barrier.  The final grid is a
deterministic function of the initial grid and iteration count, so the
failure-injection experiments can verify bit-identical output.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.system import DisomSystem, RunResult
from repro.threads.program import Program
from repro.threads.syscalls import AcquireRead, AcquireWrite, Compute, Release
from repro.workloads.base import Workload, WorkloadResult
from repro.workloads.lib import barrier


def _sor_step(block, above, below, omega):
    """One Jacobi/SOR update of a block given boundary rows."""
    rows = len(block)
    cols = len(block[0])
    out = [row[:] for row in block]
    for r in range(rows):
        up = block[r - 1] if r > 0 else above
        down = block[r + 1] if r < rows - 1 else below
        for c in range(cols):
            left = block[r][c - 1] if c > 0 else 0.0
            right = block[r][c + 1] if c < cols - 1 else 0.0
            upv = up[c] if up is not None else 0.0
            downv = down[c] if down is not None else 0.0
            neighbour_avg = (left + right + upv + downv) / 4.0
            out[r][c] = block[r][c] + omega * (neighbour_avg - block[r][c])
    return out


def _sor_reference(grid, workers, iterations, omega):
    """Sequential reference implementation for verification."""
    rows_per = len(grid) // workers
    blocks = [
        [row[:] for row in grid[w * rows_per:(w + 1) * rows_per]]
        for w in range(workers)
    ]
    for _ in range(iterations):
        new_blocks = []
        for w in range(workers):
            above = blocks[w - 1][-1] if w > 0 else None
            below = blocks[w + 1][0] if w < workers - 1 else None
            new_blocks.append(_sor_step(blocks[w], above, below, omega))
        blocks = new_blocks
    return blocks


def _sor_body(ctx):
    w = ctx.param("worker")
    workers = ctx.param("workers")
    iterations = ctx.param("iterations")
    omega = ctx.param("omega")
    compute = ctx.param("compute_per_iter")
    for it in range(iterations):
        cur, nxt = it % 2, (it + 1) % 2
        above = below = None
        if w > 0:
            neighbour = yield AcquireRead(f"sor.{cur}.{w - 1}")
            above = neighbour[-1][:]
            yield Release(f"sor.{cur}.{w - 1}")
        if w < workers - 1:
            neighbour = yield AcquireRead(f"sor.{cur}.{w + 1}")
            below = neighbour[0][:]
            yield Release(f"sor.{cur}.{w + 1}")
        block = yield AcquireRead(f"sor.{cur}.{w}")
        yield Release(f"sor.{cur}.{w}")
        new_block = _sor_step(block, above, below, omega)
        yield Compute(compute)
        yield AcquireWrite(f"sor.{nxt}.{w}")
        yield Release.of(f"sor.{nxt}.{w}", new_block)
        yield from barrier("sor.barrier", workers)
    return f"worker-{w}-done"


class SorWorkload(Workload):
    """See module docstring."""

    name = "sor"

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {
            "rows_per_block": 3,
            "cols": 8,
            "iterations": 4,
            "omega": 0.8,
            "compute_per_iter": 3.0,
        }

    def _initial_grid(self, workers: int) -> list[list[float]]:
        rows = workers * self.param("rows_per_block")
        cols = self.param("cols")
        # Deterministic "hot edge" initial condition.
        return [
            [100.0 if r == 0 else (10.0 if c == 0 else 0.0) for c in range(cols)]
            for r in range(rows)
        ]

    def setup(self, system: DisomSystem) -> None:
        workers = system.config.processes
        grid = self._initial_grid(workers)
        per = self.param("rows_per_block")
        for w in range(workers):
            block = [row[:] for row in grid[w * per:(w + 1) * per]]
            system.add_object(f"sor.0.{w}", initial=block, home=w)
            system.add_object(f"sor.1.{w}", initial=[row[:] for row in block], home=w)
        system.add_object("sor.barrier", initial=[0, 0], home=0)
        for w in range(workers):
            system.spawn(w, Program("sor-worker", _sor_body, {
                "worker": w,
                "workers": workers,
                "iterations": self.param("iterations"),
                "omega": self.param("omega"),
                "compute_per_iter": self.param("compute_per_iter"),
            }))

    def verify(self, result: RunResult) -> WorkloadResult:
        workers = len([k for k in result.final_objects if k.startswith("sor.0.")])
        grid = self._initial_grid(workers)
        expected = _sor_reference(
            grid, workers, self.param("iterations"), self.param("omega")
        )
        parity = self.param("iterations") % 2
        issues = []
        for w in range(workers):
            actual = result.final_objects.get(f"sor.{parity}.{w}")
            if actual is None:
                issues.append(f"missing final block {w}")
                continue
            for r, (arow, erow) in enumerate(zip(actual, expected[w])):
                for c, (a, e) in enumerate(zip(arow, erow)):
                    if abs(a - e) > 1e-9:
                        issues.append(
                            f"block {w} [{r}][{c}]: {a} != expected {e}"
                        )
                        break
        return WorkloadResult(ok=not issues, issues=issues[:5])
