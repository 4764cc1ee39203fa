"""Parallel execution of figure sweeps.

Every figure sweep is a grid of independent simulation points: each cell
builds its own :class:`~repro.cluster.Cluster` from ``(figure, sizes,
n_nodes, seed)`` and shares no state with its neighbours.  That makes the
sweep embarrassingly parallel, so :class:`SweepExecutor` fans cells across
a ``ProcessPoolExecutor`` while keeping the *results* in deterministic
submission order — the assembled tables are byte-identical to a serial
run.

Cells must be picklable: a module-level callable plus plain-data
arguments.  ``jobs=1`` (the default for library callers) runs everything
in-process with zero multiprocessing overhead; any failure to stand up a
worker pool (restricted sandboxes without ``/dev/shm``, missing ``fork``)
degrades to the same in-process path rather than erroring.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "SweepCell",
    "CellResult",
    "SweepExecutor",
    "default_jobs",
    "run_cells",
    "run_grid",
]


def default_jobs() -> int:
    """The CLI default: one worker per CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepCell:
    """One self-contained simulation point of a figure sweep.

    ``fn(*args, **kwargs)`` must be a module-level callable that builds
    everything it needs (cluster, trees, seeds) from its arguments.
    """

    figure: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""

    def run(self) -> "CellResult":
        started = time.perf_counter()
        value = self.fn(*self.args, **self.kwargs)
        return CellResult(
            figure=self.figure,
            label=self.label,
            value=value,
            wall_time=time.perf_counter() - started,
        )


@dataclass
class CellResult:
    """A cell's return value plus its wall-clock cost."""

    figure: str
    label: str
    value: Any
    wall_time: float


def _run_cell(cell: SweepCell) -> CellResult:
    """Module-level trampoline so cells pickle into worker processes."""
    return cell.run()


class SweepExecutor:
    """Runs sweep cells, serially or across a process pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``None`` means :func:`default_jobs`;
        ``1`` runs in-process (no pool, no pickling).

    After :meth:`run`, ``timings`` holds each cell's ``(label,
    wall_time)`` in submission order.
    """

    def __init__(self, jobs: int | None = None):
        resolved = default_jobs() if jobs is None else int(jobs)
        if resolved < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = resolved
        self.timings: list[tuple[str, float]] = []

    def run(self, cells: Iterable[SweepCell]) -> list[Any]:
        """Execute *cells*, returning their values in submission order."""
        ordered = list(cells)
        if self.jobs == 1 or len(ordered) <= 1:
            results = [_run_cell(cell) for cell in ordered]
        else:
            results = self._run_pool(ordered)
        self.timings = [(r.label or r.figure, r.wall_time) for r in results]
        return [r.value for r in results]

    def _run_pool(self, ordered: Sequence[SweepCell]) -> list[CellResult]:
        workers = min(self.jobs, len(ordered))
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError, RuntimeError):
            # No usable multiprocessing primitives here (restricted
            # sandboxes without /dev/shm, missing fork) — the sweep still
            # has to produce numbers.
            return [_run_cell(cell) for cell in ordered]
        with pool:
            try:
                futures = [pool.submit(_run_cell, cell) for cell in ordered]
                # Collect in submission order: determinism over
                # completion-order throughput tricks.
                return [future.result() for future in futures]
            except (BrokenProcessPool, pickle.PicklingError):
                # Workers died under us or a cell would not pickle across
                # the process boundary.  Only those infrastructure
                # failures degrade to in-process execution; an exception
                # raised *by a cell* comes out of ``future.result()`` with
                # its original type and propagates to the caller — a
                # failing simulation point must fail the sweep, not
                # silently re-run.
                return [_run_cell(cell) for cell in ordered]


def run_cells(
    cells: Iterable[SweepCell], jobs: int | None = 1
) -> list[Any]:
    """One-shot convenience wrapper used by the figure modules."""
    return SweepExecutor(jobs=jobs).run(cells)


def run_grid(grid: Any, jobs: int | None = 1) -> dict[Any, Any]:
    """Execute a :class:`~repro.scenario.grid.ScenarioGrid`.

    Each cell's spec travels to its worker as JSON (strings pickle
    trivially) and is rebuilt there by
    :func:`repro.scenario.harness.run_cell`.  Returns ``{key: value}``
    in declaration order; single-size specs yield the bare point value,
    multi-size specs a ``{size: value}`` dict.
    """
    from repro.scenario.harness import run_cell

    cells = [
        SweepCell(
            figure=grid.figure,
            fn=run_cell,
            args=(cell.spec.to_json(),),
            label=cell.label,
        )
        for cell in grid.cells
    ]
    values = run_cells(cells, jobs=jobs)
    out: dict[Any, Any] = {}
    for cell, by_size in zip(grid.cells, values):
        sizes = cell.spec.measurement.sizes
        out[cell.key] = by_size[sizes[0]] if len(sizes) == 1 else by_size
    return out
