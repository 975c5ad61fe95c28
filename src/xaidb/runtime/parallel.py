"""Persistent worker pool for parallel outer loops.

TMC Data Shapley's permutation walks are independent given their seeds,
so they parallelise trivially — *provided* determinism survives.  The
contract here: callers pre-spawn one seed per task with
:func:`xaidb.utils.rng.spawn_seeds` and the worker derives all of its
randomness from that seed, so ``parallel_map(fn, tasks, n_jobs=k)``
returns bit-identical results for every ``k`` (including serial).

:class:`WorkerPool` is a lazily created singleton that keeps its worker
processes alive across calls (``n_pool_reuses`` counts the saved
spawns; :class:`~xaidb.runtime.stats.EvalStats` surfaces it), growing
only when a caller asks for more workers than it holds.  Task payloads
cross the process boundary by ordinary pickling.

Process pools require picklable work; closures and lambdas (e.g. the
``predict_fn`` adapters) are not.  Rather than making callers probe
picklability, the map falls back to the serial path when the pool cannot
ship the work — results are identical either way, only wall-clock
changes.  ``WorkerPool.close()`` (or interpreter exit) shuts the workers
down.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from xaidb.exceptions import ValidationError
from xaidb.runtime.stats import EvalStats

__all__ = ["WorkerPool", "parallel_map"]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Failures that mean "this work cannot be shipped to a process pool"
#: (unpicklable callables/results, dead workers, missing OS support) —
#: all recoverable by running serially.
_POOL_FAILURES = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    EOFError,
    OSError,
    BrokenProcessPool,
)


class WorkerPool:
    """Lazily created, persistent process pool.

    One instance (the module singleton reached through :meth:`get`)
    outlives individual ``parallel_map`` calls, so repeated explainer
    invocations reuse warm workers instead of paying pool spawn and
    interpreter start-up per call.  The pool grows when a caller asks
    for more workers than it holds and is indifferent to smaller
    requests — task results never depend on worker count, only
    wall-clock does.

    Counters: ``n_maps`` (pool-served maps) and ``n_pool_reuses``
    (maps served by already-warm workers); ``parallel_map`` mirrors the
    latter into the caller's :class:`~xaidb.runtime.stats.EvalStats`.
    """

    _global: "WorkerPool | None" = None

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._max_workers = 0
        self.n_maps = 0
        self.n_pool_reuses = 0

    # ------------------------------------------------------------------
    @classmethod
    def get(cls) -> "WorkerPool":
        """The process-wide pool, created on first use."""
        if cls._global is None:
            cls._global = WorkerPool()
        return cls._global

    @classmethod
    def close_global(cls) -> None:
        """Shut down the singleton's workers and forget it."""
        if cls._global is not None:
            cls._global.close()
            cls._global = None

    # ------------------------------------------------------------------
    def _ensure_workers(self, n_workers: int) -> bool:
        """Make sure the executor holds >= ``n_workers`` workers;
        returns True when the existing (warm) pool could serve the
        request as-is."""
        if self._executor is not None and self._max_workers >= n_workers:
            return True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        # test hook: force a start method (fork/spawn/forkserver) so the
        # determinism contract can be pinned under each of them
        method = os.environ.get("XAIDB_POOL_START_METHOD")
        self._executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=(
                multiprocessing.get_context(method) if method else None
            ),
        )
        self._max_workers = n_workers
        return False

    def map(
        self,
        fn: Callable[[_Task], _Result],
        tasks: Sequence[_Task],
        *,
        n_jobs: int,
    ) -> tuple[list, bool]:
        """Order-preserving pooled map; returns ``(results, reused)``.

        Raises one of the pool-shippability failures when the work
        cannot cross the process boundary — the caller owns the serial
        fallback.
        """
        reused = self._ensure_workers(min(n_jobs, len(tasks)))
        futures = [self._executor.submit(fn, task) for task in tasks]
        try:
            results = [future.result() for future in futures]
        except BrokenProcessPool:
            # dead workers poison the executor; discard it so the next
            # call starts clean
            self._executor = None
            self._max_workers = 0
            raise
        except BaseException:
            # quiesce before re-raising: cancel what has not started
            # and let in-flight tasks finish, so the caller's serial
            # fallback never runs alongside workers still executing
            # tasks of this map
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        self.n_maps += 1
        if reused:
            self.n_pool_reuses += 1
        return results, reused

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._max_workers = 0


atexit.register(WorkerPool.close_global)


def parallel_map(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    *,
    n_jobs: int | None = None,
    stats: EvalStats | None = None,
) -> list[_Result]:
    """Order-preserving ``[fn(t) for t in tasks]`` with optional workers.

    Parameters
    ----------
    fn:
        Pure task function; all randomness must come from the task
        payload (a spawned seed), never from global state.
    tasks:
        Task payloads; results are returned in task order.
    n_jobs:
        ``None`` or ``1`` runs serially in-process; ``k > 1`` uses up to
        ``k`` processes from the persistent :class:`WorkerPool`,
        falling back to serial execution when the work cannot be
        pickled across the process boundary.
    stats:
        Optional ledger; its ``n_pool_reuses`` counter is bumped when
        this map was served by already-warm workers (the second and
        later pooled calls of a session).
    """
    if n_jobs is not None and n_jobs < 1:
        raise ValidationError("n_jobs must be >= 1 or None")
    task_list: Sequence[_Task] = list(tasks)
    if n_jobs is None or n_jobs == 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    pool = WorkerPool.get()
    try:
        results, reused = pool.map(fn, task_list, n_jobs=n_jobs)
    except _POOL_FAILURES:
        if stats is not None:
            stats.n_serial_fallbacks += 1
        return [fn(task) for task in task_list]
    if stats is not None and reused:
        stats.n_pool_reuses += 1
    return results
