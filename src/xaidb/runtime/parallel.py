"""Persistent worker pool + shared-memory arrays for parallel outer loops.

TMC permutations, permutation-sampling Shapley draws and multi-instance
LIME/KernelSHAP batches are independent given their seeds, so they
parallelise trivially — *provided* determinism survives.  The contract
here: callers pre-spawn one seed per task with
:func:`xaidb.utils.rng.spawn_seeds` and the worker derives all of its
randomness from that seed, so ``parallel_map(fn, tasks, n_jobs=k)``
returns bit-identical results for every ``k`` (including serial).

The seed implementation paid two recurring taxes on top of the work
itself: every ``parallel_map`` call spawned a fresh process pool, and
every task re-pickled its large read-only payloads (the background
dataset, the instance batch) across the process boundary.  Both are
fixed here:

- :class:`WorkerPool` is a lazily created singleton that keeps its
  worker processes alive across calls (``n_pool_reuses`` counts the
  saved spawns; :class:`~xaidb.runtime.stats.EvalStats` surfaces it),
  growing only when a caller asks for more workers than it holds;
- :meth:`WorkerPool.share` places a read-only array in
  :mod:`multiprocessing.shared_memory` once and hands back a
  pickle-cheap :class:`SharedArrayRef`; each worker attaches the
  segment on first use and caches the mapping for the life of the
  process, so the array crosses the process boundary zero times per
  task.

Process pools require picklable work; closures and lambdas (e.g. the
``predict_fn`` adapters) are not.  Rather than making callers probe
picklability, the map falls back to the serial path when the pool cannot
ship the work — results are identical either way, only wall-clock
changes.  ``WorkerPool.close()`` (or interpreter exit) shuts the workers
down and unlinks every shared segment.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.runtime.stats import EvalStats

__all__ = [
    "SharedArrayRef",
    "WorkerPool",
    "parallel_map",
    "resolve_shared",
]

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

#: Per-process cache of attached segments: ``name -> (segment, array)``.
#: Worker processes populate their own copy on first
#: :meth:`SharedArrayRef.load`, which is what makes the payload travel
#: once per worker instead of once per task.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop an *attached* segment from this process's resource tracker.

    On Python < 3.13 every attach registers the segment with the
    resource tracker, which would unlink it (and warn) when the worker
    exits even though the creating process still owns it.  The creator
    keeps its registration; attach-only processes must unregister.
    """
    try:  # pragma: no cover - defensive against stdlib refactors
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    # xailint: disable=XDB005,XDB032 (stdlib-private tracker API varies across versions; cleanup must never break a worker)
    except Exception:  # noqa: BLE001 - cleanup must never break a worker
        pass


def _retrack(segment: shared_memory.SharedMemory) -> None:
    """Re-register a segment with the resource tracker before unlinking.

    The inverse hazard of :func:`_untrack`: under the ``fork`` start
    method workers share the creator's tracker process, so a worker's
    unregister also drops the *creator's* registration — and the
    creator's eventual ``unlink()`` then sends an unbalanced unregister
    that makes the tracker daemon print a ``KeyError`` traceback at
    exit.  Registering (a set-add, idempotent) immediately before
    unlink keeps the tracker's books balanced either way.
    """
    try:  # pragma: no cover - defensive against stdlib refactors
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    # xailint: disable=XDB005,XDB032 (stdlib-private tracker API varies across versions; cleanup must never break shutdown)
    except Exception:  # noqa: BLE001 - cleanup must never break shutdown
        pass


class SharedArrayRef:
    """Pickle-cheap handle to a read-only ndarray in shared memory.

    Created by :meth:`WorkerPool.share`; resolved (in any process) by
    :meth:`load` or the :func:`resolve_shared` pass-through helper.
    """

    def __init__(self, name: str, shape: tuple, dtype: np.dtype) -> None:
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)

    def load(self) -> np.ndarray:
        """Attach (once per process) and return the read-only array."""
        cached = _ATTACHED.get(self.name)
        if cached is None:
            segment = shared_memory.SharedMemory(name=self.name)
            _untrack(segment)
            array = np.ndarray(
                self.shape, dtype=self.dtype, buffer=segment.buf
            )
            array.flags.writeable = False
            cached = _ATTACHED[self.name] = (segment, array)
        return cached[1]


def resolve_shared(payload):
    """``payload.load()`` for :class:`SharedArrayRef`, identity
    otherwise — lets one task function serve both the pooled path
    (handles) and the serial path (plain arrays)."""
    if isinstance(payload, SharedArrayRef):
        return payload.load()
    return payload


class WorkerPool:
    """Lazily created, persistent process pool + shared-memory arena.

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
        #: ``id(source) -> (source, segment, ref)``; holding ``source``
        #: keeps the id stable for the memo.
        self._segments: dict[int, tuple] = {}
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
        """Shut down the singleton (workers + shared segments)."""
        if cls._global is not None:
            cls._global.close()
            cls._global = None

    # ------------------------------------------------------------------
    def share(self, array: np.ndarray) -> SharedArrayRef:
        """Place ``array`` in a shared segment (memoised per source
        object) and return its handle.

        The copy happens once; subsequent ``share`` calls with the same
        object return the existing handle, which is how repeated
        explainer calls over one background dataset ship it exactly
        once for the life of the pool.
        """
        entry = self._segments.get(id(array))
        if entry is not None:
            return entry[2]
        contiguous = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, contiguous.nbytes)
        )
        view = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf
        )
        view[...] = contiguous
        view.flags.writeable = False
        ref = SharedArrayRef(segment.name, contiguous.shape, contiguous.dtype)
        # pre-populate this process's attach cache so the serial
        # fallback reads the same segment without re-attaching
        _ATTACHED[ref.name] = (segment, view)
        self._segments[id(array)] = (array, segment, ref)
        return ref

    @property
    def n_shared_arrays(self) -> int:
        """Arrays currently resident in the shared arena."""
        return len(self._segments)

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
            # and let in-flight tasks finish, so the caller's fallback
            # bookkeeping (e.g. retrack_segments) cannot race a worker
            # that is still attaching/untracking arena segments
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        self.n_maps += 1
        if reused:
            self.n_pool_reuses += 1
        return results, reused

    # ------------------------------------------------------------------
    def retrack_segments(self) -> None:
        """Re-register every arena segment with the resource tracker.

        Under the ``fork`` start method workers share the creator's
        tracker daemon, so a worker's attach (which calls
        :func:`_untrack`) strips the *creator's* registration too.
        That is harmless while :meth:`close` runs — it re-registers
        before unlinking — but a map that died mid-flight and fell back
        to serial leaves the segments untracked: if the process then
        exits without ``close()``, nothing reaps them from
        ``/dev/shm``.  Calling this on the fallback path restores the
        safety net (``register`` is a set-add, so double-tracking is
        impossible).
        """
        for __, segment, _ref in self._segments.values():
            _retrack(segment)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers and unlink every shared segment."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._max_workers = 0
        for __, segment, ref in self._segments.values():
            _ATTACHED.pop(ref.name, None)
            try:
                segment.close()
                _retrack(segment)
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


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
        # fork-mode workers may already have untracked the creator's
        # arena segments; rebalance the tracker's books before running
        # serially so a crash without close() still gets reaped
        pool.retrack_segments()
        if stats is not None:
            stats.n_serial_fallbacks += 1
        return [fn(task) for task in task_list]
    if stats is not None and reused:
        stats.n_pool_reuses += 1
    return results
