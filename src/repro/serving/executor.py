"""Pluggable batch executors behind the event-loop scheduler.

The :class:`~repro.serving.scheduler.EventLoopScheduler` decides *which*
batch runs next on each lane; an :class:`Executor` decides *where and how*
that batch actually executes.  Three implementations ship with the library
(:data:`EXECUTORS`, ``pilote fleet-sim --executor {serial,thread,process}``):

* :class:`SerialExecutor` (``"serial"``, the default) — inline execution on
  the calling thread, bit-exact with the historical scheduler: every batch
  is timed with the wall clock and converted to device-seconds through the
  profile's ``relative_compute``, so N lanes drain "in parallel" only on
  the simulated clock;
* :class:`ThreadExecutor` (``"thread"``) — a shared-memory thread pool.
  The numpy kernels release the GIL during GEMMs so compute overlaps
  partially, but this executor is primarily for I/O-shaped lanes (devices
  whose ``infer`` waits on something other than the interpreter);
* :class:`ProcessExecutor` (``"process"``) — worker OS processes on the
  shared :class:`~repro.runtime.pool.WorkerPool`, one process per *lane
  group* (lane ``i`` always lands on worker ``i % workers``, keeping
  per-lane caches warm).  Each worker installs its own compute backend at
  startup (:func:`repro.backend.install_worker_backend`) and serves from
  shipped :class:`~repro.edge.inference.EngineStateSnapshot`\\ s —
  picklable replicas of each lane's
  :class:`~repro.edge.inference.InferenceEngine` keyed by
  ``PILOTE.state_version``, re-shipped automatically when a broadcast or
  incremental update bumps the live version.  Request futures are completed
  from the pool's IPC result queue inside ``drain()``.

Executors are a *mechanism* seam: FIFO/EDF queue order, routing policies,
rollout staging and deadline accounting all live above it in the scheduler
and compose unchanged with every implementation.  What changes is the
meaning of time (:attr:`Executor.clock`): the serial executor reports
*modeled* device latency on the simulated parallel clock, the concurrent
executors report *measured* wall-clock latency (``DeviceStats.clock ==
"wall"``), which is what ``benchmarks/bench_workers.py`` gates real
multi-core speedup on.  Deadlines follow the active clock — under a
wall-clock executor a ``deadline_seconds`` is a *real* bound, so the SLO
breakdown depends on the hardware actually serving (slow pool, more
expiries), exactly as a production deployment would; seeded,
hardware-independent deadline numbers need the serial executor, which is
why ``pilote fleet-sim`` rejects ``--deadline-ms`` with a wall-clock
executor (its generated arrivals are simulated-clock quantities).

Worker death is a first-class outcome, not a hang: the pool fails a dead
worker's outstanding batches with a typed
:class:`~repro.exceptions.WorkerDiedError` (no future is dropped or
answered twice) and respawns it empty, and the next round re-ships
whatever snapshots it lost.  This module supplies only the serving role of
the pool: snapshot sync and delta handling, and the rule that one failure
fails one batch.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend import default_dtype, get_backend, precision, resolve_dtype
from repro.utils.clock import perf_seconds
from repro.exceptions import (
    ConfigurationError,
    ExecutorError,
    SnapshotMismatchError,
)
from repro.runtime.pool import Worker, WorkerPool

__all__ = [
    "LaneTask",
    "LaneResult",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
]

@dataclass(frozen=True)
class LaneTask:
    """One unit of executor work: a coalesced window batch bound to a lane."""

    position: int
    windows: np.ndarray


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one :class:`LaneTask`.

    ``wall`` is the engine compute measured where it ran (inside the worker
    for remote executors); ``error`` carries the typed failure instead of
    raising, so one bad batch cannot abort a whole round.
    """

    position: int
    outputs: Optional[np.ndarray]
    wall: float
    error: Optional[BaseException] = None


class Executor:
    """Strategy running the scheduler's prepared batches.

    The scheduler calls :meth:`bind` once with its *live* device list (so
    ``replace_device`` reaches executors too), then :meth:`run` with one
    task per lane and round; :meth:`close` releases pools.  ``concurrent``
    tells the scheduler whether tasks handed to one :meth:`run` call may
    execute in parallel (round-based drain) or must interleave on the
    simulated clock (the serial drain); ``clock`` labels the resulting
    ``DeviceStats`` rows (``"simulated"`` modeled latency vs ``"wall"``
    measured latency).
    """

    #: Registry key and CLI name of the executor.
    name: str = "abstract"
    #: How ``DeviceStats`` rows produced through this executor are labelled.
    clock: str = "simulated"
    #: Whether one ``run()`` call may execute its tasks in parallel.
    concurrent: bool = False

    def bind(self, devices: Sequence) -> None:
        self._devices = devices

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        """Execute every task; returns one :class:`LaneResult` per task."""
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method

    def close(self) -> None:
        """Release worker pools (idempotent; serial executors are a no-op)."""

    def describe(self) -> str:
        return self.name

    # Concurrent executors additionally expose ``resize(workers) -> int``
    # (grow/shrink the pool between rounds without losing in-flight work);
    # the control plane's autoscaler feature-detects it with getattr, the
    # same duck-typed seam as ``sync_stats``.


def _resolve_workers(requested: Optional[int], n_lanes: int) -> int:
    """Worker count: requested, else one per core, never more than lanes."""
    if requested is not None and requested <= 0:
        raise ConfigurationError(f"workers must be positive, got {requested}")
    limit = requested if requested is not None else (os.cpu_count() or 1)
    return max(1, min(int(limit), n_lanes))


def _device_dtype(device) -> np.dtype:
    """The dtype a device's ``infer`` runs under.

    Fleet devices pin their profile's compute dtype
    (``FleetDevice.serving_dtype``); in-process adapters serve under the
    ambient policy dtype at call time.
    """
    name = getattr(device, "serving_dtype", None)
    return resolve_dtype(name) if name is not None else default_dtype()


def _timed_infer(device, windows: np.ndarray, position: int) -> LaneResult:
    """Run one batch on a live device, capturing wall time and failure."""
    start = perf_seconds()
    try:
        outputs = device.infer(windows)
    except Exception as error:  # typed errors travel through the futures
        return LaneResult(position, None, 0.0, error)
    return LaneResult(position, outputs, perf_seconds() - start, None)


class SerialExecutor(Executor):
    """Inline execution on the simulated clock — the historical behaviour.

    Bit-exact with the pre-executor scheduler: same engine calls, same
    wall-clock timing converted to device-seconds through
    ``profile.relative_compute``, same simulated-parallel reports
    (``benchmarks/bench_workers.py`` gates the equivalence)."""

    name = "serial"
    clock = "simulated"
    concurrent = False

    def __init__(self, workers: Optional[int] = None) -> None:
        # Accepted for registry uniformity, but a pool size on the inline
        # executor is always a caller mistake — reject it loudly rather
        # than silently serving on one core.
        if workers is not None:
            raise ConfigurationError(
                "the serial executor runs batches inline; workers= requires "
                'executor="thread" or executor="process"'
            )

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        return [
            _timed_infer(self._devices[task.position], task.windows, task.position)
            for task in tasks
        ]


class ThreadExecutor(Executor):
    """Shared-memory concurrency over a persistent thread pool.

    Lanes within one round run on pool threads; numpy's kernels release the
    GIL, so compute overlaps partially — full per-core speedup needs the
    :class:`ProcessExecutor`.  The global dtype policy is *not* thread-safe
    to mutate concurrently, so the round is grouped by each device's
    serving dtype and each group runs under one ambient ``precision``
    scope; the per-device ``precision`` contexts inside ``FleetDevice
    .serve`` then only ever rewrite the value already in force, which keeps
    heterogeneous-precision fleets deterministic.
    """

    name = "thread"
    clock = "wall"
    concurrent = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = workers
        self._pool: Optional[_ThreadPool] = None
        self.n_workers = 0

    def bind(self, devices: Sequence) -> None:
        super().bind(devices)
        self.n_workers = _resolve_workers(self._requested, len(devices))

    def _ensure_pool(self) -> _ThreadPool:
        if self._pool is None:
            self._pool = _ThreadPool(
                max_workers=self.n_workers, thread_name_prefix="repro-serve"
            )
        return self._pool

    def resize(self, workers: int) -> int:
        """Grow or shrink the thread pool; returns the effective size.

        Thread tasks are joined within each ``run()`` call, so between
        rounds nothing is in flight and the pool can simply be rebuilt at
        the new size on next use.  Capped at the lane count like the
        initial sizing.
        """
        workers = _resolve_workers(workers, len(self._devices))
        if workers != self.n_workers:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self.n_workers = workers
        return self.n_workers

    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        pool = self._ensure_pool()
        groups: Dict[np.dtype, List[LaneTask]] = {}
        for task in tasks:
            groups.setdefault(_device_dtype(self._devices[task.position]), []).append(task)
        results: List[LaneResult] = []
        for dtype, group in groups.items():
            with precision(dtype):
                futures = [
                    pool.submit(
                        _timed_infer, self._devices[task.position],
                        task.windows, task.position,
                    )
                    for task in group
                ]
                results.extend(future.result() for future in futures)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ---------------------------------------------------------------------- #
# process workers
# ---------------------------------------------------------------------- #
class _ServingRole:
    """What a :class:`ProcessExecutor` worker does with its messages.

    Built once per worker process by the :class:`~repro.runtime.pool
    .WorkerPool`: ``("sync", position, snapshot)`` installs/replaces the
    lane's :class:`~repro.edge.inference.SnapshotEngine` and ``("delta",
    position, delta)`` advances the retained base snapshot with an
    :class:`~repro.edge.inference.EngineSnapshotDelta` (only the rows that
    moved cross the IPC queue).  A ``(position, windows)`` task answers
    ``(outputs, wall)``.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.engines: Dict[int, object] = {}
        self.snapshots: Dict[int, object] = {}  # lane -> last installed snapshot

    def handle(self, message: tuple) -> None:
        from repro.edge.inference import SnapshotEngine

        kind, position, blob = message
        if kind == "sync":
            snapshot = blob
        else:
            # Apply the delta onto the retained base; any failure (missing
            # base, stale version — possible only if the parent's
            # book-keeping broke) drops the lane so the next task fails typed
            # through its future rather than serving stale state.
            try:
                base = self.snapshots.get(position)
                if base is None:
                    raise ExecutorError(
                        f"worker {self.index} received a delta for lane "
                        f"{position} but holds no base snapshot"
                    )
                snapshot = base.apply_delta(blob)
            except Exception:
                self.engines.pop(position, None)
                self.snapshots.pop(position, None)
                return
        self.engines[position] = SnapshotEngine(snapshot)
        self.snapshots[position] = snapshot

    def run(self, payload: tuple) -> tuple:
        position, windows = payload
        engine = self.engines.get(position)
        if engine is None:
            raise ExecutorError(
                f"worker {self.index} holds no engine snapshot for lane {position}"
            )
        start = perf_seconds()
        outputs = engine.predict(windows)
        return outputs, perf_seconds() - start


class ProcessExecutor(Executor):
    """Persistent multi-process worker pool, one process per lane group.

    Runs on the shared :class:`~repro.runtime.pool.WorkerPool`.  Lane ``i``
    is pinned to worker ``i % workers`` so each worker keeps a warm
    :class:`~repro.edge.inference.SnapshotEngine` per lane it owns.
    Snapshots are shipped lazily and re-shipped only when the lane's live
    engine, its learner, or the learner's ``PILOTE.state_version`` differs
    from what the owning worker holds (a broadcast, an on-device increment,
    or a device/learner replacement — a fresh learner restarts its version
    counter, so identity is part of the staleness key), so steady-state
    rounds carry just the window payloads.  A version bump on a lane the
    worker already holds ships an
    :class:`~repro.edge.inference.EngineSnapshotDelta` — only the prototype
    rows and parameters that moved — falling back to the full snapshot when
    the delta would not be smaller or the architecture changed
    (``sync_stats()`` reports bytes shipped and full vs delta counts).
    Every device behind the scheduler must expose an ``engine``
    (``FleetDevice``/``EdgeDevice`` do; ``serve(...)`` wires it for the
    in-process adapters) — a lane without one fails with a typed
    :class:`~repro.exceptions.ExecutorError`.

    One failure fails one batch: a dead worker fails only the batches it
    held, with :class:`~repro.exceptions.WorkerDiedError`, and is respawned
    empty, so the lanes it owned re-sync their snapshots automatically.
    """

    name = "process"
    clock = "wall"
    concurrent = True

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = workers
        self._pool: Optional[WorkerPool] = None
        # Shipping telemetry (survives close() so reports can read it after
        # the pool is released): bytes over the IPC queue, full vs delta.
        self.bytes_shipped = 0
        self.full_syncs = 0
        self.delta_syncs = 0

    @property
    def n_workers(self) -> int:
        return self._pool.size if self._pool is not None else 0

    def bind(self, devices: Sequence) -> None:
        super().bind(devices)
        self._pool = WorkerPool(
            _ServingRole,
            _resolve_workers(self._requested, len(devices)),
            name="serving",
            backend=get_backend().name,
        )

    def resize(self, workers: int) -> int:
        """Grow or shrink the pool between rounds (capped at the lane count);
        see :meth:`~repro.runtime.pool.WorkerPool.resize`."""
        return self._pool.resize(_resolve_workers(workers, len(self._devices)))

    def kill_worker(self, index: int, *, wait: bool = True) -> int:
        """Chaos hook: crash one worker; see
        :meth:`~repro.runtime.pool.WorkerPool.kill_worker`."""
        return self._pool.kill_worker(index, wait=wait)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()

    # -- snapshot shipping ---------------------------------------------- #
    def _live_engine(self, position: int):
        device = self._devices[position]
        engine = getattr(device, "engine", None)
        if engine is None:
            raise ExecutorError(
                f"lane {position} (device "
                f"{getattr(device, 'device_id', '?')}) exposes no "
                "InferenceEngine; the process executor serves from shipped "
                "engine snapshots"
            )
        return engine

    def _sync_lane(self, worker: Worker, position: int) -> None:
        engine = self._live_engine(position)
        learner = engine.learner
        # (engine, learner, state_version, snapshot) this worker holds for
        # the lane.  Identity matters, not just the version number: a
        # redeploy or device replacement installs a *fresh* learner whose
        # counter restarts, so an equal version from a different object
        # must still re-ship.  The snapshot is the worker's delta base.
        held = worker.holds.get(position)
        same = held is not None and held[0] is engine and held[1] is learner
        if same and held[2] == learner.state_version:
            return
        device = self._devices[position]
        snapshot = engine.state_snapshot(
            compute_dtype=str(_device_dtype(device))
        )
        delta = None
        if same:
            # Same engine/learner, newer version: the worker still holds the
            # previously shipped snapshot, so only the rows that moved need
            # to cross the IPC queue.  Architectural changes raise
            # SnapshotMismatchError and fall back to the full re-ship.
            try:
                delta = snapshot.diff(held[3])
            except SnapshotMismatchError:
                delta = None
        if delta is not None and delta.nbytes < snapshot.nbytes:
            worker.send(("delta", position, delta))
            self.bytes_shipped += delta.nbytes
            self.delta_syncs += 1
        else:
            worker.send(("sync", position, snapshot))
            self.bytes_shipped += snapshot.nbytes
            self.full_syncs += 1
        worker.holds[position] = (engine, learner, snapshot.state_version, snapshot)

    def sync_stats(self) -> Dict[str, int]:
        """Cumulative snapshot-shipping telemetry (full syncs, deltas, bytes)."""
        return {
            "bytes_shipped": self.bytes_shipped,
            "full_syncs": self.full_syncs,
            "delta_syncs": self.delta_syncs,
        }

    # -- execution ------------------------------------------------------ #
    def run(self, tasks: Sequence[LaneTask]) -> List[LaneResult]:
        results: List[LaneResult] = []
        positions: Dict[int, int] = {}  # task id -> lane
        for task in tasks:
            worker = self._pool.worker(task.position)
            try:
                self._sync_lane(worker, task.position)
            except Exception as error:
                # An unsnapshottable lane (no engine, learner not fitted,
                # snapshot failure, ...) fails its batch through the future,
                # like any other serving error — never a lost task, and
                # never an aborted round stranding already-queued lanes.
                results.append(LaneResult(task.position, None, 0.0, error))
                continue
            task_id = self._pool.submit(
                worker, (task.position, np.asarray(task.windows))
            )
            positions[task_id] = task.position
        for task_id, answer, error in self._pool.collect():
            outputs, wall = (None, 0.0) if error is not None else answer
            results.append(LaneResult(positions[task_id], outputs, wall, error))
        return results


#: CLI/config name → executor class.
EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(
    executor: Union[str, Executor, None], *, workers: Optional[int] = None
) -> Executor:
    """Resolve an executor instance from a name, an instance or ``None``.

    ``None`` means the default :class:`SerialExecutor` (inline, simulated
    clock — the historical behaviour).  ``workers`` sizes the pool of the
    concurrent executors (default: one per CPU core, capped at the lane
    count); it cannot be combined with an already-built instance.
    """
    if isinstance(executor, Executor):
        if workers is not None:
            raise ConfigurationError(
                "workers= cannot resize an already-built executor instance; "
                "pass the executor name instead"
            )
        return executor
    if executor is None:
        executor = SerialExecutor.name
    try:
        executor_class = EXECUTORS[executor]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {sorted(EXECUTORS)}"
        ) from None
    return executor_class(workers=workers)
