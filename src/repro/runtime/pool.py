"""One persistent worker-process pool behind every process-backed seam.

The serving :class:`~repro.serving.executor.ProcessExecutor` (one worker per
lane group) and the learning
:class:`~repro.backend.collectives.ProcessCollectives` (one worker per
shard) both run on :class:`WorkerPool`.  The pool owns the mechanism —
start method, spawn and respawn, the worker loop, typed worker death, the
per-call deadline, resize, the kill hook and close — and its users supply
only the *role* their workers play and their failure policy.

A worker is an OS process with a private FIFO task queue; all workers answer
on one shared result queue, and work for key ``k`` always lands on slot
``k % size`` so worker-resident caches stay warm.  Each worker installs a
fresh compute backend, builds its role once as ``role(index)``, then serves
messages in order: ``None`` stops it, ``("crash", grace)`` kills it without
cleanup after ``grace`` seconds, ``("run", task_id, payload)`` answers
``(task_id, role.run(payload), error)``, and any other message goes to
``role.handle(message)``.

:attr:`Worker.holds` is the parent's record of what a worker process has been
shipped (lane snapshots, a model token, a dtype).  A respawned worker, or a
slot that newly owns a key after :meth:`WorkerPool.resize`, is a fresh
:class:`Worker` with an empty record, so users re-ship to it without any
invalidation book-keeping.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ExecutorError, WorkerDiedError
from repro.utils.clock import perf_seconds

__all__ = ["Worker", "WorkerPool", "start_method"]

#: Seconds between liveness checks while waiting on the result queue.
_POLL_SECONDS = 0.1

#: Grace a ``kill_worker(wait=False)`` crash holds the worker alive for, so
#: the next call deterministically queues its tasks *before* the worker dies
#: — without it the death races the call's pre-queue liveness check and the
#: mid-call failure path is only hit by luck.
_CRASH_GRACE_SECONDS = 0.25


def start_method() -> str:
    """The start method of every worker pool: fork when available, else spawn."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _portable_error(error: BaseException) -> BaseException:
    """The error itself when picklable, else a typed stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ExecutorError(f"{type(error).__name__}: {error}")


def _worker_main(index, task_queue, result_queue, role, backend) -> None:
    """The generic worker loop (see the module docstring for the messages)."""
    from repro.backend.backend import install_worker_backend

    install_worker_backend(backend)
    handler = role(index)
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if message is None:
            break
        kind = message[0]
        if kind == "crash":
            time.sleep(message[1])
            os._exit(1)
        if kind != "run":
            handler.handle(message)
            continue
        _, task_id, payload = message
        try:
            result = handler.run(payload)
        except Exception as error:
            result_queue.put((task_id, None, _portable_error(error)))
        else:
            result_queue.put((task_id, result, None))


class Worker:
    """One pool member: the OS process, its private task queue, and
    ``holds`` — what this process has been shipped, keyed by the pool's
    user.  A replacement process always starts with an empty record."""

    __slots__ = ("index", "process", "task_queue", "holds")

    def __init__(self, index: int, process, task_queue) -> None:
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.holds: Dict[Any, Any] = {}

    def send(self, message: Optional[tuple]) -> None:
        """Queue a message for the worker's role (FIFO with its tasks)."""
        self.task_queue.put(message)


class WorkerPool:
    """A persistent, lazily started pool of ``size`` worker processes.

    ``role`` is a picklable, module-level class built inside each worker as
    ``role(index)`` after the named compute ``backend`` is installed; it
    exposes ``run(payload)`` for tasks and ``handle(message)`` for every
    other message.  Callers queue a round of tasks with :meth:`submit` on
    workers obtained from :meth:`worker`, then wait for all of them with
    :meth:`collect`.
    """

    def __init__(self, role, size: int, *, name: str, backend: str) -> None:
        self._context = multiprocessing.get_context(start_method())
        self._role = role
        self._backend = backend
        self.size = int(size)
        self.name = name
        self._workers: List[Worker] = []
        # Workers removed by resize() drain their queued messages, exit on
        # the sentinel, and are joined opportunistically (blocking at
        # close()) — the drain-then-retire path that keeps a shrink from
        # killing work already handed to the pool.
        self._retiring: List[Worker] = []
        self._results = None
        self._owners: Dict[int, Worker] = {}  # task id -> worker holding it
        self._task_counter = 0

    # -- lifecycle ------------------------------------------------------ #
    def _spawn(self, index: int) -> Worker:
        if self._results is None:
            self._results = self._context.Queue()
        task_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(index, task_queue, self._results, self._role, self._backend),
            daemon=True,
            name=f"repro-{self.name}-{index}",
        )
        process.start()
        worker = Worker(index, process, task_queue)
        if index < len(self._workers):
            self._workers[index] = worker
        else:
            self._workers.append(worker)
        return worker

    def worker(self, key: int) -> Worker:
        """The live worker owning ``key`` (slot ``key % size``).

        Starts the pool on first use.  A worker that died idle is respawned
        before anything is queued on it, so a call never burns its tasks
        just to notice the death.
        """
        if not self._workers:
            for index in range(self.size):
                self._spawn(index)
        worker = self._workers[key % self.size]
        if not worker.process.is_alive():
            worker = self._spawn(worker.index)
        return worker

    def resize(self, size: int) -> int:
        """Grow or shrink the pool between calls; returns the new size.

        Raises :class:`~repro.exceptions.ExecutorError` while tasks are in
        flight: ownership is ``key % size``, and remapping it under
        unanswered tasks would orphan them.  Growing spawns fresh workers;
        shrinking retires the tail workers through the drain-then-retire
        path — the sentinel queues *behind* anything already on their task
        queues, so queued messages complete before the process exits.  Keys
        whose slot changed land on a worker whose :attr:`Worker.holds` does
        not list their state, so users re-ship it.
        """
        if self._owners:
            raise ExecutorError(
                f"cannot resize the {self.name} pool mid-round: tasks are in "
                "flight and ownership is key % size; resize between calls "
                "(e.g. from a control-plane tick)"
            )
        old, self.size = self.size, int(size)
        if self._workers and self.size > old:
            for index in range(old, self.size):
                self._spawn(index)
        elif self._workers and self.size < old:
            self._retire(self._workers[self.size:])
            del self._workers[self.size:]
        self._reap_retired(block=False)
        return self.size

    def kill_worker(self, index: int, *, wait: bool = True) -> int:
        """Chaos hook: crash one worker (``os._exit`` in-process).

        With ``wait`` the call blocks until the process is gone, so the next
        call finds the slot dead *before* queueing and respawns it silently
        (no task fails).  Without it the crash message carries a short grace
        sleep that holds the worker alive through the next call's pre-queue
        liveness check, so the worker deterministically dies *holding* that
        call's tasks — which fail with
        :class:`~repro.exceptions.WorkerDiedError`.  Returns the pool index.
        """
        worker = self.worker(index)
        worker.send(("crash", 0.0 if wait else _CRASH_GRACE_SECONDS))
        if wait:
            worker.process.join(timeout=5.0)
        return worker.index

    def _retire(self, workers: List[Worker]) -> None:
        for worker in workers:
            try:
                worker.send(None)
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                pass
        self._retiring.extend(workers)

    def _reap_retired(self, block: bool) -> None:
        """Join retired workers (best-effort when not blocking; terminates
        stragglers when blocking at close time)."""
        still_draining: List[Worker] = []
        for worker in self._retiring:
            worker.process.join(timeout=2.0 if block else 0.0)
            if worker.process.is_alive():
                if block:  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                else:
                    still_draining.append(worker)
        self._retiring = still_draining

    def close(self) -> None:
        """Stop every worker (idempotent; the pool restarts on next use)."""
        self._retire(self._workers)
        self._workers = []
        self._reap_retired(block=True)
        self._owners.clear()
        if self._results is not None:
            self._results.close()
            self._results = None

    # -- tasks ---------------------------------------------------------- #
    def submit(self, worker: Worker, payload: Any) -> int:
        """Queue one task on ``worker``; returns its task id."""
        self._task_counter += 1
        task_id = self._task_counter
        self._owners[task_id] = worker
        worker.send(("run", task_id, payload))
        return task_id

    def collect(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[int, Any, Optional[BaseException]]]:
        """Wait for every submitted task; ``(task_id, result, error)`` each.

        Outcomes arrive in completion order.  Tasks held by a worker that
        died fail with :class:`~repro.exceptions.WorkerDiedError`; with a
        ``timeout`` (seconds), workers still holding tasks past it are
        killed and respawned and the call raises
        :class:`~repro.exceptions.ExecutorError`.
        """
        deadline = None if timeout is None else perf_seconds() + timeout
        outcomes: List[Tuple[int, Any, Optional[BaseException]]] = []
        try:
            while self._owners:
                try:
                    task_id, result, error = self._results.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    self._reap_dead(outcomes)
                    if deadline is not None and self._owners and perf_seconds() > deadline:
                        self._kill_stuck(timeout)
                    continue
                # A late answer from a worker already declared dead for this
                # task was failed once; never complete it twice.
                if self._owners.pop(task_id, None) is not None:
                    outcomes.append((task_id, result, error))
        finally:
            self._owners.clear()
        return outcomes

    def _respawn(self, worker: Worker) -> None:
        # Only if the worker still occupies its slot — a replacement spawned
        # earlier in the same call must not be displaced (and orphaned).
        if self._workers[worker.index] is worker:
            self._spawn(worker.index)

    def _reap_dead(self, outcomes: list) -> None:
        """Fail tasks held by dead workers (matched by identity); respawn."""
        dead = {
            id(worker): worker
            for worker in self._owners.values()
            if not worker.process.is_alive()
        }
        for task_id in [tid for tid, worker in self._owners.items() if id(worker) in dead]:
            worker = self._owners.pop(task_id)
            outcomes.append((task_id, None, WorkerDiedError(
                f"{self.name} worker {worker.index} (pid {worker.process.pid}) "
                f"died before answering task {task_id}"
            )))
        for worker in dead.values():
            self._respawn(worker)

    def _kill_stuck(self, timeout: float) -> None:
        """Kill alive-but-wedged workers past the deadline; raise typed."""
        stuck = {id(worker): worker for worker in self._owners.values()}.values()
        for worker in stuck:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            self._respawn(worker)
        indices = sorted(worker.index for worker in stuck)
        raise ExecutorError(
            f"{self.name} call exceeded its {timeout:.3f}s deadline with "
            f"{len(indices)} worker(s) unresponsive (indices {indices}); the "
            "stuck workers were killed and respawned"
        )
