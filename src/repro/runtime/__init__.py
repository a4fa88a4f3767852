"""Worker runtime: the one process pool the serving and learning layers share.

:class:`~repro.runtime.pool.WorkerPool` owns spawn and respawn, the worker
loop, typed worker death, per-call deadlines, resize and the kill hook;
:class:`~repro.serving.executor.ProcessExecutor` and
:class:`~repro.backend.collectives.ProcessCollectives` supply only the role
their workers play.
"""

from repro.runtime.pool import Worker, WorkerPool, start_method

__all__ = ["Worker", "WorkerPool", "start_method"]
