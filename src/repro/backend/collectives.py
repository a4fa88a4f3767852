"""Deterministic collective ops over a persistent shard worker pool.

This module is the communication layer of the sharded backend
(:mod:`repro.backend.sharded`).  It follows the operator-library approach of
vmad-style MPI engines: every collective is a *pure, deterministic combine
function* over indexed contributions, and the tape-facing twins
(``allreduce_sum`` / ``allreduce_mean`` / ``allgather``) are registered in the
same op registry (:mod:`repro.backend.registry`) the autodiff tensors dispatch
through, so gradient accumulation across data-parallel shards records a named
tape entry with a proper VJP instead of an anonymous closure.

Bit-exactness is a *design rule* here, not an aspiration:

* Contributions are ``(unit_index, array)`` pairs.  Every reduction sorts by
  the global unit index and left-folds in that fixed order — so the result is
  identical no matter how units were assigned to shards (shard-count
  invariance) and identical to a serial left fold over the same units.
* Work is partitioned by *whole natural units* (a class, a group, a fixed-size
  block), never by splitting one BLAS call: single-threaded BLAS kernels pick
  different blocking by matrix shape, so ``A[rows] @ B`` concatenated is *not*
  bitwise ``A @ B`` — only identical shapes give identical bits.  Each unit's
  computation therefore has exactly the same shapes serially and on a shard.

Two transports implement the same :class:`Collectives` interface:
:class:`SerialCollectives` runs shard kernels inline (the reference, and the
fallback inside worker processes — a shard worker must never spawn its own
pool), :class:`ProcessCollectives` runs them on the shared worker runtime,
:class:`repro.runtime.pool.WorkerPool`, and adds only the shard role: model
and dtype re-sync, the kernel registry, and the rule that one failure fails
the whole call — a worker dying mid-collective raises
:class:`~repro.exceptions.WorkerDiedError` (a missing contribution would
silently change the reduction), and the pool respawns the worker so the next
call finds a healthy world.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.policy import default_dtype
from repro.backend.registry import register_op
from repro.exceptions import ConfigurationError, ExecutorError, ShapeError
from repro.runtime.pool import Worker, WorkerPool

#: Set in shard worker processes so a backend built there degrades to the
#: serial transport instead of recursively spawning pools.
_WORKER_ENV = "REPRO_SHARD_WORKER"


def in_shard_worker() -> bool:
    """Whether this process is a shard worker of some parent pool."""
    return os.environ.get(_WORKER_ENV) == "1"


# ---------------------------------------------------------------------- #
# deterministic combine functions
# ---------------------------------------------------------------------- #
def fixed_order_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Left fold ``((a0 + a1) + a2) + ...`` — the one float summation order.

    Floating-point addition is not associative, so *any* reduction that wants
    to be bit-exact across shard counts must fix the fold order.  This is it:
    every collective in this module reduces in ascending unit-index order
    through this fold, which also equals the serial accumulation order.
    """
    arrays = list(arrays)
    if not arrays:
        raise ShapeError("fixed_order_sum needs at least one array")
    total = np.array(arrays[0], copy=True)
    for array in arrays[1:]:
        array = np.asarray(array)
        if array.shape != total.shape:
            raise ShapeError(
                f"fixed_order_sum got mismatched shapes {total.shape} and {array.shape}"
            )
        np.add(total, array, out=total)
    return total


Contribution = Tuple[int, np.ndarray]


def _ordered(contributions: Iterable[Contribution]) -> List[np.ndarray]:
    """Arrays in ascending unit-index order; duplicate indices are a bug."""
    items = sorted(contributions, key=lambda pair: pair[0])
    indices = [index for index, _ in items]
    if len(set(indices)) != len(indices):
        raise ConfigurationError(
            f"duplicate unit indices in collective contributions: {indices}"
        )
    return [np.asarray(array) for _, array in items]


def allreduce(contributions: Iterable[Contribution], op: str = "sum") -> np.ndarray:
    """Reduce ``(unit_index, array)`` contributions in fixed unit order.

    ``op`` is ``"sum"`` or ``"mean"``.  The result does not depend on how the
    units were distributed over shards: contributions are re-ordered by their
    *global* unit index before the left fold.
    """
    arrays = _ordered(contributions)
    if op == "sum":
        return fixed_order_sum(arrays)
    if op == "mean":
        return fixed_order_sum(arrays) / float(len(arrays))
    raise ConfigurationError(f"unknown allreduce op {op!r}; expected 'sum' or 'mean'")


def allgather(contributions: Iterable[Contribution]) -> np.ndarray:
    """Concatenate contributions along axis 0 in ascending unit order."""
    arrays = _ordered(contributions)
    return np.concatenate([np.atleast_1d(a) for a in arrays], axis=0)


def reduce_scatter(
    contributions: Iterable[Tuple[int, int, np.ndarray]], op: str = "sum"
) -> Dict[int, np.ndarray]:
    """Per-slot fixed-order reduction: ``(slot, unit_index, array)`` → slot result.

    The scatter half of MPI's reduce-scatter, coordinator-orchestrated: every
    destination ``slot`` receives the reduction of the contributions addressed
    to it, each reduced in ascending unit order (so the per-slot results are
    shard-count invariant exactly like :func:`allreduce`).
    """
    per_slot: Dict[int, List[Contribution]] = {}
    for slot, unit_index, array in contributions:
        per_slot.setdefault(int(slot), []).append((unit_index, array))
    return {slot: allreduce(items, op=op) for slot, items in sorted(per_slot.items())}


def argmin_reduce(
    contributions: Iterable[Tuple[int, float, Any]]
) -> Tuple[float, Any]:
    """Global argmin over ``(unit_index, value, payload)`` contributions.

    Ties break to the lowest unit index (strict ``<`` over ascending units),
    matching ``np.argmin``'s first-occurrence rule when unit order follows
    candidate order — the herding twin relies on that to stay deterministic.
    """
    items = sorted(contributions, key=lambda item: item[0])
    if not items:
        raise ShapeError("argmin_reduce needs at least one contribution")
    best_value, best_payload = float(items[0][1]), items[0][2]
    for _, value, payload in items[1:]:
        if float(value) < best_value:
            best_value, best_payload = float(value), payload
    return best_value, best_payload


# ---------------------------------------------------------------------- #
# tape-facing twins (registered in the op registry)
# ---------------------------------------------------------------------- #
def _allreduce_sum_forward(ctx, *arrays):
    """Fixed-order sum of the shard contributions (one tensor per shard)."""
    ctx.save(len(arrays))
    return fixed_order_sum(arrays)


def _allreduce_sum_vjp(ctx, grad):
    (count,) = ctx.saved
    return tuple(grad for _ in range(count))


def _allreduce_mean_forward(ctx, *arrays):
    """Fixed-order mean of the shard contributions."""
    ctx.save(len(arrays))
    return fixed_order_sum(arrays) / float(len(arrays))


def _allreduce_mean_vjp(ctx, grad):
    (count,) = ctx.saved
    scaled = grad / float(count)
    return tuple(scaled for _ in range(count))


def _allgather_forward(ctx, *arrays):
    """Concatenate shard contributions along axis 0 (ascending shard order)."""
    parts = [np.atleast_1d(np.asarray(a)) for a in arrays]
    ctx.save(tuple(part.shape[0] for part in parts))
    return np.concatenate(parts, axis=0)


def _allgather_vjp(ctx, grad):
    (sizes,) = ctx.saved
    cotangents = []
    offset = 0
    for size in sizes:
        cotangents.append(grad[offset:offset + size])
        offset += size
    return tuple(cotangents)


register_op(
    "allreduce_sum",
    _allreduce_sum_forward,
    _allreduce_sum_vjp,
    doc="Data-parallel sum: fixed-order fold over per-shard tensors; the "
    "gradient fans out unchanged to every shard.",
)
register_op(
    "allreduce_mean",
    _allreduce_mean_forward,
    _allreduce_mean_vjp,
    doc="Data-parallel mean: fixed-order fold over per-shard tensors divided "
    "by the shard count; the gradient fans out scaled by 1/k.",
)
register_op(
    "allgather",
    _allgather_forward,
    _allgather_vjp,
    doc="Gather per-shard tensors along axis 0 in shard order; the gradient "
    "splits back to the contributing shards.",
)


# ---------------------------------------------------------------------- #
# shard kernels
# ---------------------------------------------------------------------- #
#: Kernel name → ``fn(state, payload) -> result``.  Kernels are module-level
#: named functions (not closures) so the spawn start method can pickle the
#: *name* over IPC and resolve it worker-side.
SHARD_KERNELS: Dict[str, Callable[["ShardWorkerState", Any], Any]] = {}


def register_shard_kernel(name: str) -> Callable:
    """Decorator registering a named shard kernel."""

    def decorator(fn: Callable) -> Callable:
        SHARD_KERNELS[name] = fn
        return fn

    return decorator


def get_shard_kernel(name: str) -> Callable:
    try:
        return SHARD_KERNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown shard kernel {name!r}; known kernels: {sorted(SHARD_KERNELS)}"
        ) from None


class ShardWorkerState:
    """Per-shard state kernels run against: the shipped model plus a cache.

    In a worker process the model is reconstructed from the broadcast
    ``(input_dim, config fields, state_dict)`` blob; under
    :class:`SerialCollectives` it is simply the live coordinator model.  The
    ``cache`` dict lets stateful kernels (blocked herding scoring) keep
    shard-resident data across calls without re-shipping it every step.
    """

    __slots__ = ("model", "cache")

    def __init__(self) -> None:
        self.model = None
        self.cache: Dict[Any, Any] = {}

    def install_model(self, input_dim, config_fields, state_dict) -> None:
        """Rebuild the embedding network from a broadcast blob (worker side).

        The network is constructed under the *shipped parameters'* dtype, not
        this process's ambient default: leaf tensors materialise in the
        construction-time policy dtype and ``load_state_dict`` casts loaded
        values to the existing parameters' dtype, so building under any other
        precision would silently re-cast the coordinator's weights and break
        bit-exactness with the serial path.
        """
        # Local imports: the backend layer must not depend on core at module
        # load (core imports backend); workers resolve it lazily.
        from repro.backend.policy import precision
        from repro.core.config import PiloteConfig
        from repro.core.embedding import EmbeddingNetwork

        fields = dict(config_fields)
        fields["hidden_dims"] = tuple(fields["hidden_dims"])
        config = PiloteConfig(**fields)
        param_values = [
            np.asarray(value)
            for key, value in state_dict.items()
            if key.startswith("param.")
        ]
        leaf_dtype = param_values[0].dtype if param_values else default_dtype()
        with precision(leaf_dtype):
            model = EmbeddingNetwork(int(input_dim), config=config)
        model.load_state_dict(state_dict)
        model.eval()
        self.model = model

    def require_model(self):
        if self.model is None:
            raise ExecutorError("shard kernel needs a model but none was broadcast")
        return self.model


@register_shard_kernel("class_embeddings")
def _kernel_class_embeddings(state: ShardWorkerState, payload) -> Tuple[int, np.ndarray]:
    """``(class_id, rows)`` → ``(class_id, embeddings)`` under the shard model."""
    class_id, rows = payload
    return int(class_id), state.require_model().embed(rows)


@register_shard_kernel("herd_class")
def _kernel_herd_class(state: ShardWorkerState, payload) -> Tuple[int, np.ndarray]:
    """``(class_id, rows, budget)`` → ``(class_id, herding indices)``.

    Embeds the *whole* class and runs the exact serial
    :func:`repro.core.exemplars.herding_selection` — identical shapes, data
    and single-threaded kernels as the coordinator would use, so the selected
    indices are bit-for-bit the serial ones.
    """
    from repro.core.exemplars import herding_selection

    class_id, rows, budget = payload
    embeddings = state.require_model().embed(rows)
    indices = herding_selection(rows, embeddings, int(budget))
    return int(class_id), indices


@register_shard_kernel("class_prototype")
def _kernel_class_prototype(state: ShardWorkerState, payload) -> Tuple[int, np.ndarray]:
    """``(class_id, exemplar rows)`` → ``(class_id, mean embedding)``."""
    class_id, rows = payload
    embeddings = state.require_model().embed(rows)
    return int(class_id), embeddings.mean(axis=0)


@register_shard_kernel("grouped_partial")
def _kernel_grouped_partial(state: ShardWorkerState, payload):
    """Partial grouped sums for a contiguous chunk of groups.

    ``(chunk_index, values, local_inverse, n_groups)`` → ``(chunk_index,
    sums, counts)``.  ``np.add.at`` is an unbuffered sequential accumulate in
    row order, so each group's sum is the same left fold the serial
    ``grouped_means`` computes — whole groups on one shard keep it bit-exact.
    """
    chunk_index, values, inverse, n_groups = payload
    values = np.asarray(values)
    inverse = np.asarray(inverse)
    sums = np.zeros((int(n_groups), values.shape[1]), dtype=values.dtype)
    np.add.at(sums, inverse, values)
    counts = np.bincount(inverse, minlength=int(n_groups))
    return int(chunk_index), sums, counts


@register_shard_kernel("herd_score")
def _kernel_herd_score(state: ShardWorkerState, payload):
    """Blocked candidate scoring for the intra-class herding twin.

    The payload is a dict: ``{"key", "blocks", "centre", "remove"}``.  On the
    first call ``blocks`` carries this shard's fixed-size candidate blocks as
    ``(block_index, embeddings, squared_norms, global_offset)`` tuples, cached
    under ``key`` so later steps only ship the (tiny) centre vector.
    ``remove`` marks a globally selected candidate unavailable.  Returns one
    ``(block_index, min_value, global_argmin_index)`` per live block — the
    coordinator folds them with :func:`argmin_reduce`.
    """
    key = payload["key"]
    if payload.get("blocks") is not None:
        state.cache[key] = [
            {
                "index": int(block_index),
                "embeddings": np.asarray(embeddings),
                "squared_norms": np.asarray(squared_norms),
                "offset": int(offset),
                "available": np.ones(np.asarray(embeddings).shape[0], dtype=bool),
            }
            for block_index, embeddings, squared_norms, offset in payload["blocks"]
        ]
    blocks = state.cache.get(key)
    if blocks is None:
        raise ExecutorError(f"herd_score called before its blocks were shipped ({key!r})")
    remove = payload.get("remove")
    if remove is not None:
        for block in blocks:
            local = int(remove) - block["offset"]
            if 0 <= local < block["available"].shape[0]:
                block["available"][local] = False
    centre = payload.get("centre")
    if centre is None:
        return []
    centre = np.asarray(centre)
    results = []
    for block in blocks:
        if not block["available"].any():
            continue
        scores = 2.0 * (block["embeddings"] @ centre) + block["squared_norms"]
        scores[~block["available"]] = np.inf
        local_best = int(np.argmin(scores))
        results.append(
            (block["index"], float(scores[local_best]), block["offset"] + local_best)
        )
    return results


@register_shard_kernel("herd_release")
def _kernel_herd_release(state: ShardWorkerState, payload):
    """Drop a cached herding working set (``payload`` is the cache key)."""
    state.cache.pop(payload, None)
    return None


# ---------------------------------------------------------------------- #
# process worker role
# ---------------------------------------------------------------------- #
class _ShardRole:
    """What a :class:`ProcessCollectives` worker does with its messages.

    Built once per worker process by the :class:`~repro.runtime.pool
    .WorkerPool`: ``("dtype", name)`` re-installs the compute dtype (the
    coordinator's policy is a dynamic scoped setting — ``precision(...)`` —
    so it is re-synced per call) and drops the resident model so the next
    broadcast rebuilds it under the new precision; ``("model", input_dim,
    config_fields, state_dict)`` rebuilds the shard's embedding network.  A
    ``(kernel_name, payload)`` task answers the named shard kernel's result.
    """

    def __init__(self, index: int) -> None:
        os.environ[_WORKER_ENV] = "1"
        self.state = ShardWorkerState()

    def handle(self, message: tuple) -> None:
        from repro.backend.policy import set_default_dtype

        self.state.model = None  # stale under a new dtype, or being replaced
        if message[0] == "dtype":
            set_default_dtype(message[1])
            return
        try:
            self.state.install_model(*message[1:])
        except Exception:
            # Left without a model: the next task that needs one fails typed.
            return

    def run(self, payload: tuple) -> Any:
        kernel_name, kernel_payload = payload
        return get_shard_kernel(kernel_name)(self.state, kernel_payload)


# ---------------------------------------------------------------------- #
# transports
# ---------------------------------------------------------------------- #
class Collectives:
    """Transport running shard kernels over a logical world of ``shards``.

    The combine half (``allreduce``/``allgather``/``reduce_scatter``) is pure
    and transport-independent — it always reduces in global unit order — so
    the two transports differ only in *where* kernels run.
    """

    #: Registry key of the transport.
    name: str = "abstract"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)

    @property
    def world_size(self) -> int:
        return self.shards

    def partition(self, n_units: int) -> List[range]:
        """Contiguous, balanced unit ranges, one per shard (possibly empty)."""
        base, extra = divmod(max(int(n_units), 0), self.shards)
        ranges: List[range] = []
        start = 0
        for shard in range(self.shards):
            size = base + (1 if shard < extra else 0)
            ranges.append(range(start, start + size))
            start += size
        return ranges

    # combine functions, exposed on the transport for call-site convenience
    allreduce = staticmethod(allreduce)
    allgather = staticmethod(allgather)
    reduce_scatter = staticmethod(reduce_scatter)
    argmin_reduce = staticmethod(argmin_reduce)

    def broadcast_model(self, model, token: Any) -> None:
        """Make ``model`` available to every shard (idempotent per ``token``)."""
        raise NotImplementedError

    def run(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        """Run a named kernel over payloads; results in payload order.

        Payload ``i`` runs on shard ``i % world_size`` — callers build one
        payload per natural unit and rely on the combine functions for order
        independence, so the placement policy is free to stay simple.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker pools (idempotent; the serial transport is a no-op)."""

    def describe(self) -> str:
        return f"{self.name}[{self.shards}]"


class SerialCollectives(Collectives):
    """Inline transport: kernels run in-process against the live model.

    The reference implementation every sharded result is gated against, and
    the automatic fallback inside shard workers (:func:`in_shard_worker`) so
    an installed sharded backend can never recursively spawn pools.
    """

    name = "serial"

    def __init__(self, shards: int = 1) -> None:
        super().__init__(shards)
        self._state = ShardWorkerState()

    def broadcast_model(self, model, token: Any) -> None:
        self._state.model = model

    def run(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        fn = get_shard_kernel(kernel)
        return [fn(self._state, payload) for payload in payloads]


class ProcessCollectives(Collectives):
    """Persistent multi-process transport, one OS process per shard.

    Runs on the shared :class:`~repro.runtime.pool.WorkerPool` (spawn and
    respawn, typed worker death, the optional per-call deadline, the chaos
    ``kill_worker`` hook).  Unlike the serving executor — where one dead
    batch fails one future — any failure here fails the *whole* collective
    call, a dead worker with :class:`~repro.exceptions.WorkerDiedError`: a
    reduction missing one shard's contribution would be silently wrong,
    which is worse than loud.
    """

    name = "process"

    def __init__(
        self,
        shards: int,
        backend_name: str = "numpy",
        timeout: Optional[float] = None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        super().__init__(shards)
        #: Optional wall-clock bound per collective call.  A worker that is
        #: *alive but stuck* (wedged BLAS call, blocked queue put) never trips
        #: the dead-worker reaping, so without a deadline the call would spin
        #: forever; past the bound the stuck workers are killed, their slots
        #: respawned, and the call fails with a typed ExecutorError.
        self._timeout = timeout
        self._pool = WorkerPool(_ShardRole, self.shards, name="shard", backend=backend_name)
        # Last broadcast model blob: (token, input_dim, config_fields, state).
        self._model_blob: Optional[tuple] = None

    def kill_worker(self, index: int, *, wait: bool = True) -> int:
        """Chaos hook: crash one worker; see
        :meth:`~repro.runtime.pool.WorkerPool.kill_worker`."""
        return self._pool.kill_worker(index, wait=wait)

    def close(self) -> None:
        self._pool.close()

    # -- model broadcast ------------------------------------------------ #
    def broadcast_model(self, model, token: Any) -> None:
        """Record the model blob; shipped lazily, per worker, keyed by token.

        The blob is built once per token (``state_dict`` copies the params so
        later training steps cannot mutate what a worker will deserialise);
        :meth:`run` ships it only to workers that do not hold the token — a
        respawned worker holds nothing and re-syncs automatically.
        """
        if self._model_blob is not None and self._model_blob[0] == token:
            return
        import dataclasses

        self._model_blob = (
            token,
            int(model.input_dim),
            dataclasses.asdict(model.config),
            model.state_dict(),
        )

    def _sync(self, worker: Worker) -> None:
        """Ship the call-time dtype, then the model, to a stale worker.

        The coordinator's dtype is a *scoped* policy (``precision(...)``), so
        a pool spawned under one precision can serve calls made under another;
        without this re-sync the worker would rebuild models and embed under
        a stale dtype and silently diverge from the serial path.  Both
        messages queue ahead of this call's tasks (private FIFO task queue);
        a dtype change forgets the held model token so the resident network
        is rebuilt under the new precision.
        """
        current = str(default_dtype())
        if worker.holds.get("dtype") != current:
            worker.send(("dtype", current))
            worker.holds = {"dtype": current}
        if self._model_blob is not None and worker.holds.get("model") != self._model_blob[0]:
            worker.send(("model",) + self._model_blob[1:])
            worker.holds["model"] = self._model_blob[0]

    # -- execution ------------------------------------------------------ #
    def run(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        get_shard_kernel(kernel)  # fail fast on typos, before any IPC
        positions: Dict[int, int] = {}  # task id -> payload position
        for position, payload in enumerate(payloads):
            worker = self._pool.worker(position)
            self._sync(worker)
            positions[self._pool.submit(worker, (kernel, payload))] = position
        ordered: List[Any] = [None] * len(payloads)
        failure: Optional[BaseException] = None
        for task_id, result, error in self._pool.collect(self._timeout):
            if error is not None and failure is None:
                failure = error
            ordered[positions[task_id]] = result
        if failure is not None:
            raise failure
        return ordered


#: Transport name → class, for building collectives by name.
COLLECTIVES = {
    SerialCollectives.name: SerialCollectives,
    ProcessCollectives.name: ProcessCollectives,
}


def make_collectives(
    spec: Union[str, Collectives, None],
    shards: int,
    backend_name: str = "numpy",
    timeout: Optional[float] = None,
) -> Collectives:
    """Resolve a transport from a name, an instance or ``None``.

    ``None`` picks ``"process"`` outside a shard worker and ``"serial"``
    inside one (nested pools are never spawned).  A one-shard world always
    gets the serial transport — there is nothing to parallelise.  ``timeout``
    bounds each process-transport collective call (see
    :class:`ProcessCollectives`); the serial transport ignores it.
    """
    if isinstance(spec, Collectives):
        return spec
    if spec is None:
        spec = "serial" if in_shard_worker() else "process"
    if spec == "process" and (shards <= 1 or in_shard_worker()):
        spec = "serial"
    try:
        transport = COLLECTIVES[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown collectives transport {spec!r}; expected one of "
            f"{sorted(COLLECTIVES)}"
        ) from None
    if transport is ProcessCollectives:
        return ProcessCollectives(shards, backend_name=backend_name, timeout=timeout)
    return transport(shards)
