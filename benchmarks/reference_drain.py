"""Frozen reference tick drain: the baseline of the router-overhead gates.

Several serving gates compare the event-loop scheduler against the
synchronous per-tick drain the fleet used to serve with, because its cost is
the floor any serving path pays: hash every user to a device, concatenate
each device's share of the tick, make one engine call per device and keep
the per-device stats.  That drain no longer exists in ``src/``.  This module
keeps a verbatim copy of its work so the gates keep their strength:

* ``bench_serving`` and ``bench_deadlines`` — scheduler (FIFO and EDF)
  per-request bookkeeping ≤ the reference drain's;
* ``bench_workers`` — the serial executor is bit-exact with the reference
  drain (predictions and served counters), and its bookkeeping ≤ the
  reference drain's.

Do not optimise :class:`ReferenceDrain`: its per-request cost is the bound
the live path is held to, so it must stay what it was.  It draws the same
salt as ``serve(fleet, routing="hash", seed=...)`` (one
``resolve_rng(seed).integers(0, 2**63 - 1, dtype=np.int64)`` draw), so both
place every user on the same device.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fleet.traffic import InferenceRequest
from repro.serving.report import DeviceStats, RoutingReport
from repro.serving.routing import splitmix64
from repro.utils.clock import perf_seconds
from repro.utils.rng import RandomState, resolve_rng


class ReferenceDrain:
    """Shards each tick by user id and serves it in one call per device."""

    def __init__(self, devices: Sequence, *, seed: RandomState = None) -> None:
        if not devices:
            raise ConfigurationError("the reference drain needs at least one device")
        self._devices = devices if isinstance(devices, list) else list(devices)
        self._n_shards = len(devices)
        self._salt = np.uint64(resolve_rng(seed).integers(0, 2**63 - 1, dtype=np.int64))
        self._stats: Dict[int, DeviceStats] = {
            d.device_id: DeviceStats(device_id=d.device_id, profile=d.profile.name)
            for d in self._devices
        }
        self._total_requests = 0
        self._total_windows = 0

    def shard(self, user_ids) -> np.ndarray:
        """Deterministic device index for each user id (vectorised)."""
        hashed = splitmix64(user_ids, self._salt)
        return (hashed % np.uint64(self._n_shards)).astype(np.int64)

    def dispatch_tick(
        self, requests: Sequence[InferenceRequest]
    ) -> List[Optional[np.ndarray]]:
        """Route one tick's arrivals; returns predictions aligned with input."""
        predictions: List[Optional[np.ndarray]] = [None] * len(requests)
        if not requests:
            return predictions
        if len(self._devices) != self._n_shards:
            raise ConfigurationError(
                f"the fleet changed size ({self._n_shards} -> {len(self._devices)})"
            )
        user_ids = np.fromiter(
            (r.user_id for r in requests), dtype=np.int64, count=len(requests)
        )
        assignment = self.shard(user_ids)
        arrival = min(r.arrival_seconds for r in requests)
        for position in range(self._n_shards):
            indices = np.flatnonzero(assignment == position)
            if indices.size == 0:
                continue
            device = self._devices[position]
            stats = self._stats.setdefault(
                device.device_id,
                DeviceStats(device_id=device.device_id, profile=device.profile.name),
            )
            batch_requests = [requests[i] for i in indices]
            windows = np.concatenate([r.features for r in batch_requests], axis=0)

            start = perf_seconds()
            outputs = device.infer(windows)
            wall = perf_seconds() - start
            service = wall / device.profile.relative_compute

            begin = max(stats.available_at, arrival)
            queue_depth = len(batch_requests) + (1 if stats.available_at > arrival else 0)
            completion = begin + service
            stats.available_at = completion
            stats.requests += len(batch_requests)
            stats.windows += int(windows.shape[0])
            stats.batches += 1
            stats.busy_seconds += service
            stats.wall_seconds += wall
            stats.max_queue_depth = max(stats.max_queue_depth, queue_depth)
            stats.total_latency_seconds += sum(
                completion - r.arrival_seconds for r in batch_requests
            )

            offset = 0
            for request, index in zip(batch_requests, indices):
                predictions[index] = outputs[offset:offset + request.n_windows]
                offset += request.n_windows
            self._total_requests += len(batch_requests)
            self._total_windows += int(windows.shape[0])
        return predictions

    def report(self) -> RoutingReport:
        """Statistics of everything dispatched so far."""
        return RoutingReport(
            per_device=dict(self._stats),
            total_requests=self._total_requests,
            total_windows=self._total_windows,
            resolved_requests=self._total_requests,
        )


def time_reference_drain(
    devices: Sequence, ticks, *, seed: RandomState = 7
) -> Tuple[float, float]:
    """``(wall, engine wall)`` seconds of one reference drain over ``ticks``."""
    drain = ReferenceDrain(devices, seed=seed)
    start = time.perf_counter()
    for requests in ticks:
        drain.dispatch_tick(requests)
    wall = time.perf_counter() - start
    return wall, drain.report().engine_wall_seconds


def time_client_drain(client, ticks) -> Tuple[float, float]:
    """``(wall, engine wall)`` seconds of ``client`` drained tick by tick.

    Draining after each tick gives the scheduler the reference drain's
    shape (one engine call per device per tick); a single final drain would
    coalesce the whole stream into one batch and flatter the scheduler.
    """
    start = time.perf_counter()
    for requests in ticks:
        client.submit_many(requests)
        client.drain()
    wall = time.perf_counter() - start
    return wall, client.report().engine_wall_seconds


def bookkeeping_us(
    run: Callable[[], Tuple[float, float]], n_requests: int, repeats: int = 3
) -> float:
    """Best-of-``repeats`` per-request bookkeeping (µs) outside engine compute.

    ``run`` returns ``(wall, engine wall)`` seconds for one pass over the
    stream, as :func:`time_reference_drain` and :func:`time_client_drain` do.
    """
    best = None
    for _ in range(repeats):
        wall, engine_wall = run()
        bookkeeping = max(wall - engine_wall, 0.0) / n_requests * 1e6
        best = bookkeeping if best is None else min(best, bookkeeping)
    return best
