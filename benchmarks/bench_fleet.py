"""Benchmarks of the fleet serving subsystem.

Three gates, all on a serving-only learner (no gradient training, so the
benchmark isolates the fleet layer itself).  Serving goes through the live
path, ``serve(fleet, routing="hash", seed=7)`` drained tick by tick:

1. **Throughput scaling** — the same workload served by an 8-device fleet
   and a 1-device fleet; aggregate simulated throughput (devices drain
   their queues in parallel, best of three fresh runs each) must be ≥ 4×
   the single device.
2. **Serving overhead** — everything the client adds on top of engine
   compute (sharding, queueing, futures, stats) must stay bounded per
   request, measured against a bare
   :class:`~repro.edge.inference.InferenceEngine` loop over the same
   per-tick batches.
3. **Checkpoint round-trip** — a device checkpointed, evicted to disk and
   restored on fresh hardware must reproduce the original device's
   predictions *exactly*.

Run via pytest (``python -m pytest benchmarks/bench_fleet.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from reference_drain import time_client_drain

from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.edge.device import DeviceProfile
from repro.edge.transfer import package_for_edge
from repro.fleet import (
    CheckpointStore,
    FleetCoordinator,
    TrafficGenerator,
    WorkloadSpec,
)
from repro.serving import serve

#: Homogeneous simulation node: generous budgets, reference-speed compute.
SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, memory_bytes=2**30, relative_compute=1.0
)

CONFIG = PiloteConfig(hidden_dims=(128, 64), embedding_dim=32, cache_size=1200, seed=0)
N_FEATURES = 80


def make_serving_learner(n_classes: int = 5, per_class: int = 150) -> PILOTE:
    """A pre-trained-looking learner built without gradient training."""
    rng = np.random.default_rng(0)
    learner = PILOTE(CONFIG, seed=0)
    learner.model = EmbeddingNetwork(N_FEATURES, config=CONFIG, rng=0)
    learner._old_classes = list(range(n_classes))
    for class_id in range(n_classes):
        learner.exemplars.set_exemplars(
            class_id, rng.normal(size=(per_class, N_FEATURES))
        )
    learner._refresh_prototypes()
    return learner


def build_fleet(package, n_devices: int) -> FleetCoordinator:
    fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
    fleet.provision(n_devices)
    fleet.deploy(package)
    return fleet


def make_workload(pattern: str = "uniform") -> WorkloadSpec:
    return WorkloadSpec(
        pattern=pattern,
        n_users=1000,
        requests_per_tick=4096,
        n_ticks=8,
        windows_per_request=1,
    )


#: Fresh fleet builds per throughput figure; the best run is gated.
THROUGHPUT_RUNS = 3


def test_fleet_throughput_scales(report):
    """Aggregate 8-device throughput ≥ 4× a single device on the same stream.

    The gate runs on the uniform workload (capacity scaling with balanced
    shards).  The Zipf workload is reported alongside: rank-1 users
    concentrate enough traffic on one device that its queue dominates the
    makespan — the measured gap is the motivation for the future
    weighted/overflow balancing noted in ROADMAP.md.

    Batch service times are wall-timed, so one preempted batch on a shared
    host can set a whole run's makespan.  Every figure is therefore the best
    of :data:`THROUGHPUT_RUNS` fresh runs, the same count for 1 and 8
    devices, and the report prints every run.
    """
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))

        def routed_throughput(n_devices: int, pattern: str) -> float:
            fleet = build_fleet(package, n_devices)
            traffic = TrafficGenerator(pool, make_workload(pattern), seed=7)
            client = serve(fleet, routing="hash", seed=7)
            # Warm every engine cache so the measurement is steady-state.
            for device in fleet.devices:
                device.infer(pool[:8])
            time_client_drain(client, traffic.ticks())
            return client.report().aggregate_throughput

        runs = {
            (n_devices, pattern): [
                routed_throughput(n_devices, pattern) for _ in range(THROUGHPUT_RUNS)
            ]
            for pattern in ("uniform", "zipf")
            for n_devices in (1, 8)
        }
    best = {key: max(values) for key, values in runs.items()}
    scaling = best[8, "uniform"] / best[1, "uniform"]
    zipf_scaling = best[8, "zipf"] / best[1, "zipf"]

    def row(label: str, key) -> str:
        each = ", ".join(f"{value:.0f}" for value in runs[key])
        return f"  {label} {best[key]:12.0f} windows/s (runs: {each})\n"

    report(
        "bench_fleet_throughput",
        "fleet aggregate throughput (4096 req/tick x 8 ticks, 1000 users; "
        f"best of {THROUGHPUT_RUNS} fresh runs)\n"
        + row("uniform, 1 device:            ", (1, "uniform"))
        + row("uniform, 8 devices (parallel):", (8, "uniform"))
        + f"  uniform scaling:               {scaling:12.2f}x\n"
        + row("zipf, 1 device:               ", (1, "zipf"))
        + row("zipf, 8 devices (parallel):   ", (8, "zipf"))
        + f"  zipf scaling (skew-limited):   {zipf_scaling:12.2f}x",
    )
    assert scaling >= 4.0


def test_client_overhead_bounded(report):
    """Client bookkeeping per request stays small vs a bare engine loop."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, 1)
        device = fleet.devices[0]
        traffic = TrafficGenerator(pool, make_workload(), seed=7)
        ticks = list(traffic.ticks())
        device.infer(pool[:8])  # warm the prototype cache

        client = serve(fleet, routing="hash", seed=7)
        routed_wall, engine_wall = time_client_drain(client, ticks)
        n_requests = client.report().total_requests

        # Bare engine loop over the identical per-tick batches.
        batches = [
            np.concatenate([r.features for r in requests], axis=0)
            for requests in ticks
        ]
        engine = device.edge.engine
        start = time.perf_counter()
        for batch in batches:
            engine.predict(batch)
        bare_wall = time.perf_counter() - start

    bookkeeping = max(routed_wall - engine_wall, 0.0)
    overhead_us = bookkeeping / n_requests * 1e6
    ratio = routed_wall / bare_wall
    report(
        "bench_fleet_router_overhead",
        f"serving-client overhead over {n_requests} requests (single device, "
        "hash routing, drained per tick)\n"
        f"  routed wall:                 {routed_wall * 1e3:10.2f} ms\n"
        f"  bare InferenceEngine loop:   {bare_wall * 1e3:10.2f} ms\n"
        f"  routed / bare ratio:         {ratio:10.2f}x\n"
        f"  bookkeeping per request:     {overhead_us:10.1f} us",
    )
    assert overhead_us < 1000.0  # < 1 ms of serving bookkeeping per request
    assert ratio < 3.0


def test_checkpoint_roundtrip_exact(report):
    """Checkpoint → restore on fresh hardware reproduces predictions exactly."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        fleet = build_fleet(package, 1)
        device = fleet.devices[0]
        probe = np.random.default_rng(4).normal(size=(2048, N_FEATURES))
        live = device.infer(probe)

        with tempfile.TemporaryDirectory() as scratch:
            store = CheckpointStore(scratch)
            start = time.perf_counter()
            checkpoint = store.save(device)
            save_seconds = time.perf_counter() - start
            start = time.perf_counter()
            restored = store.restore(checkpoint)
            restore_seconds = time.perf_counter() - start
            replayed = restored.infer(probe)

    identical = bool(np.array_equal(live, replayed))
    report(
        "bench_fleet_checkpoint",
        "device checkpoint round-trip (5 classes, 750 exemplars, d=80)\n"
        f"  checkpoint size:  {checkpoint.nbytes / 1024:10.1f} KB\n"
        f"  save:             {save_seconds * 1e3:10.2f} ms\n"
        f"  restore:          {restore_seconds * 1e3:10.2f} ms\n"
        f"  2048 predictions identical: {identical}",
    )
    assert identical


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_fleet_throughput_scales(_report)
    test_client_overhead_bounded(_report)
    test_checkpoint_roundtrip_exact(_report)
    print("\nall fleet benchmarks passed")
