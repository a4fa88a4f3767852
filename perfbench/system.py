"""Seeded inputs and the set-up of the measured system.

One run stands up the whole PILOTE stack once, in the order a deployment
would: cold ``import repro`` → data → cloud pretrain + ``TransferPackage``
→ the cloud shard pool → the network front door → the million-device fleet.
The stages are timed separately (``setup.*`` / ``fleet.*`` per-layer
metrics); their sum is one set-up.

Inputs are derived from the run's seed only; the program receives the
generated arrays, never the seed's meaning.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import usable_cores

#: Workload name -> new-class training samples per increment (``None``: the
#: whole held-out training split).  Both workloads run learn and herd at the
#: reference precision (float64, the policy default) and serve and net on
#: the fleets' shipped device profile (``smartphone``, float32); they differ
#: only in the increment the edge device learns:
#:
#: * ``fewshot`` — a seeded 50-sample subsample of the new activity, the
#:   extreme-edge regime ``experiments/figure7.py`` sweeps through
#:   ``ExperimentRunner.compare(new_class_samples=...)``;
#: * ``full`` — the whole new-class training split, the increment
#:   ``experiments/table2.py`` (``runner.run_scenario``, no subsample) and
#:   ``examples/quickstart.py`` run.
WORKLOADS = {
    "fewshot": {"new_class_samples": 50},
    "full": {"new_class_samples": None},
}

#: data: five activities of generated windows.  Train and validation keep
#: the paper's split sizes at 250 windows per class (140 and 35 per class);
#: the rest, 325 per class, is the test split.  A test split that large
#: halves the seed-to-seed spread of ``new_class_acc`` against the paper's
#: 30% split, which has 75 windows per class.
DATA_SAMPLES_PER_CLASS = 500
DATA_TEST_FRACTION = 0.65
#: learn: the cycle's slots differ only in their seeds (subsample and
#: device), so every increment of a workload does the same work.
LEARN_CYCLE = 8
#: herd: the cloud support-set rebuild pool (the ``bench_collective`` shape).
HERD_CLASSES = 8
HERD_ROWS_PER_CLASS = 1500
HERD_FEATURES = 80
HERD_HIDDEN = (1024, 512)
HERD_BUDGETS = (120, 250)
HERD_SHARDS = 2
#: serve: pooled hierarchical fleet and its Zipf ticks.
SERVE_DEVICES = 1_000_000
SERVE_REGIONS = 64
SERVE_REQUESTS_PER_TICK = 2048
SERVE_WINDOWS_PER_REQUEST = 8
#: net: flat fleet behind the socket server.
NET_DEVICES = 8
NET_CONNECTIONS = 2
#: Far enough below capacity that queueing does not amplify the host's
#: speed swings: at 300 req/s the p99 moved between 12 and 31 ms from one
#: minute to the next on a 2-vCPU host, at 100 req/s it held at ~8 ms.
NET_RATE_RPS = 100.0
NET_WINDOWS_PER_REQUEST = 4
NET_WRITE_EVERY = 20
NET_CLOSED_INFLIGHT = 16
NET_USERS = 256
NET_SCHEDULE_SECONDS = 60.0


def worker_count(wanted: int) -> int:
    """Never more worker processes than usable cores."""
    return max(1, min(wanted, usable_cores()))


# ---------------------------------------------------------------------- #
# seeded inputs (pure numpy; the self-tests check they repeat per seed)
# ---------------------------------------------------------------------- #
def learn_cycle_seeds(seed: int) -> List[Tuple[int, int]]:
    """``(subsample seed, device seed)`` per cycle slot."""
    rng = np.random.default_rng([seed, 1])
    draws = rng.integers(0, 2**31 - 1, size=(LEARN_CYCLE, 2))
    return [(int(sub), int(dev)) for sub, dev in draws]


def herd_arrays(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``HERD_CLASSES`` Gaussian activity clusters, ``HERD_ROWS_PER_CLASS`` each."""
    rng = np.random.default_rng([seed, 2])
    features, labels = [], []
    for class_id in range(HERD_CLASSES):
        centre = rng.normal(scale=2.0, size=HERD_FEATURES)
        features.append(centre + rng.normal(size=(HERD_ROWS_PER_CLASS, HERD_FEATURES)))
        labels.append(np.full(HERD_ROWS_PER_CLASS, class_id, dtype=np.int64))
    return np.concatenate(features), np.concatenate(labels)


@dataclass
class NetSchedule:
    """Open-loop arrivals plus the closed-loop request cycle."""

    due: np.ndarray          # seconds after the phase starts
    users: np.ndarray
    rows: np.ndarray         # (n, windows) indices into the test pool
    write_classes: np.ndarray
    write_rows: np.ndarray   # (n_writes, 2) indices into the test pool
    closed_users: np.ndarray
    closed_rows: np.ndarray


def net_schedule(seed: int, pool_size: int, n_classes: int) -> NetSchedule:
    """Poisson arrivals at ``NET_RATE_RPS`` for ``NET_SCHEDULE_SECONDS``."""
    rng = np.random.default_rng([seed, 3])
    n = int(NET_RATE_RPS * NET_SCHEDULE_SECONDS)
    due = np.cumsum(rng.exponential(1.0 / NET_RATE_RPS, size=n))
    users = rng.integers(0, NET_USERS, size=n)
    rows = rng.integers(0, pool_size, size=(n, NET_WINDOWS_PER_REQUEST))
    n_writes = n // NET_WRITE_EVERY + 1
    write_classes = rng.integers(0, n_classes, size=n_writes)
    write_rows = rng.integers(0, pool_size, size=(n_writes, 2))
    closed_users = rng.integers(0, NET_USERS, size=1024)
    closed_rows = rng.integers(0, pool_size, size=(1024, NET_WINDOWS_PER_REQUEST))
    return NetSchedule(due, users, rows, write_classes, write_rows,
                       closed_users, closed_rows)


# ---------------------------------------------------------------------- #
# the stack
# ---------------------------------------------------------------------- #
@dataclass
class Stack:
    """Everything one run measures, plus the timings of building it."""

    workload: str
    seed: int
    timings: Dict[str, float] = field(default_factory=dict)
    deploy_bytes: int = 0
    loop: Optional[asyncio.AbstractEventLoop] = None
    config: object = None
    scenario: object = None
    package: object = None
    learn_cycle: list = field(default_factory=list)
    herd_data: object = None
    herd_learner: object = None
    serve_fleet: object = None
    serve_client: object = None
    traffic: object = None
    net_fleet: object = None
    net_server: object = None
    net_connections: list = field(default_factory=list)
    schedule: Optional[NetSchedule] = None

    def close(self) -> None:
        """Stop every pool, server and connection the stack started."""
        if self.herd_learner is not None:
            self.herd_learner.close()
            self.herd_learner = None
        if self.serve_client is not None:
            self.serve_client.close()
            self.serve_client = None
        if self.loop is not None:
            self.loop.run_until_complete(self._close_net())
            self.loop.close()
            self.loop = None
        self.serve_fleet = None
        self.net_fleet = None
        gc.collect()

    async def _close_net(self) -> None:
        for connection in self.net_connections:
            await connection.close()
        self.net_connections = []
        if self.net_server is not None:
            await self.net_server.stop(grace_seconds=2.0)
            self.net_server = None


def build_stack(workload: str, seed: int, *, import_seconds: float) -> Stack:
    """Stand the stack up; every stage is timed into ``stack.timings``.

    Runs at the default (reference) precision; the fleets' devices pin
    their shipped profile's dtype themselves.
    """
    from repro import PILOTE, PiloteConfig
    from repro.core.embedding import EmbeddingNetwork
    from repro.data import Activity, HARDataset, build_incremental_scenario, make_feature_dataset
    from repro.edge.transfer import package_for_edge
    from repro.fleet import FleetCoordinator, HierarchicalFleetCoordinator, TrafficGenerator, WorkloadSpec
    from repro.serving import serve

    clock = time.perf_counter
    stack = Stack(workload=workload, seed=seed)
    stack.timings["import"] = import_seconds
    new_samples = WORKLOADS[workload]["new_class_samples"]
    try:
        # -- data ------------------------------------------------------- #
        t = clock()
        dataset = make_feature_dataset(samples_per_class=DATA_SAMPLES_PER_CLASS, seed=seed)
        scenario = build_incremental_scenario(
            dataset, [Activity.RUN], test_fraction=DATA_TEST_FRACTION, rng=seed
        )
        stack.scenario = scenario
        stack.learn_cycle = [
            (scenario.new_train if new_samples is None
             else scenario.new_train.subsample(new_samples, rng=sub), dev)
            for sub, dev in learn_cycle_seeds(seed)
        ]
        herd_x, herd_y = herd_arrays(seed)
        stack.herd_data = HARDataset(features=herd_x, labels=herd_y)
        pool = scenario.test.features
        stack.schedule = net_schedule(seed, pool.shape[0], len(scenario.old_classes))
        stack.timings["data"] = clock() - t

        # -- cloud pretrain + package ----------------------------------- #
        t = clock()
        stack.config = PiloteConfig.edge_lightweight(seed=seed)
        cloud = PILOTE(stack.config)
        cloud.pretrain(scenario.old_train, scenario.old_validation, exemplars_per_class=100)
        stack.package = package_for_edge(cloud)
        stack.timings["pretrain"] = clock() - t

        # -- cloud shard pool (herd) ------------------------------------ #
        t = clock()
        herd_config = PiloteConfig(
            hidden_dims=HERD_HIDDEN, embedding_dim=32, cache_size=4000, seed=seed
        )
        learner = PILOTE(herd_config, seed=seed, backend="sharded",
                         shards=worker_count(HERD_SHARDS))
        stack.herd_learner = learner
        learner.model = EmbeddingNetwork(HERD_FEATURES, config=herd_config, rng=seed)
        # Spawns the pool and ships the model once.
        learner.build_support_set(
            stack.herd_data.subsample(4, per_class=True, rng=seed), per_class=2
        )
        spawn = clock() - t

        # -- fleets ------------------------------------------------------ #
        t = clock()
        serve_fleet = HierarchicalFleetCoordinator(
            stack.config, seed=seed, n_regions=SERVE_REGIONS
        )
        serve_fleet.provision(SERVE_DEVICES)
        net_fleet = FleetCoordinator(stack.config, seed=seed)
        net_fleet.provision(NET_DEVICES)
        stack.timings["provision"] = clock() - t
        stack.serve_fleet, stack.net_fleet = serve_fleet, net_fleet

        t = clock()
        serve_fleet.deploy(stack.package)
        net_fleet.deploy(stack.package)
        stack.timings["deploy"] = clock() - t
        stack.deploy_bytes = int(
            serve_fleet.transfers.deploy_bytes + net_fleet.transfers.deploy_bytes
        )

        # -- serving client, socket server, executor worker -------------- #
        t = clock()
        stack.serve_client = serve(serve_fleet, seed=seed)
        stack.traffic = TrafficGenerator(
            pool,
            WorkloadSpec(
                pattern="zipf", n_users=SERVE_DEVICES,
                requests_per_tick=SERVE_REQUESTS_PER_TICK, n_ticks=1,
                windows_per_request=SERVE_WINDOWS_PER_REQUEST,
            ),
            seed=seed,
        )
        stack.loop = asyncio.new_event_loop()
        stack.loop.run_until_complete(_start_net(stack, seed))
        stack.timings["pool_spawn"] = spawn + (clock() - t)

        # -- warm-up: one serve tick, every net lane synced -------------- #
        t = clock()
        warm = stack.traffic.tick(0)
        futures = stack.serve_client.submit_many(warm)
        stack.serve_client.drain()
        for future in futures:
            future.result()
        stack.loop.run_until_complete(_warm_net(stack))
        stack.timings["warmup"] = clock() - t
    except BaseException:
        stack.close()
        raise
    return stack


async def _start_net(stack: Stack, seed: int) -> None:
    """Start the server and connections, then send one request: the
    process executor forks its worker on first use."""
    from repro.server import AsyncConnection, ServingServer
    from repro.serving import serve

    client = serve(stack.net_fleet, seed=seed, executor="process",
                   workers=worker_count(1))
    stack.net_server = ServingServer(client, max_inflight_per_connection=64)
    host, port = await stack.net_server.start()
    for _ in range(worker_count(NET_CONNECTIONS)):
        stack.net_connections.append(await AsyncConnection.open(host, port))
    await stack.net_connections[0].predict(0, stack.scenario.test.features[:NET_WINDOWS_PER_REQUEST])


async def _warm_net(stack: Stack) -> None:
    """One request per user id bucket so every lane has been synced."""
    pool = stack.scenario.test.features
    schedule = stack.schedule
    await asyncio.gather(*[
        stack.net_connections[i % len(stack.net_connections)].predict(
            int(schedule.closed_users[i]), pool[schedule.closed_rows[i]]
        )
        for i in range(64)
    ])
