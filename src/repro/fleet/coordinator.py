"""Fleet provisioning and orchestration.

One :class:`~repro.edge.cloud.CloudServer` broadcast, many edge devices: one
coordinator provisions N :class:`~repro.edge.device.EdgeDevice`s from
(possibly heterogeneous) :class:`~repro.edge.device.DeviceProfile`s, deploys
the same :class:`~repro.edge.transfer.TransferPackage` to them, and
schedules per-device incremental updates.  Every device runs an
*independent* learner materialised from the package
(:meth:`~repro.edge.transfer.TransferPackage.instantiate_learner`), so devices
drift apart exactly as a real fleet does when new activities reach users at
different times.

A fleet is a list of materialised :class:`FleetDevice`\\ s plus an optional
tree of :class:`RegionCoordinator` shards.  :class:`FleetCoordinator` is the
unpooled case: no regions, one learner per device.  Past a few thousand
devices that stops scaling, and :class:`HierarchicalFleetCoordinator` turns
pooling on: each region serves many devices from one *pooled* copy-on-write
template learner (``copy_arrays=False``) behind a single serving lane, and
only devices that actually drift (a scheduled increment, a checkpoint probe)
are materialised — fleet memory scales with *distinct states*, not device
count, and a broadcast ships one package per region instead of one per
device.  Both run the same method bodies.

Serving runs through each lane's batched
:class:`~repro.edge.inference.InferenceEngine`; ``repro.serving.serve(fleet)``
distributes requests across the lanes (:mod:`repro.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.transfer import TransferPackage
from repro.exceptions import ConfigurationError, NotFittedError
from repro.nn.trainer import TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng

logger = get_logger("fleet.coordinator")


class FleetDevice:
    """One provisioned edge device: hardware budget + local learner + engine.

    The wrapper binds the three per-device pieces together — the
    :class:`EdgeDevice` storage/compute model, the device's own PILOTE learner
    and its serving engine — and runs learning and serving under the device
    profile's dtype policy.
    """

    def __init__(self, device_id: int, edge: EdgeDevice) -> None:
        self.device_id = int(device_id)
        self.edge = edge
        self.learner: Optional[PILOTE] = None
        self.increment_histories: List[TrainingHistory] = []

    # ------------------------------------------------------------------ #
    @property
    def profile(self) -> DeviceProfile:
        return self.edge.profile

    @property
    def engine(self):
        """The serving engine attached to the underlying edge device.

        Exposed so remote executors can snapshot it
        (:meth:`~repro.edge.inference.InferenceEngine.state_snapshot`);
        ``None`` until a package is deployed.
        """
        return self.edge.engine

    @property
    def serving_dtype(self) -> str:
        """Dtype :meth:`serve` runs under — the profile's compute dtype.

        Remote executors replicate it so off-process predictions stay
        bit-identical to the device's own.
        """
        return self.profile.compute_dtype

    @property
    def is_deployed(self) -> bool:
        return self.learner is not None and self.edge.engine is not None

    def deploy(
        self,
        package: TransferPackage,
        config: PiloteConfig,
        seed: RandomState = None,
        *,
        copy_arrays: bool = True,
        backend=None,
    ) -> None:
        """Receive the cloud broadcast: build the local learner and engine.

        ``copy_arrays=False`` shares the package's exemplar/prototype arrays
        copy-on-write instead of deep-copying them — the path of a pooled
        fleet's region templates and materialised devices (safe: every
        learner mutation replaces whole per-class entries, never writes into
        rows).
        ``backend`` pins the learner's compute backend (forwarded to
        :meth:`TransferPackage.instantiate_learner`); coordinators pass a
        shared :class:`~repro.backend.sharded.ShardedBackend` here so every
        device's increment refresh runs over one shard pool.
        """
        with self.edge.precision():
            self.learner = package.instantiate_learner(
                config, seed=seed, copy_arrays=copy_arrays, backend=backend
            )
            self.edge.store("model", package.model_bytes)
            self.edge.store("support_set", package.support_set_bytes)
            self.edge.store("prototypes", package.prototype_bytes)
            self.edge.attach_inference(self.learner.inference_engine())

    def adopt(self, learner: PILOTE) -> None:
        """Install an already-built learner (checkpoint restore path)."""
        with self.edge.precision():
            self.learner = learner
            self.edge.store("model", learner.model_nbytes())
            self.edge.store("support_set", learner.support_set_nbytes())
            self.edge.store("prototypes", learner.prototypes.nbytes())
            self.edge.attach_inference(learner.inference_engine())

    # ------------------------------------------------------------------ #
    def serve(self, windows: np.ndarray) -> np.ndarray:
        """Serve a batch of windows at this device's compute dtype."""
        with self.edge.precision():
            return self.edge.serve(windows)

    #: The device protocol the scheduler and its executors call on every
    #: lane (``LocalServingDevice`` adapts other targets to it); for a fleet
    #: device it is simply :meth:`serve`.
    infer = serve

    def learn_new_activity(
        self,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> TrainingHistory:
        """On-device incremental update; refreshes the storage ledger."""
        if self.learner is None:
            raise NotFittedError(
                f"device {self.device_id} has no learner; deploy a package first"
            )
        with self.edge.precision():
            history = self.learner.learn_new_classes(new_train, new_validation)
            self.edge.store("support_set", self.learner.support_set_nbytes())
            self.edge.store("prototypes", self.learner.prototypes.nbytes())
        self.increment_histories.append(history)
        return history

    def accuracy(self, dataset: HARDataset) -> float:
        """Plain accuracy of this device's learner on a labelled dataset."""
        if self.learner is None:
            raise NotFittedError(f"device {self.device_id} has no learner")
        with self.edge.precision():
            return self.learner.evaluate(dataset)

    def describe(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "profile": self.profile.name,
            "storage_used": self.edge.storage_used,
            "storage_free": self.edge.storage_free,
            "classes": [] if self.learner is None else self.learner.classes_,
            "increments": len(self.increment_histories),
        }


@dataclass
class FleetAccuracyReport:
    """Per-device accuracy after (staggered) increments, plus divergence.

    The coordinator evaluates every *distinct state* once (one pooled
    template per region, each materialised device individually); ``weights``
    gives each entry the number of devices sharing it, so the mean/std
    describe the whole fleet, not the handful of evaluations.
    """

    per_device: Dict[int, float]
    weights: Dict[int, float]

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = list(self.per_device)
        return (
            np.asarray([self.per_device[k] for k in keys], dtype=np.float64),
            np.asarray([self.weights[k] for k in keys], dtype=np.float64),
        )

    @property
    def n_devices(self) -> float:
        """Total device multiplicity behind the report."""
        _, weights = self._arrays()
        return float(weights.sum())

    @property
    def mean(self) -> float:
        values, weights = self._arrays()
        return float(np.average(values, weights=weights))

    @property
    def std(self) -> float:
        values, weights = self._arrays()
        mean = np.average(values, weights=weights)
        return float(np.sqrt(np.average((values - mean) ** 2, weights=weights)))

    @property
    def spread(self) -> float:
        """Max − min accuracy across the fleet (the divergence headline)."""
        values = list(self.per_device.values())
        return float(max(values) - min(values))

    def summary(self) -> Dict[str, float]:
        return {"mean": self.mean, "std": self.std, "spread": self.spread}


@dataclass
class TransferLedger:
    """Bytes that crossed the (simulated) cloud → edge network.

    A broadcast ships the package once per *deploy unit*: once per device on
    an unpooled fleet, once per region on a pooled one, whose devices
    materialise locally from the region template — this ledger is where that
    difference becomes measurable (``pilote fleet-sim`` prints it and
    ``benchmarks/bench_fleet_scale.py`` gates on it).
    """

    deploy_bytes: int = 0
    deploy_shipments: int = 0

    def record_deploy(self, nbytes: int, shipments: int = 1) -> None:
        self.deploy_bytes += int(nbytes) * int(shipments)
        self.deploy_shipments += int(shipments)


@dataclass
class RegionCoordinator:
    """One region of a pooled fleet: a contiguous device-id range ``[start, stop)``.

    Every device in the region shares the region's device profile and — until
    it drifts — the region's pooled copy-on-write template learner, built from
    ``package`` and served through one synthetic serving lane (a
    :class:`FleetDevice` carrying a *negative* id so it can never collide with
    a real device id, which are always ≥ 0).  Devices that drift away from the
    template (a scheduled increment, a checkpoint probe) are materialised into
    the coordinator's ``devices`` and served individually from then on.
    """

    region_id: int
    start: int
    stop: int
    profile: DeviceProfile
    lane: Optional[FleetDevice] = None
    package: Optional[TransferPackage] = None
    n_materialized: int = 0

    def __post_init__(self) -> None:
        if self.lane is None:
            self.lane = FleetDevice(-(self.region_id + 1), EdgeDevice(self.profile))

    @property
    def n_devices(self) -> int:
        return self.stop - self.start

    @property
    def n_pooled(self) -> int:
        """Devices still served from the pooled template."""
        return self.n_devices - self.n_materialized

    def describe(self) -> Dict[str, object]:
        return {
            "region_id": self.region_id,
            "device_range": (self.start, self.stop),
            "profile": self.profile.name,
            "n_devices": self.n_devices,
            "n_pooled": self.n_pooled,
            "n_materialized": self.n_materialized,
        }


class FleetCoordinator:
    """Provisions, deploys and schedules a fleet of edge devices.

    The fleet's state is ``devices``, a live list of the materialised
    :class:`FleetDevice`\\ s in id order, plus ``regions`` of pooled
    copy-on-write templates.  This class is the *unpooled* fleet: it has no
    regions, every provisioned device is materialised with its own learner,
    and :meth:`serving_lanes` hands the scheduler ``devices`` itself, so
    :meth:`replace_device` and chaos wrappers reach in-flight traffic.
    :class:`HierarchicalFleetCoordinator` switches pooling on.

    Broadcasts, rollouts and the :class:`TransferLedger` work on *deploy
    units*: regions when pooled, devices otherwise.  Every device's learner
    seed is drawn once from the root stream (after any rollout plan) and
    indexed by device id, so device ``i`` trains from the same stream on
    either kind of fleet, whichever unit or rollout stage deploys it.

    Parameters
    ----------
    config:
        PILOTE configuration shared by every device learner.
    profiles:
        Device profiles to cycle through while provisioning; defaults to the
        stock smartphone profile for every device.
    seed:
        Root seed; per-device learner streams are spawned from it so the
        fleet is reproducible end to end.
    backend:
        Compute backend every deployed learner is pinned to.  Pass a single
        :class:`~repro.backend.sharded.ShardedBackend` *instance* to shard
        each device's increment refresh (herding, prototype recompute) over
        one shared worker pool — learners borrow it, so closing it stays the
        coordinator owner's job.  ``None`` keeps the ambient backend and is
        bit-exact with the sharded path.
    """

    #: Whether regions serve their devices from pooled templates.
    pooled = False

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: RandomState = None,
        backend=None,
    ) -> None:
        self.config = config or PiloteConfig()
        self.backend = backend
        self.profiles = tuple(profiles) if profiles else (DEVICE_PROFILES["smartphone"],)
        self._root_rng = resolve_rng(seed)
        self.devices: List[FleetDevice] = []
        self.regions: List[RegionCoordinator] = []
        self.requested_regions: Optional[int] = None
        self.package: Optional[TransferPackage] = None
        self.transfers = TransferLedger()
        self._pending_increments: List[Tuple[int, int, HARDataset, Optional[HARDataset]]] = []
        self._rollout = None  # ActiveRollout when deploy(..., rollout=...) ran
        self._device_index: Dict[int, int] = {}
        self._n_devices = 0
        self._unit_size = 1  # devices per deploy unit (region size when pooled)
        self._device_seeds: Optional[np.ndarray] = None
        self._lanes: Optional[List[FleetDevice]] = None  # frozen pooled lanes

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_devices

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def _reindex(self) -> None:
        self._device_index = {
            device.device_id: position for position, device in enumerate(self.devices)
        }

    def _lookup(self, device_id: int) -> Optional[FleetDevice]:
        """The materialised device with this id, or ``None`` (O(1) via the index)."""
        position = self._device_index.get(device_id)
        if (
            position is None
            or position >= len(self.devices)
            or self.devices[position].device_id != device_id
        ):
            # Index went stale (external list surgery) — rebuild once and retry.
            self._reindex()
            position = self._device_index.get(device_id)
        return None if position is None else self.devices[position]

    def region_of(self, device_id: int) -> RegionCoordinator:
        """The region owning a (non-negative) device id of a pooled fleet."""
        device_id = int(device_id)
        if not self.regions or not 0 <= device_id < len(self):
            raise ConfigurationError(f"no device with id {device_id} in the fleet")
        return self.regions[device_id // self._unit_size]

    def _unit_of(self, device_id: int) -> int:
        """Deploy unit of a device id, or of a pooled template lane's negative id."""
        return -device_id - 1 if device_id < 0 else device_id // self._unit_size

    def pooled_region(self, lane: FleetDevice) -> Optional[RegionCoordinator]:
        """The region whose template ``lane`` is, or ``None`` for a device's own lane."""
        return self.regions[-lane.device_id - 1] if lane.device_id < 0 else None

    def device(self, device_id: int) -> FleetDevice:
        """Look up one device by id, materialising it out of its region's pool.

        A materialised learner is instantiated copy-on-write from its region's
        package with the device's own seed, so everything downstream
        (increments, checkpoints, serving) behaves exactly as on an unpooled
        fleet.  Materialisation is frozen once :meth:`serving_lanes` ran —
        new lanes would invalidate the routing table.
        """
        device_id = int(device_id)
        existing = self._lookup(device_id)
        if existing is not None:
            return existing
        region = self.region_of(device_id)  # raises for ids outside the fleet
        if self._lanes is not None:
            raise ConfigurationError(
                "cannot materialise new devices after serving_lanes() froze the "
                "lane set; materialise (e.g. schedule increments) before serving"
            )
        device = FleetDevice(device_id, EdgeDevice(region.profile))
        if region.package is not None:
            self._deploy_device(device, region.package)
        region.n_materialized += 1
        self.devices.append(device)
        self.devices.sort(key=lambda d: d.device_id)
        self._reindex()
        return device

    def provision(
        self, n_devices: int, profiles: Optional[Sequence[DeviceProfile]] = None
    ) -> List:
        """Add ``n_devices`` devices, cycling through the profile list.

        An unpooled fleet materialises every device, can grow later, and
        returns the new devices.  A pooled fleet shards the ids into
        contiguous regions exactly once (growing later would reshuffle
        ownership) and returns the regions; profiles cycle per *region*,
        since pooling needs every device of a region to share one.
        """
        if n_devices <= 0:
            raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
        if self.pooled and self.regions:
            raise ConfigurationError("a pooled fleet is provisioned exactly once")
        pool = tuple(profiles) if profiles else self.profiles
        n_devices = int(n_devices)
        if not self.pooled:
            start = self._n_devices
            created = [
                FleetDevice(start + index, EdgeDevice(pool[index % len(pool)]))
                for index in range(n_devices)
            ]
            self.devices.extend(created)
            self._reindex()
            self._n_devices += n_devices
            logger.info("provisioned %d devices (%d total)", n_devices, len(self))
            return created
        requested = self.requested_regions if self.requested_regions else min(64, n_devices)
        if requested <= 0:
            raise ConfigurationError(f"n_regions must be positive, got {requested}")
        size = self._unit_size = -(-n_devices // min(int(requested), n_devices))
        self.regions = [
            RegionCoordinator(
                region_id,
                region_id * size,
                min((region_id + 1) * size, n_devices),
                pool[region_id % len(pool)],
            )
            for region_id in range(-(-n_devices // size))  # ceil division
        ]
        self._n_devices = n_devices
        logger.info(
            "provisioned %d devices across %d regions (<= %d devices each)",
            n_devices,
            len(self.regions),
            size,
        )
        return list(self.regions)

    # ------------------------------------------------------------------ #
    # deploy units and staged rollout
    # ------------------------------------------------------------------ #
    def deploy(self, package: TransferPackage, rollout=None) -> None:
        """Deploy one transfer package across the fleet's deploy units.

        Without a ``rollout`` policy this is a broadcast to every unit that
        has not received a package yet.  With one — a
        :class:`~repro.serving.rollout.RolloutPolicy` instance or registry
        name (``"all-at-once"``, ``"staged"``, ``"ab"``) — the policy plans
        which units receive the package at which stage; stage 0 is applied
        immediately and :meth:`advance_rollout` applies the rest.  Each stage
        unit's template and materialised devices are rebuilt from the
        package.  Cohort labels from the plan feed :meth:`cohort_of` and
        :meth:`rollout_report`; policies that route individual users (e.g.
        ``"ab"``) need units of one device.
        """
        if not len(self):
            raise ConfigurationError("provision() must run before deploy()")
        unit_lanes = [region.lane for region in self.regions] if self.pooled else self.devices
        unit_ids = [self._unit_of(lane.device_id) for lane in unit_lanes]
        active = None
        if rollout is None:
            units = [u for u, lane in zip(unit_ids, unit_lanes) if not lane.is_deployed]
        else:
            from repro.serving.rollout import ActiveRollout, make_rollout_policy

            policy = make_rollout_policy(rollout)
            if policy.routes_users and self._unit_size > 1:
                raise ConfigurationError(
                    f"rollout policy {policy.name!r} routes individual users and "
                    "cannot drive a rollout over regions that pool several devices"
                )
            plan = policy.plan(unit_ids, self._root_rng)
            units = plan.stages[0]
            active = ActiveRollout(policy=policy, plan=plan, package=package)
        self._draw_seeds()
        self._deploy_units(units, package)
        self._rollout = active
        self.package = package

    def _draw_seeds(self) -> None:
        """Extend the id-indexed :func:`~repro.utils.rng.spawn_rngs` draw to new devices."""
        drawn = 0 if self._device_seeds is None else self._device_seeds.size
        if drawn < len(self):
            fresh = self._root_rng.integers(
                0, 2**63 - 1, size=len(self) - drawn, dtype=np.int64
            )
            self._device_seeds = (
                fresh if self._device_seeds is None
                else np.concatenate((self._device_seeds, fresh))
            )

    def _deploy_device(self, device: FleetDevice, package: TransferPackage) -> None:
        device.deploy(
            package,
            self.config,
            seed=resolve_rng(int(self._device_seeds[device.device_id])),
            copy_arrays=not self.pooled,
            backend=self.backend,
        )

    def _deploy_units(self, units: Sequence[int], package: TransferPackage) -> None:
        """Ship ``package`` to each unit: its template, then its materialised devices."""
        members: Dict[int, List[FleetDevice]] = {}
        for device in self.devices:
            members.setdefault(self._unit_of(device.device_id), []).append(device)
        for unit in units:
            if self.pooled:
                region = self.regions[unit]
                region.lane.deploy(
                    package, self.config, seed=0, copy_arrays=False, backend=self.backend
                )
                region.package = package
            for device in members.get(unit, ()):
                self._deploy_device(device, package)
        self.transfers.record_deploy(package.total_bytes, len(units))
        logger.info("deployed %.2f KB package to %d units", package.total_bytes / 1024, len(units))

    @property
    def active_rollout(self):
        """The rollout in progress, or ``None``."""
        return self._rollout

    def cohort_of(self, device_id: int) -> Optional[str]:
        """Rollout cohort of a device — its deploy unit's label.

        ``None`` without a rollout.  A pooled template lane's negative id
        resolves to its region's label.
        """
        if self._rollout is None:
            return None
        return self._rollout.plan.cohorts.get(self._unit_of(int(device_id)))

    def advance_rollout(self) -> List[int]:
        """Deploy the next rollout stage; returns the newly deployed unit ids.

        Returns an empty list once the plan is exhausted (the rollout stays
        recorded for cohort reporting).  Raises
        :class:`~repro.exceptions.ConfigurationError` when no rollout is
        active.
        """
        if self._rollout is None:
            raise ConfigurationError("no rollout in progress; deploy(..., rollout=...) first")
        if self._rollout.complete:
            return []
        stage = self._rollout.plan.stages[self._rollout.next_stage]
        self._deploy_units(stage, self._rollout.package)
        self._rollout.next_stage += 1
        return list(stage)

    def rollout_report(self, dataset: Optional[HARDataset] = None, serving=None):
        """Per-cohort accuracy and latency across the current rollout.

        ``dataset`` (optional) is evaluated on every *deployed* device's
        learner for per-cohort accuracy; ``serving`` (an optional
        :class:`~repro.serving.RoutingReport`, e.g.
        ``client.report()``) contributes per-cohort request counts and
        mean/p99 simulated latency.  Needs units of one device: a region
        pooling several devices has no per-device rollout state.
        """
        from repro.serving.rollout import CohortReport, RolloutReport

        if self._rollout is None:
            raise ConfigurationError("no rollout in progress; deploy(..., rollout=...) first")
        if self._unit_size > 1:
            raise ConfigurationError(
                "per-device rollout reports need one device per region; use "
                "cohort_of() and describe() for region-level rollout state"
            )
        report = RolloutReport(policy=self._rollout.policy.name)
        lanes: Dict[str, List[FleetDevice]] = {}
        for device_id in range(len(self)):
            cohort = self.cohort_of(device_id)
            if cohort is None:
                continue
            lane = self._lookup(device_id) or self.region_of(device_id).lane
            row = report.per_cohort.setdefault(
                cohort, CohortReport(cohort=cohort, device_ids=[], n_deployed=0)
            )
            row.device_ids.append(device_id)
            if lane.is_deployed:
                row.n_deployed += 1
                lanes.setdefault(cohort, []).append(lane)
        for cohort, row in report.per_cohort.items():
            deployed = lanes.get(cohort, [])
            if dataset is not None:
                accuracies = [lane.accuracy(dataset) for lane in deployed]
                row.accuracy = float(np.mean(accuracies)) if accuracies else None
            if serving is None:
                continue
            stats = [
                serving.per_device[lane.device_id]
                for lane in deployed
                if lane.device_id in serving.per_device
            ]
            row.requests = int(sum(s.requests for s in stats))
            if row.requests:
                row.mean_latency_seconds = (
                    sum(s.total_latency_seconds for s in stats) / row.requests
                )
            latencies = [l for s in stats for l in s.latencies]
            if latencies:
                row.p99_latency_seconds = float(
                    np.percentile(np.asarray(latencies), 99.0)
                )
        return report

    def replace_device(self, device_id: int, replacement: FleetDevice) -> FleetDevice:
        """Swap a materialised (crashed) device for its replacement, keeping its slot."""
        current = self._lookup(int(device_id))
        if current is None:
            raise ConfigurationError(
                f"no materialised device with id {device_id} in the fleet"
            )
        position = self._device_index.pop(current.device_id)
        self.devices[position] = replacement
        self._device_index[replacement.device_id] = position
        if self._lanes is not None:
            # In-place swap so the scheduler, which shares this list, sees it.
            self._lanes[self._lanes.index(current)] = replacement
        return replacement

    # ------------------------------------------------------------------ #
    # staggered incremental updates
    # ------------------------------------------------------------------ #
    def schedule_increment(
        self,
        device_id: int,
        tick: int,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
    ) -> None:
        """Queue an incremental update for one device at a simulation tick.

        Validates the id eagerly, which materialises a pooled device.
        """
        self.device(device_id)
        self._pending_increments.append((int(tick), device_id, new_train, new_validation))

    def pending_increments(self) -> List[Tuple[int, int]]:
        """``(tick, device_id)`` pairs still waiting to run."""
        return [(tick, device_id) for tick, device_id, _, _ in self._pending_increments]

    def run_due_increments(self, tick: int) -> Dict[int, TrainingHistory]:
        """Run every queued increment whose tick has arrived."""
        due = [entry for entry in self._pending_increments if entry[0] <= tick]
        self._pending_increments = [
            entry for entry in self._pending_increments if entry[0] > tick
        ]
        histories: Dict[int, TrainingHistory] = {}
        for _, device_id, new_train, new_validation in sorted(due, key=lambda e: e[:2]):
            device = self.device(device_id)
            histories[device_id] = device.learn_new_activity(new_train, new_validation)
            logger.info(
                "device %d integrated %d new-class samples at tick %d",
                device_id,
                new_train.n_samples,
                tick,
            )
        return histories

    # ------------------------------------------------------------------ #
    # serving integration
    # ------------------------------------------------------------------ #
    def serving_lanes(self) -> List[FleetDevice]:
        """The serving lanes: pooled region templates, then ``devices``.

        An unpooled fleet returns the live ``devices`` list itself.  A pooled
        fleet's region lanes come first (position = ``region_id``); the first
        call freezes materialisation so :meth:`lane_map` stays valid.
        :func:`repro.serving.client.serve` hands this list to the scheduler.
        """
        if not self.pooled:
            return self.devices
        if self._lanes is None:
            self._lanes = [region.lane for region in self.regions] + self.devices
        return self._lanes

    def lane_map(self) -> np.ndarray:
        """``device id → serving-lane position`` (int64 vector of length N).

        Pooled devices map to their region's lane; materialised devices map
        to their own lane.  :class:`~repro.serving.routing.RegionalRouting`
        indexes this array with the hashed user id, which keeps the user →
        *device* assignment identical to unpooled ``"hash"`` routing — the
        lane merely serves whichever state that device currently holds.
        """
        positions = {lane.device_id: pos for pos, lane in enumerate(self.serving_lanes())}
        mapping = np.arange(len(self), dtype=np.int64) // self._unit_size
        for device in self.devices:
            mapping[device.device_id] = positions[device.device_id]
        return mapping

    # ------------------------------------------------------------------ #
    def accuracy_report(self, dataset: HARDataset) -> FleetAccuracyReport:
        """Fleet accuracy: each distinct state once, weighted by its device count."""
        per_device: Dict[int, float] = {}
        weights: Dict[int, float] = {}
        for lane in [region.lane for region in self.regions] + self.devices:
            region = self.pooled_region(lane)
            weight = 1 if region is None else region.n_pooled
            if weight and lane.is_deployed:
                per_device[lane.device_id] = lane.accuracy(dataset)
                weights[lane.device_id] = float(weight)
        if not per_device:
            raise ConfigurationError("no deployed devices to evaluate; deploy() first")
        return FleetAccuracyReport(per_device=per_device, weights=weights)

    def describe(self) -> List[Dict[str, object]]:
        """One row per region, then one per materialised device."""
        return [region.describe() for region in self.regions] + [
            device.describe() for device in self.devices
        ]


class HierarchicalFleetCoordinator(FleetCoordinator):
    """A pooled fleet: a tree of :class:`RegionCoordinator` shards.

    An unpooled fleet materialises one learner per device, which stops being
    tractable somewhere past a few thousand devices (a million devices would
    hold a million copies of the same support set).  Devices that received
    the same broadcast and ran the same increments are *bit-identical*, so a
    pooled fleet serves each region's devices from one template learner
    instantiated copy-on-write from the
    :class:`~repro.edge.transfer.TransferPackage` (``copy_arrays=False``) and
    materialises only the devices that actually diverge.  Memory scales with
    the number of *distinct states* (regions + drifted devices), not with
    device count, and a broadcast ships one package per region.

    Everything else is the shared :class:`FleetCoordinator` body:
    ``device(i)`` materialises device ``i`` with the same seed it would get
    unpooled, so a small fleet served pooled is bit-exact with the unpooled
    one (``benchmarks/bench_fleet_scale.py`` gates on this); rollouts stage
    over regions; ``accuracy_report`` weights each state by its device count;
    and :func:`repro.serving.client.serve` routes through
    :class:`~repro.serving.routing.RegionalRouting`, which keeps user →
    device hashing identical to the unpooled ``"hash"`` policy.
    ``n_regions`` caps the region count (default: up to 64).
    """

    pooled = True

    def __init__(
        self,
        config: Optional[PiloteConfig] = None,
        *,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        seed: RandomState = None,
        n_regions: Optional[int] = None,
        backend=None,
    ) -> None:
        super().__init__(config, profiles=profiles, seed=seed, backend=backend)
        self.requested_regions = n_regions
