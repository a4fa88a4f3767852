"""Fleet orchestration: multi-device provisioning, traffic, checkpoints.

The paper ships one pre-trained model to one edge device; this package scales
that architecture out to a *fleet* behind a single cloud broadcast:

* :class:`FleetCoordinator` provisions N devices from heterogeneous
  :class:`~repro.edge.device.DeviceProfile`s, deploys one
  :class:`~repro.edge.transfer.TransferPackage` to all of them (each device
  gets an independent learner), stages rollouts and schedules staggered
  per-device increments.  One coordinator body serves every fleet size: the
  unpooled fleet materialises every device, while a pooled fleet
  (:class:`HierarchicalFleetCoordinator`, which only switches pooling on)
  is a tree of regions (:class:`RegionCoordinator`), each serving many
  devices from one copy-on-write template behind one lane — only drifting
  devices are materialised, and a broadcast ships one package per region
  (:class:`TransferLedger` accounts the bytes).  That is what scales the
  same architecture to a million devices;
* :class:`TrafficGenerator` produces deterministic open-loop workloads
  (uniform, bursty, Zipf-skewed user populations);
* :class:`CheckpointStore` snapshots device state (full or delta archives),
  evicts under a storage budget, and restores state onto a fresh device
  (crash/replace, elasticity).

Entry points: ``MagnetoPlatform.to_fleet(n)``, the ``pilote fleet-sim`` CLI
subcommand, ``examples/fleet_simulation.py`` and
``benchmarks/bench_fleet.py``.

Serving goes through :mod:`repro.serving`: ``serve(fleet)`` builds a
futures-based client whose event-loop scheduler shards requests across the
fleet's serving lanes (seeded user-id hashing by default, pluggable routing
policies), batches them through each lane's
:class:`~repro.edge.inference.InferenceEngine` and reports per-device
statistics (:class:`~repro.serving.RoutingReport`) on a simulated parallel
clock; ``FleetCoordinator.deploy`` stages rollouts.
"""

from repro.fleet.checkpoint import CheckpointStore, DeviceCheckpoint
from repro.fleet.coordinator import (
    FleetAccuracyReport,
    FleetCoordinator,
    FleetDevice,
    HierarchicalFleetCoordinator,
    RegionCoordinator,
    TransferLedger,
)
from repro.fleet.simulation import FleetSimulationResult
from repro.fleet.traffic import (
    InferenceRequest,
    TrafficGenerator,
    WorkloadSpec,
    staggered_schedule,
)

__all__ = [
    "FleetCoordinator",
    "FleetDevice",
    "FleetAccuracyReport",
    "HierarchicalFleetCoordinator",
    "RegionCoordinator",
    "TransferLedger",
    "TrafficGenerator",
    "WorkloadSpec",
    "InferenceRequest",
    "staggered_schedule",
    "CheckpointStore",
    "DeviceCheckpoint",
    "FleetSimulationResult",
]
