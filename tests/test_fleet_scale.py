"""Million-device fleet machinery: snapshot deltas, pooled regions, delta checkpoints.

Covers the hierarchical coordinator stack end to end at test scale:

* ``EngineStateSnapshot.diff``/``apply_delta`` round-trips bit-exactly, a
  stale base raises the typed fallback error, and a no-op increment (the
  support set rebuilt under an unchanged model) produces an *empty* delta;
* ``PILOTE.refine_prototype`` — the cheap single-class increment that makes
  deltas small — updates exactly one prototype and bumps the state version;
* ``FleetCoordinator.device()`` resolves through the id index (including
  after ``replace_device``);
* ``HierarchicalFleetCoordinator`` (the pooled case of the one coordinator)
  serves a small fleet bit-identically to the unpooled one, drifted devices
  included, pools undrifted devices behind region lanes, and weights
  accuracy by multiplicity;
* a rollout redeploys each stage unit (device or region) of either kind of
  fleet, templates and materialised devices alike, and the ledger counts
  only shipments actually made;
* ``CheckpointStore.save(delta=True)`` restores exactly, including through
  delta chains and after LRU eviction consolidates a delta's base away;
* the process executor ships deltas (not full snapshots) for an
  already-shipped lane whose state version bumped.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.inference import EngineSnapshotDelta, EngineStateSnapshot
from repro.edge.transfer import package_for_edge
from repro.exceptions import (
    ConfigurationError,
    DataError,
    SnapshotMismatchError,
    StaleSnapshotError,
)
from repro.fleet import (
    CheckpointStore,
    FleetCoordinator,
    FleetDevice,
    HierarchicalFleetCoordinator,
)
from repro.serving import PredictRequest, serve
from repro.serving.rollout import StagedRollout

N_FEATURES = 20
CONFIG = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, cache_size=200, seed=0)

SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, memory_bytes=2**30, relative_compute=1.0
)


def make_serving_learner(n_classes: int = 4, per_class: int = 25) -> PILOTE:
    """A deployed-looking learner without gradient training (fast, seeded)."""
    rng = np.random.default_rng(0)
    learner = PILOTE(CONFIG, seed=0)
    learner.model = EmbeddingNetwork(N_FEATURES, config=CONFIG, rng=0)
    learner.model.eval()
    learner._old_classes = list(range(n_classes))
    for class_id in range(n_classes):
        learner.exemplars.set_exemplars(
            class_id, rng.normal(size=(per_class, N_FEATURES)) + class_id
        )
    learner._refresh_prototypes()
    return learner


def make_new_class_dataset(class_id: int = 4, n_samples: int = 24) -> HARDataset:
    """A small labelled split of one unseen class, for on-device increments."""
    rng = np.random.default_rng(class_id)
    features = rng.normal(size=(n_samples, N_FEATURES)) + class_id
    return HARDataset(features, np.full(n_samples, class_id))


@pytest.fixture()
def learner() -> PILOTE:
    return make_serving_learner()


@pytest.fixture()
def windows() -> np.ndarray:
    return np.random.default_rng(9).normal(size=(12, N_FEATURES))


# ---------------------------------------------------------------------- #
# snapshot deltas
# ---------------------------------------------------------------------- #
class TestSnapshotDelta:
    def test_diff_apply_roundtrip_bit_exact(self, learner):
        base = learner.inference_engine().state_snapshot()
        rng = np.random.default_rng(1)
        learner.refine_prototype(2, rng.normal(size=(5, N_FEATURES)) + 2)
        target = learner.inference_engine().state_snapshot()

        delta = target.diff(base)
        assert isinstance(delta, EngineSnapshotDelta)
        assert delta.base_version == base.state_version
        assert delta.state_version == target.state_version
        assert delta.n_changed == 1  # exactly the refined class moved
        assert not delta.model_updates  # prototype-only increment
        assert delta.nbytes < target.nbytes / 10

        rebuilt = target_from = base.apply_delta(delta)
        assert isinstance(target_from, EngineStateSnapshot)
        assert np.array_equal(rebuilt.prototypes, target.prototypes)
        assert np.array_equal(rebuilt.class_ids, target.class_ids)
        for key, value in target.model_state.items():
            assert np.array_equal(rebuilt.model_state[key], value)
        assert rebuilt.state_version == target.state_version

    def test_noop_increment_ships_zero_rows(self, learner):
        """Recomputing prototypes from unchanged exemplars bumps the version
        but moves no values — the delta must be empty."""
        base = learner.inference_engine().state_snapshot()
        learner._refresh_prototypes()  # deterministic: same exemplars in, same means out
        bumped = learner.inference_engine().state_snapshot()
        assert bumped.state_version > base.state_version

        delta = bumped.diff(base)
        assert delta.n_changed == 0
        assert not delta.model_updates
        rebuilt = base.apply_delta(delta)
        assert np.array_equal(rebuilt.prototypes, bumped.prototypes)

    def test_stale_base_raises_typed_error(self, learner):
        rng = np.random.default_rng(2)
        snap0 = learner.inference_engine().state_snapshot()
        learner.refine_prototype(0, rng.normal(size=(3, N_FEATURES)))
        snap1 = learner.inference_engine().state_snapshot()
        learner.refine_prototype(1, rng.normal(size=(3, N_FEATURES)) + 1)
        snap2 = learner.inference_engine().state_snapshot()

        delta = snap2.diff(snap1)
        with pytest.raises(StaleSnapshotError):
            snap0.apply_delta(delta)  # wrong base version -> full re-ship

    def test_incompatible_snapshots_refuse_to_diff(self, learner):
        import dataclasses

        snap = learner.inference_engine().state_snapshot()
        other_metric = dataclasses.replace(snap, metric="manhattan")
        with pytest.raises(SnapshotMismatchError):
            snap.diff(other_metric)
        other_dtype = dataclasses.replace(snap, compute_dtype="float32")
        with pytest.raises(SnapshotMismatchError):
            snap.diff(other_dtype)

    def test_new_class_rows_travel_in_delta(self, pilote_copy, run_scenario):
        base = pilote_copy.inference_engine().state_snapshot()
        pilote_copy.learn_new_classes(
            run_scenario.new_train, run_scenario.new_validation
        )
        target = pilote_copy.inference_engine().state_snapshot()
        delta = target.diff(base)
        # A real increment retrains the backbone: every prototype moves and
        # the model updates travel too — but apply is still bit-exact.
        assert delta.n_changed == target.prototypes.shape[0]
        rebuilt = base.apply_delta(delta)
        assert np.array_equal(rebuilt.prototypes, target.prototypes)
        assert np.array_equal(rebuilt.class_ids, target.class_ids)


class TestRefinePrototype:
    def test_moves_one_prototype_and_bumps_version(self, learner):
        rng = np.random.default_rng(3)
        before = {c: learner.prototypes.get(c).copy() for c in learner.prototypes.classes}
        version = learner.state_version
        updated = learner.refine_prototype(1, rng.normal(size=(6, N_FEATURES)) + 1)
        assert learner.state_version == version + 1
        assert not np.array_equal(updated, before[1])
        for class_id, old in before.items():
            if class_id != 1:
                assert np.array_equal(learner.prototypes.get(class_id), old)

    def test_single_row_accepted(self, learner):
        row = np.random.default_rng(4).normal(size=N_FEATURES)
        learner.refine_prototype(0, row)  # 1-D input reshaped to (1, d)

    def test_unknown_class_rejected(self, learner):
        with pytest.raises(DataError):
            learner.refine_prototype(99, np.zeros((2, N_FEATURES)))


# ---------------------------------------------------------------------- #
# flat coordinator: id index
# ---------------------------------------------------------------------- #
class TestDeviceIndex:
    def test_lookup_and_missing(self, learner):
        fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
        fleet.provision(5)
        assert fleet.device(3).device_id == 3
        with pytest.raises(ConfigurationError):
            fleet.device(17)

    def test_replace_device_updates_index(self, learner):
        fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
        fleet.provision(3)
        replacement = FleetDevice(1, EdgeDevice(SIM_NODE))
        fleet.replace_device(1, replacement)
        assert fleet.device(1) is replacement
        assert fleet.serving_lanes() is fleet.devices  # the live list itself
        # Untouched ids still resolve after the swap.
        assert fleet.device(0).device_id == 0
        assert fleet.device(2).device_id == 2

    def test_index_survives_external_list_surgery(self, learner):
        fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
        fleet.provision(3)
        fleet.devices.insert(0, FleetDevice(100, EdgeDevice(SIM_NODE)))  # stale index
        assert fleet.device(100).device_id == 100
        assert fleet.device(2).device_id == 2


# ---------------------------------------------------------------------- #
# hierarchical coordinator
# ---------------------------------------------------------------------- #
class TestHierarchicalFleet:
    def _package(self, learner):
        return package_for_edge(learner)

    def test_small_fleet_bit_exact_with_flat(self, learner, windows):
        package = self._package(learner)
        flat = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=7)
        flat.provision(6)
        flat.deploy(package)
        tree = HierarchicalFleetCoordinator(
            CONFIG, profiles=(SIM_NODE,), seed=7, n_regions=3
        )
        tree.provision(6)
        tree.deploy(package)
        for device_id in range(6):
            tree.device(device_id)  # materialise everyone pre-freeze
        # Two devices drift on both fleets: each increment trains from the
        # device's own id-indexed seed, so the drifted states must agree.
        new_class = make_new_class_dataset()
        for fleet in (flat, tree):
            for tick, device_id in enumerate((1, 4)):
                fleet.schedule_increment(device_id, tick, new_class)
            assert set(fleet.run_due_increments(1)) == {1, 4}
        assert 4 in tree.device(4).learner.classes_

        flat_client = serve(flat, seed=11)
        tree_client = serve(tree, seed=11)
        try:
            rng = np.random.default_rng(5)
            flat_pending, tree_pending = [], []
            for user in range(30):
                features = rng.normal(size=(3, N_FEATURES))
                flat_pending.append(
                    flat_client.submit(PredictRequest(user_id=user, features=features))
                )
                tree_pending.append(
                    tree_client.submit(PredictRequest(user_id=user, features=features))
                )
            flat_client.drain()
            tree_client.drain()
            for a, b in zip(flat_pending, tree_pending):
                assert a.result().device_id == b.result().device_id
                assert np.array_equal(a.result().class_ids, b.result().class_ids)
        finally:
            flat_client.close()
            tree_client.close()

    def test_pooled_serving_and_weighted_accuracy(self, learner, har_dataset):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=4)
        tree.provision(100)
        tree.deploy(package)
        assert len(tree) == 100
        assert tree.n_regions == 4
        # Nobody drifted: four pooled lanes carry the whole fleet.
        lanes = tree.serving_lanes()
        assert len(lanes) == 4
        assert all(lane.device_id < 0 for lane in lanes)
        mapping = tree.lane_map()
        assert mapping.shape == (100,)
        assert set(np.unique(mapping)) == {0, 1, 2, 3}

        dataset = har_dataset.subsample(40, rng=np.random.default_rng(0))
        probe_features = dataset.features[:, :N_FEATURES]
        probe = HARDataset(probe_features, dataset.labels % 4)
        report = tree.accuracy_report(probe)
        assert report.n_devices == 100  # weights carry the multiplicity
        assert len(report.per_device) == 4

    def test_materialised_devices_drift_and_weigh_individually(self, learner):
        rng = np.random.default_rng(6)
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(10)
        tree.deploy(package)
        drifted = tree.device(3)
        drifted.learner.refine_prototype(0, rng.normal(size=(4, N_FEATURES)))
        region = tree.region_of(3)
        assert region.n_pooled == 4
        lanes = tree.serving_lanes()
        assert len(lanes) == 3  # 2 region lanes + device 3
        assert tree.lane_map()[3] == 2  # drifted device routes to its own lane
        assert tree.lane_map()[4] == region.region_id

    def test_provision_is_once_only_and_freeze_is_enforced(self, learner):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(8)
        with pytest.raises(ConfigurationError):
            tree.provision(8)
        tree.deploy(package)
        tree.device(0)
        tree.serving_lanes()  # freezes materialisation
        tree.device(0)  # already materialised: still fine
        with pytest.raises(ConfigurationError):
            tree.device(5)

    def test_staged_rollout_over_regions(self, learner):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=4)
        tree.provision(16)
        tree.deploy(package, rollout="staged")
        deployed = [r.lane.is_deployed for r in tree.regions]
        assert any(deployed) and not all(deployed)
        while tree.advance_rollout():
            pass
        assert all(r.lane.is_deployed for r in tree.regions)
        assert tree.cohort_of(0) is not None
        with pytest.raises(ConfigurationError):
            tree.rollout_report()

    @pytest.mark.parametrize("pooled", [False, True], ids=["flat", "pooled"])
    def test_redeploy_rebuilds_stage_units(self, learner, pooled):
        """A rollout redeploys each stage unit's template and materialised
        devices; a broadcast skips deployed units and ships nothing to them."""
        package_a = self._package(learner)  # classes 0-3
        package_b = package_for_edge(make_serving_learner(n_classes=3))
        fleet = (
            HierarchicalFleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=7, n_regions=2)
            if pooled
            else FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=7)
        )
        fleet.provision(4)
        n_units = 2 if pooled else 4
        fleet.deploy(package_a)
        fleet.deploy(package_a)  # every unit already holds a package
        assert fleet.transfers.deploy_shipments == n_units

        fleet.device(1)  # materialised before the rollout reaches it
        fleet.deploy(package_b, rollout=StagedRollout(fractions=(0.5, 1.0)))
        assert fleet.transfers.deploy_shipments == n_units + n_units // 2
        assert fleet.device(1).learner.classes_ == [0, 1, 2]
        # Device 3's unit is in stage 1: it still runs the old package, also
        # when it is materialised only now.
        assert fleet.device(3).learner.classes_ == [0, 1, 2, 3]

        lanes = fleet.serving_lanes()
        fleet.advance_rollout()
        assert fleet.transfers.deploy_shipments == 2 * n_units
        assert all(lane.learner.classes_ == [0, 1, 2] for lane in lanes)
        assert fleet.device(3).learner.classes_ == [0, 1, 2]

    def test_ab_rollout_over_single_device_regions(self, learner, windows):
        """Regions of one device pool nothing, so user-routing rollouts and
        per-device rollout reports work on them."""
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=7, n_regions=4)
        tree.provision(4)
        tree.deploy(package)
        tree.deploy(package, rollout="ab")
        policy = tree.active_rollout.policy
        client = serve(tree, seed=3)
        try:
            pending = [
                client.submit(PredictRequest(user_id=user, features=windows[:1]))
                for user in range(40)
            ]
            client.drain()
            for user, result in enumerate(p.result() for p in pending):
                assert tree.cohort_of(result.device_id) == policy.user_cohort(user)
            report = tree.rollout_report(serving=client.report())
        finally:
            client.close()
        assert set(report.per_cohort) == {"treatment", "control"}
        assert sum(row.requests for row in report.per_cohort.values()) == 40
        assert sorted(i for row in report.per_cohort.values() for i in row.device_ids) == [0, 1, 2, 3]

    def test_user_routing_rollouts_rejected(self, learner):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=4)
        tree.provision(16)
        with pytest.raises(ConfigurationError):
            tree.deploy(package, rollout="ab")

    def test_deploy_ships_once_per_region(self, learner):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=5)
        tree.provision(500)
        tree.deploy(package)
        assert tree.transfers.deploy_shipments == 5
        assert tree.transfers.deploy_bytes == 5 * package.total_bytes

        flat = FleetCoordinator(CONFIG, seed=7)
        flat.provision(20)
        flat.deploy(package)
        assert flat.transfers.deploy_shipments == 20

    def test_replace_device_swaps_materialised_lane(self, learner, windows):
        package = self._package(learner)
        tree = HierarchicalFleetCoordinator(CONFIG, seed=7, n_regions=2)
        tree.provision(8)
        tree.deploy(package)
        original = tree.device(2)
        lanes = tree.serving_lanes()
        replacement = FleetDevice(2, EdgeDevice(DEVICE_PROFILES["smartphone"]))
        replacement.deploy(package, CONFIG, seed=0)
        tree.replace_device(2, replacement)
        assert tree.device(2) is replacement
        assert replacement in lanes and original not in lanes


# ---------------------------------------------------------------------- #
# delta checkpoints
# ---------------------------------------------------------------------- #
class TestDeltaCheckpoints:
    def _device(self, learner):
        device = FleetDevice(0, EdgeDevice(SIM_NODE))
        device.adopt(learner)
        return device

    def test_delta_save_restores_bit_exact(self, learner, windows, tmp_path):
        device = self._device(learner)
        store = CheckpointStore(tmp_path)
        full = store.save(device)
        learner.refine_prototype(1, np.random.default_rng(1).normal(size=(4, N_FEATURES)))
        delta = store.save(device, delta=True)
        assert delta.base_id == full.checkpoint_id
        assert delta.nbytes < full.nbytes / 10
        restored = store.restore(delta)
        assert np.array_equal(device.infer(windows), restored.infer(windows))

    def test_delta_without_base_degrades_to_full(self, learner, tmp_path):
        device = self._device(learner)
        store = CheckpointStore(tmp_path)
        checkpoint = store.save(device, delta=True)
        assert checkpoint.base_id is None

    def test_delta_chain_restores(self, learner, windows, tmp_path):
        rng = np.random.default_rng(2)
        device = self._device(learner)
        store = CheckpointStore(tmp_path)
        store.save(device)
        learner.refine_prototype(0, rng.normal(size=(3, N_FEATURES)))
        first = store.save(device, delta=True)
        learner.refine_prototype(2, rng.normal(size=(3, N_FEATURES)) + 2)
        second = store.save(device, delta=True)
        assert second.base_id == first.checkpoint_id
        restored = store.restore(second)
        assert np.array_equal(device.infer(windows), restored.infer(windows))

    def test_eviction_consolidates_dependent_deltas(self, learner, windows, tmp_path):
        rng = np.random.default_rng(3)
        device = self._device(learner)
        probe_store = CheckpointStore(tmp_path / "probe")
        full_nbytes = probe_store.save(device).nbytes

        store = CheckpointStore(tmp_path / "real", budget_bytes=int(full_nbytes * 2.4))
        store.save(device)  # id 0: the delta's base
        learner.refine_prototype(1, rng.normal(size=(3, N_FEATURES)) + 1)
        delta = store.save(device, delta=True)  # id 1
        expected = device.infer(windows)
        learner.refine_prototype(0, rng.normal(size=(3, N_FEATURES)))
        store.save(device)  # id 2
        store.restore(delta)  # touch for recency: evict id 0, then id 2
        learner.refine_prototype(2, rng.normal(size=(3, N_FEATURES)) + 2)
        store.save(device)  # id 3: pushes over budget
        survivors = {c.checkpoint_id: c for c in store.checkpoints()}
        assert 0 not in survivors
        assert survivors[delta.checkpoint_id].base_id is None  # consolidated
        restored = store.restore(survivors[delta.checkpoint_id])
        assert np.array_equal(expected, restored.infer(windows))

    def test_bytes_written_accounts_deltas(self, learner, tmp_path):
        device = self._device(learner)
        store = CheckpointStore(tmp_path)
        full = store.save(device)
        written_after_full = store.bytes_written
        assert written_after_full == full.nbytes
        learner.refine_prototype(1, np.random.default_rng(4).normal(size=(2, N_FEATURES)))
        delta = store.save(device, delta=True)
        assert store.bytes_written == written_after_full + delta.nbytes


# ---------------------------------------------------------------------- #
# process executor delta shipping
# ---------------------------------------------------------------------- #
class TestExecutorDeltaShipping:
    def test_version_bump_ships_delta_not_full(self, learner, windows):
        client = serve(learner, executor="process", workers=1)
        try:
            pending = client.submit(PredictRequest(user_id=1, features=windows))
            client.drain()
            pending.result()
            executor = client.scheduler.executor
            assert executor.sync_stats()["full_syncs"] == 1
            assert executor.sync_stats()["delta_syncs"] == 0

            learner.refine_prototype(
                0, np.random.default_rng(5).normal(size=(3, N_FEATURES))
            )
            after = client.submit(PredictRequest(user_id=1, features=windows))
            client.drain()
            stats = executor.sync_stats()
            assert stats["full_syncs"] == 1
            assert stats["delta_syncs"] == 1
            # Delta-served predictions match the live engine bit for bit.
            local = learner.inference_engine()
            assert np.array_equal(after.result().class_ids, local.predict(windows))
        finally:
            client.close()
        # Telemetry survives close() so reports can read it afterwards.
        assert client.scheduler.executor.sync_stats()["delta_syncs"] == 1
