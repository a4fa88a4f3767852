"""Tests for the collective ops and the sharded backend.

The property sweep is the heart of this file: for a grid of seeds, shapes and
world sizes it asserts that every collective reduction is *bit-exact* with the
serial left fold in float64 and invariant to how units were distributed over
shards (delivery order included).  The rest pins the transports (serial and
process, including typed worker death), the op-registry twins' forward/VJP
pairs, the sharded backend's ``grouped_means`` twin, the trainer's
data-parallel gradient path, and PILOTE end to end.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.backend import NumpyBackend
from repro.backend.collectives import (
    ProcessCollectives,
    SerialCollectives,
    allgather,
    allreduce,
    argmin_reduce,
    fixed_order_sum,
    make_collectives,
    reduce_scatter,
    register_shard_kernel,
)
from repro.backend.policy import precision
from repro.backend.registry import apply as apply_op
from repro.backend.sharded import ShardedBackend, sharded_herding_selection
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.exemplars import herding_selection
from repro.core.pilote import PILOTE
from repro.exceptions import (
    ConfigurationError,
    ExecutorError,
    ShapeError,
    WorkerDiedError,
)


@register_shard_kernel("test_sleep_forever")
def _kernel_test_sleep_forever(state, payload):  # pragma: no cover - killed
    """Test-only kernel: an alive-but-stuck worker for the deadline tests.

    Registered at import time so fork-started pools inherit it; never part of
    the production kernel set.
    """
    time.sleep(3600)

SEEDS = (0, 1, 2)
SHAPES = ((7,), (5, 3), (2, 3, 4))
WORLDS = (1, 2, 4, 7)


def _unit_arrays(seed, shape, n_units, dtype=np.float64):
    rng = np.random.default_rng(seed)
    # Wide exponent range so reassociation would actually change the bits.
    mantissa = rng.normal(size=(n_units,) + shape)
    exponents = rng.integers(-12, 12, size=(n_units,) + shape).astype(dtype)
    return [np.asarray(m * 10.0 ** e, dtype=dtype) for m, e in zip(mantissa, exponents)]


def _shard_delivery_order(n_units, world, seed):
    """Unit indices in the interleaved order shards would answer in."""
    order = list(np.random.default_rng(seed).permutation(n_units))
    return order  # arbitrary delivery order: collectives must not care


class TestPureCollectives:
    """Bit-exactness + shard-count invariance of the combine functions."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("world", WORLDS)
    def test_allreduce_sum_bit_exact_and_invariant(self, seed, shape, world):
        n_units = 3 * world + 1
        arrays = _unit_arrays(seed, shape, n_units)
        serial = arrays[0].copy()
        for array in arrays[1:]:
            serial = serial + array  # the serial left fold, fresh temporaries
        order = _shard_delivery_order(n_units, world, seed + 99)
        result = allreduce([(i, arrays[i]) for i in order], op="sum")
        assert result.dtype == np.float64
        assert np.array_equal(result, serial)
        assert np.array_equal(result, fixed_order_sum(arrays))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("world", WORLDS)
    def test_allreduce_mean_bit_exact(self, seed, world):
        arrays = _unit_arrays(seed, (4, 2), 2 * world + 1)
        order = _shard_delivery_order(len(arrays), world, seed)
        result = allreduce([(i, arrays[i]) for i in order], op="mean")
        assert np.array_equal(result, fixed_order_sum(arrays) / float(len(arrays)))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("world", WORLDS)
    def test_allgather_orders_by_unit_not_delivery(self, seed, world):
        arrays = _unit_arrays(seed, (3, 2), world + 2)
        order = _shard_delivery_order(len(arrays), world, seed + 7)
        gathered = allgather([(i, arrays[i]) for i in order])
        assert np.array_equal(gathered, np.concatenate(arrays, axis=0))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("world", WORLDS)
    def test_reduce_scatter_per_slot_serial_folds(self, seed, world):
        n_units = 4 * world
        arrays = _unit_arrays(seed, (6,), n_units)
        slots = [i % 3 for i in range(n_units)]
        order = _shard_delivery_order(n_units, world, seed + 13)
        result = reduce_scatter([(slots[i], i, arrays[i]) for i in order], op="sum")
        for slot in set(slots):
            members = [arrays[i] for i in range(n_units) if slots[i] == slot]
            assert np.array_equal(result[slot], fixed_order_sum(members))

    def test_argmin_reduce_ties_break_to_lowest_unit(self):
        value, payload = argmin_reduce([(2, 1.0, "c"), (0, 1.0, "a"), (1, 1.0, "b")])
        assert (value, payload) == (1.0, "a")
        value, payload = argmin_reduce([(0, 3.0, "x"), (5, -1.0, "y"), (2, 0.0, "z")])
        assert (value, payload) == (-1.0, "y")

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            allreduce([(0, np.ones(2)), (0, np.ones(2))])
        with pytest.raises(ShapeError):
            allreduce([(0, np.ones(2)), (1, np.ones(3))])
        with pytest.raises(ShapeError):
            fixed_order_sum([])
        with pytest.raises(ShapeError):
            argmin_reduce([])
        with pytest.raises(ConfigurationError):
            allreduce([(0, np.ones(2))], op="median")


class TestOpRegistryTwins:
    """The tape-facing allreduce/allgather ops: forward values and VJPs."""

    def test_allreduce_sum_forward_and_grad(self):
        parts = [Tensor(np.array([1.0, 2.0]) * (i + 1), requires_grad=True)
                 for i in range(3)]
        out = apply_op("allreduce_sum", *parts)
        assert np.array_equal(out.data, np.array([6.0, 12.0]))
        out.sum().backward()
        for part in parts:
            assert np.array_equal(part.grad, np.ones(2))

    def test_allreduce_mean_grad_scales_by_world(self):
        parts = [Tensor(np.full(3, float(i)), requires_grad=True) for i in range(4)]
        out = apply_op("allreduce_mean", *parts)
        assert np.array_equal(out.data, np.full(3, 1.5))
        out.sum().backward()
        for part in parts:
            assert np.array_equal(part.grad, np.full(3, 0.25))

    def test_allgather_grad_splits_back(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        out = apply_op("allgather", a, b)
        assert out.shape == (6, 3)
        upstream = np.arange(18.0).reshape(6, 3)
        (out * upstream).sum().backward()
        assert np.array_equal(a.grad, upstream[:2])
        assert np.array_equal(b.grad, upstream[2:])


def _grouped_payloads(transport, values, groups):
    unique, inverse = np.unique(groups, return_inverse=True)
    payloads = []
    for chunk_index, chunk in enumerate(transport.partition(unique.shape[0])):
        if len(chunk) == 0:
            continue
        selector = np.flatnonzero((inverse >= chunk.start) & (inverse < chunk.stop))
        payloads.append(
            (chunk_index, values[selector], inverse[selector] - chunk.start, len(chunk))
        )
    return unique, payloads


class TestTransports:
    def test_partition_is_contiguous_balanced_and_covering(self):
        for shards in (1, 2, 3, 5):
            transport = SerialCollectives(shards)
            for n_units in (0, 1, shards - 1, shards, 3 * shards + 2):
                ranges = transport.partition(n_units)
                assert len(ranges) == shards
                flat = [i for r in ranges for i in r]
                assert flat == list(range(max(n_units, 0)))
                sizes = [len(r) for r in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_serial_and_process_grouped_partial_agree(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(400, 5))
        groups = rng.integers(0, 8, size=400)
        serial = SerialCollectives(2)
        unique, payloads = _grouped_payloads(serial, values, groups)
        serial_results = serial.run("grouped_partial", payloads)
        process = ProcessCollectives(2)
        try:
            process_results = process.run("grouped_partial", payloads)
        finally:
            process.close()
        for (si, ss, sc), (pi, ps, pc) in zip(serial_results, process_results):
            assert si == pi
            assert np.array_equal(ss, ps)
            assert np.array_equal(sc, pc)

    def test_worker_death_mid_collective_is_typed_and_pool_recovers(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(300, 4))
        groups = rng.integers(0, 6, size=300)
        process = ProcessCollectives(2)
        try:
            unique, payloads = _grouped_payloads(process, values, groups)
            baseline = process.run("grouped_partial", payloads)
            # wait=False: the crash message is queued ahead of the next
            # call's tasks, so the worker dies *holding* them — the
            # mid-collective death that must fail the whole reduction.
            process.kill_worker(0, wait=False)
            with pytest.raises(WorkerDiedError):
                process.run("grouped_partial", payloads)
            # The pool respawned the slot: the next collective succeeds and
            # reproduces the pre-crash answer bit for bit.
            recovered = process.run("grouped_partial", payloads)
        finally:
            process.close()
        for (bi, bs, bc), (ri, rs, rc) in zip(baseline, recovered, strict=True):
            assert bi == ri and np.array_equal(bs, rs) and np.array_equal(bc, rc)

    def test_worker_death_between_collectives_respawns_silently(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3))
        groups = rng.integers(0, 4, size=200)
        process = ProcessCollectives(2)
        try:
            unique, payloads = _grouped_payloads(process, values, groups)
            baseline = process.run("grouped_partial", payloads)
            # wait=True: joined before the next call, which notices the dead
            # slot pre-queue and respawns it — the died-idle path is loud in
            # logs but invisible to the caller.
            process.kill_worker(0, wait=True)
            recovered = process.run("grouped_partial", payloads)
        finally:
            process.close()
        for (bi, bs, bc), (ri, rs, rc) in zip(baseline, recovered, strict=True):
            assert bi == ri and np.array_equal(bs, rs) and np.array_equal(bc, rc)

    def test_unknown_kernel_fails_fast(self):
        process = ProcessCollectives(2)
        try:
            with pytest.raises(ConfigurationError):
                process.run("not-a-kernel", [1])
        finally:
            process.close()

    def test_model_tokens_never_collide_across_learner_generations(self):
        # A shared pool keys re-broadcasts by (model identity, revision).
        # id() values are reused after garbage collection and revisions
        # follow identical sequences across learners running the same
        # workload, so identity must come from the process-unique monotonic
        # instance_id — tokens from successive short-lived learners at equal
        # revision must all differ.
        config = PiloteConfig(hidden_dims=(6, 4), embedding_dim=3, seed=0)
        tokens = set()
        for _ in range(4):
            learner = PILOTE(config, seed=0)
            learner.model = EmbeddingNetwork(5, config=config, rng=0)
            tokens.add(learner._model_token())
            del learner  # free the model so a naive id() key could be reused
        assert len(tokens) == 4
        model = EmbeddingNetwork(5, config=config, rng=0)
        teacher = model.clone_frozen()
        assert model.instance_id != teacher.instance_id

    def test_process_pool_resyncs_scoped_dtype(self):
        # The pool spawns under the ambient (float64 reference) dtype; a
        # collective issued inside precision("edge") must re-install the
        # call-time dtype on the workers and rebuild the resident model, so
        # the sharded embeddings stay bit-exact with the serial path in both
        # precision scopes — and again after leaving the scope.
        config = PiloteConfig(hidden_dims=(8, 6), embedding_dim=4, seed=0)
        model = EmbeddingNetwork(5, config=config, rng=0)
        rows = np.random.default_rng(7).normal(size=(12, 5))
        process = ProcessCollectives(2)
        try:
            process.broadcast_model(model, (model.instance_id, 0))
            reference64 = model.embed(rows)
            ((_, sharded64),) = process.run("class_embeddings", [(0, rows)])
            assert np.array_equal(sharded64, reference64)
            with precision("edge"):
                reference32 = model.embed(rows)
                ((_, sharded32),) = process.run("class_embeddings", [(0, rows)])
            assert np.array_equal(sharded32, reference32)
            # The scope genuinely changed the arithmetic (float32 input cast),
            # so the equality above proves the worker followed the coordinator.
            assert not np.array_equal(reference32, reference64)
            ((_, again64),) = process.run("class_embeddings", [(0, rows)])
            assert np.array_equal(again64, reference64)
        finally:
            process.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="stuck-kernel registration needs fork inheritance",
    )
    def test_stuck_worker_trips_deadline_and_pool_recovers(self):
        process = ProcessCollectives(2, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(ExecutorError, match="deadline"):
                process.run("test_sleep_forever", [None])
            assert time.monotonic() - start < 30.0  # bounded, not a spin
            # The stuck slot was killed and respawned: the pool still serves.
            rng = np.random.default_rng(6)
            values = rng.normal(size=(40, 3))
            groups = rng.integers(0, 4, size=40)
            unique, payloads = _grouped_payloads(process, values, groups)
            reference = SerialCollectives(2).run("grouped_partial", payloads)
            recovered = process.run("grouped_partial", payloads)
            for (ri, rs, rc), (pi, ps, pc) in zip(reference, recovered, strict=True):
                assert ri == pi and np.array_equal(rs, ps) and np.array_equal(rc, pc)
        finally:
            process.close()

    def test_timeout_validation_and_passthrough(self):
        with pytest.raises(ConfigurationError):
            ProcessCollectives(2, timeout=0.0)
        built = make_collectives("process", shards=2, timeout=1.5)
        try:
            assert built._timeout == pytest.approx(1.5)
        finally:
            built.close()
        backend = ShardedBackend(shards=2, timeout=2.0)
        try:
            assert backend.collectives._timeout == pytest.approx(2.0)
        finally:
            backend.close()

    def test_make_collectives_degrades_to_serial(self, monkeypatch):
        assert isinstance(make_collectives("process", shards=1), SerialCollectives)
        monkeypatch.setenv("REPRO_SHARD_WORKER", "1")
        assert isinstance(make_collectives(None, shards=4), SerialCollectives)
        assert isinstance(make_collectives("process", shards=4), SerialCollectives)
        monkeypatch.delenv("REPRO_SHARD_WORKER")
        prebuilt = SerialCollectives(3)
        assert make_collectives(prebuilt, shards=5) is prebuilt
        with pytest.raises(ConfigurationError):
            make_collectives("carrier-pigeon", shards=2)


class TestShardedBackend:
    @pytest.mark.parametrize("shards", (2, 3, 5))
    def test_grouped_means_bit_exact_with_numpy_backend(self, shards):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(513, 6)) * 10.0 ** rng.integers(-9, 9, size=(513, 6))
        groups = rng.integers(0, 12, size=513)
        reference_groups, reference_means = NumpyBackend().grouped_means(values, groups)
        backend = ShardedBackend(shards=shards, collectives="serial", min_shard_rows=1)
        unique, means = backend.grouped_means(values, groups)
        assert np.array_equal(unique, reference_groups)
        assert np.array_equal(means, reference_means)

    def test_grouped_means_process_transport_bit_exact(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(300, 4))
        groups = rng.integers(0, 7, size=300)
        reference = NumpyBackend().grouped_means(values, groups)
        with ShardedBackend(shards=2, min_shard_rows=1) as backend:
            unique, means = backend.grouped_means(values, groups)
        assert np.array_equal(unique, reference[0])
        assert np.array_equal(means, reference[1])

    def test_grouped_means_serial_tail_below_threshold(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(50, 3))
        groups = rng.integers(0, 4, size=50)
        backend = ShardedBackend(shards=4, collectives="serial", min_shard_rows=10_000)
        unique, means = backend.grouped_means(values, groups)
        reference = NumpyBackend().grouped_means(values, groups)
        assert np.array_equal(unique, reference[0])
        assert np.array_equal(means, reference[1])

    def test_registered_and_closable(self):
        from repro.backend import BACKENDS, make_backend

        assert BACKENDS["sharded"] is ShardedBackend
        backend = make_backend("sharded")
        assert isinstance(backend, ShardedBackend)
        backend.close()  # idempotent before first use
        backend.close()

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_sharded_herding_is_shard_count_invariant(self, shards):
        rng = np.random.default_rng(21)
        embeddings = rng.normal(size=(90, 8))
        reference = sharded_herding_selection(
            embeddings, 12, SerialCollectives(1), block_rows=16
        )
        picked = sharded_herding_selection(
            embeddings, 12, SerialCollectives(shards), block_rows=16
        )
        assert np.array_equal(picked, reference)
        assert len(set(picked.tolist())) == len(picked)

    def test_sharded_herding_single_block_matches_serial_kernel(self):
        # One block ⇒ the scoring GEMV has the serial kernel's exact shape,
        # so even the last-ulp caveat disappears and the selections coincide.
        rng = np.random.default_rng(22)
        embeddings = rng.normal(size=(40, 6))
        serial = herding_selection(embeddings, embeddings, 9)
        blocked = sharded_herding_selection(
            embeddings, 9, SerialCollectives(2), block_rows=64
        )
        assert np.array_equal(blocked, serial)


class TestPiloteSharded:
    """End-to-end: PILOTE on the sharded backend is bit-exact with serial."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.data.activities import Activity
        from repro.data.streams import build_incremental_scenario
        from repro.data.synthetic import make_feature_dataset

        dataset = make_feature_dataset(samples_per_class=60, seed=31)
        return build_incremental_scenario(dataset, [Activity.RUN], rng=5)

    @pytest.fixture(scope="class")
    def config(self):
        return PiloteConfig(
            hidden_dims=(24, 12),
            embedding_dim=8,
            batch_size=16,
            max_epochs_pretrain=3,
            max_epochs_increment=3,
            cache_size=60,
            max_pairs_per_batch=48,
            seed=0,
        )

    def _run(self, config, scenario, **kwargs):
        learner = PILOTE(config, seed=0, **kwargs)
        learner.pretrain(scenario.old_train, scenario.old_validation,
                         exemplars_per_class=12)
        learner.learn_new_classes(scenario.new_train, scenario.new_validation)
        predictions = learner.predict(scenario.test.features)
        state = (
            {c: learner.prototypes.get(c).copy() for c in learner.prototypes.classes},
            {c: learner.exemplars.get(c).copy() for c in learner.exemplars.classes},
            predictions,
        )
        learner.close()
        return state, dict(learner.phase_seconds)

    def test_sharded_backend_bit_exact_and_phase_timed(self, config, scenario):
        (serial_protos, serial_exemplars, serial_predictions), _ = self._run(
            config, scenario
        )
        sharded = ShardedBackend(shards=2, collectives="serial")
        (protos, exemplars, predictions), phases = self._run(
            config, scenario, backend=sharded
        )
        for class_id, prototype in serial_protos.items():
            assert np.array_equal(protos[class_id], prototype)
        for class_id, rows in serial_exemplars.items():
            assert np.array_equal(exemplars[class_id], rows)
        assert np.array_equal(predictions, serial_predictions)
        assert set(phases) == {"training", "herding", "prototype_refresh"}
        assert all(value >= 0.0 for value in phases.values())

    def test_support_set_rebuild_bit_exact_under_spawn(self, config, scenario,
                                                       monkeypatch):
        # The spawn start method (which Linux never picks): workers start
        # from a fresh import and get everything by message.
        from repro.runtime import pool as worker_pool

        chosen = []
        monkeypatch.setattr(
            worker_pool, "start_method", lambda: chosen.append("spawn") or "spawn"
        )
        input_dim = scenario.old_train.features.shape[1]

        def rebuild(**kwargs):
            learner = PILOTE(config, seed=0, **kwargs)
            learner.model = EmbeddingNetwork(input_dim, config=config, rng=0)
            try:
                learner.build_support_set(scenario.old_train, per_class=12)
                return [
                    {c: store.get(c) for c in store.classes}
                    for store in (learner.exemplars, learner.prototypes)
                ]
            finally:
                learner.close()

        expected = rebuild()
        sharded = rebuild(backend="sharded", shards=2)
        assert chosen  # the shard pool was built under spawn
        for reference, state in zip(expected, sharded, strict=True):
            assert reference.keys() == state.keys()
            for class_id, array in reference.items():
                assert array.dtype == np.float64
                assert np.array_equal(state[class_id], array)

    def test_shards_require_sharded_backend(self, config):
        with pytest.raises(ConfigurationError):
            PILOTE(config, shards=2)
        with pytest.raises(ConfigurationError):
            PILOTE(config, backend="numpy", shards=2)
        learner = PILOTE(config, backend="sharded", shards=3)
        assert learner.backend.world_size == 3
        learner.close()


class TestTrainerGradShards:
    def _loss_recorder(self, sizes):
        def batch_loss(features, labels):
            sizes.append(features.shape[0])
            return Tensor(np.asarray(features.sum()))

        return batch_loss

    def test_combined_loss_is_weighted_mean_of_chunks(self):
        from repro.nn.trainer import Trainer

        trainer = Trainer.__new__(Trainer)
        trainer.grad_shards = 3
        features = np.arange(20.0).reshape(10, 2)
        labels = np.zeros(10, dtype=np.int64)
        sizes = []
        loss = trainer._combined_loss(self._loss_recorder(sizes), features, labels)
        assert sizes == [4, 3, 3]
        expected = (
            features[:4].sum() * 0.4
            + features[4:7].sum() * 0.3
            + features[7:].sum() * 0.3
        )
        assert loss.data == pytest.approx(float(expected))

    def test_small_batches_fall_back_to_single_chunk(self):
        from repro.nn.trainer import Trainer

        trainer = Trainer.__new__(Trainer)
        trainer.grad_shards = 4
        sizes = []
        features = np.ones((6, 2))
        trainer._combined_loss(self._loss_recorder(sizes), features, np.zeros(6))
        assert sizes == [6]  # 6 < 2*4 ⇒ one chunk, no collective record

    def test_gradients_flow_through_the_collective(self):
        from repro.nn.trainer import Trainer

        trainer = Trainer.__new__(Trainer)
        trainer.grad_shards = 2
        weight = Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def batch_loss(features, labels):
            return ((Tensor(features) @ weight) ** 2).mean()

        features = np.random.default_rng(0).normal(size=(8, 2))
        labels = np.zeros(8)
        loss = trainer._combined_loss(batch_loss, features, labels)
        loss.backward()
        sharded_grad = weight.grad.copy()
        weight.zero_grad()
        batch_loss(features, labels).backward()
        assert np.allclose(sharded_grad, weight.grad)

    def test_invalid_grad_shards_rejected(self):
        from repro.nn.module import Module
        from repro.nn.optim import SGD
        from repro.nn.trainer import Trainer

        class _Null(Module):
            def forward(self, x):  # pragma: no cover - never called
                return x

        model = _Null()
        with pytest.raises(ValueError):
            Trainer(model, SGD([], lr=0.1), grad_shards=0)


class TestProfilerPhases:
    def test_latency_report_roundtrip_with_phases(self):
        from repro.edge.profiler import LatencyReport

        report = LatencyReport(
            epochs_run=2,
            total_seconds=1.5,
            epoch_seconds=[0.7, 0.8],
            phase_seconds={"training": 1.2, "herding": 0.2,
                           "prototype_refresh": 0.1},
        )
        clone = LatencyReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.summary()["herding_seconds"] == pytest.approx(0.2)

    def test_scaled_to_scales_phases(self):
        from repro.edge.device import DeviceProfile
        from repro.edge.profiler import LatencyReport

        report = LatencyReport(
            epochs_run=1, total_seconds=1.0, epoch_seconds=[1.0],
            phase_seconds={"training": 0.5},
        )
        slow = DeviceProfile("slow", storage_bytes=2**20, memory_bytes=2**20,
                             relative_compute=0.5)
        scaled = report.scaled_to(slow)
        assert scaled.phase_seconds["training"] == pytest.approx(1.0)

    def test_profile_increment_exports_phase_breakdown(self, pilote_copy,
                                                       run_scenario):
        from repro.edge.profiler import EdgeProfiler

        report = EdgeProfiler().profile_increment(
            pilote_copy, run_scenario.new_train, run_scenario.new_validation
        )
        assert set(report.phase_seconds) == {
            "training", "herding", "prototype_refresh"
        }
        assert report.to_dict()["phase_seconds"] == report.phase_seconds
