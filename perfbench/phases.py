"""The four measured phases of one run, each with its output check.

Every run drives the same lifecycle from one process:

* ``learn`` — the paper's edge increment, closed loop, serial numpy
  backend: ``instantiate_learner`` → ``learn_new_classes`` on a seeded
  few-shot subsample → ``evaluate`` on the five-activity test set.
  Training (autodiff + nn) is nearly all of it; no IPC, scheduler or wire.
* ``herd`` — the cloud support-set rebuild on ``backend="sharded"``:
  model shipping and collective IPC plus herding kernels, no training.
* ``serve`` — in-process, read-only Zipf ticks on a pooled million-device
  fleet (serial executor): scheduler bookkeeping, routing, engine GEMMs and
  ``result()``; every lane is an identical pooled template.
* ``net`` — the loopback front door: an open-loop Poisson schedule with
  ``refine_prototype`` writes interleaved (snapshot deltas re-ship beside
  reads; lanes diverge), then a closed-loop capacity segment.

The phases take turns in ``ROUNDS`` rounds, each phase getting its share of
``--seconds`` split evenly over the rounds.  The host's speed drifts by tens
of percent over seconds; interleaving makes every phase sample the whole
run instead of one stretch of it, and every learn, herd and serve operation
is bracketed by a speed probe (``speed.py``) on the CPUs it runs on: learn
and serve pin the measuring thread to one CPU for their rounds, herd (whose
work runs in the shard workers) probes every usable CPU.  In a traced run
the first half of the rounds is untraced and the second half runs with the
layer wrappers installed; per-layer metrics come from the traced half and
the tracing overhead from the two halves' medians.
"""

from __future__ import annotations

import asyncio
import gc
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import layers
import speed
from harness import median
from system import HERD_BUDGETS, NET_CLOSED_INFLIGHT, NET_WRITE_EVERY, Stack
from tracing import Tracer, covered_length

#: Share of ``--seconds`` each phase runs for.
#: ``learn`` gets the most: its ops are the longest and the fewest per run.
#: A herd round always runs one whole budget cycle (two rebuilds, ~0.4-0.6 s
#: each), however small its share.  ``net`` feeds no gated metric.
PHASE_SHARES = {"learn": 0.67, "herd": 0.15, "serve": 0.1, "net": 0.08}
#: Share of the net phase spent on the open-loop schedule (the rest is the
#: closed-loop capacity segment).
NET_OPEN_SHARE = 0.7
ROUNDS = 12
#: A request unanswered this long counts as lost (the exactly-once check
#: fails) instead of hanging the run.
NET_ANSWER_TIMEOUT = 10.0
#: Accuracy floors of the learn check: far below any seed's accuracy, they
#: catch broken training, not drift.
OLD_ACC_FLOOR = 0.75
NEW_ACC_FLOOR = 0.25

clock = time.perf_counter


@dataclass
class PhaseResult:
    """Samples, counts and checks of one phase."""

    name: str
    walls: List[float] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    #: Mean probe time around each sample's operation (phases that probe).
    probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    checks: List[Dict[str, object]] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": f"{self.name}.{name}", "ok": bool(ok), "detail": detail})

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def sample(self, wall: float, traced: bool) -> None:
        self.walls.append(wall)
        self.traced.append(traced)

    def samples(self, traced: bool = False) -> List[float]:
        return [w for w, t in zip(self.walls, self.traced) if t == traced]

    def normalised(self) -> List[float]:
        """Every untraced sample rescaled to the reference probe speed."""
        kept = [(w, p) for w, p, t in zip(self.walls, self.probes, self.traced) if not t]
        return speed.normalise([w for w, _ in kept], [p for _, p in kept])


class Tracing:
    """Installs the layer wrappers for the traced rounds."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.active = False

    def start(self) -> None:
        if self.tracer is not None and not self.active:
            layers.install(self.tracer)
            self.active = True

    def stop(self) -> None:
        if self.active:
            self.tracer.unwrap_all()
            self.active = False

    def set_phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def span(self, name: str):
        return self.tracer.span(name) if self.active else nullcontext()

    @contextmanager
    def paused(self):
        """Untimed check work inside a traced phase stays out of the trace."""
        if not self.active:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Phase:
    """One closed-loop phase: ``op(i)`` repeated until a round's budget is
    spent, each op bracketed by speed probes."""

    name = "phase"
    #: A round ends only on a multiple of this many ops.
    cycle = 1
    #: The op runs on the measuring thread alone: pin it to one CPU for the
    #: round and probe that CPU.  Otherwise probe every usable CPU, unpinned.
    pin = True

    def __init__(self, stack: Stack, tracing: Tracing) -> None:
        self.stack = stack
        self.tracing = tracing
        self.result = PhaseResult(self.name)
        self.i = 0
        cpus = speed.usable_cpus()
        self.probe_cpus = cpus[:1] if self.pin else cpus

    def round(self, budget: float) -> None:
        start = clock()
        first = self.i
        with speed.pinned(self.probe_cpus if self.pin else ()):
            before = speed.probe(self.probe_cpus)
            while self.i == first or clock() - start < budget or self.i % self.cycle:
                sampled = len(self.result.walls)
                self.op(self.i)
                self.i += 1
                after = speed.probe(self.probe_cpus)
                if len(self.result.walls) > sampled:
                    self.result.probes.append(0.5 * (before + after))
                before = after

    def op(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> PhaseResult:
        return self.result


# ---------------------------------------------------------------------- #
# learn
# ---------------------------------------------------------------------- #
def learn_check(result: PhaseResult, accuracies: Dict[int, tuple],
                served_equal: Dict[int, bool], repeats_equal: bool) -> None:
    new = [a[0] for a in accuracies.values()]
    old = [a[1] for a in accuracies.values()]
    result.check("accuracy_floor", bool(new) and min(new) >= NEW_ACC_FLOOR and min(old) >= OLD_ACC_FLOOR,
                 f"new {new} (floor {NEW_ACC_FLOOR}), old {old} (floor {OLD_ACC_FLOOR})")
    result.check("serving_client_equals_predict", bool(served_equal) and all(served_equal.values()),
                 f"per cycle slot: {served_equal}")
    result.check("repeat_increment_bit_identical", repeats_equal,
                 "a repeated cycle slot must reproduce its first predictions")


class Learn(Phase):
    name = "learn"

    def __init__(self, stack: Stack, tracing: Tracing) -> None:
        super().__init__(stack, tracing)
        self.first_predictions: Dict[int, np.ndarray] = {}
        self.accuracies: Dict[int, tuple] = {}
        self.served_equal: Dict[int, bool] = {}
        self.repeats_equal = True
        self.phase_seconds: List[Dict[str, float]] = []
        self.epochs: List[int] = []

    def op(self, i: int) -> None:
        stack = self.stack
        slot = i % len(stack.learn_cycle)
        new_train, device_seed = stack.learn_cycle[slot]
        self.result.attempted += 1
        try:
            t = clock()
            learner = stack.package.instantiate_learner(stack.config, seed=device_seed)
            history = learner.learn_new_classes(new_train, stack.scenario.new_validation)
            learner.evaluate(stack.scenario.test)
            wall = clock() - t
        except Exception as exc:  # counted, and the run goes on
            self.result.fail(exc)
            return
        self.result.sample(wall, self.tracing.active)
        self.phase_seconds.append(learner.phase_seconds)
        self.epochs.append(history.epochs_run)
        # Outside the timed region: accuracy split and the output check.
        with self.tracing.paused():
            self.check_slot(slot, learner)

    def check_slot(self, slot: int, learner) -> None:
        from repro.metrics.forgetting import new_class_accuracy, old_class_accuracy
        from repro.serving import serve

        scenario = self.stack.scenario
        test = scenario.test
        predictions = learner.predict(test.features)
        if slot in self.first_predictions:
            if not bit_equal(predictions, self.first_predictions[slot]):
                self.repeats_equal = False
            return
        self.first_predictions[slot] = predictions
        self.accuracies[slot] = (
            new_class_accuracy(test.labels, predictions, scenario.new_classes),
            old_class_accuracy(test.labels, predictions, scenario.old_classes),
        )
        client = serve(learner)
        try:
            self.served_equal[slot] = bit_equal(client.predict(test.features), predictions)
        finally:
            client.close()

    def finish(self) -> PhaseResult:
        learn_check(self.result, self.accuracies, self.served_equal, self.repeats_equal)
        self.result.extra.update(phase_seconds=self.phase_seconds, epochs=self.epochs,
                                 accuracies=self.accuracies)
        return self.result


# ---------------------------------------------------------------------- #
# herd
# ---------------------------------------------------------------------- #
def store_state(learner) -> Dict[str, Dict[int, np.ndarray]]:
    return {
        "exemplars": {c: learner.exemplars.get(c) for c in learner.exemplars.classes},
        "prototypes": {c: learner.prototypes.get(c) for c in learner.prototypes.classes},
    }


def states_equal(a, b) -> bool:
    """Exemplar rows (hence selected indices) and prototypes, bit for bit."""
    return all(
        a[kind].keys() == b[kind].keys()
        and all(bit_equal(a[kind][c], b[kind][c]) for c in a[kind])
        for kind in ("exemplars", "prototypes")
    )


def herd_references(stack: Stack) -> Dict[int, dict]:
    """Serial-backend rebuild per budget of the cycle (done once, untimed)."""
    from repro import PILOTE
    from repro.core.embedding import EmbeddingNetwork

    sharded = stack.herd_learner
    serial = PILOTE(sharded.config, seed=stack.seed)
    serial.model = EmbeddingNetwork(
        sharded.model.input_dim, config=sharded.config, rng=stack.seed
    )
    references = {}
    for budget in HERD_BUDGETS:
        serial.build_support_set(stack.herd_data, per_class=budget)
        references[budget] = store_state(serial)
    return references


class Herd(Phase):
    name = "herd"
    #: Whole budget cycles only: the budgets' rebuild times differ by ~10%,
    #: and an unequal count of each would move the median between them.
    cycle = len(HERD_BUDGETS)
    #: The kernels run in the shard workers, on any CPU.
    pin = False

    def __init__(self, stack: Stack, tracing: Tracing, references: Dict[int, dict]) -> None:
        super().__init__(stack, tracing)
        self.references = references
        self.mismatches: List[int] = []
        self.phase_seconds: List[Dict[str, float]] = []

    def op(self, i: int) -> None:
        learner = self.stack.herd_learner
        per_class = HERD_BUDGETS[i % len(HERD_BUDGETS)]
        self.result.attempted += 1
        try:
            t = clock()
            # In use every rebuild follows a training step, which bumps the
            # model revision; bumping it here makes the pool re-ship the
            # (unchanged) weights as it would then.
            learner._model_revision += 1
            learner.build_support_set(self.stack.herd_data, per_class=per_class)
            wall = clock() - t
        except Exception as exc:
            self.result.fail(exc)
            return
        self.result.sample(wall, self.tracing.active)
        self.phase_seconds.append(learner.phase_seconds)
        if not states_equal(store_state(learner), self.references[per_class]):
            self.mismatches.append(i)

    def finish(self) -> PhaseResult:
        self.result.check("bit_exact_with_serial", not self.mismatches and bool(self.result.walls),
                          f"rebuilds differing from the serial reference: {self.mismatches[:10]}")
        self.result.extra["phase_seconds"] = self.phase_seconds
        return self.result


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def response_problems(requests, responses, batches) -> List[str]:
    """Each response must equal, bit for bit, its request's slice of a direct
    engine call on the batch that carried it.

    ``batches`` holds ``(device_id, windows, expected)`` per executor task,
    ``expected`` being the engine's answer on ``windows``.  A request's
    slice is found by its windows on the device that answered it, so an
    answer swapped between requests or lanes does not match.
    """
    starts: Dict[tuple, list] = {}
    for b, (device_id, windows, _) in enumerate(batches):
        for row in range(windows.shape[0]):
            starts.setdefault((device_id, windows[row].tobytes()), []).append((b, row))
    problems = []
    for request, response in zip(requests, responses):
        features = request.features
        n = features.shape[0]
        expected = None
        for b, row in starts.get((response.device_id, features[0].tobytes()), ()):
            _, windows, answer = batches[b]
            if bit_equal(windows[row:row + n], features):
                expected = answer[row:row + n]
                break
        if expected is None:
            problems.append(f"user {request.user_id}: no batch of device "
                            f"{response.device_id} carried its windows")
        elif not bit_equal(response.class_ids, expected):
            problems.append(f"user {request.user_id}: response differs from the engine")
    if len(responses) != len(requests):
        problems.append(f"{len(requests)} requests, {len(responses)} responses")
    return problems


def serve_check_tick(stack: Stack, requests) -> List[str]:
    """Replay one tick capturing the executor's batches, then hold every
    response to a direct engine call on its batch (``response_problems``)."""
    from repro.backend import precision

    client = stack.serve_client
    executor = client.scheduler.executor
    lanes = client.scheduler.devices
    captured = []
    original = executor.run

    def capture(tasks):
        captured.extend(tasks)
        return original(tasks)

    executor.run = capture
    try:
        futures = client.submit_many(requests)
        client.drain()
        responses = [f.result() for f in futures]
    finally:
        del executor.run
    batches = []
    for task in captured:
        lane = lanes[task.position]
        with precision(lane.serving_dtype):
            expected = lane.engine.predict(task.windows)
        batches.append((lane.device_id, task.windows, expected))
    problems = response_problems(requests, responses, batches)
    if not captured:
        problems.append("no executor batch ran")
    return problems


class Serve(Phase):
    name = "serve"

    def __init__(self, stack: Stack, tracing: Tracing) -> None:
        super().__init__(stack, tracing)
        self.windows: List[int] = []   # windows answered in each tick

    def op(self, i: int) -> None:
        client = self.stack.serve_client
        span = self.tracing.span
        requests = self.stack.traffic.tick(i + 1)
        self.result.attempted += len(requests)
        t = clock()
        with span("serving.submit"):
            futures = client.submit_many(requests)
        with span("serving.drain"):
            client.drain()
        answered = 0
        with span("serving.result"):
            for future in futures:
                try:
                    answered += future.result().class_ids.shape[0]
                except Exception as exc:
                    self.result.fail(exc)
        wall = clock() - t
        self.result.sample(wall, self.tracing.active)
        self.windows.append(answered)

    def finish(self) -> PhaseResult:
        problems = []
        for k in range(2):
            problems += serve_check_tick(self.stack, self.stack.traffic.tick(10**6 + k))
        self.result.check("responses_equal_engine", not problems, "; ".join(problems[:5]))
        report = self.stack.serve_client.report()
        self.result.extra.update(
            windows=self.windows,
            max_queue_depth=max((s.max_queue_depth for s in report.per_device.values()), default=0),
        )
        return self.result


# ---------------------------------------------------------------------- #
# net
# ---------------------------------------------------------------------- #
class Net(Phase):
    """Open-loop schedule segment, then a closed-loop segment, per round."""

    name = "net"

    def __init__(self, stack: Stack, tracing: Tracing) -> None:
        super().__init__(stack, tracing)
        self.offset = 0.0       # schedule seconds consumed by earlier rounds
        self.outcomes: Dict[int, str] = {}
        self.duplicates: List[int] = []
        self.late_ms: List[float] = []
        self.traced_intervals: List[tuple] = []
        self.traced_requests = 0
        self.sync_traced: Dict[str, int] = {}
        self.writes = 0
        self.last_device = 0
        self.closed = {"sent": 0, "answered": 0, "typed": 0, "untyped": 0}
        self.closed_rps: List[float] = []    # answered/s of each closed segment

    def round(self, budget: float) -> None:
        loop = self.stack.loop
        loop.run_until_complete(self._open(budget * NET_OPEN_SHARE))
        with self.tracing.paused():
            loop.run_until_complete(self._closed(budget * (1.0 - NET_OPEN_SHARE)))

    def _settle(self, rid: int, outcome: str) -> None:
        if rid in self.outcomes:
            self.duplicates.append(rid)
        self.outcomes[rid] = outcome

    async def _request(self, rid: int, due: float, traced: bool) -> None:
        from repro.exceptions import ServingError

        stack = self.stack
        schedule = stack.schedule
        connection = stack.net_connections[rid % len(stack.net_connections)]
        try:
            response = await asyncio.wait_for(connection.predict(
                int(schedule.users[rid]), stack.scenario.test.features[schedule.rows[rid]]
            ), NET_ANSWER_TIMEOUT)
        except ServingError as exc:
            self._settle(rid, type(exc).__name__)
            return
        except Exception as exc:  # untyped: the exactly-once check fails
            self._settle(rid, f"untyped:{type(exc).__name__}")
            return
        done = clock()
        self._settle(rid, "answered")
        self.last_device = int(response.device_id)
        self.result.sample(done - due, traced)
        if traced and self.tracing.active:
            self.traced_intervals.append((due, done))
            self.tracing.tracer.record("load.request", due, done, rid=rid)

    def _refine(self, device_id: int, k: int) -> None:
        stack = self.stack
        schedule = stack.schedule
        classes = list(stack.scenario.old_classes)
        device = stack.net_fleet.device(device_id)
        with device.edge.precision():
            device.learner.refine_prototype(
                classes[int(schedule.write_classes[k]) % len(classes)],
                stack.scenario.test.features[schedule.write_rows[k]],
            )

    async def _write(self, k: int) -> None:
        self.writes += 1
        self.result.attempted += 1
        bridge = self.stack.net_server.bridge
        try:
            # The bridge's pump thread serialises every scheduler touch; the
            # write takes its turn there, beside the reads.
            await asyncio.get_running_loop().run_in_executor(
                bridge._thread, self._refine, self.last_device, k
            )
        except Exception as exc:
            self.result.fail(exc)

    async def _open(self, budget: float) -> None:
        loop = asyncio.get_running_loop()
        due_offsets = self.stack.schedule.due
        client = self.stack.net_server.bridge.client
        traced = self.tracing.active
        sync_before = dict(client.sync_stats() or {})
        first = int(np.searchsorted(due_offsets, self.offset))
        last = int(np.searchsorted(due_offsets, self.offset + budget))
        if last >= due_offsets.shape[0]:
            raise RuntimeError("the open-loop schedule is shorter than the run")
        start = clock()
        tasks = []
        for rid in range(first, last):
            due = start + float(due_offsets[rid]) - self.offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append((clock() - due) * 1e3)
            tasks.append(loop.create_task(self._request(rid, due, traced)))
            if rid % NET_WRITE_EVERY == NET_WRITE_EVERY - 1:
                tasks.append(loop.create_task(self._write(rid // NET_WRITE_EVERY)))
        await asyncio.gather(*tasks)
        self.offset += budget
        self.result.attempted += last - first
        if traced:
            self.traced_requests += last - first
            for key, value in (client.sync_stats() or {}).items():
                self.sync_traced[key] = self.sync_traced.get(key, 0) + value - sync_before.get(key, 0)

    async def _closed(self, budget: float) -> None:
        from repro.exceptions import ServingError

        stack = self.stack
        schedule = stack.schedule
        pool = stack.scenario.test.features
        connections = stack.net_connections
        counts = self.closed
        n_users = schedule.closed_users.shape[0]
        deadline = clock() + budget

        async def worker(connection, k: int) -> None:
            j = k
            while clock() < deadline:
                counts["sent"] += 1
                try:
                    await asyncio.wait_for(
                        connection.predict(int(schedule.closed_users[j % n_users]),
                                           pool[schedule.closed_rows[j % n_users]]),
                        NET_ANSWER_TIMEOUT,
                    )
                    counts["answered"] += 1
                except ServingError:
                    counts["typed"] += 1
                except Exception:
                    counts["untyped"] += 1
                j += NET_CLOSED_INFLIGHT * len(connections)

        answered = counts["answered"]
        start = clock()
        await asyncio.gather(*[
            worker(connection, c * NET_CLOSED_INFLIGHT + k)
            for c, connection in enumerate(connections)
            for k in range(NET_CLOSED_INFLIGHT)
        ])
        self.closed_rps.append((counts["answered"] - answered) / (clock() - start))

    def finish(self) -> PhaseResult:
        result = self.result
        sent = result.attempted - self.writes
        failures = [rid for rid, o in self.outcomes.items() if o != "answered"]
        untyped = [rid for rid, o in self.outcomes.items() if o.startswith("untyped")]
        result.failed += len(failures)
        result.check(
            "open_loop_exactly_once",
            len(self.outcomes) == sent and not self.duplicates and not untyped,
            f"sent {sent}, settled {len(self.outcomes)}, duplicates {self.duplicates[:5]}, "
            f"untyped {untyped[:5]}",
        )
        counts = self.closed
        result.attempted += counts["sent"]
        result.failed += counts["typed"] + counts["untyped"]
        result.check(
            "closed_loop_exactly_once",
            counts["sent"] == counts["answered"] + counts["typed"] and not counts["untyped"],
            str(counts),
        )
        stats = self.stack.loop.run_until_complete(
            asyncio.wait_for(self.stack.net_connections[0].stats(), NET_ANSWER_TIMEOUT)
        )
        server = stats["server"]
        result.check(
            "server_stats_balance",
            server["received"] == server["answered"] + server["failed"],
            f"received {server['received']}, answered {server['answered']}, "
            f"failed {server['failed']}",
        )
        result.extra.update(
            closed_rps=self.closed_rps,
            closed_counts=counts,
            late_ms=self.late_ms,
            traced_requests=self.traced_requests,
            request_intervals=self.traced_intervals,
            sync_traced=self.sync_traced,
            server_stats={k: server[k] for k in ("received", "answered", "failed")},
        )
        return result


def run_rounds(stack: Stack, seconds: float, tracing: Tracing) -> Dict[str, PhaseResult]:
    """All phases in ``ROUNDS`` interleaved rounds; the traced half last."""
    phases = [Learn(stack, tracing), Herd(stack, tracing, herd_references(stack)),
              Serve(stack, tracing), Net(stack, tracing)]
    for r in range(ROUNDS):
        if tracing.tracer is not None and r == ROUNDS // 2:
            tracing.start()
        for phase in phases:
            tracing.set_phase(phase.name)
            # Garbage one phase leaves must not be collected inside the next.
            gc.collect()
            phase.round(seconds * PHASE_SHARES[phase.name] / ROUNDS)
    tracing.stop()
    return {phase.name: phase.finish() for phase in phases}


# ---------------------------------------------------------------------- #
# per-layer metrics of a traced run
# ---------------------------------------------------------------------- #
def overhead(result: PhaseResult) -> float:
    plain, traced = result.samples(False), result.samples(True)
    if not plain or not traced:
        return 0.0
    return median(traced) / median(plain) - 1.0


def per_layer_metrics(tracer: Tracer, results: Dict[str, PhaseResult],
                      setup: Dict[str, float], attempted: int, failed: int) -> Dict[str, float]:
    m: Dict[str, float] = {}
    learn, herd, serve, net = (results[k] for k in ("learn", "herd", "serve", "net"))

    # learn: per traced increment
    walls = learn.samples(True)
    n = max(1, len(walls))
    traced_idx = [i for i, t in enumerate(learn.traced) if t]
    ps = [learn.extra["phase_seconds"][i] for i in traced_idx]
    m["autodiff.ops"] = tracer.calls("learn", "autodiff.apply") / n
    m["nn.fit_s"] = tracer.busy("learn", "nn.fit") / n
    m["nn.optimizer_steps"] = tracer.calls("learn", "nn.optimizer_step") / n
    m["core.training_s"] = sum(p.get("training", 0.0) for p in ps) / n
    m["core.epochs"] = sum(learn.extra["epochs"][i] for i in traced_idx) / n
    m["coverage.learn"] = (
        sum(sum(p.get(k, 0.0) for k in ("training", "herding", "prototype_refresh")) for p in ps)
        / sum(walls) if walls else 0.0
    )

    # herd: per traced rebuild
    n = max(1, len(herd.samples(True)))
    hps = [p for p, t in zip(herd.extra["phase_seconds"], herd.traced) if t]
    m["core.herding_s"] = sum(p.get("herding", 0.0) for p in hps) / n
    m["core.prototype_refresh_s"] = sum(p.get("prototype_refresh", 0.0) for p in hps) / n
    m["backend.collective_calls"] = tracer.calls("herd", "backend.collective") / n
    m["backend.collective_s"] = tracer.busy("herd", "backend.collective") / n
    m["backend.broadcast_s"] = tracer.busy("herd", "backend.broadcast") / n
    m["backend.collective_bytes"] = tracer.amount("herd", "backend.collective_bytes") / n

    # serve: per traced tick
    walls = serve.samples(True)
    n = max(1, len(walls))
    kernels = ("backend.pairwise_distances", "backend.grouped_means")
    m["backend.kernel_calls"] = sum(tracer.calls("serve", k) for k in kernels) / n
    m["backend.kernel_s"] = sum(tracer.busy("serve", k) for k in kernels) / n
    m["edge.engine_calls"] = tracer.calls("serve", "edge.engine") / n
    m["edge.engine_rows"] = tracer.amount("serve", "edge.engine_rows") / n
    m["edge.engine_s"] = tracer.busy("serve", "edge.engine") / n
    submit = tracer.busy("serve", "serving.submit")
    drain = tracer.busy("serve", "serving.drain")
    executor = tracer.busy("serve", "serving.executor")
    result_s = tracer.busy("serve", "serving.result")
    m["serving.submit_s"] = submit / n
    m["serving.drain_s"] = drain / n
    m["serving.executor_s"] = executor / n
    m["serving.scheduler_self_s"] = (drain - executor) / n
    m["serving.result_s"] = result_s / n
    batches = tracer.amount("serve", "serving.executor_batches")
    m["serving.batch_windows"] = (
        tracer.amount("serve", "serving.batch_windows") / batches if batches else 0.0
    )
    m["serving.max_queue_depth"] = float(serve.extra["max_queue_depth"])
    m["fleet.traffic_gen_s"] = tracer.busy("serve", "fleet.traffic_gen") / n
    m["coverage.serve"] = (submit + drain + result_s) / sum(walls) if walls else 0.0

    # net: per traced open-loop request
    n = max(1, net.extra["traced_requests"])
    sync = net.extra["sync_traced"]
    m["serving.executor_batches"] = tracer.amount("net", "serving.executor_batches") / n
    m["serving.sync_bytes"] = sync.get("bytes_shipped", 0) / n
    m["serving.full_syncs"] = sync.get("full_syncs", 0) / n
    m["serving.delta_syncs"] = sync.get("delta_syncs", 0) / n
    m["edge.snapshot_calls"] = tracer.calls("net", "edge.snapshot") / n
    m["edge.snapshot_bytes"] = tracer.amount("net", "edge.snapshot_bytes") / n
    m["server.frames"] = tracer.amount("net", "server.frames") / n
    m["server.wire_bytes"] = tracer.amount("net", "server.wire_bytes") / n
    m["server.encode_s"] = (tracer.busy("net", "server.encode_frame")
                            + tracer.busy("net", "server.encode_message")) / n
    m["server.decode_s"] = tracer.busy("net", "server.decode") / n
    m["server.bridge_submit_s"] = tracer.busy("net", "server.bridge_submit") / n
    late = net.extra["late_ms"]
    m["load.late_ms"] = sum(late) / len(late) if late else 0.0
    m["coverage.net"] = net_coverage(tracer, net.extra["request_intervals"])

    # set-up: medians over the run's set-ups
    for name, key in (("setup.import_s", "import"), ("setup.data_s", "data"),
                      ("setup.pretrain_s", "pretrain"), ("fleet.provision_s", "provision"),
                      ("fleet.deploy_s", "deploy"), ("fleet.deploy_bytes", "deploy_bytes"),
                      ("setup.pool_spawn_s", "pool_spawn"), ("setup.warmup_s", "warmup")):
        m[name] = setup[key]

    m["error_rate"] = failed / attempted if attempted else 0.0
    for phase, res in (("learn", learn), ("herd", herd), ("serve", serve), ("net", net)):
        m[f"trace.overhead_{phase}"] = overhead(res)
    return m


def net_coverage(tracer: Tracer, request_intervals) -> float:
    """Share of the time some request is outstanding during which a
    ``server.*`` or ``serving.*`` span is running (any thread)."""
    if not request_intervals:
        return 0.0
    merged = []
    for a, b in sorted(request_intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    spans = [(s.start, s.end) for s in tracer.spans
             if s.phase == "net" and s.layer in ("server", "serving")]
    outstanding = sum(b - a for a, b in merged)
    covered = sum(covered_length(spans, a, b) for a, b in merged)
    return covered / outstanding if outstanding else 0.0
