"""Which entry point of which layer the traced run wraps, and what each
per-layer metric predicts.

Every wrapped callable is looked up through its module or class at install
time, so the trace follows the program as it is, with nothing inside
``src/`` changed.  ``MOVES`` records, before anything is measured, which
end-to-end metric each per-layer metric should move and in which phase it is
measured (its *home* phase); per-layer values are normalised per operation
of that phase.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from tracing import Tracer

#: per-layer metric -> (home phase, end-to-end metrics it should move, note)
MOVES: Dict[str, Tuple[str, str, str]] = {
    "autodiff.ops": ("learn", "increment_p50_s increment_tail_s serve_wps",
                     "registry apply calls per increment; serve's embed dispatches through the registry too"),
    "nn.fit_s": ("learn", "increment_p50_s increment_tail_s", "Trainer.fit seconds per increment"),
    "nn.optimizer_steps": ("learn", "increment_p50_s increment_tail_s", "optimizer steps per increment"),
    "core.training_s": ("learn", "increment_p50_s increment_tail_s", "phase_seconds['training'] per increment"),
    "core.epochs": ("learn", "increment_p50_s increment_tail_s", "epochs run per increment"),
    "core.herding_s": ("herd", "rebuild_p50_s rebuild_tail_s", "phase_seconds['herding'] per rebuild; ~1% of an increment on learn, predicted no change there"),
    "core.prototype_refresh_s": ("herd", "rebuild_p50_s rebuild_tail_s", "phase_seconds['prototype_refresh'] per rebuild"),
    "backend.collective_calls": ("herd", "rebuild_p50_s rebuild_tail_s", "ProcessCollectives.run calls per rebuild"),
    "backend.collective_s": ("herd", "rebuild_p50_s rebuild_tail_s", "seconds inside ProcessCollectives.run per rebuild"),
    "backend.broadcast_s": ("herd", "rebuild_p50_s rebuild_tail_s", "seconds inside broadcast_model per rebuild"),
    "backend.collective_bytes": ("herd", "rebuild_p50_s rebuild_tail_s",
                                 "bytes per rebuild, computed from the nbytes of the ndarrays in the payloads sent and results returned (not measured on the pipe)"),
    "backend.kernel_calls": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "pairwise_distances + grouped_means calls per tick"),
    "backend.kernel_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "seconds in those kernels per tick"),
    "edge.engine_calls": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "InferenceEngine.predict calls per tick"),
    "edge.engine_rows": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "windows through the engine per tick"),
    "edge.engine_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "engine seconds per tick"),
    "serving.submit_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "submit_many seconds per tick"),
    "serving.drain_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "drain seconds per tick"),
    "serving.executor_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "Executor.run seconds per tick"),
    "serving.scheduler_self_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "drain minus executor, per tick"),
    "serving.result_s": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "result() materialisation seconds per tick"),
    "serving.batch_windows": ("serve", "serve_wps tick_p50_ms tick_tail_ms", "mean windows per executor batch"),
    "serving.max_queue_depth": ("serve", "tick_p50_ms tick_tail_ms", "deepest lane queue over the phase"),
    "fleet.traffic_gen_s": ("serve", "none", "TrafficGenerator.tick seconds per tick, outside the timed tick: shows load generation is not the bottleneck"),
    "serving.executor_batches": ("net", "net_rps net_p50_ms net_tail_ms", "executor batches per request"),
    "serving.sync_bytes": ("net", "net_rps net_p50_ms net_tail_ms", "snapshot bytes shipped to the worker per request (sync_stats)"),
    "serving.full_syncs": ("net", "net_rps net_p50_ms net_tail_ms", "full snapshot syncs per request"),
    "serving.delta_syncs": ("net", "net_rps net_p50_ms net_tail_ms", "delta snapshot syncs per request"),
    "edge.snapshot_calls": ("net", "net_rps net_p50_ms net_tail_ms", "state_snapshot calls per request"),
    "edge.snapshot_bytes": ("net", "net_rps net_p50_ms net_tail_ms", "snapshot nbytes built per request"),
    "server.frames": ("net", "net_rps net_p50_ms net_tail_ms", "frames encoded per request (both ends)"),
    "server.wire_bytes": ("net", "net_rps net_p50_ms net_tail_ms", "encoded frame bytes per request"),
    "server.encode_s": ("net", "net_rps net_p50_ms net_tail_ms", "wire encode seconds per request"),
    "server.decode_s": ("net", "net_rps net_p50_ms net_tail_ms", "wire decode seconds per request"),
    "server.bridge_submit_s": ("net", "net_rps net_p50_ms net_tail_ms", "bridge submit_spec seconds per request"),
    "load.late_ms": ("net", "net_p50_ms net_tail_ms", "mean lateness of the open-loop generator"),
    "net_rps": ("net", "none", "ungated end-to-end view: closed-loop capacity, median over segments"),
    "net_p50_ms": ("net", "none", "ungated end-to-end view: open-loop latency from due time, untraced rounds"),
    "net_tail_ms": ("net", "none", "ungated end-to-end view: its tail (highest percentile with ten samples beyond)"),
    "setup.import_s": ("setup", "setup_s", "cold import repro, process start included (median of the run's cold set-ups)"),
    "setup.data_s": ("setup", "setup_s", "data generation"),
    "setup.pretrain_s": ("setup", "setup_s", "cloud pretrain + TransferPackage export"),
    "fleet.provision_s": ("setup", "setup_s", "provision of both fleets"),
    "fleet.deploy_s": ("setup", "setup_s", "package deploy to both fleets"),
    "fleet.deploy_bytes": ("setup", "setup_s", "deploy bytes (TransferLedger)"),
    "setup.pool_spawn_s": ("setup", "setup_s", "shard pool + executor worker + server start"),
    "setup.warmup_s": ("setup", "setup_s", "one serve tick and one net request per lane bucket"),
    "error_rate": ("all", "all", "operations failed over attempted, whole traced run"),
    "coverage.learn": ("learn", "increment_p50_s", "(training + herding + prototype refresh) / increment wall"),
    "coverage.serve": ("serve", "tick_p50_ms", "(submit + drain + result spans) / tick wall; drain = scheduler self + executor"),
    "coverage.net": ("net", "net_p50_ms", "time some server.*/serving.* span runs while a request is outstanding / time any request is outstanding"),
    "trace.overhead_learn": ("learn", "none", "traced / untraced increment median - 1"),
    "trace.overhead_herd": ("herd", "none", "traced / untraced rebuild median - 1"),
    "trace.overhead_serve": ("serve", "none", "traced / untraced tick median - 1"),
    "trace.overhead_net": ("net", "none", "traced / untraced open-loop latency median - 1"),
}


def _array_bytes(value) -> int:
    """nbytes of every ndarray inside nested tuples/lists/dicts."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    if isinstance(value, dict):
        return sum(_array_bytes(v) for v in value.values())
    return 0


def _collective_measure(args, kwargs, result):
    payloads = args[2] if len(args) > 2 else kwargs.get("payloads", ())
    return {"backend.collective_bytes": _array_bytes(list(payloads)) + _array_bytes(result)}


def _executor_measure(args, kwargs, result):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    return {
        "serving.executor_batches": len(tasks),
        "serving.batch_windows": sum(int(np.asarray(t.windows).shape[0]) for t in tasks),
    }


def _rows_measure(args, kwargs, result):
    return {"edge.engine_rows": int(np.asarray(result).shape[0])}


def _snapshot_measure(args, kwargs, result):
    return {"edge.snapshot_bytes": int(result.nbytes)}


def _frame_measure(args, kwargs, result):
    return {"server.frames": 1, "server.wire_bytes": len(result)}


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point (undone by ``tracer.unwrap_all()``)."""
    from repro.autodiff import ops as autodiff_ops
    from repro.autodiff import tensor as autodiff_tensor
    from repro.backend import registry
    from repro.backend.backend import NumpyBackend
    from repro.backend.collectives import ProcessCollectives
    from repro.backend.sharded import ShardedBackend
    from repro.core.pilote import PILOTE
    from repro.edge.inference import InferenceEngine
    from repro.edge.transfer import TransferPackage
    from repro.fleet.traffic import TrafficGenerator
    from repro.nn import optim
    from repro.nn.trainer import Trainer
    from repro.server import wire
    from repro.server.bridge import AsyncServingClient
    from repro.serving.executor import ProcessExecutor, SerialExecutor

    # autodiff: the op registry, bound by name in the modules that dispatch
    for module, attr in ((autodiff_tensor, "_apply"), (autodiff_ops, "_apply"),
                         (registry, "apply")):
        tracer.wrap(module, attr, "autodiff.apply", leaf=True)
    # nn
    tracer.wrap(Trainer, "fit", "nn.fit")
    for optimizer in (optim.Adam, optim.SGD):
        tracer.wrap(optimizer, "step", "nn.optimizer_step", leaf=True)
    # core
    tracer.wrap(PILOTE, "learn_new_classes", "core.learn_new_classes")
    tracer.wrap(PILOTE, "build_support_set", "core.build_support_set")
    tracer.wrap(PILOTE, "evaluate", "core.evaluate")
    # backend
    tracer.wrap(NumpyBackend, "pairwise_distances", "backend.pairwise_distances")
    tracer.wrap(NumpyBackend, "grouped_means", "backend.grouped_means")
    tracer.wrap(ShardedBackend, "grouped_means", "backend.grouped_means")
    tracer.wrap(ProcessCollectives, "run", "backend.collective", measure=_collective_measure)
    tracer.wrap(ProcessCollectives, "broadcast_model", "backend.broadcast")
    # edge
    tracer.wrap(TransferPackage, "instantiate_learner", "edge.instantiate_learner")
    tracer.wrap(InferenceEngine, "predict", "edge.engine", measure=_rows_measure)
    tracer.wrap(InferenceEngine, "state_snapshot", "edge.snapshot", measure=_snapshot_measure)
    # serving
    tracer.wrap(SerialExecutor, "run", "serving.executor", measure=_executor_measure)
    tracer.wrap(ProcessExecutor, "run", "serving.executor", measure=_executor_measure)
    # fleet
    tracer.wrap(TrafficGenerator, "tick", "fleet.traffic_gen")
    # server: wire codec and bridge
    tracer.wrap(wire, "encode_frame", "server.encode_frame", measure=_frame_measure)
    for attr in ("predict_frame", "response_frame"):
        tracer.wrap(wire, attr, "server.encode_message")
    for attr in ("decode_predict", "decode_response"):
        tracer.wrap(wire, attr, "server.decode")
    tracer.wrap(AsyncServingClient, "submit_spec", "server.bridge_submit")
    # The pump thread's one scheduler interaction (stamp, submit, drain).
    tracer.wrap(AsyncServingClient, "_pump_step", "server.bridge_pump")
