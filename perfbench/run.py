"""PILOTE end-to-end, per-layer benchmark.

One run stands the whole stack up from a cold start and measures four
phases of it in turn — ``learn`` (edge increment), ``herd`` (cloud
support-set rebuild on the shard pool), ``serve`` (pooled million-device
fleet) and ``net`` (loopback socket server).  The workload names the
increment the edge device learns (``fewshot``: 50 new-class samples;
``full``: the whole new-class split).

    python3 perfbench/run.py --workload fewshot --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric (the learn, herd and serve
timings rescaled to a reference host speed by the probes of ``speed.py``,
with their raw wall-time values beside them); ``--trace 1`` runs the same
phases, each half untraced and half with every layer's entry points
wrapped, and prints every per-layer metric (also writing a Chrome trace
that Perfetto opens).  ``--workload all`` runs each workload in its own process.
Each run prints a table (metric, value, unit, sample count), writes its
full record under ``perfbench/out/``, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints ``correct: false`` with no metrics and exits 1; a checkout
without ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (stdlib only: numpy is not loaded yet)

harness.pin_blas_threads()

#: Cold set-ups per run; ``setup_s`` is their median.  Each is process
#: start to the first timed operation: the measuring process's own, and
#: the others in fresh ``run.py --setup-only`` processes after the phases.
COLD_SETUPS = 3
WORKLOAD_NAMES = ("fewshot", "full")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build the stack, print its set-up timings as JSON, exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process (each pays its own cold start)."""
    status = 0
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}", flush=True)
        code = subprocess.call([
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = status or code
    return status


def _put(metrics, name, value, unit, n, percentile=None):
    entry = {"value": value, "unit": unit, "n": n}
    if percentile is not None:
        entry["percentile"] = percentile
    metrics[name] = entry


def net_metrics(net) -> dict:
    """The net phase's latency and capacity, from untraced requests only.

    Not gated: on a shared 2-vCPU host they swing by 40% (p50, capacity) to
    several times (tail) between runs minutes apart, far past the largest
    bound a gated metric may have, so ``BENCHMARK.json`` lists them among
    the per-layer metrics.
    """
    metrics = {}
    _put(metrics, "net_rps", harness.median(net.extra["closed_rps"]), "req/s",
         len(net.extra["closed_rps"]))
    lat = harness.timing_summary([w * 1e3 for w in net.samples(traced=False)])
    _put(metrics, "net_p50_ms", lat["p50"], "ms", lat["n"], 50)
    _put(metrics, "net_tail_ms", lat["tail"], "ms", lat["n"], lat["tail_percentile"])
    return metrics


def timing_metrics(results, normalised: bool) -> dict:
    """Learn, herd and serve timings of the untraced operations, either
    rescaled to the reference probe speed or as raw wall time."""
    learn, herd, serve = (results[k] for k in ("learn", "herd", "serve"))

    def walls(result):
        return result.normalised() if normalised else result.samples(traced=False)

    metrics: dict = {}
    inc = harness.timing_summary(walls(learn))
    _put(metrics, "increment_p50_s", inc["p50"], "s", inc["n"], 50)
    _put(metrics, "increment_tail_s", inc["tail"], "s", inc["n"], inc["tail_percentile"])
    reb = harness.timing_summary(walls(herd))
    _put(metrics, "rebuild_p50_s", reb["p50"], "s", reb["n"], 50)
    _put(metrics, "rebuild_tail_s", reb["tail"], "s", reb["n"], reb["tail_percentile"])
    ticks = walls(serve)
    windows = [n for n, t in zip(serve.extra["windows"], serve.traced) if not t]
    _put(metrics, "serve_wps", harness.median([n / w for n, w in zip(windows, ticks)]),
         "windows/s", len(ticks))
    tick = harness.timing_summary([w * 1e3 for w in ticks])
    _put(metrics, "tick_p50_ms", tick["p50"], "ms", tick["n"], 50)
    _put(metrics, "tick_tail_ms", tick["tail"], "ms", tick["n"], tick["tail_percentile"])
    return metrics


def end_to_end_metrics(results, setup_totals, accuracies) -> dict:
    metrics: dict = {}
    _put(metrics, "setup_s", harness.median(setup_totals), "s", len(setup_totals))
    _put(metrics, "peak_rss_mb", harness.peak_rss_mb(), "MB", 1)
    _put(metrics, "new_class_acc", sum(a[0] for a in accuracies) / len(accuracies), "ratio",
         len(accuracies))
    _put(metrics, "old_class_acc", sum(a[1] for a in accuracies) / len(accuracies), "ratio",
         len(accuracies))
    metrics.update(timing_metrics(results, normalised=True))
    return metrics


def cold_setup(args) -> dict:
    """One set-up in a fresh process: its total and its stages."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_only(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the cold import is part of set-up)

    import system

    import_seconds = time.perf_counter() - _PROCESS_START
    stack = system.build_stack(args.workload, args.seed, import_seconds=import_seconds)
    total = time.perf_counter() - _PROCESS_START
    stages = dict(stack.timings, deploy_bytes=stack.deploy_bytes)
    stack.close()
    print(json.dumps({"total": total, "stages": stages}), flush=True)
    return 0


def measure(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the cold import is part of set-up)

    import layers
    import phases
    import speed
    import system
    from tracing import Tracer

    import_seconds = time.perf_counter() - _PROCESS_START
    tracer = Tracer() if args.trace else None
    tracing = phases.Tracing(tracer)
    results: dict = {}
    stack = None
    try:
        stack = system.build_stack(args.workload, args.seed, import_seconds=import_seconds)
        # This process's set-up: process start to the first timed operation.
        setups = [{"total": time.perf_counter() - _PROCESS_START,
                   "stages": dict(stack.timings, deploy_bytes=stack.deploy_bytes)}]
        results = phases.run_rounds(stack, args.seconds, tracing)
    finally:
        tracing.stop()
        if stack is not None:
            stack.close()
    setups += [cold_setup(args) for _ in range(COLD_SETUPS - 1)]
    setup_totals = [s["total"] for s in setups]
    setup_runs = [s["stages"] for s in setups]

    checks = [c for r in results.values() for c in r.checks]
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    failures = harness.check_failures(checks)
    setup_medians = {
        key: harness.median([run[key] for run in setup_runs]) for key in setup_runs[0]
    }
    accuracies = list(results["learn"].extra["accuracies"].values())
    declared = harness.declared_metrics(ROOT, "per_layer" if args.trace else "end_to_end")
    ungated = {} if failures else net_metrics(results["net"])
    raw_wall = {} if failures else timing_metrics(results, normalised=False)
    if failures:
        metrics = {}
    elif args.trace:
        values = phases.per_layer_metrics(tracer, results, setup_medians, attempted, failed)
        metrics = {name: {"value": value, "unit": declared[name]}
                   for name, value in values.items()}
        metrics.update(ungated)
    else:
        metrics = end_to_end_metrics(results, setup_totals, accuracies)
    if metrics and (metrics.keys() != declared.keys()
                    or any(metrics[k]["unit"] != declared[k] for k in declared)):
        raise RuntimeError("measured metrics do not match BENCHMARK.json")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.machine_info(ROOT, harness.default_start_method()),
        "checks": checks,
        "errors": {k: r.errors for k, r in results.items() if r.errors},
        "attempted": attempted,
        "failed": failed,
        "setup_totals_s": setup_totals,
        "setup_stages_s": setup_runs,
        "metrics": metrics,
        "ungated": ungated,
        "raw_wall": raw_wall,
        "probe_s": {k: results[k].probes for k in ("learn", "herd", "serve")},
        "reference_probe_s": speed.REFERENCE_PROBE_S,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["self_seconds_by_phase_and_layer"] = tracer.self_seconds_by_layer()
        record["moves"] = {k: {"home": v[0], "moves": v[1], "note": v[2]}
                           for k, v in layers.MOVES.items()}
        tracer.write_chrome_trace(out_dir / f"{stem}.chrome-trace.json")
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {json.dumps({k: record['machine'][k] for k in ('usable_cores', 'python', 'numpy', 'mp_start_method')})}")
    for line in harness.format_table(metrics):
        print(line)
    if not args.trace:
        for line in harness.format_table(ungated):
            print(line + "  (ungated)")
        for line in harness.format_table(raw_wall):
            print(line + "  (raw wall time, ungated)")
    if tracer is not None:
        for phase, layer_map in record["self_seconds_by_phase_and_layer"].items():
            shares = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(layer_map.items()))
            print(f"  self time [{phase}]: {shares}")
    for message in failures:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    print(harness.result_line(not failures, attempted, failed, metrics), flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no PILOTE sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    try:
        return measure(args)
    except Exception:
        traceback.print_exc()
        print(harness.result_line(False, 1, 1, {}), flush=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
