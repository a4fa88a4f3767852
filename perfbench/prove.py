"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10 [--workloads fewshot full]
                               [--first-seed 1] [--write perfbench/results/baseline.json]

For every workload the benchmark is run once per seed (``--seconds`` from
``BENCHMARK.json``, untraced), and every end-to-end metric is summarised as
median, quartiles and quartile spread (``statistics.quantiles(values, n=4)``,
spread = (q3 - q1) / median).  A spread at or above a third of the metric's
bound is flagged (``setup_s`` excepted: its runs' median is what is held to
the bound); the ungated net metrics and the raw wall-time values of the
speed-normalised timings are summarised from each run's record.
``--write`` stores the summary with the machine it ran on; results from
different machines are never compared.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

# The runs pin BLAS themselves; pinning here too makes the machine record
# written below show the settings they ran with.
harness.pin_blas_threads()


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds.")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    flagged = []
    for workload in args.workloads:
        values: dict = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, 0)
            walls.append(time.perf_counter() - start)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: output check failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            # The run's full record also holds the ungated net metrics and
            # the raw wall-time values of the speed-normalised timings.
            record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
            for name, entry in record["ungated"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, entry in record["raw_wall"].items():
                values.setdefault(f"raw_wall.{name}", []).append(entry["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall", flush=True)
        rows = {}
        for name, series in values.items():
            stats = harness.spread_summary(series)
            stats["bound"] = bounds.get(name)
            stats["values"] = series
            rows[name] = stats
            mark = ""
            if name in bounds and name != "setup_s" and stats["spread"] >= bounds[name] / 3:
                mark = "  <-- spread >= bound/3"
                flagged.append(f"{workload}.{name}")
            print(f"  {name:<18} median {stats['median']:>12.6g}  q1 {stats['q1']:>12.6g}  "
                  f"q3 {stats['q3']:>12.6g}  spread {stats['spread']:.4f}  "
                  f"bound {bounds.get(name, 'ungated')}{mark}")
        summary[workload] = {"metrics": rows, "run_wall_s": walls,
                             "seeds": list(range(args.first_seed, args.first_seed + args.runs))}
    if args.write:
        record = {
            "seconds": args.seconds,
            "runs": args.runs,
            "machine": harness.machine_info(ROOT, harness.default_start_method()),
            "workloads": summary,
        }
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    if flagged:
        print("spread at or above a third of the bound: " + ", ".join(flagged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
