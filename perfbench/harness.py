"""Statistics, machine facts and result records shared by every phase.

Nothing here imports numpy or ``repro``: ``run.py`` pins the BLAS thread
variables before numpy loads, and the self-tests exercise this module on its
own.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: BLAS/OpenMP thread variables pinned to one thread before numpy loads.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: A timing's tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_SAMPLES_BEYOND = 10


def pin_blas_threads() -> None:
    """Pin every BLAS pool to one thread; must run before numpy is imported."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``percentile`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    Under the nearest-rank rule the sample at percentile ``p`` has rank
    ``ceil(p * n / 100)``, so ten samples lie beyond it while
    ``p <= 100 * (n - 10) / n``.  Below 20 samples that bound falls under the
    median; the median is reported then, and the recorded percentile (50)
    says that no true tail was measurable.
    """
    if n_samples <= 0:
        raise ValueError("no samples")
    bound = math.floor(100.0 * (n_samples - TAIL_SAMPLES_BEYOND) / n_samples)
    return max(50, bound)


def timing_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, tail (with its percentile) and sample count of one timing."""
    tail_pct = tail_percentile(len(samples))
    return {
        "p50": nearest_rank(samples, 50.0),
        "tail": nearest_rank(samples, tail_pct),
        "tail_percentile": tail_pct,
        "n": len(samples),
    }


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def spread_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and quartile spread (as a share of the median)
    of one metric over several runs, the way the acceptance check reads
    them (``statistics.quantiles(values, n=4)``)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
        "n_runs": len(values),
    }


# ---------------------------------------------------------------------- #
# machine
# ---------------------------------------------------------------------- #
def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``src/``, in path order.

    The benchmark runs from checkouts that are not git repositories, so this
    digest is what identifies the measured code there.
    """
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_info(root: Path, start_method: str) -> Dict[str, object]:
    """Facts that make two results comparable; never compare across machines."""
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "affinity": affinity,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "mp_start_method": start_method,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def default_start_method() -> str:
    """The start method the repo's worker pools pick (fork where it exists)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / 2**20


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> str:
    """The one-line JSON record the benchmark prints last."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(entry["value"]), "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    })


def format_table(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    """Human-readable metric lines: name, value, unit, sample count."""
    lines = []
    for name, entry in metrics.items():
        note = f"n={entry['n']}" if "n" in entry else ""
        if "percentile" in entry:
            note += f", p{entry['percentile']}"
        lines.append(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<10} {note}")
    return lines


def declared_metrics(root: Path, kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def check_failures(checks: Iterable[Dict[str, object]]) -> List[str]:
    """Messages of every failed output check."""
    return [f"{c['name']}: {c['detail']}" for c in checks if not c["ok"]]
