"""In-memory span recorder for the traced run.

The benchmark wraps each layer's public entry points (looked up through
their modules, e.g. ``wire.decode_predict`` or ``SerialExecutor.run``) and
records one span per call: name, start, end, parent span, thread, request id
where there is one, and the benchmark phase.  Very frequent leaf calls (the
op-registry ``apply`` and optimizer steps) are aggregated
instead: their count and time are added to the layer totals and to the
enclosing span's covered time, so self times stay exact without a span per
call.  Spans stay in memory and are written out once, as Chrome Trace Event
JSON that Perfetto opens.

The span model follows Dapper (Sigelman et al., 2010): a span's self time is
its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "rid", "phase", "leaf_s")

    def __init__(self, name, start, parent, tid, rid, phase) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.rid = rid
        self.phase = phase
        self.leaf_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]],
               leaf_seconds: Optional[Sequence[float]] = None) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span) minus aggregated leaf time recorded on
    it.  Leaf calls run sequentially inside their parent, so their time adds.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = covered_length(children.get(index, ()), start, end)
        leaf = leaf_seconds[index] if leaf_seconds is not None else 0.0
        result.append(max(end - start - covered - leaf, 0.0))
    return result


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.phase = "setup"
        #: Wrappers pass straight through while this is False (untimed
        #: check work inside a traced phase is not attributed to layers).
        self.enabled = True
        self.counts: Counter = Counter()     # (phase, name) -> calls
        self.seconds: Counter = Counter()    # (phase, name) -> wall seconds
        self.amounts: Counter = Counter()    # (phase, quantity) -> amount moved
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object, bool]] = []
        self._leaf_names: set = set()

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[int] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.clock(), parent, threading.get_ident(), rid, self.phase)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, amounts: Optional[Dict[str, float]] = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        key = (span.phase, span.name)
        with self._lock:
            self.counts[key] += 1
            self.seconds[key] += span.duration
            for quantity, amount in (amounts or {}).items():
                self.amounts[(span.phase, quantity)] += amount

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        index = self.begin(name, rid)
        try:
            yield index
        finally:
            self.end(index)

    def record(self, name: str, start: float, end: float, rid: Optional[int] = None) -> None:
        """Add a finished top-level span (e.g. one request, due to answer)."""
        span = Span(name, start, None, threading.get_ident(), rid, self.phase)
        span.end = end
        with self._lock:
            self.spans.append(span)
            self.counts[(self.phase, name)] += 1
            self.seconds[(self.phase, name)] += end - start

    def leaf(self, name: str, seconds: float,
             amounts: Optional[Dict[str, float]] = None) -> None:
        """Account one aggregated leaf call to its layer and its parent span."""
        stack = self._stack()
        phase = self.phase
        with self._lock:
            self._leaf_names.add(name)
            self.counts[(phase, name)] += 1
            self.seconds[(phase, name)] += seconds
            for quantity, amount in (amounts or {}).items():
                self.amounts[(phase, quantity)] += amount
            if stack:
                self.spans[stack[-1]].leaf_s += seconds

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False,
             measure: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unwrap_all`.

        ``measure(args, kwargs, result)`` returns ``{quantity: amount}`` for
        what the call moved (rows, bytes, batches); amounts are summed per
        phase under each quantity name.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self
        clock = self.clock

        if leaf:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                start = clock()
                result = original(*args, **kwargs)
                seconds = clock() - start
                tracer.leaf(name, seconds, measure(args, kwargs, result) if measure else None)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.end(index)
                    raise
                tracer.end(index, measure(args, kwargs, result) if measure else None)
                return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------- #
    def calls(self, phase: str, name: str) -> int:
        return self.counts[(phase, name)]

    def busy(self, phase: str, name: str) -> float:
        return self.seconds[(phase, name)]

    def amount(self, phase: str, quantity: str) -> float:
        return self.amounts[(phase, quantity)]

    def self_seconds_by_layer(self) -> Dict[str, Dict[str, float]]:
        """``phase -> layer -> self seconds`` over every recorded span.

        Aggregated leaf time is credited to the leaf's own layer.
        """
        spans = self.spans
        selfs = self_times(
            [(s.start, s.end, s.parent) for s in spans], [s.leaf_s for s in spans]
        )
        out: Dict[str, Dict[str, float]] = {}
        for span, seconds in zip(spans, selfs):
            layer_map = out.setdefault(span.phase, {})
            layer_map[span.layer] = layer_map.get(span.layer, 0.0) + seconds
        for (phase, name), seconds in self.leaf_totals().items():
            layer_map = out.setdefault(phase, {})
            layer = name.split(".", 1)[0]
            layer_map[layer] = layer_map.get(layer, 0.0) + seconds
        return out

    def leaf_totals(self) -> Dict[Tuple[str, str], float]:
        """``(phase, name) -> seconds`` of the aggregated leaf calls."""
        return {key: sec for key, sec in self.seconds.items() if key[1] in self._leaf_names}

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome Trace Event JSON (complete ``X`` events, microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start for s in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"phase": span.phase, "span": index}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.rid is not None:
                args["request_id"] = span.rid
            if span.leaf_s:
                args["aggregated_leaf_ms"] = round(span.leaf_s * 1e3, 6)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
