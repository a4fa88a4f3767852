"""Fast self-tests of the benchmark harness (no ``repro`` import, ~1 s).

    python3 perfbench/selftest.py

Covers the seeded input generators, the tail-percentile rule, the speed
normalisation, self-time arithmetic on nested spans, the Chrome trace export,
and that a wrong answer fails the output checks (including responses swapped
between requests).
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import phases  # noqa: E402
import speed  # noqa: E402
import system  # noqa: E402
from tracing import Tracer, covered_length, self_times  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(system.learn_cycle_seeds(7), system.learn_cycle_seeds(7))
        for a, b in zip(system.herd_arrays(7), system.herd_arrays(7)):
            self.assertTrue(phases.bit_equal(a, b))
        first = system.net_schedule(7, pool_size=375, n_classes=4)
        second = system.net_schedule(7, pool_size=375, n_classes=4)
        for field in vars(first):
            self.assertTrue(phases.bit_equal(getattr(first, field), getattr(second, field)), field)

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(system.learn_cycle_seeds(7), system.learn_cycle_seeds(8))
        self.assertFalse(phases.bit_equal(system.herd_arrays(7)[0], system.herd_arrays(8)[0]))
        self.assertFalse(phases.bit_equal(system.net_schedule(7, 375, 4).due,
                                          system.net_schedule(8, 375, 4).due))

    def test_net_schedule_rate(self):
        due = system.net_schedule(3, 375, 4).due
        rate = due.size / due[-1]
        self.assertAlmostEqual(rate / system.NET_RATE_RPS, 1.0, delta=0.05)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        for n in range(20, 2000, 7):
            p = harness.tail_percentile(n)
            samples = list(range(n))
            value = harness.nearest_rank(samples, p)
            self.assertGreaterEqual(sum(1 for s in samples if s > value), 10, n)
            # ...and it is the highest whole percentile that keeps ten beyond.
            if p < 100:
                above = harness.nearest_rank(samples, p + 1)
                self.assertLess(sum(1 for s in samples if s > above), 10, n)

    def test_known_points(self):
        self.assertEqual(harness.tail_percentile(20), 50)
        self.assertEqual(harness.tail_percentile(100), 90)
        self.assertEqual(harness.tail_percentile(1000), 99)
        self.assertEqual(harness.tail_percentile(5), 50)  # no true tail below 20

    def test_summary(self):
        summary = harness.timing_summary([float(i) for i in range(1, 101)])
        self.assertEqual(summary["p50"], 50.0)
        self.assertEqual(summary["tail"], 90.0)
        self.assertEqual(summary["tail_percentile"], 90)
        self.assertEqual(summary["n"], 100)

    def test_spread(self):
        stats = harness.spread_summary([10.0] * 10)
        self.assertEqual(stats["spread"], 0.0)
        stats = harness.spread_summary([8, 9, 10, 10, 10, 10, 10, 10, 11, 12])
        self.assertGreater(stats["spread"], 0.0)


class SpeedNormalisation(unittest.TestCase):
    def test_rescales_to_the_reference_probe(self):
        ref = speed.REFERENCE_PROBE_S
        self.assertEqual(speed.normalise([1.0, 2.0], [ref / 2, 2 * ref]), [2.0, 1.0])
        self.assertAlmostEqual(speed.normalise([0.3], [ref])[0], 0.3)
        with self.assertRaises(ValueError):
            speed.normalise([1.0], [])

    def test_keeps_untraced_samples_with_their_own_probe(self):
        ref = speed.REFERENCE_PROBE_S
        result = phases.PhaseResult("learn", walls=[1.0, 2.0, 4.0], traced=[False, True, False],
                                    probes=[ref, ref, 2 * ref])
        self.assertEqual(result.normalised(), [1.0, 2.0])

    def test_a_failed_op_leaves_no_probe(self):
        class Flaky(phases.Phase):
            name = "flaky"

            def op(self, i):
                if i % 2:
                    self.result.fail(RuntimeError("odd"))
                else:
                    self.result.sample(0.001, False)

        phase = Flaky(stack=None, tracing=phases.Tracing(None))
        phase.round(0.02)
        self.assertEqual(len(phase.result.probes), len(phase.result.walls))
        self.assertGreater(phase.result.failed, 0)

    def test_pinning_restores_the_cpus(self):
        before = speed.usable_cpus()
        with speed.pinned(before[:1]):
            if before:
                self.assertEqual(speed.usable_cpus(), before[:1])
        self.assertEqual(speed.usable_cpus(), before)
        self.assertGreater(speed.probe(before), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            (0.0, 10.0, None),  # 0: root
            (1.0, 3.0, 0),      # 1: child
            (2.0, 5.0, 0),      # 2: child overlapping child 1
            (6.0, 7.0, 0),      # 3: child
            (2.5, 4.0, 2),      # 4: grandchild of 2
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 1.0)  # union [1,5] + [6,7]
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.5)
        self.assertAlmostEqual(selfs[4], 1.5)
        # Overlapping siblings each keep their own self time.
        self.assertAlmostEqual(sum(selfs), 11.0)

    def test_leaf_time_is_subtracted(self):
        self.assertEqual(self_times([(0.0, 4.0, None)], [1.5]), [2.5])

    def test_covered_length_clips(self):
        self.assertAlmostEqual(covered_length([(-1.0, 2.0), (3.0, 9.0)], 0.0, 5.0), 4.0)

    def test_tracer_wraps_and_restores(self):
        ticks = iter(float(t) for t in range(100))
        tracer = Tracer(clock=lambda: next(ticks))

        class Layer:
            def outer(self):
                return self.inner() + self.leafy()

            def inner(self):
                return 1

            def leafy(self):
                return 2

        original = Layer.inner
        tracer.phase = "p"
        tracer.wrap(Layer, "outer", "a.outer")
        tracer.wrap(Layer, "inner", "b.inner", measure=lambda a, k, r: {"rows": 3})
        tracer.wrap(Layer, "leafy", "c.leaf", leaf=True)
        self.assertEqual(Layer().outer(), 3)
        tracer.unwrap_all()
        self.assertIs(Layer.inner, original)
        self.assertEqual(tracer.calls("p", "b.inner"), 1)
        self.assertEqual(tracer.amount("p", "rows"), 3)
        layers = tracer.self_seconds_by_layer()["p"]
        # clock: outer 0..5, inner 1..2, leaf 3..4
        self.assertEqual(layers, {"a": 3.0, "b": 1.0, "c": 1.0})
        trace = json.loads(json.dumps(tracer.chrome_trace()))
        names = [e["name"] for e in trace["traceEvents"]]
        self.assertEqual(names, ["a.outer", "b.inner"])
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"]))
        self.assertEqual(trace["traceEvents"][1]["args"]["parent"], 0)


class Declarations(unittest.TestCase):
    def test_every_per_layer_metric_says_what_it_moves(self):
        import layers

        root = Path(__file__).resolve().parent.parent
        self.assertEqual(set(harness.declared_metrics(root, "per_layer")), set(layers.MOVES))


class OutputChecks(unittest.TestCase):
    def test_one_bit_off_fails_bit_equality(self):
        a = np.linspace(0.0, 1.0, 8)
        b = a.copy()
        b.view(np.uint64)[3] ^= 1
        self.assertFalse(phases.bit_equal(a, b))
        self.assertFalse(phases.bit_equal(a, a.astype(np.float32)))
        self.assertTrue(phases.bit_equal(a, a.copy()))

    def test_wrong_rebuild_fails_herd_check(self):
        good = {"exemplars": {0: np.ones((2, 3))}, "prototypes": {0: np.zeros(3)}}
        bad = {"exemplars": {0: np.ones((2, 3))}, "prototypes": {0: np.full(3, 1e-300)}}
        self.assertTrue(phases.states_equal(good, good))
        self.assertFalse(phases.states_equal(good, bad))

    def test_wrong_answer_fails_learn_check(self):
        result = phases.PhaseResult("learn")
        phases.learn_check(result, {0: (0.9, 0.95)}, {0: False}, True)
        failures = harness.check_failures(result.checks)
        self.assertEqual(len(failures), 1)
        self.assertIn("serving_client_equals_predict", failures[0])

    def test_low_accuracy_fails_learn_check(self):
        result = phases.PhaseResult("learn")
        phases.learn_check(result, {0: (0.1, 0.95)}, {0: True}, True)
        self.assertIn("accuracy_floor", harness.check_failures(result.checks)[0])

    def test_swapped_responses_fail_serve_check(self):
        rng = np.random.default_rng(0)
        requests = [SimpleNamespace(user_id=u, features=rng.normal(size=(4, 3)))
                    for u in range(6)]
        # Two lanes; each batch is its requests' windows back to back.
        batches = []
        responses = []
        for device_id, members in ((10, (0, 2, 4)), (11, (1, 3, 5))):
            windows = np.concatenate([requests[u].features for u in members])
            expected = rng.integers(0, 5, size=windows.shape[0])
            batches.append((device_id, windows, expected))
            for k, u in enumerate(members):
                responses.append((u, SimpleNamespace(
                    device_id=device_id, class_ids=expected[4 * k:4 * k + 4].copy())))
        responses = [r for _, r in sorted(responses, key=lambda pair: pair[0])]
        self.assertEqual(phases.response_problems(requests, responses, batches), [])
        # Swap the answers of two requests on the same lane...
        swapped = list(responses)
        swapped[0], swapped[2] = swapped[2], swapped[0]
        self.assertTrue(phases.response_problems(requests, swapped, batches))
        # ...or across lanes.
        swapped = list(responses)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        self.assertTrue(phases.response_problems(requests, swapped, batches))
        # An answer off by one class id fails too.
        wrong = list(responses)
        ids = wrong[3].class_ids.copy()
        ids[1] = (ids[1] + 1) % 5
        wrong[3] = SimpleNamespace(device_id=wrong[3].device_id, class_ids=ids)
        self.assertTrue(phases.response_problems(requests, wrong, batches))

    def test_failed_run_reports_no_numbers(self):
        line = json.loads(harness.result_line(False, 3, 1, {}))
        self.assertEqual(line, {"correct": False, "attempted": 3, "failed": 1, "metrics": {}})


if __name__ == "__main__":
    unittest.main()
