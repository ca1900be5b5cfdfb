"""Self-test of the benchmark harness itself, not of acmlines.

    python3 perfbench/selftest.py

Run it from the repository root. It checks tail-percentile selection,
self-time subtraction on nested spans, tracing at every binding of a
wrapped function, that BENCHMARK.json names exactly the metrics the
harness prints, and determinism: the same seed gives identical input
and output digests and identical traced counts.
"""

from __future__ import annotations

import json
import random
import tempfile
import unittest

import run

run.load_package()

import acmlines  # noqa: E402
import acmlines.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_above_the_percentile(self):
        samples = list(range(1, 101))
        random.Random(0).shuffle(samples)
        value, percentile, beyond = run.tail(samples)
        self.assertEqual((value, percentile, beyond), (90, 90.0, 10))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_highest_percentile_is_chosen(self):
        value, percentile, _ = run.tail(range(1000))
        self.assertEqual((value, percentile), (989, 99.0))

    def test_eleven_samples_give_the_smallest(self):
        self.assertEqual(run.tail(range(11)), (0, 100 / 11, 10))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_children_and_counter_time_are_subtracted(self):
        spans = [
            ["op", 0, 100, -1, 0],
            ["a", 10, 60, 0, 5],  # 5 ns of counter work after it ends
            ["b", 20, 30, 1, 0],
            ["b", 70, 80, 0, 0],
        ]
        self_ns, calls, root_ns = tracing.self_times(spans)
        self.assertEqual(self_ns["op"], 100 - (50 + 5) - 10)
        self.assertEqual(self_ns["a"], 50 - 10)
        self.assertEqual(self_ns["b"], 20)
        self.assertEqual((calls["b"], root_ns), (2, 100))

    def test_spans_only_inside_an_op(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: 1, None)
        outer = tracer.wrap("outer", lambda: inner() + 1, None)
        self.assertEqual(outer(), 2)
        self.assertEqual(tracer.spans, [])
        self.assertEqual(tracer.op(outer), 2)
        self.assertEqual(
            [(name, parent) for name, _, _, parent, _ in tracer.spans],
            [("op", -1), ("outer", 0), ("inner", 1)],
        )
        for _, start, end, _, _ in tracer.spans:
            self.assertLessEqual(start, end)


class InstallTest(unittest.TestCase):
    BINDERS = (
        acmlines, acmlines.criteria, acmlines.experiment, acmlines.ferrers,
        acmlines.oracles, acmlines.sampling, acmlines.cli,
    )

    def test_every_binding_is_wrapped_then_restored(self):
        original = acmlines.criteria.is_acm
        numeric = dict(acmlines.criteria._NUMERIC_CRITERIA)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            for module in self.BINDERS:
                self.assertIsNot(module.is_acm, original, module.__name__)
            for n, fn in numeric.items():
                self.assertIsNot(acmlines.criteria._NUMERIC_CRITERIA[n], fn)
            X = acmlines.make_variety((2, 2, 1), u3={(1, 1), (2, 2)})
            tracer.op(lambda: acmlines.is_acm(X))
        finally:
            tracing.uninstall(patches)
        names = {name for name, *_ in tracer.spans}
        self.assertLessEqual(
            {"criteria.is_acm", "criteria.has_hyp_star", "criteria.numeric",
             "graphs.build_graph", "graphs.complement", "graphs.is_chordal"},
            names,
        )
        for module in self.BINDERS:
            self.assertIs(module.is_acm, original, module.__name__)
        self.assertEqual(acmlines.criteria._NUMERIC_CRITERIA, numeric)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_emitted_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER],
        )
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS)
        )


class InputTest(unittest.TestCase):
    def test_padding_compacts_back(self):
        rng = random.Random(3)
        X = workloads.ferrers_with_d(rng, (4, 4, 4))
        padded = workloads.pad(rng, X, 6)
        self.assertEqual(padded.d, (10, 10, 10))
        self.assertEqual(acmlines.compact(padded), X)

    def test_stratified_fills_every_quota(self):
        got = workloads.stratified(
            random.Random(1), lambda rng: rng.randrange(10), lambda x: x % 3, (2, 0, 1)
        )
        self.assertEqual(sorted(x % 3 for x in got), [0, 0, 2])


class DeterminismTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = tempfile.TemporaryDirectory(dir=run.OUT)

    def tearDown(self):
        self.workdir.cleanup()

    def test_same_seed_same_digests(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = run.measure(workload, 7, self.workdir.name, rounds=1)
                again = run.measure(workload, 7, self.workdir.name, rounds=1)
                other = run.measure(workload, 8, self.workdir.name, rounds=1)
                self.assertEqual((first.failed, first.failures), (0, []))
                self.assertEqual(first.inputs.hexdigest(), again.inputs.hexdigest())
                self.assertEqual(first.outputs.hexdigest(), again.outputs.hexdigest())
                self.assertNotEqual(first.inputs.hexdigest(), other.inputs.hexdigest())

    def test_traced_counts_repeat(self):
        workload = workloads.WORKLOADS["experiment"]
        counted = []
        for _ in range(2):
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                traced = run.measure(workload, 5, self.workdir.name, rounds=2, tracer=tracer)
            finally:
                tracing.uninstall(patches)
            self.assertEqual(traced.failed, 0)
            _, calls, _ = tracing.self_times(tracer.spans)
            counted.append((calls, tracer.counts))
        self.assertEqual(counted[0], counted[1])
        self.assertGreater(counted[0][0]["criteria.is_acm"], 0)


if __name__ == "__main__":
    unittest.main()
