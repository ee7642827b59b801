#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Builds the probe when needed (the advisor is not trained for these), then
checks: a seed gives byte-identical request streams, an identical lint
tree and the same audit corpus, and another seed gives different ones; the
probe replays the corpus `clpp-lint --audit` generates; the percentile
rule and the infinitely-late rule; the verdict normalizer; and that
perfbench/layers.json maps exactly the per-layer metrics BENCHMARK.json
lists.
"""
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from stats import (latency_summary, normalize_verdict, request_latencies_ms,  # noqa: E402
                   tail_percentile)


class Inputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(with_advisor=False)
        cls.env = run.hermetic_env()

    def stream_bytes(self, plan):
        with tempfile.NamedTemporaryFile(suffix=".jsonl") as f:
            workloads.write_plan(plan, f.name)
            return Path(f.name).read_bytes()

    def test_scan_stream_is_a_function_of_the_seed(self):
        a = self.stream_bytes(workloads.scan_plan(run.PROBE, 7, self.env))
        self.assertEqual(a, self.stream_bytes(workloads.scan_plan(run.PROBE, 7, self.env)))
        self.assertNotEqual(a, self.stream_bytes(workloads.scan_plan(run.PROBE, 8, self.env)))

    def test_audit_corpus_is_a_function_of_the_seed(self):
        a = workloads.audit_args(7)
        self.assertEqual(a, workloads.audit_args(7))
        self.assertNotEqual(a, workloads.audit_args(8))
        # The traced run replays the corpus clpp-lint generates from those
        # arguments: the probe must generate the same records.
        audit = [a if a != str(workloads.AUDIT_SIZE) else "50" for a in a]
        report = json.loads(subprocess.run([str(run.LINT), *audit], env=self.env,
                                           capture_output=True, text=True).stdout)
        records = workloads.corpus(run.PROBE, workloads.audit_seed(7), 50, self.env,
                                   buggy=workloads.LINT_BUGGY_RATE, simd=True)
        self.assertEqual([(r["id"], r["family"]) for r in report["rows"]],
                         [(r["id"], r["family"]) for r in records if r.get("has_directive")])

    def test_ide_stream_is_a_function_of_the_seed(self):
        a = workloads.ide_plan(run.PROBE, 7, 10, self.env)
        self.assertEqual(self.stream_bytes(a),
                         self.stream_bytes(workloads.ide_plan(run.PROBE, 7, 10, self.env)))
        self.assertNotEqual(self.stream_bytes(a),
                            self.stream_bytes(workloads.ide_plan(run.PROBE, 8, 10, self.env)))
        # The inputs the workload promises: repeats, whitespace variants,
        # `//` comments, and arrivals inside the run.
        self.assertGreater(sum(p["repeat"] for p in a) / len(a), 0.6)
        self.assertTrue(any(p["variant"] for p in a))
        self.assertTrue(any("//" in p["code"] for p in a))
        self.assertTrue(all(0 <= p["due_us"] < 10_000_000 for p in a))

    def test_whitespace_variant_changes_only_whitespace(self):
        import random
        rng = random.Random(3)
        code = "for (i = 0; i < n; i++) // acc\n    s += a[i];\n"
        for _ in range(50):
            variant = workloads.ws_variant(code, rng)
            self.assertNotEqual(variant, code)
            self.assertEqual(variant.split(), code.split())

    def test_lint_tree_is_a_function_of_the_seed(self):
        with tempfile.TemporaryDirectory() as d:
            a = workloads.lint_tree(run.PROBE, run.ROOT, Path(d) / "a", 7, self.env)
            b = workloads.lint_tree(run.PROBE, run.ROOT, Path(d) / "b", 7, self.env)
            c = workloads.lint_tree(run.PROBE, run.ROOT, Path(d) / "c", 8, self.env)
            self.assertEqual(a["sha256"], b["sha256"])
            self.assertNotEqual(a["sha256"], c["sha256"])
            # Same family mix on every seed.
            self.assertEqual(len(a["records"]), len(c["records"]))


class Percentiles(unittest.TestCase):
    def test_tail_leaves_at_least_ten_samples_above(self):
        for n in (20, 21, 57, 100, 999, 1000, 1001, 5000):
            values = list(range(n))
            tail = latency_summary(values)["tail"]
            self.assertGreaterEqual(sum(v > tail for v in values), 10, n)
        self.assertEqual(tail_percentile(5000), 0.99)
        self.assertAlmostEqual(tail_percentile(100), 0.90)
        self.assertEqual(tail_percentile(19), 0.5)

    def test_failed_requests_are_infinitely_late(self):
        ok = {"status": "ok", "due_ns": 0, "send_ns": 1e6, "recv_ns": 3e6}
        results = [dict(ok) for _ in range(90)]
        results += [{"status": "lost"}] * 4 + [{"status": "overloaded"}] * 3
        results += [{"status": "error"}] * 2 + [dict(ok, mismatch=True)]
        late = request_latencies_ms(results, from_due=True)
        self.assertEqual(sum(math.isinf(v) for v in late), 10)
        self.assertEqual(late[0], 3.0)
        self.assertEqual(request_latencies_ms(results, from_due=False)[0], 2.0)
        summary = latency_summary(late)
        self.assertEqual(summary["p50"], 3.0)
        self.assertEqual(summary["tail"], 3.0)  # p90 of 100: ten above it
        late.append(math.inf)
        self.assertTrue(math.isinf(latency_summary(late)["tail"]))


class Verdicts(unittest.TestCase):
    ANSWER = {"id": 4, "p_directive": 0.9761, "needs_directive": True,
              "suggestion": "#pragma omp parallel for", "trace_id": "00ab",
              "queue_us": 10, "batch_us": 20, "infer_us": 5, "coalesced": False,
              "cached": True, "client": "perfbench-0"}

    def test_probability_change_is_a_mismatch(self):
        other = dict(self.ANSWER, p_directive=0.7441)
        self.assertNotEqual(normalize_verdict(self.ANSWER), normalize_verdict(other))

    def test_bookkeeping_is_ignored(self):
        other = dict(self.ANSWER, trace_id="ffff", id=9, cached=False, queue_us=99)
        self.assertEqual(normalize_verdict(self.ANSWER), normalize_verdict(other))


class Manifest(unittest.TestCase):
    def test_layers_json_maps_every_per_layer_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((run.BENCH_DIR / "layers.json").read_text())
        self.assertEqual([m["name"] for m in bench["per_layer"]], [m["name"] for m in layers])
        e2e = set(run.E2E_UNITS) | {"error_rate", "verdict_mismatches", "none"}
        self.assertTrue({m["name"] for m in bench["end_to_end"]} <= set(run.E2E_UNITS))
        self.assertTrue({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS))
        for m in layers:
            self.assertTrue(set(m["moves"]) <= e2e, m["name"])
            self.assertTrue(set(m["workloads"]) <= set(run.WORKLOADS), m["name"])


if __name__ == "__main__":
    unittest.main()
