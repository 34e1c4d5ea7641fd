#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded inputs and span accounting.

    python3 perfbench/test_perfbench.py

Builds perfbench the way run.py does (into $CARGO_TARGET_DIR or .bench_build)
and checks that
  - one seed gives byte-identical inputs and another seed different ones,
    for every workload;
  - in a traced run the spans of each repetition nest, and their self times
    partition the repetition's traced total_s;
  - the simulated outcome of a seed is the same in traced and untraced runs.
"""
import argparse
import filecmp
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BINARY = None
WORKLOADS = [w["name"] for w in json.loads(
    (run.ROOT / "BENCHMARK.json").read_text())["workloads"]]


def setUpModule():
    global BINARY
    BINARY = run.build()


def perfbench(workload, seed, trace, extra=()):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0,
                              trace=trace)
    code, lines = run.run_perfbench(BINARY, args, extra)
    return code, [json.loads(line) for line in lines]


def dump_inputs(workload, seed, directory):
    code, _ = perfbench(workload, seed, 0, ["--dump-inputs", str(directory)])
    assert code == 0, f"--dump-inputs failed for {workload}"
    return sorted(p.name for p in Path(directory).iterdir())


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b, \
                    tempfile.TemporaryDirectory() as c:
                names = dump_inputs(workload, 7, a)
                self.assertEqual(names, dump_inputs(workload, 7, b))
                self.assertEqual(names, dump_inputs(workload, 8, c))
                _, mismatch, errors = filecmp.cmpfiles(a, b, names,
                                                       shallow=False)
                self.assertEqual((mismatch, errors), ([], []))
                for trace in (n for n in names if n.endswith("trace.sptr")):
                    self.assertFalse(filecmp.cmp(Path(a) / trace,
                                                 Path(c) / trace,
                                                 shallow=False))


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.records = perfbench("isp-dctcp-stream", 3, 1)
        trace = (run.build_dir() / "perfbench-out" /
                 "trace-isp-dctcp-stream-seed3.json")
        cls.events = json.loads(trace.read_text())["traceEvents"]

    def test_run_is_correct_and_reports_per_layer_metrics(self):
        self.assertEqual(self.code, 0)
        result = self.records[-1]
        self.assertTrue(result["correct"])
        for name in ("routing.warm_s", "core.snapshot_s", "sim.advance_s",
                     "workload.parse_s", "trace.overhead_ratio"):
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        # No churn stream on this workload, so nothing was withheld.
        self.assertEqual(result["metrics"]["routing.churn_overhead_s"]["value"],
                         0)

    def test_self_times_partition_each_repetition(self):
        by_id = {e["args"]["id"]: e for e in self.events}
        roots = [e for e in self.events if e["args"]["parent"] < 0]
        self.assertEqual(len(roots), 3)  # one traced repetition per trace
        for root in roots:
            spans = [e for e in self.events
                     if e["args"]["run"] == root["args"]["run"]]
            children = {}
            for span in spans:
                parent = span["args"]["parent"]
                if parent >= 0:
                    outer = by_id[parent]
                    self.assertGreaterEqual(span["ts"], outer["ts"])
                    self.assertLessEqual(span["ts"] + span["dur"],
                                         outer["ts"] + outer["dur"] + 1e-3)
                    children[parent] = children.get(parent, 0) + span["dur"]
            self_total = sum(s["dur"] - children.get(s["args"]["id"], 0)
                             for s in spans)
            self.assertAlmostEqual(self_total, root["dur"], delta=1e-3)

    def test_traced_and_untraced_runs_simulate_the_same(self):
        code, records = perfbench("isp-dctcp-stream", 3, 0)
        self.assertEqual(code, 0)
        digest = records[-2]["check"]["metrics_digest"]
        self.assertEqual(digest, self.records[-2]["check"]["metrics_digest"])


if __name__ == "__main__":
    unittest.main()
