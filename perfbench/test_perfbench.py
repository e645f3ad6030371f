#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs a short pass of every workload with a seed that tuning never
used, untraced and traced, and checks the result shape against
BENCHMARK.json: exactly the catalog's metric names and units, a
result object with correct/attempted/failed/metrics, no failed
operation, and the host and provenance record.  Two untraced runs of
the same seed must report identical exact counts.  A checkout that
holds only BENCHMARK.json and perfbench/ must fail without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 9173
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HOST_FIELDS = {"logical_cores", "cpu_model", "compiler", "build_type",
               "source_id", "workload_seed", "trace_length"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=HELD_OUT_SEED, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def parse(res):
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_spec_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"]]
        names += [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Workloads(unittest.TestCase):
    def check_result(self, workload, trace, res):
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        record, result = parse(res)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], res.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        catalog = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in catalog])
        for m in catalog:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        self.assertLessEqual(HOST_FIELDS, set(record["host"]))
        self.assertEqual(record["host"]["workload_seed"],
                         str(HELD_OUT_SEED))
        return record, result

    def check_workload(self, workload, exact):
        first = self.check_result(workload, 0, run(workload, 0))[0]
        if exact:
            again = self.check_result(workload, 0, run(workload, 0))[0]
            self.assertTrue(first["exact_counts"])
            self.assertEqual(first["exact_counts"], again["exact_counts"])
        record, result = self.check_result(workload, 1, run(workload, 1))
        self.assertTrue(os.path.isfile(record["host"]["chrome_trace"]))
        return result

    def test_explore(self):
        traced = self.check_workload("explore", exact=True)
        # explore's traced run also carries the serve layer probe.
        for name in ("serve.parse_us", "serve.flush_us",
                     "serve.session_us_per_request",
                     "serve.tcp_us_per_request", "serve.p99_ms"):
            self.assertGreater(traced["metrics"][name]["value"], 0, name)

    def test_validate(self):
        self.check_workload("validate", exact=True)

    def test_serve(self):
        # Not in BENCHMARK.json, but runnable on its own.  The hit/miss
        # split depends on how the connections interleave, so serve
        # has no exact counts.
        self.check_workload("serve", exact=False)


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "explore",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"metrics"', res.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
