#!/usr/bin/env python3
"""Tests of the benchmark itself: the manifest and what a run prints.

    python3 perfbench/test_perfbench.py           # every workload, ~5 min
    python3 perfbench/test_perfbench.py -k Manifest   # manifest only, instant

The run tests build the benchmark like run.py does (honouring
CARGO_TARGET_DIR) and run every workload of BENCHMARK.json once untraced and
once traced, checking that each prints exactly the manifest's metrics with
their units and that its output checks pass.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import manifest  # noqa: E402


class ManifestTest(unittest.TestCase):
    def setUp(self):
        self.doc = manifest.load(ROOT)

    def test_manifest_is_valid(self):
        self.assertEqual(manifest.validate(self.doc, ROOT), [])

    def test_workloads_are_the_binarys(self):
        with open(os.path.join(HERE, "perfbench.cpp")) as f:
            src = f.read()
        table = src[src.index("kWorkloads[] = {"):]
        table = table[:table.index("};")]
        names = [w["name"] for w in self.doc["workloads"]]
        for name in names:
            self.assertIn(f'"{name}"', table)
        self.assertEqual(table.count('{"'), len(names))

    def test_validator_rejects_contract_violations(self):
        def broken(edit):
            doc = copy.deepcopy(self.doc)
            edit(doc)
            return manifest.validate(doc)

        self.assertTrue(broken(lambda d: d.update(extra=1)))
        self.assertTrue(broken(lambda d: d["workloads"].__delitem__(
            slice(1, None))))
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(
            bound=0.3)))
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(
            name="bad name")))
        self.assertTrue(broken(lambda d: d["per_layer"][0].update(
            unit="milli seconds")))
        self.assertTrue(broken(lambda d: d["per_layer"].append(
            dict(d["per_layer"][0]))))
        self.assertTrue(broken(lambda d: d.update(run_seconds=61)))
        self.assertTrue(broken(lambda d: d.update(
            command=["python3", "/abs/run.py"])))
        self.assertTrue(broken(lambda d: d.update(
            command=["python3", "tools/run.py"])))
        self.assertTrue(broken(lambda d: d.update(end_to_end=[
            m for m in d["end_to_end"] if m["name"] != "setup_s"])))

    def test_result_check_names_every_mismatch(self):
        metrics = {name: {"value": 1.0, "unit": unit} for name, (unit, _) in
                   manifest.metrics_for(self.doc, 0).items()}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": metrics}
        self.assertEqual(manifest.check_result(self.doc, 0, good), [])
        extra = copy.deepcopy(good)
        extra["metrics"]["unnamed"] = {"value": 1.0, "unit": "ms"}
        self.assertTrue(manifest.check_result(self.doc, 0, extra))
        missing = copy.deepcopy(good)
        missing["metrics"].pop("setup_s")
        self.assertTrue(manifest.check_result(self.doc, 0, missing))
        unit = copy.deepcopy(good)
        unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(manifest.check_result(self.doc, 0, unit))
        # The traced run prints per-layer metrics, not end-to-end ones.
        self.assertTrue(manifest.check_result(self.doc, 1, good))


class RunTest(unittest.TestCase):
    """Every workload, untraced and traced, through run.py."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=900)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])
        return lines

    def test_every_workload_prints_its_metrics(self):
        doc = manifest.load(ROOT)
        for w in doc["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    lines = self.run_bench(w["name"], trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        manifest.check_result(doc, trace, result), [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    env = json.loads(next(
                        l for l in lines if l.startswith("# env "))[6:])
                    for key in ("git_rev", "tree_sha256", "build_type",
                                "pool_width", "nproc", "seed", "seconds"):
                        self.assertIn(key, env)
                    self.assertLessEqual(env["pool_width"], env["nproc"])
                    for name, (unit, better) in manifest.metrics_for(
                            doc, trace).items():
                        self.assertTrue(any(
                            l.startswith(f"# {name} ") and unit in l and
                            f"{better} is better" in l for l in lines),
                            f"{name} not listed with unit and direction")
                    if trace:
                        self.assertTrue(any(
                            "rows sum to" in l for l in lines))

    def test_unknown_workload_fails_without_result(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "no-such-workload"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
