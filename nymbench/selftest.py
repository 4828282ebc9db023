#!/usr/bin/env python3
"""Self-test of the host-cost benchmark at tiny size (8 nyms, 2 cycles).

    python3 nymbench/selftest.py

Builds like run.py does, then checks, for every workload: the result line
parses and has exactly its four keys; every metric BENCHMARK.json
names is emitted with its unit; traced and untraced runs agree on the
virtual-time outputs; and the CLIs reject bad input with exit status 2.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_run(*args, cwd=run.ROOT, script=os.path.join(run.BENCH_DIR, "run.py")):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def result(self, workload, trace):
        proc = bench_run("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", trace, "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.result(workload, trace)["metrics"]
                    wanted = {m["name"]: m["unit"] for m in self.bench[key]}
                    self.assertEqual(set(metrics), set(wanted))
                    for name, unit in wanted.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"], (int, float), name)
                        if key == "end_to_end":
                            self.assertGreater(metrics[name]["value"], 0, name)

    def test_traced_and_untraced_outputs_agree(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                args = ["--workload=" + workload, "--seed=13", "--tiny"]
                if workload == "fleet_crossed":
                    placement = run.harness(self.binary, args + ["--calibrate"])["placement"]
                    args += ["--threads=2", "--placement=" + placement]
                plain = run.harness(self.binary, args)
                traced = run.harness(self.binary, args + ["--trace"])
                self.assertTrue(plain["outputs"])
                self.assertEqual(plain["outputs"], traced["outputs"])
                self.assertFalse(plain["traced"])
                self.assertTrue(traced["traced"])

    def test_usage_errors_exit_2(self):
        base = ["--workload", "nym_persist", "--seed", "0", "--seconds", "1", "--trace", "0"]
        self.assertEqual(bench_run("--help").returncode, 0)
        for bad in (base + ["--bogus"], ["--workload", "nope"] + base[2:],
                    base[:3] + ["abc"] + base[4:], base[:5] + ["-1"] + base[6:],
                    base[:7] + ["2"], base[:6]):
            with self.subTest(args=bad):
                proc = bench_run(*bad)
                self.assertEqual(proc.returncode, 2, bad)
                self.assertEqual(proc.stdout, "")
        harness_base = ["--workload=fleet_crossed", "--seed=1", "--tiny"]
        self.assertEqual(subprocess.run([self.binary, "--help"], capture_output=True).returncode, 0)
        for bad in (["--bogus"], ["--seed=12x"], ["--threads=0"], ["--placement=0,9"],
                    ["--placement=0,,1"], ["--trace=1"], ["--setup-only", "--trace"]):
            with self.subTest(args=bad):
                proc = subprocess.run([self.binary] + harness_base + bad, capture_output=True,
                                      text=True)
                self.assertEqual(proc.returncode, 2, bad)
                self.assertIn("usage:", proc.stderr)

    def test_fails_without_the_program_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result, exit != 0.
        scratch = tempfile.mkdtemp(dir=run.build_dir())
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
            for path in self.bench["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(scratch, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("--workload", "nym_persist", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=scratch,
                             script=os.path.join(scratch, "nymbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
