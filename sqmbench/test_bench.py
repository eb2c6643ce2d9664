#!/usr/bin/env python3
"""Self-tests of the SQM benchmark: python3 sqmbench/test_bench.py

Each test drives sqmbench/run.py as a user would. The runs are short: the
harness still makes its minimum number of operations, so the whole suite
takes about two minutes once the harness is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    """Runs run.py for the workload's minimum number of operations."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(done):
    if done.returncode != 0:
        raise AssertionError(f"run.py failed ({done.returncode}):\n"
                             f"{done.stdout}\n{done.stderr[-2000:]}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


class TracedRun(unittest.TestCase):
    def test_every_workload_reconciles_and_emits_every_layer(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = result_of(run_bench(workload, 1))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                reconcile = [l for l in lines if l.startswith("reconcile:")]
                self.assertEqual(len(reconcile), 1)
                self.assertNotIn("FAIL", reconcile[0])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                # "reconcile: op_s X = plaintext Y + protocol Z [ok]; ..."
                words = reconcile[0].split()
                op_s, plain, protocol = (float(words[2]), float(words[5]),
                                         float(words[8]))
                self.assertAlmostEqual(plain + protocol, op_s, delta=2e-6)
                self.assertAlmostEqual(plain, m["vfl.plaintext_op_s"],
                                       delta=1e-6)
                self.assertAlmostEqual(protocol, m["mpc.protocol_s"],
                                       delta=1e-6)
                attributed = (m["mpc.field_s"] + m["mpc.share_s"] +
                              m["mpc.reconstruct_s"] + m["net.send_s"] +
                              m["net.recv_wait_s"])
                self.assertAlmostEqual(
                    attributed + m["mpc.unattributed_s"], m["mpc.protocol_s"],
                    delta=1e-9)
                self.assertGreater(m["mpc.elements"], 0)
                self.assertGreater(m["net.rounds"], 0)
                self.assertEqual(m["net.retries"], 0)
                self.assertEqual(m["net.timeouts"], 0)


class EndToEndRun(unittest.TestCase):
    def test_prints_every_end_to_end_metric_and_fail_frac(self):
        lines, result = result_of(run_bench("pca_bgw", 0))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 40)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})
        for name, entry in result["metrics"].items():
            self.assertGreater(entry["value"], 0, name)
        table = "\n".join(lines[:-1])
        for name in list(result["metrics"]) + ["fail_frac"]:
            self.assertIn(name, table)


class WrongReference(unittest.TestCase):
    def test_every_operation_counts_as_failed(self):
        for workload in ("pca_bgw", "release_tcp"):
            with self.subTest(workload=workload):
                lines, result = result_of(
                    run_bench(workload, 0, "--wrong-reference"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])
                fail_frac = [l for l in lines if "fail_frac" in l]
                self.assertEqual(len(fail_frac), 1)
                self.assertEqual(float(fail_frac[0].split()[1]), 1.0)


class BareCheckout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        bare = target / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "sqmbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env_free = dict(os.environ)
        env_free.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "sqmbench/run.py", "--workload", "pca_bgw",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env_free, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
