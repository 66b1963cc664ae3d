#!/usr/bin/env python3
"""The serving benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py for short runs (building it first if needed) and
checks its output contract: every metric of BENCHMARK.json printed once per
workload with its unit, a corrupted response counted as failed rather than
crashing the run, the layer rows adding up to the session pass, and a
non-zero exit without a result where the repository sources are absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_bench(workload, trace, seconds=1, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check_run(self, workload, trace):
        # Traced runs need a few seconds for the layer rows to add up.
        proc = run_bench(workload, trace, seconds=5 if trace else 1)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_line(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        lines = proc.stdout.splitlines()
        for m in wanted:
            printed = [l for l in lines
                       if l.startswith(f"metric {m['name']} = ")]
            self.assertEqual(len(printed), 1, m["name"])
            value_unit = printed[0].split(" = ", 1)[1].split("  (")[0]
            self.assertTrue(value_unit.endswith(" " + m["unit"]),
                            printed[0])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        header = [l for l in lines if l.startswith("header: ")]
        self.assertEqual(len(header), 1)
        for key in ("git_sha", "kernel_tier", "precision", "pool_width 1",
                    "nproc", f"seed {SEED}", "perf_counters"):
            self.assertIn(key, header[0])

    def test_end_to_end_metrics_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_per_layer_metrics_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1)


class CorruptedResponse(unittest.TestCase):
    def test_nan_response_counts_as_failed(self):
        proc = run_bench("stream_b1", 0, extra=("--corrupt-response", "3"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        result = result_line(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        frac = re.search(r"^info failed_frac = (\S+) fraction", proc.stdout,
                         re.M)
        self.assertIsNotNone(frac)
        self.assertAlmostEqual(float(frac.group(1)) * result["attempted"],
                               1.0, places=4)
        self.assertIn("check responses_valid: FAILED", proc.stdout)


class LayerSumRatio(unittest.TestCase):
    def test_layer_rows_add_up_to_the_pass(self):
        tol = float(re.search(
            r"kLayerSumTolerance = ([0-9.]+)",
            (BENCH / "src" / "breakdown.h").read_text()).group(1))
        proc = run_bench("stream_b1", 1, seconds=5)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        metrics = result_line(proc)["metrics"]
        for name in ("core.layer_sum_ratio", "core.f32_layer_sum_ratio"):
            self.assertLessEqual(abs(metrics[name]["value"] - 1.0), tol, name)
        self.assertIn("check layer_sum_closure: ok", proc.stdout)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bdir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        bdir.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=bdir))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(tmp / ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "stream_b1", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
