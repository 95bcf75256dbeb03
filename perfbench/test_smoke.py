#!/usr/bin/env python3
"""Smoke tests of the benchmark at tiny op counts (`--tiny`).

    python3 perfbench/test_smoke.py

Checks, for every workload in BENCHMARK.json:
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is present with its declared unit;
  * the metrics that must repeat exactly are equal across two runs of one
    seed;
  * a second seed changes the inputs.
"""

import json
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_E2E = ("sim_ms_per_op", "success_rate")
EXACT_LAYERS = (
    "solvers.iters_per_solve",
    "solvers.operator_complexity",
    "engine.cache_hit_rate",
    "engine.batch_mean",
    "engine.plan_build_sim_ms",
    "simt.sim_gflops",
    "simt.spmv_frac.partition",
    "simt.spgemm_frac.global_sort",
)


def run(workload, seed, trace):
    """(provenance, result) of one tiny run."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, provenance, result = proc.stdout.strip().splitlines()
    return json.loads(provenance)["provenance"], json.loads(result)


class Smoke(unittest.TestCase):
    def check_names_and_units(self, declared, metrics):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_is_present_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, e2e = run(w, 1, 0)
                self.assertTrue(e2e["correct"])
                self.assertGreaterEqual(e2e["attempted"], 1)
                self.assertEqual(e2e["failed"], 0)
                self.check_names_and_units(SPEC["end_to_end"], e2e["metrics"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(e2e["metrics"][m["name"]]["value"], 0, m["name"])
                _, layers = run(w, 1, 1)
                self.check_names_and_units(SPEC["per_layer"], layers["metrics"])

    def test_exact_metrics_repeat_for_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (p1, a), (p2, b) = run(w, 7, 0), run(w, 7, 0)
                self.assertEqual(p1["input_digest"], p2["input_digest"])
                for name in EXACT_E2E:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)
                (_, a), (_, b) = run(w, 7, 1), run(w, 7, 1)
                for name in EXACT_LAYERS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_a_second_seed_changes_the_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                (p1, a), (p2, b) = run(w, 1, 0), run(w, 2, 0)
                self.assertNotEqual(p1["input_digest"], p2["input_digest"])
                self.assertNotEqual(
                    a["metrics"]["sim_ms_per_op"]["value"],
                    b["metrics"]["sim_ms_per_op"]["value"],
                )


if __name__ == "__main__":
    unittest.main()
