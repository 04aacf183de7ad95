"""Tests of run.py: failure isolation between workload processes, and that
BENCHMARK.json describes what mgap_perf measures.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

GOOD = {"correct": True, "attempted": 2, "failed": 0,
        "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}


def python(code):
    return [sys.executable, "-c", code]


class Isolation(unittest.TestCase):
    def test_aborted_workload_fails_alone(self):
        def command_for(name):
            if name == "crashes":
                return python("import os; print('partial'); os.abort()")
            return python(f"print('progress'); print({json.dumps(json.dumps(GOOD))})")

        results = run.run_workloads(command_for, ["crashes", "fine"])
        self.assertEqual(results["crashes"], run.failed_result())
        self.assertEqual(results["fine"], GOOD)

    def test_hang_and_malformed_output_are_failures(self):
        self.assertEqual(run.run_one(python("import time; time.sleep(5)"), timeout=0.5),
                         run.failed_result())
        self.assertEqual(run.run_one(python("print('{\"correct\": true}')")),
                         run.failed_result())
        self.assertEqual(run.run_one(python("import sys; sys.exit(3)")), run.failed_result())


class Catalogue(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("mgap_perf does not build here")
        describe = subprocess.run([str(cls.binary), "--describe"], stdout=subprocess.PIPE,
                                  text=True, check=True)
        cls.described = json.loads(describe.stdout)
        cls.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        self.assertEqual(self.bench["workloads"],
                         [{"name": w["name"], "why": w["why"]}
                          for w in self.described["workloads"]])
        self.assertEqual([w["name"] for w in self.bench["workloads"]], run.WORKLOADS)

    def test_metrics_match(self):
        for key in ("end_to_end", "per_layer"):
            described = [(m["name"], m["unit"], m["better"]) for m in self.described[key]]
            listed = [(m["name"], m["unit"], m["better"]) for m in self.bench[key]]
            self.assertEqual(listed, described, key)

    def test_traced_run_reports_every_per_layer_metric(self):
        cmd = [str(self.binary), "--workload", "tree15_overload", "--seconds", "0",
               "--out", str(run.OUT)]
        run.OUT.mkdir(parents=True, exist_ok=True)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_one(cmd + ["--trace", str(trace)])
            self.assertTrue(result["correct"], result)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in self.bench[key]])


if __name__ == "__main__":
    unittest.main()
