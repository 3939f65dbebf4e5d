"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark (like run.py, into $CARGO_TARGET_DIR, default
.bench_build) and runs a tiny-scale smoke instance of every workload, traced
and untraced.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
    BENCHMARK = json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    """Every workload passes its output check at tiny scale, and the metric
    names it prints are exactly those BENCHMARK.json declares."""

    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(workload=workload, trace=trace):
                r = run_bench(workload, trace)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                lines = r.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                meta = json.loads(lines[-2])["meta"]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(meta["traced"], bool(trace))
                self.assertTrue(meta["rustc"] and meta["nproc"] and meta["source_digest"])
                declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                printed = {n: v["unit"] for n, v in result["metrics"].items()}
                self.assertEqual(printed, declared)
                detail = json.loads(lines[0])["detail"]
                self.assertEqual(detail["check_failures"], [])
                if not trace:
                    self.assertIn("failed_ops_ratio", detail)

    def test_dse_paper(self):
        self.check_workload("dse-paper")

    def test_fleet_campaign(self):
        self.check_workload("fleet-campaign")

    def test_gateway_noisy_soak(self):
        self.check_workload("gateway-noisy-soak")

    def test_bist_profiles(self):
        self.check_workload("bist-profiles")


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_workloads_the_binary_knows(self):
        import run
        self.assertEqual(tuple(w["name"] for w in BENCHMARK["workloads"]), run.WORKLOADS)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        bounds = [m["bound"] for m in BENCHMARK["end_to_end"]]
        self.assertEqual(max(bounds), setup[0]["bound"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))

    def test_fails_without_the_repository(self):
        """Holding only BENCHMARK.json and perfbench/, the benchmark cannot
        build the program and exits non-zero without a result."""
        isolated = ROOT / ".perfbench-out" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        isolated.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", isolated)
            shutil.copytree(BENCH, isolated / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(isolated / "build"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", "dse-paper", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
            r = subprocess.run(cmd, cwd=isolated, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


class Verdicts(unittest.TestCase):
    """compare.py's verdict rules on synthetic inputs."""

    def verdict(self, parent, change, better="higher", bound=0.1):
        p = list(enumerate(parent))
        c = list(enumerate(change))
        return compare.verdict(parent, change, compare.pairs(p, c), better, bound)

    def test_every_change_run_better_is_improved(self):
        self.assertEqual(self.verdict([10, 11, 9, 10], [12, 13, 12.5, 12.1]), "improved")
        self.assertEqual(self.verdict([10, 11, 9, 10], [8, 7.5, 8.2, 8.8], better="lower"),
                         "improved")

    def test_wide_spread_is_unresolved(self):
        parent = [10, 14, 7, 12, 9, 13, 8, 11, 10, 12]
        change = [9, 15, 8, 11, 10, 12, 7, 13, 9, 11]
        self.assertEqual(self.verdict(parent, change), "unresolved")

    def test_wins_and_median_gap_make_improved(self):
        parent = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        change = [p + 2 for p in parent]
        change[0] = 99.0  # one lost pair: 9 of 10 wins
        self.assertEqual(self.verdict(parent, change), "improved")

    def test_small_wins_within_spread_are_no_worse(self):
        parent = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        change = [p + 0.1 for p in parent]
        self.assertEqual(self.verdict(parent, change), "no worse")

    def test_drop_beyond_bound_is_worse(self):
        parent = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        change = [p * 0.8 for p in parent]
        self.assertEqual(self.verdict(parent, change), "worse")
        self.assertEqual(self.verdict(parent, [p * 1.2 for p in parent], better="lower"), "worse")

    def test_drop_within_bound_is_no_worse(self):
        parent = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        change = [p * 0.95 for p in parent]
        self.assertEqual(self.verdict(parent, change), "no worse")

    @staticmethod
    def records(workload, values, failed_ratio=0.0, correct=True):
        """Untraced run records of one workload whose every end-to-end
        metric reads values[i] in run i."""
        return [{"meta": {"workload": workload, "seed": i, "traced": False},
                 "detail": {"failed_ops_ratio": failed_ratio},
                 "result": {"correct": correct, "attempted": 100, "failed": 0,
                            "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                                        for m in BENCHMARK["end_to_end"]}}}
                for i, v in enumerate(values)]

    def verdicts(self, parent, change):
        rows = compare.compare(BENCHMARK, parent, change)
        return {r[1]: r[-1] for r in rows if r[0] == "bist-profiles"}

    def test_incorrect_runs_make_every_row_incorrect(self):
        base = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        change = self.records("bist-profiles", [v * 2 for v in base])
        change[3]["result"]["correct"] = False
        got = self.verdicts(self.records("bist-profiles", base), change)
        self.assertEqual(set(got.values()), {"incorrect"})

    def test_more_failed_operations_withhold_improved(self):
        base = [100.0, 101, 99, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4]
        parent = self.records("bist-profiles", base, failed_ratio=0.20)
        faster = self.records("bist-profiles", [v * 2 for v in base], failed_ratio=0.20)
        self.assertEqual(self.verdicts(parent, faster)["throughput_per_s"], "improved")
        self.assertEqual(self.verdicts(parent, faster)["failed_ops_ratio"], "no worse")
        aborting = self.records("bist-profiles", [v * 2 for v in base], failed_ratio=0.25)
        got = self.verdicts(parent, aborting)
        self.assertEqual(got["throughput_per_s"], "no worse")
        self.assertEqual(got["failed_ops_ratio"], "worse")

    def test_pairs_by_seed_then_by_order(self):
        self.assertEqual(compare.pairs([(1, 10), (2, 20)], [(2, 21), (1, 11)]), [(10, 11), (20, 21)])
        self.assertEqual(compare.pairs([(1, 10), (2, 20)], [(5, 11), (6, 21)]), [(10, 11), (20, 21)])


if __name__ == "__main__":
    unittest.main()
