"""Self-test of the benchmark itself.

Run from the root of the repository:

    python3 perfbench/selftest.py

It checks that a tiny run prints every metric BENCHMARK.json names, with its
unit, in both modes and on every workload; that the traced run's call counts
match the work counters; that a corrupted output counts as a failure; and
that the same seed generates the same configs.  It takes under a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest

import checks
import run as bench
import workloads

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=bench.ROOT, capture_output=True, text=True, check=True,
    )
    report, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(report)["report"], json.loads(result)


class TinyRuns(unittest.TestCase):
    def check_result(self, result: dict, wanted: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted},
        )
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                report, result = tiny_run(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                self.assertEqual(report["environment"]["workload_seed"], 5)

    def test_per_layer_metrics_and_call_counts(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                report, result = tiny_run(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                self.assertTrue(report["call_count_check"]["passed"], report["call_count_check"])


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = bench.load_program()
        cls.work = bench.WORK / "selftest"

    def setUp(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_variant(self, workload: str, kind: str):
        index = next(i for i, t in enumerate(workloads.TEMPLATES[workload]) if t.kind == kind)
        run = workloads.variant(workload, index, 0)
        (self.work / "run.cfg").write_text(run.config_text())
        _, error = bench.run_one(self.cli, run, self.work / "run.cfg", self.work / "out")
        ref = checks.load_reference(workload)["runs"][run.key]
        return run, error, ref

    def test_clean_output_passes(self):
        run, error, ref = self.run_variant("sweep", "theta-noiseless")
        self.assertEqual(checks.check_run(run, self.work / "out", error, ref), (False, None))

    def corrupt(self, name: str, fix_manifest: bool) -> None:
        path = self.work / "out" / name
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        if fix_manifest:
            manifest = json.loads((self.work / "out" / checks.MANIFEST).read_text())
            manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
            (self.work / "out" / checks.MANIFEST).write_text(json.dumps(manifest))

    def test_corrupted_value_fails(self):
        run, error, ref = self.run_variant("ptm", "ptm-depolarizing")
        self.corrupt("ptm_noisy_0.csv", fix_manifest=True)
        failed, why = checks.check_run(run, self.work / "out", error, ref)
        self.assertTrue(failed)
        self.assertIn("differ from the reference", why)

    def test_corrupted_file_fails_manifest(self):
        run, error, ref = self.run_variant("search", "sweep-s")
        self.corrupt("sweep_s.csv", fix_manifest=False)
        failed, why = checks.check_run(run, self.work / "out", error, ref)
        self.assertTrue(failed)
        self.assertIn("checksum", why)

    def test_long_chain_failure_is_counted_not_wrong(self):
        index = next(
            i for i, t in enumerate(workloads.TEMPLATES["sweep"]) if t.fixed == {"k": 10, "m": 4}
        )
        run = workloads.variant("sweep", index, 0)
        (self.work / "run.cfg").write_text(run.config_text())
        _, error = bench.run_one(self.cli, run, self.work / "run.cfg", self.work / "out")
        ref = checks.load_reference("sweep")["runs"][run.key]
        self.assertEqual(ref["status"], "raises")
        self.assertIsNotNone(error)
        self.assertEqual(checks.check_run(run, self.work / "out", error, ref), (True, None))


class Seeds(unittest.TestCase):
    def test_same_seed_same_configs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = [r.config_text() for r in workloads.batch(workload, 3, 1)]
                again = [r.config_text() for r in workloads.batch(workload, 3, 1)]
                other = [r.config_text() for r in workloads.batch(workload, 4, 1)]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_failure_count_does_not_depend_on_seed(self):
        # all variants of a template raise, or none does, and the repetition
        # count is set by --seconds alone: every seed fails the same runs
        for workload in workloads.WORKLOADS:
            runs = checks.load_reference(workload)["runs"]
            for index in range(len(workloads.TEMPLATES[workload])):
                with self.subTest(workload=workload, template=index):
                    statuses = {runs[f"{workload}/{index}/{v}"]["status"] for v in range(workloads.VARIANTS)}
                    self.assertEqual(len(statuses), 1)
        self.assertGreater(bench.repetitions("sweep", 30), 1)

    def test_every_variant_has_a_reference(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                keys = {r.key for r in workloads.all_variants(workload)}
                self.assertEqual(keys, set(checks.load_reference(workload)["runs"]))


if __name__ == "__main__":
    unittest.main()
