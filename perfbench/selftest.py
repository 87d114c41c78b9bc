"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py        # about five minutes: two traced runs per workload
    python3 perfbench/selftest.py InputTest MissingProgramTest   # the quick ones
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

# Counts that must repeat exactly across two traced runs with the same seed.
REPEATED_COUNTS = ("scalar.mul_calls", "algebra.term_pairs", "hecke.closure_products", "image_group.compose_calls")


def run_benchmark(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first = workloads.make_inputs("invariants", 7)
        self.assertEqual(first, workloads.make_inputs("invariants", 7))
        self.assertNotEqual(first, workloads.make_inputs("invariants", 8))

    def test_invariant_braid_shape(self):
        pairs = workloads.make_inputs("invariants", 1)
        self.assertEqual(len(pairs), len(workloads.STRANDS) * workloads.BRAIDS_PER_STRANDS)
        for beta, gamma in pairs:
            self.assertIn(beta.strands, workloads.STRANDS)
            self.assertLessEqual(len(beta.letters), workloads.MAX_LETTERS)
            self.assertEqual(gamma.strands, beta.strands)
            self.assertGreaterEqual(len(gamma.letters), 1)


class TracerTest(unittest.TestCase):
    def test_nested_spans(self):
        from tracer import Tracer

        tracer = Tracer()
        inner = tracer.spanned("inner", lambda: None)
        outer = tracer.spanned("outer", lambda again: (inner(), again and outer(False)))
        outer(True)
        # outer -> inner, outer -> (inner, outer -> inner): parent indices follow the stack
        self.assertEqual([s[0] for s in tracer.spans], ["outer", "inner", "outer", "inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0, 2])
        spans = tracer.spans

        def dur(i):
            return spans[i][2] - spans[i][1]

        # a name's inclusive time counts its outermost spans only
        self.assertAlmostEqual(tracer.inclusive["outer"], dur(0))
        self.assertAlmostEqual(tracer.inclusive["inner"], dur(1) + dur(3))
        # self time is each span's duration minus its children's: (0 - 1 - 2) + (2 - 3)
        self.assertAlmostEqual(tracer.self_time["outer"], dur(0) - dur(1) - dur(3))

    def test_uninstall_restores(self):
        from quatbraid import braids, hecke
        from tracer import Tracer

        original = hecke.braid_generator
        tracer = Tracer()
        tracer.patch_function(hecke, "braid_generator", lambda f: tracer.counted("builds", f))
        braids.evaluate(braids.BraidWord(3, (1, 2, 1)))
        self.assertEqual(tracer.counts["builds"], 3)
        tracer.uninstall()
        self.assertIs(hecke.braid_generator, original)
        self.assertIs(braids.braid_generator, original)


class CountsRepeatTest(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    proc = run_benchmark(name, 3, trace=1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                    runs.append({key: metrics[key]["value"] for key in REPEATED_COUNTS})
                self.assertEqual(runs[0], runs[1])


class MissingProgramTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_benchmark("suite", 1, trace=0, root=root)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
