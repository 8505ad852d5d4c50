"""Tests of the arithmetic in run.py and spread.py.

    python3 perfbench/tests/test_scripts.py
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import spread  # noqa: E402


class RelativeSpreadTest(unittest.TestCase):
    def test_quartiles_as_statistics_quantiles(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread.relative_spread(range(1, 11)), (8.25 - 2.75) / 5.5)
        # statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        self.assertAlmostEqual(spread.relative_spread([20, 10]), (22.5 - 7.5) / 15.0)

    def test_degenerate_samples(self):
        self.assertEqual(spread.relative_spread([3.0, 3.0, 3.0]), 0.0)
        self.assertEqual(spread.relative_spread([4.0]), 0.0)
        self.assertEqual(spread.relative_spread([0.0, 0.0]), 0.0)


class DeterminismCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.saved = run.OUT_DIR
        run.OUT_DIR = Path(self.tmp.name)

    def tearDown(self):
        run.OUT_DIR = self.saved
        self.tmp.cleanup()

    def test_flags_a_different_ndcg_for_the_same_commit_and_seed(self):
        first = {"ir_ndcg10": "0.55", "ut_ndcg10": "0.33"}
        self.assertIsNone(run.check_determinism("c1", "books", 1, first))
        self.assertIsNone(run.check_determinism("c1", "books", 1, dict(first)))
        changed = {"ir_ndcg10": "0.55", "ut_ndcg10": "0.3300001"}
        self.assertIsNotNone(run.check_determinism("c1", "books", 1, changed))

    def test_other_sources_seeds_and_workloads_are_independent(self):
        self.assertIsNone(run.check_determinism("c1", "books", 1, {"ir_ndcg10": "0.5"}))
        self.assertIsNone(run.check_determinism("c2", "books", 1, {"ir_ndcg10": "0.6"}))
        self.assertIsNone(run.check_determinism("c1", "books", 2, {"ir_ndcg10": "0.7"}))
        self.assertIsNone(run.check_determinism("c1", "books_hnsw", 1, {"ir_ndcg10": "0.8"}))


if __name__ == "__main__":
    unittest.main()
