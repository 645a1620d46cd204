"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the round program the way run.py does and run real rounds,
so they take about a minute.
"""

import copy
import json
import subprocess
import sys
import unittest

import run

SAMPLED = "gemm_sampled"
GOLDEN_SEED = 1
UNRECORDED_SEED = 10**9


class RoundTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.golden = run.load_golden()
        cls.rec, cls.problems = run.run_round(SAMPLED, GOLDEN_SEED, False,
                                              cls.golden)

    def test_golden_round_passes(self):
        self.assertEqual(self.problems, [])
        self.assertIn(str(GOLDEN_SEED), self.golden[SAMPLED])

    def test_same_seed_gives_identical_digest(self):
        # Traced, so tracing must not perturb the results either.
        again, problems = run.run_round(SAMPLED, GOLDEN_SEED, True,
                                        self.golden)
        self.assertEqual(problems, [])
        self.assertEqual(run.digest(again["results"]),
                         run.digest(self.rec["results"]))
        other, problems = run.run_round(SAMPLED, GOLDEN_SEED + 1, False,
                                        self.golden)
        self.assertEqual(problems, [])
        self.assertNotEqual(run.digest(other["results"]),
                            run.digest(self.rec["results"]))

    def test_corrupted_result_trips_check(self):
        def corrupt(mutate, seed=GOLDEN_SEED):
            bad = copy.deepcopy(self.rec["results"])
            mutate(bad)
            return run.check(SAMPLED, seed, bad, self.golden)

        # A value the invariants cannot see: only the digest catches it.
        self.assertTrue(corrupt(lambda r: r[3].update(cycles=r[3]["cycles"]
                                                      + 1)))
        # Invariant violations are caught on any seed.
        self.assertTrue(corrupt(lambda r: r[0].update(tiles=r[0]["tiles"]
                                                      - 1),
                                UNRECORDED_SEED))
        self.assertTrue(corrupt(lambda r: r[5].update(util_mem=1.5),
                                UNRECORDED_SEED))
        self.assertTrue(corrupt(lambda r: r.pop(), UNRECORDED_SEED))
        self.assertEqual(corrupt(lambda r: None, UNRECORDED_SEED), [])

    def test_serving_conservation_check(self):
        arm = {"name": "x", "offered": 100, "completed": 90, "rejected": 4,
               "shed": 5, "timed_out": 1}
        arms = [dict(arm) for _ in range(run.RESULTS_PER_ROUND["serve_sweep"])]
        self.assertEqual(run.check("serve_sweep", UNRECORDED_SEED, arms, {}),
                         [])
        arms[2]["completed"] += 1
        self.assertTrue(run.check("serve_sweep", UNRECORDED_SEED, arms, {}))


class TracedRunTest(unittest.TestCase):
    def traced(self, workload):
        p = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=600, cwd=run.ROOT)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_traced_run_emits_every_per_layer_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in spec["per_layer"]}
        out = self.traced(SAMPLED)
        self.assertTrue(out["correct"])
        self.assertEqual(set(out["metrics"]), declared)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertEqual(m["kernels.gemm_calls"], 36)
        self.assertEqual(m["kernels.baseline_cache_misses"], 12)
        self.assertGreater(m["kernels.gemm_self_s"], 0)
        self.assertGreater(m["sim.event_queue.ns_per_event"], 0)

    def test_traced_serve_counts_builds(self):
        m = {k: v["value"]
             for k, v in self.traced("serve_sweep")["metrics"].items()}
        self.assertEqual(m["serve.step_cost.builds"], 10)
        self.assertEqual(m["serve.step_cost.distinct_builds"], 4)
        self.assertGreater(m["llm.calibrate_s"], 0)
        self.assertGreater(m["serve.sim.requests"], 0)


if __name__ == "__main__":
    unittest.main()
