#!/usr/bin/env python3
"""Record the result digests that run.py checks rounds against.

    python3 perfbench/record_golden.py

Runs one round per workload for each of round seeds 0-39 (which covers
every round of a default --seed 1 run and of nearby seeds) and writes
perfbench/golden.json. Every round must pass the seed-independent
invariants first. Re-record only when a change is meant to alter
simulated results.
"""

import json

import run

ROUND_SEEDS = range(40)


def main():
    run.build()
    golden = {}
    for workload in run.WORKLOADS:
        digests = {}
        for seed in ROUND_SEEDS:
            rec, problems = run.run_round(workload, seed, False, {})
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {problems}")
            digests[str(seed)] = run.digest(rec["results"])
        golden[workload] = digests
        run.log(f"{workload}: recorded {len(digests)} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) +
                          "\n")


if __name__ == "__main__":
    main()
