#!/usr/bin/env python3
"""Round-based benchmark of the decasim simulator.

    python3 perfbench/run.py --workload gemm_full --seed 1 --seconds 40 --trace 0

Builds the round program (perfbench/round.cc against the repository's
own CMake build) into .bench_build/, then runs the workload as a
sequence of rounds for --seconds seconds. Each round is a fixed unit of
user work in a fresh child process, one at a time, single-threaded,
with its own seed (workload seed + round index) and a deadline. Every
round's simulated results are checked: invariants that hold for any
seed, plus an exact digest for the round seeds recorded in
perfbench/golden.json.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}, where attempted/failed count rounds. With --trace 0 the
metrics are the end-to-end ones (tracing off); with --trace 1 the run
alternates untraced and traced rounds, runs the layer probes once, and
reports the per-layer metrics listed in BENCHMARK.json.

round_s and setup_s are host-normalized: each round's wall times are
scaled by REF_NOMINAL_S / (the mean time of a fixed host-reference loop
run in its own process just before and just after the round). Shared
hosts drift in speed by 10-30% over minutes, which moves every round of
a run alike; the reference loop (benchmark code, untouched by the
simulator) moves with it, so the ratio cancels the drift while any
change in the simulator's own cost still shows one for one. Raw wall
times are logged, and the traced run reports the raw round time as
bench.round_wall_s.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_round"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("gemm_full", "gemm_sampled", "serve_sweep")
# Cells (GeMM workloads) or serving arms (serve_sweep) in one round.
RESULTS_PER_ROUND = {"gemm_full": 36, "gemm_sampled": 36, "serve_sweep": 8}
# A hung round is killed and counted as failed instead of stalling the
# run; a healthy round takes a few seconds.
ROUND_TIMEOUT_S = 45.0
PROBE_TIMEOUT_S = 60.0
BUILD_TIMEOUT_S = 850.0
UTILIZATIONS = ("util_mem", "util_tmul", "util_vec", "util_deca")
# Times are reported at the host speed where the reference loop in
# round.cc takes this long.
REF_NOMINAL_S = 0.35


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the round program; exits on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no simulator sources under {ROOT}; nothing to build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_round", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            log(f"build failed: {e}")
            sys.exit(1)


def digest(results):
    """Digest of a round's simulated results (cycles, tiles, TFLOPS,
    utilizations per cell; ServeMetrics counts per arm)."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def check(workload, round_seed, results, golden):
    """Problems found in one round's results (empty = correct)."""
    problems = []
    if len(results) != RESULTS_PER_ROUND[workload]:
        problems.append(f"{len(results)} results, expected "
                        f"{RESULTS_PER_ROUND[workload]}")
    for r in results:
        name = r.get("name", "?")
        if workload == "serve_sweep":
            resolved = (r["completed"] + r["rejected"] + r["shed"] +
                        r["timed_out"])
            if r["offered"] <= 0 or resolved != r["offered"]:
                problems.append(f"{name}: resolved {resolved} != offered "
                                f"{r['offered']}")
        else:
            if r["tiles"] != r["scheduled_tiles"]:
                problems.append(f"{name}: processed {r['tiles']} of "
                                f"{r['scheduled_tiles']} tiles")
            if not (r["cycles"] > 0 and r["tflops"] > 0):
                problems.append(f"{name}: non-positive cycles/tflops")
            for u in UTILIZATIONS:
                if not 0.0 <= r[u] <= 1.0:
                    problems.append(f"{name}: {u}={r[u]} outside [0, 1]")
    want = golden.get(workload, {}).get(str(round_seed))
    if want is not None and want != digest(results):
        problems.append(f"digest {digest(results)} != recorded {want}")
    return problems


def run_round(workload, round_seed, trace, golden):
    """Run one round in a fresh process; returns (record, problems)."""
    cmd = [str(BINARY), workload, "--seed", str(round_seed)]
    if trace:
        cmd.append("--trace")
    spawn_ns = time.monotonic_ns()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"overran {ROUND_TIMEOUT_S:.0f} s"]
    if p.returncode != 0:
        return None, [f"exit {p.returncode}: {p.stderr.strip()[-300:]}"]
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, ["unparsable round output"]
    # Both clocks are CLOCK_MONOTONIC, so the child's instants compare
    # with the spawn instant.
    rec["setup_wall_s"] = (rec["ready_ns"] - spawn_ns) * 1e-9
    rec["round_wall_s"] = (rec["end_ns"] - rec["ready_ns"]) * 1e-9
    return rec, check(workload, round_seed, rec["results"], golden)


def host_reference():
    """Time of the fixed host-reference loop, in a fresh process."""
    p = subprocess.run([str(BINARY), "reference"], capture_output=True,
                       text=True, timeout=ROUND_TIMEOUT_S, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])["host_ref_s"]


def run_rounds(workload, seed, seconds, trace_mode, golden):
    """Rounds until the time budget is spent. Round k uses seed + k; in
    trace mode rounds come in pairs, an untraced and a traced round on
    the same seed (in alternating order, so order effects cancel), and
    the pair measures the tracing overhead."""
    passed = []
    attempted = failed = 0
    start = time.monotonic()
    ref_before = host_reference()
    while True:
        pair, second = divmod(attempted, 2) if trace_mode else (attempted, 0)
        traced = trace_mode and (pair + second) % 2 == 1
        round_seed = seed + pair
        rec, problems = run_round(workload, round_seed, traced, golden)
        ref_after = host_reference()
        attempted += 1
        if problems:
            failed += 1
            log(f"round {attempted - 1} (seed {round_seed}) failed: "
                + "; ".join(problems[:5]))
        else:
            rec["host_ref_s"] = (ref_before + ref_after) / 2
            speed = REF_NOMINAL_S / rec["host_ref_s"]
            rec["setup_s"] = rec["setup_wall_s"] * speed
            rec["round_s"] = rec["round_wall_s"] * speed
            rec["traced"] = traced
            rec["pair"] = pair
            passed.append(rec)
        ref_before = ref_after
        if trace_mode and attempted % 2 == 1:
            continue
        # Stop when one more round (or pair) would overrun the budget.
        elapsed = time.monotonic() - start
        step = 2 if trace_mode else 1
        if rec is None or elapsed * (attempted + step) / attempted > seconds:
            break
    return passed, attempted, failed


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def self_times(spans):
    """Per-span self time: duration minus the children's durations."""
    dur = [(s["t1"] - s["t0"]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            child[int(s["parent"])] += d
    return [d - c for d, c in zip(dur, child)]


def layer_round_values(rec):
    """Per-layer quantities of one traced round."""
    spans = rec["spans"]
    own = self_times(spans)

    def self_s(layer, name=None):
        return sum(t for s, t in zip(spans, own) if s["layer"] == layer
                   and (name is None or s["name"] == name))

    c = rec["counters"]
    calls = c.get("kernels.gemm_calls", 0.0)
    gemm_s = self_s("kernels")
    run_s = self_s("serve", "ServingSimulator::run")
    requests = c.get("serve.sim.requests", 0.0)
    return {
        "kernels.gemm_calls": calls,
        "kernels.gemm_self_s": gemm_s,
        "kernels.sim_tiles_per_host_s":
            c.get("kernels.sim_tiles", 0.0) / gemm_s if gemm_s else 0.0,
        "kernels.sampled_frac":
            c.get("kernels.sampled_calls", 0.0) / calls if calls else 0.0,
        "kernels.baseline_cache_hits": c.get("kernels.baseline_cache_hits",
                                             0.0),
        "kernels.baseline_cache_misses":
            c.get("kernels.baseline_cache_misses", 0.0),
        "llm.calibrate_s": self_s("llm"),
        "serve.step_cost.builds": c.get("serve.step_cost.builds", 0.0),
        "serve.step_cost.distinct_builds":
            c.get("serve.step_cost.distinct_builds", 0.0),
        "serve.step_cost.build_s": self_s("serve", "StepCostModel"),
        "serve.sim.run_s": run_s,
        "serve.sim.ns_per_request": run_s * 1e9 / requests if requests
        else 0.0,
        "serve.sim.requests": requests,
    }


def run_probes(workload):
    cmd = [str(BINARY), "probes", "--workload", workload]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROBE_TIMEOUT_S, check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        log(f"layer probes failed: {e}")
        return None


def tracing_overhead(passed):
    """Median over same-seed pairs of traced / untraced round time - 1."""
    plain = {r["pair"]: r["round_s"] for r in passed if not r["traced"]}
    ratios = [r["round_s"] / plain[r["pair"]] for r in passed
              if r["traced"] and r["pair"] in plain]
    return statistics.median(ratios) - 1 if ratios else None


def per_layer_metrics(workload, passed):
    traced = [r for r in passed if r["traced"]]
    overhead = tracing_overhead(passed)
    if overhead is None:
        log("no complete untraced/traced round pair")
        return None
    probe = run_probes(workload)
    if probe is None:
        return None
    per_round = [layer_round_values(r) for r in traced]
    values = {k: statistics.median(v[k] for v in per_round)
              for k in per_round[0]}
    values.update({
        "compress.tile_pool_build_s": probe["tile_pool_build_s"],
        "sim.event_queue.ns_per_event": probe["event_ns_per_event"],
        "sim.mem.ddr_ns_per_line": probe["ddr_ns_per_line"],
        "sim.mem.hbm_ns_per_line": probe["hbm_ns_per_line"],
        "sim.mem.row_hit_frac": probe["ddr_row_hit_frac"],
        "sim.mem.peak_active_requesters":
            probe["ddr_peak_active_requesters"],
        "core.host_core.ns_per_op": probe["host_ns_per_op"],
        "bench.trace_overhead_frac": overhead,
        "bench.host_ref_s": median_of(passed, "host_ref_s"),
        "bench.round_wall_s": median_of(
            [r for r in passed if not r["traced"]], "round_wall_s"),
    })
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    golden = load_golden()
    try:
        passed, attempted, failed = run_rounds(
            args.workload, args.seed, args.seconds, args.trace == 1, golden)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"host reference failed: {e}")
        sys.exit(1)
    if not passed:
        log("no round passed its checks")
        sys.exit(1)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer_metrics(args.workload, passed)
        if values is None:
            sys.exit(1)
        values["bench.rounds"] = attempted
        values["bench.failed_frac"] = failed / attempted
        declared = spec["per_layer"]
    else:
        values = {
            "round_s": median_of(passed, "round_s"),
            "setup_s": median_of(passed, "setup_s"),
            # Median, not max: a rare seed whose sampled cell falls back
            # to the full simulation peaks several times higher.
            "peak_rss_mb": median_of(passed, "peak_rss_kb") / 1024.0,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    log(f"{args.workload} seed {args.seed}: {attempted} rounds, "
        f"{failed} failed, median wall round "
        f"{median_of(passed, 'round_wall_s'):.4f} s / setup "
        f"{median_of(passed, 'setup_wall_s'):.5f} s, host_ref_s "
        f"{median_of(passed, 'host_ref_s'):.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
