#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of BioCheck).

Usage (from the repository root):

    python3 perfbench/selftest.py

Takes about two and a half minutes. It checks that:

1. a short run of every workload, untraced and traced, passes every
   output check and prints exactly the metrics BENCHMARK.json names;
2. a tampered expectation (a wrong sample count, fingerprint or
   verdict) is counted as a failure and makes the run incorrect;
3. runs whose stamps differ are refused by compare.py;
4. unmodified runs against each other are not flagged; a generator-side
   delay as large as the req_p50_ms bound (the bound's share of the base
   median) reads worse in every run; and a delay of 1.5 times the bound
   is flagged. The gate flags only a change worse than the bound, and
   hit_mix sits on the daemon's delayed-ACK timer grid (README.md), which
   absorbs up to one timer tick of any delay: a bound-sized delay read
   +18% in one self-test and +25.1% in another, so it is checked as
   resolved, not as flagged.

Exits non-zero on the first failed check.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

WORKLOADS = ["smc_sweep", "hit_mix", "delta_session"]


def run(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd[1:])} exited {done.returncode}\n{done.stderr}")
    return done.stdout


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL: {msg}")
    print(f"ok: {msg}")


def main():
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "-q",
                           "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                          cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get(
                              "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))))
    check(unit.returncode == 0, "benchmark unit tests pass")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    bounds = compare.load_bounds()

    # 1. Short runs exercise every check and report every metric.
    for w in WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            stamp, result = compare.parse_run(run(w, 1, 3, trace))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result has exactly the four keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w} trace={trace}: every output check passed ({result['attempted']} requests)")
            check(set(result["metrics"]) == names,
                  f"{w} trace={trace}: reports exactly the BENCHMARK.json metrics")
            check(stamp["workload"] == w and stamp["pool_width"] >= 1,
                  f"{w} trace={trace}: stamped (pool width {stamp['pool_width']})")
            check(stamp["clock"].startswith("reference-core") == (w != "hit_mix"),
                  f"{w} trace={trace}: timed in {stamp['clock']} time")

    # 2. Tampered expectations are failures.
    for w in WORKLOADS:
        _, result = compare.parse_run(run(w, 2, 2, 0, ["--tamper"]))
        check(result["failed"] >= 1 and not result["correct"],
              f"{w}: a tampered expectation counts as {result['failed']} failed request(s)")

    # 3 and 4 on hit_mix, whose latency is steadiest.
    base = [compare.parse_run(run("hit_mix", s, 4)) for s in (11, 12)]
    again = [compare.parse_run(run("hit_mix", s, 4)) for s in (13, 14)]
    bound = bounds["req_p50_ms"]["bound"]
    p50 = statistics.median(r["metrics"]["req_p50_ms"]["value"] for _, r in base)

    def delayed(factor):
        delay = factor * bound * p50
        return delay, [compare.parse_run(run("hit_mix", s, 4, 0, ["--delay-ms", f"{delay:.3f}"]))
                       for s in (11, 12)]

    at_bound, slow = delayed(1.0)
    beyond, slower = delayed(1.5)

    altered = [(dict(stamp, pool_width=stamp["pool_width"] + 1), r) for stamp, r in again]
    refusal, _ = compare.compare(base, altered, bounds)
    check(refusal is not None, f"differing pool width refused ({refusal})")
    refusal, _ = compare.compare(base, slow, bounds)
    check(refusal is not None, f"a perturbed run is refused without --ab ({refusal})")

    refusal, rows = compare.compare(base, again, bounds)
    flagged = [r["metric"] for r in rows if r["flagged"]]
    check(refusal is None and not flagged, "unmodified runs against each other: nothing flagged")

    def p50s(runs):
        return [r["metrics"]["req_p50_ms"]["value"] for _, r in runs]

    refusal, rows = compare.compare(base, slow, bounds, ab=True)
    row = next(r for r in rows if r["metric"] == "req_p50_ms")
    check(refusal is None and min(p50s(slow)) > max(p50s(base + again)),
          f"a {at_bound:.1f} ms delay (the bound) reads worse in every run: "
          f"req_p50_ms {row['worse']:+.1%}")
    refusal, rows = compare.compare(base, slower, bounds, ab=True)
    row = next(r for r in rows if r["metric"] == "req_p50_ms")
    check(refusal is None and row["flagged"],
          f"a {beyond:.1f} ms delay (1.5 x the bound) is flagged: req_p50_ms "
          f"{row['worse']:+.1%} against a bound of {row['bound']:.0%}")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
