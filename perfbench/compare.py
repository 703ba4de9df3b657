#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/compare.py --base A1.txt A2.txt ... --change B1.txt ... [--ab]

Each file is the full standard output of one `perfbench/run.py` run of
the same workload. For every end-to-end metric the script prints both
sets' medians, their spreads (distance between the first and third
quartile as a share of the median) and the change, and flags a metric
whose change median is worse than the base median by more than its
bound.

Runs are comparable only when their stamps agree. The environment part
of the stamp (workload, run length, nproc, pool width, daemon flags,
toolchain) must always match. The code part (`rev`) and the self-test
perturbations (`delay_ms`, `tamper`) may differ between the two sets
only with `--ab`, which declares a deliberate A/B comparison such as a
parent commit against its change.

Exit status: 0 when nothing is flagged, 1 when a metric is flagged,
2 when the runs are not comparable.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AB_KEYS = ("rev", "delay_ms", "tamper")


def parse_run(text):
    """(stamp, result) from one run's standard output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty output")
    result = json.loads(lines[-1])
    stamps = [line[len("stamp "):] for line in lines if line.startswith("stamp ")]
    if not stamps:
        raise ValueError("output has no stamp line")
    return json.loads(stamps[-1]), result


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"]}


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def stamp_mismatch(base, change, ab):
    """Names the first stamp difference that forbids the comparison."""
    for group in (base, change):
        first = group[0]
        for other in group[1:]:
            for key in sorted(set(first) | set(other)):
                if first.get(key) != other.get(key):
                    return f"runs within one set differ in {key}: {first.get(key)!r} vs {other.get(key)!r}"
    a, b = base[0], change[0]
    for key in sorted(set(a) | set(b)):
        if a.get(key) == b.get(key):
            continue
        if ab and key in AB_KEYS:
            continue
        return f"base and change differ in {key}: {a.get(key)!r} vs {b.get(key)!r}"
    return None


def compare(base_runs, change_runs, bounds, ab=False):
    """Returns (refusal or None, rows). Each row is a dict per metric."""
    refusal = stamp_mismatch([s for s, _ in base_runs], [s for s, _ in change_runs], ab)
    if refusal:
        return refusal, []
    rows = []
    for name, spec in bounds.items():
        base = [r["metrics"][name]["value"] for _, r in base_runs if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for _, r in change_runs if name in r["metrics"]]
        if not base or not change:
            continue
        bm, cm = statistics.median(base), statistics.median(change)
        sign = 1.0 if spec["better"] == "lower" else -1.0
        worse = sign * (cm - bm) / bm if bm else 0.0
        rows.append({
            "metric": name,
            "unit": spec["unit"],
            "base": bm,
            "change": cm,
            "base_spread": spread(base),
            "change_spread": spread(change),
            "worse": worse,
            "bound": spec["bound"],
            "flagged": worse > spec["bound"],
            "unresolved": spread(base) > spec["bound"],
        })
    return None, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--ab", action="store_true",
                    help="allow rev/delay/tamper to differ between the sets")
    args = ap.parse_args()

    def load(paths):
        runs = []
        for p in paths:
            with open(p) as fh:
                runs.append(parse_run(fh.read()))
        return runs

    refusal, rows = compare(load(args.base), load(args.change), load_bounds(), args.ab)
    if refusal:
        print(f"refused: {refusal}")
        sys.exit(2)
    print(f"{'metric':<16} {'base':>12} {'change':>12} {'worse':>8} {'bound':>6} "
          f"{'spread b/c':>13}  verdict")
    for r in rows:
        verdict = "FLAGGED" if r["flagged"] else ("unresolved" if r["unresolved"] else "ok")
        print(f"{r['metric']:<16} {r['base']:>12.4f} {r['change']:>12.4f} "
              f"{r['worse']:>+8.1%} {r['bound']:>6.2f} "
              f"{r['base_spread']:>6.1%}/{r['change_spread']:<6.1%}  {verdict}")
    sys.exit(1 if any(r["flagged"] for r in rows) else 0)


if __name__ == "__main__":
    main()
