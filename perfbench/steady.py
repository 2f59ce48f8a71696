#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steady.py [--runs 10] [--baseline perfbench/baseline.json]

Runs ``perfbench/run.py --trace 0`` once per (seed, workload) for every
workload in BENCHMARK.json, for ``run_seconds`` each, in two sets: seeds
1..runs and runs+1..2*runs.  For every end-to-end metric and workload it
prints each set's median and quartiles, the spread (interquartile distance
over the median) and whether the sets agree within the metric's bound in
BENCHMARK.json: every spread at most the bound, and the second set's median
within the bound of the first set's, either way.  It also prints each
workload's error_rate (failed over attempted ``cli.main`` runs).
``--baseline`` writes the figures as JSON.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--baseline", type=Path,
                    help="write medians and quartiles here as JSON")
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    # values[workload][set][metric] -> list; runs interleave the workloads
    values = {w: [{} for _ in range(SETS)] for w in names}
    attempted = dict.fromkeys(names, 0)
    failed = dict.fromkeys(names, 0)
    for k in range(SETS):
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in names[i % len(names):] + names[:i % len(names)]:
                result = _run(w, seed, seconds)
                attempted[w] += result["attempted"]
                failed[w] += result["failed"]
                for metric, m in result["metrics"].items():
                    values[w][k].setdefault(metric, []).append(m["value"])
                print(f"set {k + 1} seed {seed} {w}: " + ", ".join(
                    f"{metric} {m['value']:.4f}"
                    for metric, m in result["metrics"].items()), flush=True)

    ok = True
    baseline = {"runs_per_set": args.runs, "sets": SETS,
                "seconds": seconds, "workloads": {}}
    print(f"\n{'workload':15s} {'metric':12s} {'unit':5s} "
          f"{'set':>3s} {'median':>9s} {'q1':>9s} {'q3':>9s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for w in names:
        base_w = baseline["workloads"][w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [_stats(v[name]) if len(v.get(name, [])) >= 2 else None
                    for v in values[w]]
            if None in sets:
                print(f"{w:15s} {name:12s} missing values")
                ok = False
                continue
            base_w[name] = {"unit": metric["unit"], "sets": sets}
            for k, st in enumerate(sets):
                bad = []
                if st["spread"] > bound:
                    bad.append("spread over bound")
                base = sets[0]["median"]
                if k and abs(st["median"] - base) / base > bound:
                    bad.append("median off set 1's by more than bound")
                ok = ok and not bad
                print(f"{w:15s} {name:12s} {metric['unit']:5s} {k + 1:3d} "
                      f"{st['median']:9.4f} {st['q1']:9.4f} {st['q3']:9.4f} "
                      f"{st['spread']:7.4f} {bound:6.2f}  "
                      f"{'; '.join(bad) or 'ok'}")
        rate = failed[w] / attempted[w] if attempted[w] else 1.0
        base_w["error_rate"] = {"unit": "ratio", "value": rate,
                                "failed": failed[w],
                                "attempted": attempted[w]}
        ok = ok and failed[w] == 0
        print(f"{w:15s} {'error_rate':12s} {'ratio':5s}     {rate:9.4f} "
              f"({failed[w]} of {attempted[w]} cli.main runs failed)")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
