#!/usr/bin/env python3
"""metrotwin benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload softfail_drill --seed 1 \
        --seconds 20 --trace 0

The scenario is generated from ``--seed`` and the workload's shipped
template (see workloads.py).  Every ``cli.main`` run happens in a fresh
single-threaded worker process, after one untimed warm-up run, and every
report is checked (pinned SHA-256 where one exists, report invariants and
run-to-run byte equality otherwise).

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median host seconds
of one ``cli.main`` run), ``setup_s`` (median over fresh interpreters of the
host seconds until ``import metrotwin.cli`` and ``load_scenario`` are done),
both scaled to a fixed machine speed by reference.py, and ``peak_rss_mb`` of
the worker.  ``--trace 1`` prints the per-layer metrics of a separate traced
worker and writes the spans of its last traced run under perfbench/out/.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from reference import reference_seconds, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 21
DEADLINE_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# One set-up sample: the probe imports nothing a user of metrotwin would
# not, apart from the builtin ``sys`` and ``time``.
_SETUP_PROBE = ("import sys, time, metrotwin.cli; "
                "metrotwin.cli.load_scenario(sys.argv[1]); "
                "print(repr(time.monotonic()))")


def _setup_seconds(scenario: Path, env: dict) -> float:
    """Host seconds from process start to a loaded scenario, one sample."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(scenario)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _worker(args: argparse.Namespace, scenario: Path, work: Path, env: dict,
            timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario", str(scenario), "--work-dir", str(work)]
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "metrotwin" / "cli.py").is_file():
        print(f"error: no metrotwin sources under {ROOT / 'src'}; run from "
              f"the root of a metrotwin checkout", file=sys.stderr)
        return 2

    env = _worker_env()
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        scenario = work / "scenario.json"
        workloads.write_scenario(ROOT, args.workload, args.seed, scenario)
        metrics, host = {}, {}
        if not args.trace:
            _setup_seconds(scenario, env)  # untimed: fills caches and .pyc
            setup, ref = [], [reference_seconds()]
            for _ in range(SETUP_SAMPLES):
                setup.append(_setup_seconds(scenario, env))
                ref.append(reference_seconds())
            metrics["setup_s"] = scaled(setup, ref)
            host["setup_s"] = statistics.median(setup)
        result = _worker(args, scenario, work, env,
                         DEADLINE_S - (time.monotonic() - started))
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics.update(result["metrics"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['runs']} timed runs, "
          f"{failed} of {attempted} cli.main runs failed, "
          f"error_rate {failed / attempted:.4f} ratio")
    host.update(result.get("host", {}))
    if host:
        print("unscaled host medians: " + ", ".join(
            f"{name} {value:.4f} s" for name, value in host.items()))
    for name, seconds in result.get("self_s", {}).items():
        print(f"  self {name:32s} {seconds:.6f} s")
    for m in declared:
        print(f"{m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
