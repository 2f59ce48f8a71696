"""Benchmark worker: one fresh, single-threaded process per run.

``run.py`` starts this script; it is not meant to be run by hand.

It does one untimed warm-up ``cli.main`` run, then timed runs until
``--seconds`` have passed; with ``--trace 1`` traced and untraced runs
alternate.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


class Runner:
    """Runs ``cli.main`` on one workload and checks every report."""

    def __init__(self, args: argparse.Namespace) -> None:
        import metrotwin.cli
        import workloads

        self.cli = metrotwin.cli
        self.workloads = workloads
        root = Path(__file__).resolve().parent.parent
        self.doc = workloads.scenario(root, args.workload, args.seed)
        self.out = Path(args.work_dir) / "report.json"
        self.argv = workloads.cli_argv(args.workload, Path(args.scenario),
                                       self.out)
        pins = workloads.load_pins(Path(__file__).resolve().parent)
        self.expected = pins.get(args.workload, {}).get(str(args.seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0

    def run(self, tracer=None) -> float:
        """One ``cli.main`` run; returns its host seconds."""
        self.attempted += 1
        if tracer is None:
            t0 = time.perf_counter()
            rc = self.cli.main(self.argv)
            elapsed = time.perf_counter() - t0
        else:
            from tracer import ROOT_SPAN, tracing
            with tracing(tracer):
                t0 = time.perf_counter()
                tracer.enter(ROOT_SPAN)
                try:
                    rc = self.cli.main(self.argv)
                finally:
                    tracer.exit()
                elapsed = time.perf_counter() - t0
        self._check(rc)
        return elapsed

    def _check(self, rc: int) -> None:
        problem = None
        if rc != 0:
            problem = f"cli.main returned {rc}"
        else:
            report = self.out.read_bytes()
            self.out.unlink()
            self.report_bytes = len(report)
            got = self.workloads.digest(report)
            if self.expected is None:
                # first report at an unpinned seed: check it, then require
                # every later run to repeat its bytes
                found = self.workloads.check_report(report, self.doc)
                if found:
                    problem = "; ".join(found)
                else:
                    self.expected = got
            elif got != self.expected:
                problem = f"report sha256 {got} != expected {self.expected}"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def _measure(args: argparse.Namespace) -> dict:
    from reference import reference_seconds, scaled

    runner = Runner(args)
    runner.run()  # warm-up, untimed
    times, ref_times = [], [reference_seconds()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        times.append(runner.run())
        ref_times.append(reference_seconds())
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
        "runs": len(times),
        "host": {"run_s": statistics.median(times),
                 "reference_s": statistics.median(ref_times)},
        "metrics": {
            "run_s": scaled(times, ref_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _trace(args: argparse.Namespace) -> dict:
    from tracer import Tracer, layer_metrics

    runner = Runner(args)
    runner.run()  # warm-up, untimed
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        tracer = Tracer()
        traced.append(runner.run(tracer))
        layers.append(layer_metrics(tracer))
        plain.append(runner.run())
    metrics = {name: statistics.median(op[name] for op in layers)
               for name in layers[0]}
    metrics["scenario.report_bytes"] = runner.report_bytes
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    tracer.write_spans(Path(args.spans),
                       f"{args.workload} seed {args.seed}: spans of the last "
                       f"traced cli.main run")
    self_s = {name: ns / 1e9 for name, ns in sorted(
        tracer.self_ns.items(), key=lambda kv: -kv[1]) if ns}
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:5],
        "runs": len(traced),
        "metrics": metrics,
        "self_s": self_s,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    result = _trace(args) if args.trace else _measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
