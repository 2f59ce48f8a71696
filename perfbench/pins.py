#!/usr/bin/env python3
"""Check (default) or rewrite the pinned report digests in pins.json.

    python3 perfbench/pins.py            # exit 1 if any report changed
    python3 perfbench/pins.py --write    # re-pin after an intended change

For every workload this runs ``cli.main`` once per pinned seed (the
template's own seed, the held-out seed and workloads.PINNED_SEEDS) and
takes the SHA-256 of the canonical JSON report.  A report is pinned only
if it passes the report checks in workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import metrotwin.cli  # noqa: E402


def compute(work: Path) -> dict:
    pins = {}
    for name in workloads.WORKLOADS:
        pins[name] = {}
        for seed in workloads.pinned_seeds(ROOT, name):
            scenario, out = work / "scenario.json", work / "report.json"
            workloads.write_scenario(ROOT, name, seed, scenario)
            with contextlib.redirect_stderr(io.StringIO()):
                rc = metrotwin.cli.main(workloads.cli_argv(name, scenario, out))
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: cli.main returned {rc}")
            report = out.read_bytes()
            problems = workloads.check_report(
                report, workloads.scenario(ROOT, name, seed))
            if problems:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
            pins[name][str(seed)] = workloads.digest(report)
    return pins


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite pins.json instead of checking it")
    args = ap.parse_args()
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        pins = compute(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write:
        (BENCH / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")
        print(f"pinned {sum(map(len, pins.values()))} reports")
        return 0
    old = workloads.load_pins(BENCH)
    changed = [f"{name} seed {seed}" for name in pins for seed in pins[name]
               if old.get(name, {}).get(seed) != pins[name][seed]]
    for item in changed:
        print(f"report changed: {item}")
    print(f"{len(changed)} of {sum(map(len, pins.values()))} pinned reports "
          f"changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
