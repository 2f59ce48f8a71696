"""Workload table, scenario generator and report checks for the benchmark.

Each workload is a shipped scenario plus the sizes that give it about one
second of host time per ``cli.main`` run.  The generator writes every
``repetitions`` key the workload sizes into the document itself: the CLI's
``--repeat`` never reaches ``latency.repetitions``, so it cannot size a
workload.

This module does not import ``metrotwin``, so the benchmark's parent process
stays free of the twin's import cost.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SCENARIO_DIR = Path("src") / "metrotwin" / "scenarios"

# Report bytes are pinned at each template's own seed, at this seed (never
# used while the workloads were tuned) and at PINNED_SEEDS.
HELD_OUT_SEED = 90017
PINNED_SEEDS = range(1, 21)

WORKLOADS = {
    "softfail_drill": {
        "template": "paper_softfail.json",
        "command": "softfail",
        "sizes": {"softfail.repetitions": 100},
    },
    "setup_sweep": {
        "template": "paper_setup.json",
        "command": "setup",
        "sizes": {"service.repetitions": 2000, "service.jitter": True},
    },
    "demo_mix": {
        "template": "paper_full_demo.json",
        "command": "demo",
        "sizes": {"service.repetitions": 600, "latency.repetitions": 60,
                  "softfail.repetitions": 30},
    },
}


def template(root: Path, name: str) -> dict:
    return json.loads((root / SCENARIO_DIR / WORKLOADS[name]["template"])
                      .read_text())


def pinned_seeds(root: Path, name: str) -> list[int]:
    return sorted({template(root, name)["seed"], HELD_OUT_SEED, *PINNED_SEEDS})


def scenario(root: Path, name: str, seed: int) -> dict:
    """The workload's scenario document for ``seed``."""
    doc = template(root, name)
    doc["seed"] = seed
    for key, value in WORKLOADS[name]["sizes"].items():
        section, field = key.split(".")
        doc[section][field] = value
    return doc


def write_scenario(root: Path, name: str, seed: int, path: Path) -> None:
    path.write_text(json.dumps(scenario(root, name, seed), indent=2) + "\n")


def cli_argv(name: str, scenario_path: Path, out_path: Path) -> list[str]:
    return [WORKLOADS[name]["command"], "--scenario", str(scenario_path),
            "--format", "json", "--out", str(out_path)]


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


# ----------------------------------------------------------------- checks
#
# A pinned digest proves the bytes at the pinned seeds.  At any other seed
# the report is checked against properties every correct run has, and every
# run in one process must repeat the first run's bytes.


def _check_setup(res: dict, doc: dict) -> list[str]:
    reps = doc["service"]["repetitions"]
    problems = []
    if res["repetitions"] != reps or len(res["per_repetition"]) != reps:
        problems.append(f"setup: expected {reps} repetitions")
    for row in res["per_repetition"]:
        e2e = float(row["kpi_e2e_s"])
        if not (0 < float(row["kpi_ns_deploy_s"]) <= e2e
                and 0 < float(row["kpi_connectivity_s"]) <= e2e
                and 0 < float(row["e2e_excl_transponder_s"]) <= e2e):
            problems.append(f"setup: KPIs out of order in {row}")
            break
    for key, s in res["summary"].items():
        if not float(s["min_s"]) <= float(s["mean_s"]) <= float(s["max_s"]):
            problems.append(f"setup: summary {key} not min <= mean <= max")
    return problems


def _check_latency(res: dict, doc: dict) -> list[str]:
    section = doc["latency"]
    problems = []
    if res["repetitions"] != section["repetitions"]:
        problems.append(f"latency: expected {section['repetitions']} "
                        f"repetitions")
    if len(res["cases"]) != len(section["cases"]):
        problems.append("latency: case count differs from the scenario")
        return problems
    probe = section["probe"]
    overhead_us = (probe["probe_overhead_ns"] + probe["switch_overhead_ns"]
                   + probe["optical_device_overhead_ns"]) / 1000.0
    for case, row in zip(section["cases"], res["cases"]):
        delta = float(row["measured_us"]) - float(row["estimated_us"])
        if abs(delta - float(row["delta_us"])) > 0.0015:
            problems.append(f"latency: delta does not match in {row}")
        clean = not case.get("legacy_residual_delay_ns")
        if clean and probe["jitter_sigma_ns"] == 0 \
                and abs(float(row["delta_us"]) - overhead_us) > 0.0015:
            problems.append(f"latency: overhead {row['delta_us']} us, "
                            f"configured {overhead_us:.3f} us")
    return problems


def _check_softfail(res: dict, doc: dict) -> list[str]:
    section = doc["softfail"]
    reps = section["repetitions"]
    problems = []
    if res["repetitions"] != reps or len(res["cases"]) != len(section["cases"]):
        problems.append("softfail: repetitions or case count differ")
    for case in res["cases"]:
        if case["repetitions"] != reps \
                or case["restored"] + case["failed"] != reps:
            problems.append(f"softfail: {case['name']} outcomes do not add "
                            f"up to {reps}")
        if float(case["detection_time_s"]) <= 0 \
                or float(case["anticipation_s"]) < 0:
            problems.append(f"softfail: {case['name']} detected after the "
                            f"crossing")
        if ("trace" in case) != section["emit_trace"]:
            problems.append(f"softfail: {case['name']} trace presence")
    return problems


_CHECKS = {"setup": _check_setup, "latency": _check_latency,
           "softfail": _check_softfail}


def check_report(report: bytes, doc: dict) -> list[str]:
    """Problems found in one canonical report of scenario ``doc``."""
    try:
        parsed = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if parsed.get("seed") != doc["seed"]:
        problems.append("report seed differs from the scenario seed")
    if parsed.get("scenario") != doc:
        problems.append("report does not echo the scenario")
    results = parsed.get("results", {})
    expected = {"setup_kpi": {"setup"}, "latency": {"latency"},
                "softfail": {"softfail"},
                "full_demo": {"setup", "latency", "softfail"}}[doc["experiment"]]
    if set(results) != expected:
        return problems + [f"report sections {sorted(results)}, expected "
                           f"{sorted(expected)}"]
    for section in sorted(expected):
        problems += _CHECKS[section](results[section], doc)
    return problems


def load_pins(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "pins.json").read_text())

