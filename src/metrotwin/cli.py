"""Command-line front end.

One subcommand per experiment plus ``validate``.  Reports go to stdout (or
``--out``); anything diagnostic goes to stderr.  Exit code 0 on success, 1
for a bad scenario or an unwritable output path, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Optional

from .errors import ParseError, TwinError, ValidationError
from .scenario import (SECTIONS, RunReport, Scenario, load_scenario,
                       run_scenario, scenario_from_dict)

_EXPERIMENT_FOR = {
    "setup": "setup_kpi",
    "latency": "latency",
    "softfail": "softfail",
    "demo": "full_demo",
}


@functools.cache  # one parser a process: each run of main parses anew
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mst",
        description="Deterministic digital twin of a metro optical ring: "
                    "service setup KPIs, latency probing, soft-failure drills.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("setup", "run the service-setup KPI experiment"),
            ("latency", "run the round-trip latency experiment"),
            ("softfail", "run the soft-failure detection experiment"),
            ("demo", "run setup, latency and soft failure back to back"),
            ("validate", "check a scenario file and exit")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, metavar="PATH",
                       help="scenario JSON file")
        p.add_argument("--lenient", action="store_true",
                       help="downgrade unknown scenario keys to warnings")
        if name == "validate":
            continue
        p.add_argument("--repeat", type=int, metavar="N",
                       help="override repetition counts")
        p.add_argument("--seed", type=int, metavar="S",
                       help="override the scenario seed")
        p.add_argument("--rate", type=float, action="append", metavar="R",
                       help="replace soft-failure cases with these "
                            "dB/s ramp rates (repeatable)")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table", help="report rendering (default table)")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--trace", metavar="PATH",
                       help="append fired kernel events to this file")
    return parser


def _apply_overrides(sc: Scenario, args: argparse.Namespace,
                     experiment: str) -> Scenario:
    doc = sc.raw
    changed = False
    if doc.get("experiment") != experiment:
        doc["experiment"] = experiment
        changed = True
    if args.seed is not None:
        doc["seed"] = args.seed
        changed = True
    if args.repeat is not None:
        if args.repeat < 1:
            raise ValidationError("--repeat must be at least 1")
        doc.setdefault("service", {})["repetitions"] = args.repeat
        for section in ("latency", "softfail"):
            if section in doc:
                doc[section]["repetitions"] = args.repeat
        changed = True
    if args.rate:
        if "softfail" not in SECTIONS[experiment]:
            raise ValidationError(f"--rate: mst {args.command} runs no "
                                  f"soft-failure experiment")
        section = doc.setdefault("softfail", {})
        template = section["cases"][0] if section.get("cases") else {}
        section["cases"] = [dict(template, rate_db_per_s=rate,
                                 name=f"case{i + 1}")
                            for i, rate in enumerate(args.rate)]
        changed = True
    if changed:
        return scenario_from_dict(doc, lenient=args.lenient)
    return sc


# ------------------------------------------------------------- rendering


def _pad_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _setup_rows(results: dict) -> list[list[str]]:
    """A row of statistics per KPI, in the summary's order."""
    stats = ("mean_s", "std_s", "min_s", "max_s")
    return [["kpi", *stats]] + [[kpi] + [s[k] for k in stats]
                                for kpi, s in results["summary"].items()]


def _columns(keys: tuple[str, ...], records: list[dict]) -> list[list[str]]:
    """A header of ``keys``, then each record's values at them, as text."""
    return [list(keys)] + [[str(r[k]) for k in keys] for r in records]


_LATENCY_KEYS = ("link_length_km", "measured_us", "estimated_us", "delta_us")
_SOFTFAIL_CSV_KEYS = (
    "name", "rate_db_per_s", "detection_time_s", "anticipation_s",
    "predicted_anticipation_s", "mean_detection_snr_db", "mean_detection_ber",
    "restored", "failed")


_SOFTFAIL_METRICS = (
    ("Detection time (min)", "detection_time_min"),
    ("Anticipation time (min)", "anticipation_min"),
    ("Mean detection SNR (dB)", "mean_detection_snr_db"),
    ("Mean detection BER", "mean_detection_ber"),
)


def _softfail_rows(results: dict) -> list[list[str]]:
    cases = results["cases"]
    header = ["metric"] + [f"Case {i + 1}" for i in range(len(cases))]
    rows = [header]
    for label, key in _SOFTFAIL_METRICS:
        rows.append([label] + [case[key] for case in cases])
    return rows


def _csv_cell(cell: str) -> str:
    """``cell`` quoted as RFC 4180 does, when it holds a comma, a quote or
    a line break (``csv.writer`` leaves a lone CR bare before Python 3.13)."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(map(_csv_cell, cells)) + "\n" for cells in rows)


def render_report(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_canonical_json()
    sections = []
    if "setup" in report.results:
        sections.append(("setup", _setup_rows(report.results["setup"])))
    if "latency" in report.results:
        sections.append(("latency", _columns(
            _LATENCY_KEYS, report.results["latency"]["cases"])))
    if "softfail" in report.results:
        softfail = report.results["softfail"]
        rows = (_columns(_SOFTFAIL_CSV_KEYS, softfail["cases"]) if fmt == "csv"
                else _softfail_rows(softfail))
        sections.append(("softfail", rows))
    out = []
    for name, rows in sections:
        if len(sections) > 1:
            out.append(f"# {name}\n")
        out.append(_csv(rows) if fmt == "csv" else _pad_table(rows))
    return "".join(out)


# ------------------------------------------------------------------ main


def _cannot_write(option: str, path: str, exc: OSError) -> int:
    print(f"error: {option}: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.scenario, lenient=args.lenient)
        for warning in sc.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if args.command == "validate":
            print(f"scenario OK: experiment={sc.experiment} seed={sc.seed}")
            return 0
        sc = _apply_overrides(sc, args, _EXPERIMENT_FOR[args.command])
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        trace_file = open(args.trace, "a") if args.trace else None
    except OSError as exc:
        return _cannot_write("--trace", args.trace, exc)
    try:
        with trace_file or contextlib.nullcontext():
            report = run_scenario(sc, trace_sink=trace_file)
        rendered = render_report(report, args.format)
    except TwinError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report, fail with runtime code
        if isinstance(exc, OSError) and trace_file is not None:
            return _cannot_write("--trace", args.trace, exc)
        print(f"runtime error: {exc!r}", file=sys.stderr)
        return 2

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            return _cannot_write("--out", args.out, exc)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
