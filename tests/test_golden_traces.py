"""Pinned SHA-256 digests of the ``--trace`` files of the shipped scenarios.

Each shipped scenario runs under its own subcommand at its own seed with
``--format json``.  A trace line holds a fired event's time, sequence number
and kind, so a change to the kinds, the order or the timing of events, or to
any random draw that moves one, fails here.  Re-pin only when such a change
is intended, and say so in the change log.
"""

import hashlib

import pytest

from conftest import SCENARIO_DIR
from metrotwin.cli import main

GOLDEN = {
    ("setup", "paper_setup.json"):
        "9940930a4072dfea8107fa1709c6938471f565f5c4e1443fe3125f22937c9603",
    ("latency", "paper_table2.json"):
        "e186829d131b8f60835f4af8ffc1b80190ee1ca21849996e07462bd3426277d9",
    ("softfail", "paper_softfail.json"):
        "2c3292dca456281a4626216ada3d2f3ce0087f489b1ef653c7d6398300d70f56",
    ("demo", "paper_full_demo.json"):
        "cef91842814887f58f8120d8dcf88553183480c2b25d3beb553eaa13034d0c69",
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_trace_digest(tmp_path, capsys, command, name):
    trace = tmp_path / "trace.csv"
    assert main([command, "--scenario", str(SCENARIO_DIR / name),
                 "--format", "json", "--trace", str(trace)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, name)]
