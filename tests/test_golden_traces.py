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
        "3fad8c5604388128197ef18a5d4bec8a11092868612c2986aff4ded5e42e64ff",
    ("latency", "paper_table2.json"):
        "d61c6e3d3ae03b19e5923126f2bf966fb5ca89fc172f18ad5701de1dfd23b1f6",
    ("softfail", "paper_softfail.json"):
        "d60c94b63ffeeeef230176687727eef5b828bf931f4634baf89d9a8daa461db9",
    ("demo", "paper_full_demo.json"):
        "17226402d7ce47993708ed30b4e61b07aacb0478fbcdeb026c691ef41e48a664",
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_trace_digest(tmp_path, capsys, command, name):
    trace = tmp_path / "trace.csv"
    assert main([command, "--scenario", str(SCENARIO_DIR / name),
                 "--format", "json", "--trace", str(trace)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, name)]
