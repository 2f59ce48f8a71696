import re

import metrotwin
from conftest import SCENARIO_DIR

SRC_DIR = SCENARIO_DIR.parent

# a service is never torn down: its world is dropped once it is restored or
# failed; and a world deploys one service, so nothing arbitrates between
# services for channels, transponders or compute
DELETED = ("teardown", "transponder_teardown", "TORN_DOWN", "DetectionTooLate",
           "channel_ledger", "assign_channel", "claimed_by", "channel_grid",
           "PlacementFailed", "ChannelExhausted", "TransponderUnavailable",
           # a deployment stream draws through its runner's key table, and
           # the stack enters each transponder phase itself
           "lognormal_mean_cv", "transponder_lifecycle", "lifecycle_pending")


def test_every_export_resolves():
    assert len(set(metrotwin.__all__)) == len(metrotwin.__all__)
    for name in metrotwin.__all__:
        assert hasattr(metrotwin, name), name


def test_deleted_names_stay_deleted():
    assert not set(DELETED) & set(metrotwin.__all__)
    for path in sorted(SRC_DIR.glob("*.py")):
        text = path.read_text()
        for name in DELETED:
            assert not re.search(rf"\b{name}\b", text), f"{path.name}: {name}"
