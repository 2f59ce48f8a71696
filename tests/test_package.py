import inspect
import os
import re
import subprocess
import sys

import pytest

import metrotwin
from conftest import SCENARIO_DIR, shipped
from metrotwin.errors import TopologyInvalid
from metrotwin.mda import DegradationEvent, DetectorConfig
from metrotwin.optics import AttenuationRamp, SignalModel, TelemetrySample
from metrotwin.probe import LatencyMeasurement, ProbeConfig
from metrotwin.scenario import (Latency, Softfail, SoftfailCase,
                                scenario_from_dict)
from metrotwin.simkernel import SECOND
from metrotwin.topology import (ComputeNode, FiberLink, OpticalPath,
                                RingTopology, TransponderNode)

SRC_DIR = SCENARIO_DIR.parent

# a service is never torn down: its world is dropped once it is restored or
# failed; and a world deploys one service, so nothing arbitrates between
# services for channels, transponders or compute
DELETED = ("teardown", "transponder_teardown", "TORN_DOWN", "DetectionTooLate",
           "channel_ledger", "assign_channel", "claimed_by", "channel_grid",
           "PlacementFailed", "ChannelExhausted", "TransponderUnavailable",
           # a deployment stream draws through its runner's key table, and
           # the stack enters each transponder phase itself
           "lognormal_mean_cv", "transponder_lifecycle", "lifecycle_pending",
           # a key table builds its generator from Philox(0) and sets its
           # key through the state setter on every turn
           "_fixed_key", "FixedKey", "ISeedSequence",
           # one column writer renders the latency table and soft-failure CSV
           "_latency_rows", "_softfail_csv_rows",
           # a world reads its row of the plan's deployment streams once
           "_durations", "vnf_streams", "transponder_streams",
           # an event's label is its trace text, the clock is the kernel's
           # now attribute, and schedule is the one way in; a scenario's
           # plans carry its ring and service
           "_label_text", "Label", "schedule_in", "Service",
           # one report-table type holds a table's numeric columns and its
           # cells' formats, and one writer branch renders it
           "EpisodeTrace", "TraceRows", "KpiRows", "_Rows", "_TRACE_CELLS")


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


def test_importing_the_cli_makes_no_dataclass():
    # a dataclass generates and compiles its methods as its module imports,
    # which every run of the twin would pay for
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, metrotwin.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


_SC = scenario_from_dict(shipped("paper_full_demo.json"))
_RING = _SC.plans[0].ring
# each record of the twin that is frozen, and AttenuationRamp, with its
# positional arguments, and the keyword value out of its range that it
# rejects, with the error it raises, if it checks one
RECORDS = [
    (TransponderNode, ("tp1", "roadm1", 1, 2), None),
    (FiberLink, ("l1", ("r1", "r2"), 10.0, 1.5, 3),
     ({"length_m": -1.0}, TopologyInvalid)),
    (ComputeNode, ("c1", 8, 1024), ({"vcpu_capacity": 0}, TopologyInvalid)),
    (OpticalPath, ("tp1", "tp2", ("l1",), ("r1", "r2"), "clockwise", 0),
     None),
    (RingTopology, (_RING.links, _RING.ring_order, _RING.ring_links,
                    _RING.transponders, _RING.compute_nodes), None),
    (SignalModel, (21.0, 0.5, 1e-3), ({"fail_ber_above": 0.6}, ValueError)),
    (TelemetrySample, (0, 20.0, 1e-9), None),
    (ProbeConfig, (1, 2, 3, 4), None),
    (LatencyMeasurement, (0, 5, 0), None),
    (DetectorConfig, (SECOND, 10, 0.5, 3, 5),
     ({"regression_window": 1}, ValueError)),
    (DegradationEvent, (0, 20.0, 1e-9, -0.1, None), None),
    (Latency, tuple(_SC.latency), None),
    (SoftfailCase, tuple(_SC.softfail.cases[0]), None),
    (Softfail, tuple(_SC.softfail), None),
    (AttenuationRamp, ("l1", 0.1, 0, 0.5),
     ({"snr_coupling": 2.0}, ValueError)),
]


@pytest.mark.parametrize("cls,args,rejects", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_keep_their_construction_and_immutability(cls, args, rejects):
    record = cls(*args)
    kwargs = inspect.signature(cls).bind(*args).arguments
    assert cls(**kwargs) == record
    if cls is not AttenuationRamp:  # the one record here that is mutable
        for name in getattr(record, "_fields", record.__slots__) + ("x",):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))
    if rejects is not None:
        bad, error = rejects
        with pytest.raises(error):
            cls(**{**kwargs, **bad})
