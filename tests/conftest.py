import copy
import json
from pathlib import Path

import pytest

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "metrotwin" / "scenarios"


def ring_section(**overrides):
    """Three-node ring with one variable-length arc, two endpoints."""
    section = {
        "roadms": ["roadm1", "roadm2", "roadm3"],
        "links": [
            {"id": "r1-r2", "endpoints": ["roadm1", "roadm2"], "length_m": 79969.5},
            {"id": "r2-r3", "endpoints": ["roadm2", "roadm3"], "length_m": 41366.5},
            {"id": "r3-r1", "endpoints": ["roadm3", "roadm1"], "length_m": 6800.0},
        ],
        "transponders": [
            {"id": "tp1", "roadm": "roadm1"},
            {"id": "tp2", "roadm": "roadm2"},
        ],
        "switches": [
            {"id": "sw1", "transponder": "tp1"},
            {"id": "sw2", "transponder": "tp2"},
        ],
        "compute_nodes": [
            {"id": "edge1", "switch": "sw1"},
            {"id": "edge2", "switch": "sw2"},
        ],
    }
    section.update(overrides)
    return section


def service_section(jitter=False, **overrides):
    section = {
        "name": "slice-under-test",
        "jitter": jitter,
        "vnfs": [
            {"name": "csm-analytics", "vcpu": 4, "mem_mb": 8192, "compute": "edge1"},
            {"name": "css-dm", "vcpu": 4, "mem_mb": 8192, "compute": "edge2"},
        ],
        "connectivity": {"endpoints": ["tp1", "tp2"]},
    }
    section.update(overrides)
    return section


def make_scenario(experiment="setup_kpi", seed=7, **extra):
    doc = {
        "experiment": experiment,
        "seed": seed,
        "topology": ring_section(),
        "service": service_section(),
    }
    doc.update(copy.deepcopy(extra))
    return doc


def shipped(name):
    return json.loads((SCENARIO_DIR / name).read_text())


def tabled(seed, spawn_key=(), root=()):
    """The stream at ``spawn_key`` of a key table over the one ``root``."""
    from metrotwin.simkernel import KeyTable, SimRng

    return SimRng(KeyTable(seed, [root]), spawn_key)


def count_turns(monkeypatch) -> list:
    """The key table of each turn taken on a table's generator from here
    on, one entry a turn."""
    from metrotwin.simkernel import KeyTable

    turns = []
    take_turn = KeyTable.take_turn

    def counting_take_turn(self, key):
        turns.append(self)
        return take_turn(self, key)

    monkeypatch.setattr(KeyTable, "take_turn", counting_take_turn)
    return turns


@pytest.fixture
def topo():
    from metrotwin.topology import build_ring

    return build_ring(ring_section())
