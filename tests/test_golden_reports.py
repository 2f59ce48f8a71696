"""Pinned SHA-256 digests of the canonical reports of the shipped scenarios.

Any change that alters a single byte of a report, or of its table or CSV
rendering, fails here.  Re-pin only
when a report change is intended, and say so in the change log.
"""

import hashlib

import pytest

from conftest import SCENARIO_DIR, shipped
from metrotwin.cli import main
from metrotwin.scenario import run_scenario, scenario_from_dict

HELD_OUT_SEED = 90017

GOLDEN = {
    ("paper_setup.json", 3):
        "baced9e54536f33fa7a321bc1e97002382e06a4e72245d47870a6345cb7a6eba",
    ("paper_setup.json", HELD_OUT_SEED):
        "7652a5380cf7bec51bf84810e3926235cfd6667cb847b603389ec6f3dccd8c89",
    ("paper_table2.json", 7):
        "b5baecf31d0c0c30b4ae32b4768d138684c1077b178b10638645937a709022b5",
    ("paper_table2.json", HELD_OUT_SEED):
        "2aa36690456632333b1010b1b32ad7cf66e4c340bb7e25b08c5c3383de12bd91",
    ("paper_softfail.json", 7):
        "931256ce1f4d6d094da561028e1e2793f0acfc03dd7b5bdd7d138fd42d80f00e",
    ("paper_softfail.json", HELD_OUT_SEED):
        "0c128c176758a565a654cff0f06c072e3b254324a43bc15111ee9c3045673422",
    ("paper_full_demo.json", 21):
        "f90cdcf4708a9d512bdf669e002824e4941be4b208220e062ec1147962b80eb0",
    ("paper_full_demo.json", HELD_OUT_SEED):
        "125c3384387de18a009d5bf064a25f427d64e2d6dd17a58f107a73d110c7a773",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_canonical_report_digest(name, seed):
    doc = shipped(name)
    if seed != HELD_OUT_SEED:
        assert doc["seed"] == seed, "pinned own seed no longer matches the file"
    doc["seed"] = seed
    report = run_scenario(scenario_from_dict(doc)).to_canonical_json()
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[(name, seed)]


# One repetition of a slow ramp: about 51,000 trace rows up to the crossing,
# where the reports pinned above hold about 800 between them.
SLOW_TRACE = "c4a34e626c86657b35d6f08bd69e7e971186e122fef81186ef9d22d4b022181d"


def test_slow_trace_report_digest():
    doc = shipped("paper_softfail.json")
    softfail = doc["softfail"]
    softfail["repetitions"] = 1
    softfail["cases"] = [dict(softfail["cases"][0], rate_db_per_s=2.5e-4)]
    report = run_scenario(scenario_from_dict(doc)).to_canonical_json()
    assert hashlib.sha256(report.encode()).hexdigest() == SLOW_TRACE


# The table and CSV renderings of the shipped scenarios, each under its own
# subcommand at its own seed, as the CLI prints them to standard output.
GOLDEN_FORMATS = {
    ("setup", "paper_setup.json", "table"):
        "4a099c6883e60f1e26b17de60eb46f4155616705ff634691e801c14c86b9a090",
    ("latency", "paper_table2.json", "table"):
        "6c4ef134483bb435ffcc245bc645feaeb6f4e824d5a4899e3e2fe32d2b899ea4",
    ("softfail", "paper_softfail.json", "table"):
        "202867a91db27a6806fb5fc65bab3c893a5528e7da7a7a4645e44910a3ab5c1c",
    ("demo", "paper_full_demo.json", "table"):
        "d029f8a46e6b5c585a33b4d9c0d2d03d6121789d3e6e9b751659ab9780ba8bf0",
    ("setup", "paper_setup.json", "csv"):
        "1c25103424e2be0c85d79ad196974744b706966de362ddfb8a8b7bb19fcdd75d",
    ("latency", "paper_table2.json", "csv"):
        "3579d87ee13acd8cda9e7a2eb014e5ddd4571c6cb7e806735e48b24b61a20292",
    ("softfail", "paper_softfail.json", "csv"):
        "a2fdfa13e2968f37423301b9264bfeeb32257a7bbcb10f21c9f2516bf7f27540",
    ("demo", "paper_full_demo.json", "csv"):
        "5678cb84bfeca89e651ccbaddd946b13193209cfc6479053eb168d161a3a6328",
}


@pytest.mark.parametrize("command,name,fmt", sorted(GOLDEN_FORMATS))
def test_rendered_report_digest(capsys, command, name, fmt):
    assert main([command, "--scenario", str(SCENARIO_DIR / name),
                 "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_FORMATS[(command, name, fmt)]
