"""Exact per-drop results of every architecture, pinned to recorded values.

`golden_drops.json` holds, for two drops each of S1 (K = 16 and 32), S2
and S3 at rho = 0.25 and seed 0, every architecture's power_db and the
owner of each subcarrier in each group round. A refactor of the cost
layer must reproduce them: equal assignments and power_db within
rel 1e-12. Re-record (`python tests/test_golden.py`) only with a change
that is meant to move these numbers, and say so.
"""

import json
import pathlib

import pytest

from thpalloc.baselines import Architecture
from thpalloc.channel import generate_drop, scenario_preset
from thpalloc.sim import run_drop

GOLDEN = pathlib.Path(__file__).with_name("golden_drops.json")
CASES = [("S1", 16), ("S1", 32), ("S2", 16), ("S3", 16)]
DROPS = (0, 1)


def owners(result):
    """Per group round, the user given each subcarrier (-1 if none)."""
    out = []
    for users, assignment in zip(result.partition.groups,
                                 result.assignments):
        out.append([users[row.argmax()] if row.any() else -1
                    for row in assignment.a])
    return out


def drop_record(preset, num_users, drop, arch):
    cfg = scenario_preset(preset, num_users=num_users, rho=0.25)
    res = run_drop(cfg, generate_drop(cfg, drop), arch)
    return {"feasible": res.feasible, "power_db": res.power_db,
            "owners": owners(res) if res.feasible else []}


def case_key(preset, num_users, drop, arch):
    return f"{preset}-K{num_users}-d{drop}-{arch.value}"


ALL_CASES = [(p, k, d, a) for p, k in CASES for d in DROPS
             for a in Architecture]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("preset,num_users,drop,arch", ALL_CASES,
                         ids=[case_key(*c) for c in ALL_CASES])
def test_drop_matches_recorded(golden, preset, num_users, drop, arch):
    want = golden[case_key(preset, num_users, drop, arch)]
    got = drop_record(preset, num_users, drop, arch)
    assert got["feasible"] == want["feasible"]
    assert got["owners"] == want["owners"]
    if want["feasible"]:
        assert got["power_db"] == pytest.approx(want["power_db"], rel=1e-12)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {case_key(*c): drop_record(*c) for c in ALL_CASES}) + "\n")
