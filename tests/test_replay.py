"""Tier-1 coverage of tools/replay.py, the run_drop replay of two checkouts.

Each run replays 2 of the tool's 10 drops per config, to keep the suite
short; the comparison is the same."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from thpalloc import channel, sim

ROOT = Path(__file__).resolve().parents[1]


def run_replay(parent, change):
    script = ("import sys, replay; replay.DROPS = 2; "
              f"sys.exit(replay.main([{str(parent)!r}, {str(change)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT / "tools")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout + proc.stderr
    return proc, json.loads(lines[0])


def patched_copy(tmp_path, module, old, new):
    """A copy of src/ with the one `old` in thpalloc/`module` made `new`."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "thpalloc" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return tmp_path


def scaled_copy(tmp_path, factor):
    """A copy of src/ whose proposed scheme scales each group's committed
    total by factor."""
    total = "float(np.where(a, costs, 0.0).sum())"
    return patched_copy(tmp_path, "sim.py", total,
                        total[:-1] + f" * {factor!r})")


@pytest.fixture
def replay(monkeypatch):
    """tools/replay.py, imported into this process."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import replay
    return replay


@pytest.fixture(scope="module")
def result():
    """The proposed scheme's result on one drop of a K = Q = 2 config."""
    config = channel.ScenarioConfig(
        num_subcarriers=8, num_users=2, tx_antennas=4, rx_antennas=2,
        streams_per_user=2, quota=(4, 4), mse_budget=(1.0, 1.0))
    return sim.run_drop(config, channel.generate_drop(config, 0),
                        sim.Architecture.THP_TX_LIN_RX)


@dataclasses.dataclass(frozen=True)
class WrappedGroups:
    """A partition as older trees return it: the groups, and each user's
    channel quality."""

    groups: tuple
    quality: np.ndarray


@dataclasses.dataclass(frozen=True)
class ResultWithAllocations:
    """A result as older trees return it: each group's allocation also in
    `assignments`, beside the order built from them."""

    architecture: sim.Architecture
    feasible: bool
    partition: tuple
    assignments: tuple
    order: np.ndarray
    total_power: float
    power_db: float
    infeasible_reason: str = ""


@pytest.fixture(scope="module")
def a_a_report():
    proc, report = run_replay(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return report


def test_a_a_run_has_every_result_equal(a_a_report):
    configs = a_a_report["configs"]
    assert len(configs) == 15
    assert a_a_report["results"] == 15 * 2 * 12
    assert a_a_report["equal"] == a_a_report["results"]
    assert all(c["max_rel_diff"] == 0.0 for c in configs.values())


def test_totals_moved_within_the_gate_exit_0(tmp_path, a_a_report):
    proc, report = run_replay(ROOT, scaled_copy(tmp_path, 1 + 1e-13))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report["results"] == a_a_report["results"]
    assert report["equal"] < a_a_report["equal"]
    worst = max(c["max_rel_diff"] for c in report["configs"].values())
    assert 0.0 < worst <= 1e-12


def test_totals_moved_past_the_gate_exit_1(tmp_path):
    proc, report = run_replay(ROOT, scaled_copy(tmp_path, 1 + 1e-9))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "relative difference" in proc.stderr
    assert max(c["max_rel_diff"] for c in report["configs"].values()) > 1e-12


def test_a_field_in_one_tree_only_is_named(replay, result):
    assert result.feasible and len(result.partition) == 2
    grown = dataclasses.replace(result,
                                partition=result.partition + ((2, 3),))
    same, rel, mismatch = replay.compare(result, grown, np)
    assert not same and rel == 0.0
    assert mismatch == "result.partition[2][0]: only in the change tree"
    same, rel, mismatch = replay.compare(grown, result, np)
    assert not same and rel == 0.0
    assert mismatch == "result.partition[2][0]: only in the parent tree"


def test_a_partition_compares_as_its_groups(replay, result):
    wrapped = dataclasses.replace(result, partition=WrappedGroups(
        groups=result.partition, quality=np.array([0.5, 2.0])))
    # unwrapped, the two results' leaf paths differ
    assert ([path for path, _ in replay.leaves(wrapped)]
            != [path for path, _ in replay.leaves(result)])
    assert replay.compare(wrapped, result, np) == (True, 0.0, None)
    assert replay.compare(result, wrapped, np) == (True, 0.0, None)


def test_older_allocations_compare_through_order(replay, result):
    older = ResultWithAllocations(
        assignments=tuple(oracles.allocations(result)),
        **{f.name: getattr(result, f.name)
           for f in dataclasses.fields(result)})
    # as they are, the two results' leaf paths differ
    assert ([path for path, _ in replay.leaves(older)]
            != [path for path, _ in replay.leaves(result)])
    assert replay.compare(older, result, np) == (True, 0.0, None)
    assert replay.compare(result, older, np) == (True, 0.0, None)


def test_a_result_layout_change_exits_1_naming_the_field(tmp_path):
    field = 'infeasible_reason: str = ""\n'
    proc, report = run_replay(ROOT, patched_copy(
        tmp_path, "sim.py", field, field + '    note: str = ""\n'))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert report["equal"] == 0
    assert "result.note: only in the change tree" in proc.stderr
