"""Tier-1 coverage of tools/replay.py, the run_drop replay of two checkouts.

Each run replays 2 of the tool's 10 drops per config, to keep the suite
short; the comparison is the same."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def scaled_copy(tmp_path, factor):
    """A copy of src/ whose solve_assignment scales each total by factor."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "thpalloc" / "assignment.py"
    source = path.read_text()
    total = "total_cost=float(np.where(a, costs, 0.0).sum())"
    assert source.count(total) == 1
    path.write_text(source.replace(total, total[:-1] + f" * {factor!r})"))
    return tmp_path


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
