"""Tier-1 coverage of tools/ab.py, the in-process A/B of two checkouts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_ab(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(parent),
         str(change), "--workload", "s1_users_sweep", "--units", "2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_a_a_run_prints_one_json_line():
    proc = run_ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["workload"] == "s1_users_sweep" and report["units"] == 2
    assert report["median_ratio"] > 0


def test_a_perturbed_total_exits_1(tmp_path):
    # a copy of src/ whose solve_assignment scales each total by 1 + 1e-13:
    # inside reference.json's 1e-12 tolerance, but not equal to the
    # parent's outputs
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "thpalloc" / "assignment.py"
    source = path.read_text()
    total = "total_cost=float(np.where(a, costs, 0.0).sum())"
    assert source.count(total) == 1
    path.write_text(source.replace(total, total[:-1] + " * (1 + 1e-13))"))
    proc = run_ab(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "outputs differ" in proc.stdout
