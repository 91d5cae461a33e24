"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its smallest size (one work unit) untraced,
traced, and against a deliberately corrupted reference, and checks that
  * every metric BENCHMARK.json names is emitted with its unit,
  * the layers' self times do not exceed the traced wall time,
  * the corrupted reference turns every drop into a failed drop,
  * a directory holding only the benchmark fails without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import OUT_DIR, REFERENCE, ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def bench(workload, trace, reference=REFERENCE, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--reference", reference],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def corrupt(path, workload):
    """Copy of the reference with every unit's power shifted by 1e-6
    relative, far outside the tolerances."""
    with open(REFERENCE) as f:
        ref = json.load(f)

    def shift(v):
        if isinstance(v, list):
            return [shift(x) for x in v]
        return v * (1 + 1e-6) if isinstance(v, float) else v

    for unit in ref["workloads"][workload].values():
        unit["power_db"] = shift(unit["power_db"])
    with open(path, "w") as f:
        json.dump(ref, f)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: runs and is correct")
            got = {name: m.get("unit") for name, m in
                   (result or {}).get("metrics", {}).items()
                   if isinstance(m.get("value"), (int, float))}
            check(got == expected[trace],
                  f"{workload} trace={trace}: emits exactly the metrics of "
                  f"BENCHMARK.json with their units")
        with open(os.path.join(OUT_DIR, f"result-{workload}-seed0-trace1"
                                        ".json")) as f:
            traced = json.load(f)["trace"]
        self_ms = sum(traced["layer_self_ms"].values())
        check(0 < self_ms <= traced["wall_s"] * 1e3,
              f"{workload}: layer self times {self_ms:.1f} ms within traced "
              f"wall {traced['wall_s'] * 1e3:.1f} ms")

        bad_ref = os.path.join(OUT_DIR, f"corrupt-{workload}.json")
        corrupt(bad_ref, workload)
        code, result = bench(workload, 0, reference=bad_ref)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"] >= 1,
              f"{workload}: corrupted reference reported as failed drops")

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = bench(WORKLOADS[0], 0, cwd=bare,
                         run=os.path.join(bare, "perfbench", "run.py"),
                         reference=os.path.join(bare, "perfbench",
                                                "reference.json"))
    check(code != 0 and result is None,
          "directory without the program: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
