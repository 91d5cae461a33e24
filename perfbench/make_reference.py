"""Record the reference outputs of every work unit of every workload.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the
reference; it rewrites perfbench/reference.json. A later commit is
correct when its outputs match these (see workloads.py for the
tolerances), so re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import OUT_DIR, REFERENCE, ROOT, WORKER, WORKLOADS, pinned_env


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    env = pinned_env()
    reference = {"format": 1, "workloads": {}}
    for workload in WORKLOADS:
        path = os.path.join(OUT_DIR, f"record-{workload}.json")
        subprocess.run([sys.executable, WORKER, "--workload", workload,
                        "--record", path], cwd=ROOT, env=env, check=True)
        with open(path) as f:
            reference["workloads"][workload] = json.load(f)
        print(f"recorded {workload}: "
              f"{len(reference['workloads'][workload])} units")
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
