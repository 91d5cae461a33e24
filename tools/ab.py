"""Alternated in-process A/B of two checkouts on one benchmark workload.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload W [--units N]
        [--seed S]

PARENT_TREE and CHANGE_TREE are checkout roots. Each tree's package is
imported into this one process, on one BLAS thread, with its own copy
of this checkout's perfbench/workloads.py, so both run the benchmark's
own work units. Their units alternate, and so does which tree goes
first, so that drift in the machine's speed between processes cancels.
Each output is checked against perfbench/reference.json as the
benchmark checks it, and the two trees' outputs must be equal; any
mismatch exits 1. Prints the median parent/change time ratio per unit
(> 1: the change is faster), its quartiles and the change's wins.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@contextlib.contextmanager
def tree_on_path(tree: str, *paths: str):
    """Import from the thpalloc of `tree` (and from `paths`) in the block.

    The package's modules leave sys.modules afterwards, so the next tree
    imports afresh; what the block imported keeps the modules it was
    imported with."""
    sys.path[:0] = [os.path.join(os.path.abspath(tree), "src"), *paths]
    try:
        yield
    finally:
        del sys.path[:1 + len(paths)]
        for mod in [m for m in sys.modules
                    if m == "thpalloc" or m.startswith("thpalloc.")]:
            del sys.modules[mod]


def load_workload(tree: str, name: str, label: str):
    """perfbench's workload `name`, bound to the thpalloc of `tree`."""
    with tree_on_path(tree, PERFBENCH):
        spec = importlib.util.spec_from_file_location(
            f"workloads_{label}", os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.make(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--units", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the pool, as the benchmark's seed does")
    args = parser.parse_args(argv)
    if args.units < 2:
        parser.error("--units must be at least 2")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before the trees import numpy
    with open(os.path.join(PERFBENCH, "reference.json")) as f:
        reference = json.load(f)["workloads"][args.workload]
    trees = {"parent": load_workload(args.parent_tree, args.workload,
                                     "parent"),
             "change": load_workload(args.change_tree, args.workload,
                                     "change")}
    keys = itertools.cycle(trees["change"].order(args.seed))
    ratios = []
    with tempfile.TemporaryDirectory() as out_dir:
        first = next(keys)
        for workload in trees.values():  # warm both before timing
            workload.run(first, out_dir)
        for i in range(args.units):
            key = next(keys)
            order = ("parent", "change") if i % 2 else ("change", "parent")
            seconds, outputs = {}, {}
            for side in order:
                t0 = time.perf_counter()
                outputs[side] = trees[side].run(key, out_dir)
                seconds[side] = time.perf_counter() - t0
                failed, reason = trees[side].check(outputs[side],
                                                   reference[str(key)])
                if failed:
                    print(f"unit {key}, {side}: {reason}")
                    return 1
            if outputs["parent"] != outputs["change"]:
                print(f"unit {key}: the two trees' outputs differ")
                return 1
            ratios.append(seconds["parent"] / seconds["change"])
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(json.dumps({"workload": args.workload, "units": len(ratios),
                      "median_ratio": round(median, 4), "q1": round(q1, 4),
                      "q3": round(q3, 4),
                      "change_wins": sum(r > 1 for r in ratios)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
