"""Replay `run_drop` on two checkouts in one process and compare results.

    python3 tools/replay.py PARENT_TREE CHANGE_TREE

PARENT_TREE and CHANGE_TREE are checkout roots. Each tree's package is
imported into this one process, on one BLAS thread, and runs all four
architectures on 10 drops of each config in CONFIGS: every architecture
once alone, then all of them on one shared memo in architecture order
and on another in reverse order (1800 results). The two trees' results
are compared field by field, each partition as its groups, whichever
form the tree returns. Older trees also keep each group's allocation in
`assignments`; that field is left out, since `run_drop` builds `order`
from those allocations, so an equal `order` and partition mean equal
allocations. Prints one JSON line with, per config, how many results
are repr-equal (floats in numpy's "unique" mode) and the largest
relative difference of any float. Exits 1 if any feasibility, reason,
partition or order differs, or a field is present in only one tree's
result, naming the first such field; or if any float differs by more
than 1e-12 relative, the output gate of the project's speedups.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys

from ab import tree_on_path

REL_TOL = 1e-12
DROPS = 10

# name: (preset, keyword arguments); a preset of None is a ScenarioConfig
CONFIGS = {
    **{f"S1 K={k}": ("S1", dict(num_users=k)) for k in (8, 16, 24, 32)},
    "S1 K=16 rho=1e-307": ("S1", dict(rho=1e-307)),
    "S1 K=16 rho=1e-308": ("S1", dict(rho=1e-308)),
    "S2": ("S2", {}),
    "S2 rho=0.05": ("S2", dict(rho=0.05)),
    "S3 K=16": ("S3", {}),
    "S3 K=32": ("S3", dict(num_users=32)),
    "q3.cfg": (None, dict(num_subcarriers=12, num_users=6, tx_antennas=6,
                          rx_antennas=2, streams_per_user=1, quota=(2,) * 6,
                          mse_budget=(1.0,) * 6)),
    "4x2 quotas 1/3/2/4": (None, dict(num_subcarriers=8, num_users=4,
                                      tx_antennas=4, rx_antennas=2,
                                      streams_per_user=2, quota=(1, 3, 2, 4),
                                      mse_budget=(1.0, 0.5, 2.0, 1.0))),
    "6x2 Q=3": (None, dict(num_subcarriers=12, num_users=6, tx_antennas=6,
                           rx_antennas=2, streams_per_user=2, quota=(2,) * 6,
                           mse_budget=(1.0,) * 6)),
    "4x2 K=Q=2": (None, dict(num_subcarriers=8, num_users=2, tx_antennas=4,
                             rx_antennas=2, streams_per_user=2, quota=(4, 4),
                             mse_budget=(1.0, 1.0))),
    "8x2 K=Q=4": (None, dict(num_subcarriers=8, num_users=4, tx_antennas=8,
                             rx_antennas=2, streams_per_user=2,
                             quota=(2,) * 4, mse_budget=(1.0,) * 4)),
}


def load_tree(tree: str):
    """(channel, sim, baselines) modules of the thpalloc of `tree`."""
    with tree_on_path(tree):
        return tuple(importlib.import_module(f"thpalloc.{name}")
                     for name in ("channel", "sim", "baselines"))


def replay(tree, preset, kwargs):
    """The tree's results on DROPS drops of one config: per drop, each
    architecture alone, then on one memo forward and one in reverse."""
    channel, sim, baselines = tree
    config = (channel.scenario_preset(preset, **kwargs) if preset else
              channel.ScenarioConfig(**kwargs))
    archs = list(baselines.Architecture)
    results = []
    for drop in range(DROPS):
        channels = channel.generate_drop(config, drop)
        results += [sim.run_drop(config, channels, a) for a in archs]
        for order in (archs, archs[::-1]):
            memo = {}
            shared = {a: sim.run_drop(config, channels, a, memo=memo)
                      for a in order}
            results += [shared[a] for a in archs]
    return results


def leaves(value, path="result"):
    """(path, value) of each field inside a result, dataclasses, field
    dicts and tuples opened."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name)
                 for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        for name, item in value.items():
            yield from leaves(item, f"{path}.{name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def compared_fields(result):
    """The result's fields by name, its partition as its groups and no
    `assignments`: older trees hold the groups, with each user's channel
    quality, in an object's `groups`, and each group's allocation, which
    `order` and the partition fix, in `assignments`."""
    kept = {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.name != "assignments"}
    kept["partition"] = getattr(kept["partition"], "groups",
                                kept["partition"])
    return kept


def compare(parent, change, np):
    """(repr-equal, largest relative float difference, first exact
    mismatch or None) of two results' `compared_fields`."""
    parent, change = compared_fields(parent), compared_fields(change)
    worst, mismatch = 0.0, None
    ours, theirs = dict(leaves(parent)), dict(leaves(change))
    for path in {**ours, **theirs}:  # the parent's order, then the change's
        if path not in ours or path not in theirs:
            tree = "parent" if path in ours else "change"
            mismatch = mismatch or f"{path}: only in the {tree} tree"
            continue
        a, b = ours[path], theirs[path]
        x, y = np.asarray(a), np.asarray(b)
        finite = np.isfinite(x) if x.dtype.kind in "fc" else None
        if (finite is not None and y.dtype.kind in "fc"
                and x.shape == y.shape and (finite == np.isfinite(y)).all()
                and repr(x[~finite]) == repr(y[~finite])):  # nan and +-inf
            scale = np.maximum(np.abs(x[finite]), np.abs(y[finite]))
            rel = np.abs(x[finite] - y[finite]) / np.where(scale > 0, scale, 1)
            worst = max(worst, float(rel.max(initial=0.0)))
        elif repr(a) != repr(b):
            mismatch = mismatch or f"{path}: {a!r} != {b!r}"
    return repr(parent) == repr(change), worst, mismatch


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before the trees import numpy
    import numpy as np
    trees = [load_tree(tree) for tree in argv]
    report, failed = {}, False
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        for name, (preset, kwargs) in CONFIGS.items():
            parent, change = (replay(tree, preset, kwargs) for tree in trees)
            equal, worst = 0, 0.0
            for i, (a, b) in enumerate(zip(parent, change)):
                same, rel, mismatch = compare(a, b, np)
                equal += same
                worst = max(worst, rel)
                if mismatch or rel > REL_TOL:
                    failed = True
                    print(f"{name}, drop {i // 12}, result {i % 12}: "
                          f"{mismatch or f'relative difference {rel:.3g}'}",
                          file=sys.stderr)
            report[name] = {"equal": equal, "results": len(parent),
                            "max_rel_diff": worst}
    print(json.dumps({"configs": report,
                      "equal": sum(r["equal"] for r in report.values()),
                      "results": sum(r["results"]
                                     for r in report.values())}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
