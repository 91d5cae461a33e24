"""Workload definitions, their unit runners and the reference check.

A workload is a pool of work units. A sweep unit is one
`thpalloc sweep` call over DROPS paired drops at one sweep seed; a link
unit is one drop of the link-level check. The workload seed only picks
the order in which a run takes units from the pool, so every unit of
every run has a recorded reference output.

Imported by the worker process after thpalloc is importable.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import random

import thpalloc
import thpalloc.channel
import thpalloc.cli
import thpalloc.sim

from calltrace import rebind

SWEEP_REL_TOL = 1e-12
LINK_REL_TOL = 1e-9

# criterion 5's link-level settings: 1e5 symbols per user at n_k * L = 8
LINK_CONFIG = dict(preset_id="S2", rho=0.05, rng_seed=55,
                   constellation_size=64)
LINK_SYMBOLS = 12500


class Workload:
    """Common interface: `pool` keys, `run(key, out_dir)` -> output
    dict, `drops` paired drops per unit."""

    name = ""
    drops = 1
    pool: tuple[int, ...] = ()

    def order(self, seed: int) -> list[int]:
        keys = list(self.pool)
        random.Random(seed).shuffle(keys)
        return keys


class SweepWorkload(Workload):
    """One `thpalloc sweep` CLI call per unit; the unit key is the
    sweep's --seed."""

    def __init__(self, name, sweep_args, drops, pool_size):
        self.name = name
        self.sweep_args = list(sweep_args)
        self.drops = drops
        self.pool = tuple(range(pool_size))
        self._captured = []
        original = thpalloc.sim.run_sweep

        @functools.wraps(original)
        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self._captured.append(result)
            return result

        rebind(original, capture)

    def argv(self, key, out_dir):
        return (["sweep"] + self.sweep_args +
                ["--drops", str(self.drops), "--seed", str(key),
                 "--out", os.path.join(out_dir, f"{self.name}.csv"),
                 "--detail", os.path.join(out_dir, f"{self.name}.detail.csv"),
                 "--workers", "1"])

    def run(self, key, out_dir):
        self._captured.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = thpalloc.cli.main(self.argv(key, out_dir))
        out = {"exit_code": code}
        if code == 0:
            with open(os.path.join(out_dir, f"{self.name}.csv"), "rb") as f:
                out["summary_csv"] = f.read().decode("ascii")
        if len(self._captured) == 1:
            result = self._captured[0]
            out["feasible"] = result.feasible.astype(bool).tolist()
            out["power_db"] = [[[_num(v) for v in row] for row in point]
                               for point in result.power_db.tolist()]
        return out

    def check(self, out, ref) -> tuple[int, str]:
        """Number of failed drops of the unit and the first reason."""
        if out.get("exit_code") != 0:
            return self.drops, f"cli.main returned {out.get('exit_code')}"
        if "power_db" not in out:
            return self.drops, "no sweep result captured from run_sweep"
        if out["summary_csv"] != ref["summary_csv"]:
            return self.drops, "summary CSV differs from reference"
        failed, reason = 0, ""
        for d in range(self.drops):
            bad = ""
            if ([p[d] for p in out["feasible"]] !=
                    [p[d] for p in ref["feasible"]]):
                bad = f"drop {d}: feasibility differs"
            else:
                for point, ref_point in zip(out["power_db"], ref["power_db"]):
                    for row, ref_row in zip(point, ref_point):
                        if not _close(row[d], ref_row[d], SWEEP_REL_TOL):
                            bad = (f"drop {d}: power {row[d]!r} vs "
                                   f"reference {ref_row[d]!r}")
            if bad:
                failed += 1
                reason = reason or bad
        return failed, reason


class LinkWorkload(Workload):
    """run_drop(ThpTxLinRx) then link_level_verify on one drop per
    unit; the unit key is the drop index."""

    def __init__(self, name, pool_size):
        self.name = name
        self.drops = 1
        self.pool = tuple(range(pool_size))
        self.config = thpalloc.channel.scenario_preset(**LINK_CONFIG)

    def run(self, key, out_dir):
        sim = thpalloc.sim
        channels = thpalloc.channel.generate_drop(self.config, key)
        result = sim.run_drop(self.config, channels,
                              sim.Architecture.THP_TX_LIN_RX)
        mse = sim.link_level_verify(self.config, channels, result,
                                    num_symbols=LINK_SYMBOLS, seed=key)
        return {"feasible": bool(result.feasible),
                "power_db": _num(result.power_db),
                "mse": [_num(v) for v in mse.tolist()]}

    def check(self, out, ref) -> tuple[int, str]:
        if out["feasible"] != ref["feasible"]:
            return 1, "feasibility differs"
        if not _close(out["power_db"], ref["power_db"], LINK_REL_TOL):
            return 1, f"power {out['power_db']!r} vs {ref['power_db']!r}"
        if len(out["mse"]) != len(ref["mse"]) or not all(
                _close(a, b, LINK_REL_TOL)
                for a, b in zip(out["mse"], ref["mse"])):
            return 1, "link-level per-user MSE differs"
        return 0, ""


def _num(v):
    """JSON-safe float: NaN and infinities become None."""
    v = float(v)
    return v if math.isfinite(v) else None


def _close(a, b, rel):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * abs(b)


def make(name: str) -> Workload:
    if name == "s3_rho_sweep":
        return SweepWorkload(
            name, ["--scenario", "S3", "--rho", "0.05,0.1,0.25,0.5",
                   "--arch", "all"], drops=2, pool_size=48)
    if name == "s1_users_sweep":
        return SweepWorkload(
            name, ["--scenario", "S1", "--rho", "0.25",
                   "--users", "8,16,24,32",
                   "--arch", "ThpTxLinRx,ThpTx,LinTxLinRx"],
            drops=1, pool_size=40)
    if name == "s2_link_level":
        return LinkWorkload(name, pool_size=96)
    raise ValueError(f"unknown workload {name!r}")
