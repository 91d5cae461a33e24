"""Batch front-end: run sweeps and emit CSV summaries.

Exit codes: 0 ok, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from thpalloc.baselines import Architecture
from thpalloc.channel import ScenarioConfig, scenario_preset
from thpalloc.sim import SweepResult, run_sweep

_WORKERS_ENV = "THPALLOC_WORKERS"

_INT_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)
               if f.type == "int"}


def load_config_file(path: str) -> ScenarioConfig:
    """Flat key = value file mirroring ScenarioConfig field names.

    quota and mse_budget accept a single value (broadcast to all users)
    or a comma-separated per-user list. Lines starting with '#' are
    ignored.
    """
    raw: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    kwargs: dict = {}
    for key, value in raw.items():
        if key in ("quota", "mse_budget"):
            parts = [p for p in value.split(",") if p]
            conv = int if key == "quota" else float
            kwargs[key] = tuple(conv(p) for p in parts)
        elif key in _INT_FIELDS:
            kwargs[key] = int(value)
        else:
            kwargs[key] = float(value)
    k_users = int(raw.get("num_users", 0))
    for key in ("quota", "mse_budget"):
        if key in kwargs and len(kwargs[key]) == 1:
            kwargs[key] = kwargs[key] * k_users
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad config file: {exc}") from exc


def parse_arch_list(token: str) -> list[Architecture]:
    if token.lower() == "all":
        return list(Architecture)
    return [Architecture.parse(t) for t in token.split(",") if t]


def _float_list(token: str) -> list[float]:
    return [float(t) for t in token.split(",") if t]


def _int_list(token: str) -> list[int]:
    return [int(t) for t in token.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thpalloc",
        description="Monte Carlo power sweeps for THP-based MIMO-OFDMA "
                    "resource allocation")
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser(
        "sweep", help="run a Monte Carlo sweep and write a CSV summary")
    src = sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=["S1", "S2", "S3"],
                     help="built-in scenario preset")
    src.add_argument("--config", metavar="FILE",
                     help="flat key=value scenario file")
    sweep.add_argument("--rho", type=_float_list, default=[0.25],
                       help="per-stream target MSE values, comma separated")
    sweep.add_argument("--users", type=_int_list, default=None,
                       help="user counts for a K-axis sweep (uses the first "
                            "--rho value as fixed target)")
    sweep.add_argument("--drops", type=int, default=100,
                       help="Monte Carlo drops per axis point")
    sweep.add_argument("--seed", type=int, default=0, help="RNG seed")
    sweep.add_argument("--arch", type=parse_arch_list, default="all",
                       help="comma-separated architectures or 'all' "
                            "(ThpTxLinRx, ZfTx, ThpTx, LinTxLinRx)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--detail", metavar="FILE", default=None,
                       help="also write per-drop detail CSV")
    # a string default goes through `type`, so a bad value is a usage error
    sweep.add_argument("--workers", type=int,
                       default=os.environ.get(_WORKERS_ENV, "1"),
                       help="parallel drop workers (default from "
                            f"${_WORKERS_ENV} or 1)")
    return parser


def emit_csv(result: SweepResult, path: str) -> None:
    """Summary CSV, byte-stable for identical results."""
    mean = result.mean_power_db
    err = result.stderr_db
    rate = result.infeasible_rate
    lines = ["axis,architecture,mean_power_db,stderr_db,drops,"
             "infeasible_rate,seed"]
    for p, axis in enumerate(result.axis_values):
        for a, arch in enumerate(result.architectures):
            lines.append(f"{axis:.9g},{arch.value},{mean[p, a]:.9g},"
                         f"{err[p, a]:.9g},{result.drops},{rate[p]:.9g},"
                         f"{result.seed}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def emit_detail_csv(result: SweepResult, path: str) -> None:
    lines = ["axis,architecture,drop,power_db,feasible"]
    for p, axis in enumerate(result.axis_values):
        for a, arch in enumerate(result.architectures):
            for d in range(result.drops):
                lines.append(f"{axis:.9g},{arch.value},{d},"
                             f"{result.power_db[p, a, d]:.9g},"
                             f"{int(result.feasible[p, d])}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def run_from_spec(args) -> SweepResult:
    if args.scenario:
        base = scenario_preset(args.scenario, rho=args.rho[0],
                               rng_seed=args.seed)
    else:
        base = dataclasses.replace(load_config_file(args.config),
                                   rng_seed=args.seed)

    if args.users:
        rho = args.rho[0]
        points = [(float(k), base.with_users(k, rho)) for k in args.users]
        axis_name = "users"
    else:
        points = [(rho, base.with_rho(rho)) for rho in args.rho]
        axis_name = "rho"
    return run_sweep(points, drops=args.drops, architectures=args.arch,
                     axis_name=axis_name, workers=args.workers)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to documented code 1
        return 0 if not exc.code else 1
    if not args.arch:
        print("error: at least one architecture required", file=sys.stderr)
        return 1
    if args.drops < 1:
        print("error: --drops must be >= 1", file=sys.stderr)
        return 1
    try:
        result = run_from_spec(args)
    except (ValueError, OSError) as exc:
        # numpy's LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_csv(result, args.out)
        if args.detail:
            emit_detail_csv(result, args.detail)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    mean = result.mean_power_db
    for p, axis in enumerate(result.axis_values):
        row = ", ".join(
            f"{arch.value}={mean[p, a]:.2f} dB"
            for a, arch in enumerate(result.architectures))
        print(f"{result.axis_name}={axis:g}: {row}")
        if not result.feasible[p].any():
            print(f"warning: {result.axis_name}={axis:g}: no feasible drop "
                  f"(infeasible rate {result.infeasible_rate[p]:g})",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
