"""Batch front-end: run sweeps and emit CSV summaries.

Exit codes: 0 ok, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from thpalloc.baselines import Architecture
from thpalloc.channel import ScenarioConfig, scenario_preset
from thpalloc.sim import SweepResult, run_sweep

_INT_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)
               if f.type == "int"}


def load_config_file(path: str) -> ScenarioConfig:
    """Flat key = value file mirroring ScenarioConfig field names; quota
    and mse_budget take one value (broadcast to all users) or a comma-
    separated per-user list. Lines starting with '#' are ignored."""
    with open(path) as f:
        lines = [line.strip() for line in f]
    raw = {key.strip(): value.strip() for key, _, value in (
        line.partition("=") for line in lines if line[:1] not in ("", "#"))}
    kwargs: dict = {}
    for key, value in raw.items():
        if key in ("quota", "mse_budget"):
            kwargs[key] = tuple(map(int if key == "quota" else float,
                                    filter(None, value.split(","))))
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


@functools.cache  # built on first use; nothing changes it after
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
    sweep.add_argument("--rho", type=_float_list, default=None,
                       help="per-stream target MSE values, comma separated "
                            "(default 0.25; a --config file's own budgets)")
    sweep.add_argument("--users", type=_int_list, default=None,
                       help="user counts for a K-axis sweep at the first "
                            "--rho value (else as --rho defaults)")
    sweep.add_argument("--drops", type=int, default=100,
                       help="Monte Carlo drops per axis point")
    sweep.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 0; a --config file's own)")
    sweep.add_argument("--arch", type=parse_arch_list, default="all",
                       help="comma-separated architectures or 'all' "
                            "(ThpTxLinRx, ZfTx, ThpTx, LinTxLinRx)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--detail", metavar="FILE", default=None,
                       help="also write per-drop detail CSV")
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel drop workers (default 1)")
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
        base, own = scenario_preset(args.scenario), {0.25}
    else:  # the file's per-stream rho gamma_k / (n_k L), NaN unless uniform
        base = load_config_file(args.config)
        own = {g / (n * base.streams_per_user)
               for g, n in zip(base.mse_budget, base.quota)}
    if args.seed is not None:
        base = dataclasses.replace(base, rng_seed=args.seed)
    rhos = args.rho or [own.pop() if len(own) == 1 else np.nan]
    if args.users:
        if not args.rho and len(own) > 1:
            raise ValueError("--users needs --rho: the users differ in rho")
        points = [(float(k), base.with_users(k, rhos[0])) for k in args.users]
    else:  # a config file without --rho is swept at its own budgets
        points = [(rho, base.with_rho(rho) if args.scenario or args.rho
                   else base) for rho in rhos]
    return run_sweep(points, drops=args.drops, architectures=args.arch,
                     axis_name="users" if args.users else "rho",
                     workers=args.workers)


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
