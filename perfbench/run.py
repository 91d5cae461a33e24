"""thpalloc benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 it measures set-up time in
fresh interpreters, then runs the workload untraced for S seconds in a
worker process and prints the end-to-end metrics; both times are scaled
to a reference machine speed measured by a probe (see README.md). With --trace 1 it
runs each work unit twice, traced and untraced, for S seconds in all,
and prints the per-layer metrics and the tracing overhead. Every work
unit is checked against perfbench/reference.json; any mismatch makes
the run fail (exit 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("s3_rho_sweep", "s1_users_sweep", "s2_link_level")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
# Speed probe time (worker.SpeedProbe) that defines the reference machine
# speed: about its time on the 2.1 GHz Xeon VM the benchmark was built on,
# in that host's fast state. Times are reported at this speed: a measured
# time t beside a probe time p counts as t * PROBE_REF_S / p.
PROBE_REF_S = 6e-3
DEADLINE_S = 170.0

# What a user pays before the first drop: a fresh interpreter imports
# the package (numpy, scipy.linalg) and builds the scenario configs of
# the workload's axis points.
SETUP_CODE = {
    "s3_rho_sweep": "import thpalloc.cli\n"
                    "from thpalloc import scenario_preset\n"
                    "[scenario_preset('S3', rho=r) for r in "
                    "(0.05, 0.1, 0.25, 0.5)]\n",
    "s1_users_sweep": "import thpalloc.cli\n"
                      "from thpalloc import scenario_preset\n"
                      "[scenario_preset('S1', num_users=k, rho=0.25) "
                      "for k in (8, 16, 24, 32)]\n",
    "s2_link_level": "import thpalloc\n"
                     "thpalloc.scenario_preset('S2', rho=0.05, rng_seed=55, "
                     "constellation_size=64)\n",
}


def pinned_env() -> dict:
    """Environment of every process the benchmark starts: BLAS and
    OpenMP single-threaded, the checkout's src/ as the only extra import
    path, and no inherited worker count."""
    env = dict(os.environ)
    env.pop("THPALLOC_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, env: dict, timeout: float):
    """Seconds from starting a fresh interpreter until it is ready, and
    the speed probe's time in that interpreter right after."""
    code = (SETUP_CODE[workload] + "print('ready', flush=True)\n"
            f"import sys; sys.path.insert(0, {HERE!r})\n"
            "from worker import SpeedProbe; print(SpeedProbe()())\n")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe = proc.stdout.readline()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed, float(probe)


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference outputs (default: %(default)s)")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "thpalloc", "__init__.py")):
        print(f"error: no thpalloc package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(args.reference):
        print(f"error: no reference file {args.reference}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = pinned_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference", os.path.abspath(args.reference)]

    def remaining():
        return max(DEADLINE_S - (time.perf_counter() - start), 1.0)

    try:
        if args.trace:
            run = run_worker(common + ["--seconds", str(args.seconds),
                                       "--trace", "1"], env, remaining())
            metrics = {name: _metric(v, unit) for name, (v, unit)
                       in run["trace"]["metrics"].items()}
        else:
            setup = [measure_setup(args.workload, env, remaining())
                     for _ in range(SETUP_REPEATS)]
            run = run_worker(common + ["--seconds", str(args.seconds)], env,
                             remaining())
            rates = [u["drops"] * u["probe_s"] / (u["wall_s"] * PROBE_REF_S)
                     for u in run["units"]]
            raw_rates = [u["drops"] / u["wall_s"] for u in run["units"]]
            setup_s = [t * PROBE_REF_S / p for t, p in setup]
            metrics = {
                "drops_per_s": _metric(statistics.median(rates), "drops/s"),
                "setup_s": _metric(statistics.median(setup_s), "s"),
                "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = run["units"]
    attempted = sum(u["drops"] for u in units)
    failed = sum(u["failed"] for u in units)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": run["env"], "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "units": units,
    }
    if args.trace:
        record["trace"] = run["trace"]
    else:
        record["setup_samples"] = [{"wall_s": t, "probe_s": p}
                                   for t, p in setup]
        record["wall_clock_setup_s"] = statistics.median(t for t, _ in setup)
        record["wall_clock_drops_per_s"] = statistics.median(raw_rates)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for unit in units:
        if unit["failed"]:
            print(f"FAILED unit {unit['key']}: {unit['failed']} drop(s): "
                  f"{unit['reason']}")
    print("env: " + json.dumps(run["env"], sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(units)} units, "
          f"{attempted} paired drops, fail_frac={failed / attempted:.6g} "
          f"ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (unscaled wall clock: "
              f"{record['wall_clock_drops_per_s']:.6g} drops/s, set-up "
              f"{record['wall_clock_setup_s']:.6g} s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
