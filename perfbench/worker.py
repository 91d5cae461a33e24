"""One workload process: runs work units from the pool, times each,
checks each against the reference and prints one JSON line.

Started by run.py with the thread counts pinned; imports thpalloc from
the checkout's src/ only. Usage (normally through run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--reference FILE]
    python3 perfbench/worker.py --workload NAME --record FILE
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")


def _import_program():
    sys.path.insert(0, SRC)
    import thpalloc
    if not os.path.abspath(thpalloc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"thpalloc imported from {thpalloc.__file__}, "
                         f"not from {SRC}")


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without dict-mode config
        blas = "unknown"
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    commit = f.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "commit": commit,
    }


class SpeedProbe:
    """Times a fixed mix of the three kinds of work a drop is made of:
    small complex SVD/QR/pinv calls, a pure-Python heap-based
    shortest-path search, and elementwise numpy work on long symbol
    blocks (as in the link-level check). On a shared host the speed of
    this work drifts by tens of percent over seconds; the probe's time
    beside each work unit lets run.py scale the unit's wall time to one
    reference machine speed."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.rng = rng
        self.mats = (rng.standard_normal((40, 4, 8))
                     + 1j * rng.standard_normal((40, 4, 8)))
        self.graph = [list(zip(rng.integers(0, 80, 6).tolist(),
                               rng.random(6).tolist())) for _ in range(80)]
        self.block = (rng.standard_normal((4, 10000))
                      + 1j * rng.standard_normal((4, 10000)))
        self.filt = rng.standard_normal((4, 4)) + 0j

    def _work(self):
        np, linalg = self.np, self.np.linalg
        for m in self.mats:
            linalg.svd(m)
            linalg.qr(np.vstack([m[:2], m[2:]]).conj().T, mode="r")
            linalg.norm(linalg.pinv(m[:2]))
        for source in range(12):
            dist = [math.inf] * len(self.graph)
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, c in self.graph[u]:
                    if d + c < dist[v]:
                        dist[v] = d + c
                        heapq.heappush(heap, (d + c, v))
        y = self.filt @ self.block + self.rng.standard_normal(self.block.shape)
        y += 8 * (np.floor((4 - y.real) / 8) + 1j * np.floor((4 - y.imag) / 8))
        float(np.mean(np.abs(y - self.block) ** 2))

    def __call__(self) -> float:
        """Fastest of three timings, in seconds."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


def run_units(workload, keys, seconds, tracer=None):
    """Run units in `keys` order until `seconds` have passed (at least
    one unit). With a tracer, each unit runs twice, traced and untraced,
    in alternating order, so that both see the same machine state.
    Returns one record per unit run with its wall time, the mean speed
    probe time before and after it, and its output (None if it
    raised)."""
    probe = SpeedProbe()
    probe_s = probe()
    runs = []
    start = time.perf_counter()
    for seq, key in enumerate(keys):
        if runs and time.perf_counter() - start >= seconds:
            break
        if tracer is None:
            modes = (False,)
        else:
            modes = (True, False) if seq % 2 == 0 else (False, True)
        for traced in modes:
            if traced:
                tracer.unit, tracer.drop = seq, -1
                tracer.install()
            out, error = None, ""
            t0 = time.perf_counter()
            try:
                out = workload.run(key, OUT_DIR)
            except Exception as exc:  # a raising unit fails all its drops
                traceback.print_exc(file=sys.stderr)
                error = f"raised {exc!r}"
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            before, probe_s = probe_s, probe()
            runs.append({"key": key, "traced": traced, "wall_s": wall,
                         "probe_s": (before + probe_s) / 2,
                         "drops": workload.drops, "out": out,
                         "error": error})
    return runs


def check_units(workload, units, reference) -> None:
    """Replace each unit's output by its failed-drop count and reason."""
    for unit in units:
        out = unit.pop("out")
        ref = reference.get(str(unit["key"]))
        if out is None:
            failed, reason = workload.drops, unit["error"]
        elif ref is None:
            failed, reason = workload.drops, "no reference for unit"
        else:
            failed, reason = workload.check(out, ref)
        unit["failed"] = failed
        unit["reason"] = reason
        del unit["error"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--record", metavar="FILE", default=None,
                        help="run the whole pool and write its outputs")
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make(args.workload)

    if args.record:
        outputs = {str(key): workload.run(key, OUT_DIR)
                   for key in workload.pool}
        with open(args.record, "w") as f:
            json.dump(outputs, f)
        return 0

    # a run that outlasts the pool starts it over
    keys = itertools.cycle(workload.order(args.seed))
    tracer = None
    if args.trace:
        from calltrace import Tracer
        tracer = Tracer()
    units = run_units(workload, keys, args.seconds, tracer)
    # read before loading the reference, which is not the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.reference) as f:
        check_units(workload, units, json.load(f)["workloads"][args.workload])
    result = {"units": units, "peak_rss_mb": peak_rss_mb,
              "env": environment()}
    if tracer is not None:
        drops = sum(u["drops"] for u in units if u["traced"])
        wall = sum(u["wall_s"] for u in units if u["traced"])
        untraced_wall = sum(u["wall_s"] for u in units if not u["traced"])
        metrics = tracer.metrics(drops, wall)
        metrics["trace.overhead_frac"] = (wall / untraced_wall - 1.0,
                                          "ratio")
        result["trace"] = {
            "metrics": metrics,
            "wall_s": wall,
            "layer_self_ms": {k: v / 1e6 for k, v in
                              tracer.layer_self_ns().items()},
            "samples": tracer.sample_counts(),
            "spans": len(tracer.spans["id"]),
        }
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
