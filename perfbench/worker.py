"""One workload process: set up, then run ops in a closed loop for a fixed time.

Started by run.py, which passes the monotonic clock reading taken just before
the process was spawned, so the set-up time printed here covers interpreter
start, `import prolate`, input generation, basis priming and one untimed
warm-up op.  The last line of stdout is a JSON record of the raw measurements;
run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import jv  # noqa: E402

import prolate  # noqa: E402
import prolate.cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliRunner  # noqa: E402


# Op index of the warm-up op that ends set-up.  It is one more than a
# multiple of every cycle length in workloads.py, so it is an op of the same
# kind as op 1 (the smallest node level on partial_aperture) with inputs of
# its own.
WARM_UP_OP = 10**6 + 1


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        import ctypes
        lib = next(f for f in os.listdir(libdir) if f.startswith("libscipy_openblas"))
        threads = ctypes.CDLL(os.path.join(libdir, lib)).scipy_openblas_get_num_threads64_()
    except (OSError, StopIteration, AttributeError):
        pass  # another BLAS build: report the requested thread count only
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "prolate": prolate.__version__,
            "git_commit": _git_commit(), "seed": seed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--role", choices=["setup", "run"], default="run")
    ap.add_argument("--t0", type=float, required=True, help="monotonic time at spawn")
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    runner = CliRunner(prolate.cli, tracer, None if args.trace else calibrate_call)
    os.makedirs(args.work)
    try:
        wl = WORKLOADS[args.workload](runner, args.work, args.size, args.seed)
        if tracer:
            tracer.op = "setup"
            tracer.install()
        wl.setup()
        wl.op(WARM_UP_OP)  # untimed: first calls pay one-off import and allocation costs
        if tracer:
            tracer.uninstall()
        # Set-up in calibration units: each CLI call divided by the calibration
        # timed right after it, the rest (interpreter start, imports, input
        # generation) by the calibration timed at the end.  The calibrations
        # themselves are not part of set-up.
        setup_s = time.monotonic() - args.t0 - runner.cal_spent
        setup_cal = statistics.median(calibrate() for _ in range(5))
        called = sum(dt for dt, _ in runner.calls)
        out = {"setup_s": setup_s,
               "setup_units": (setup_s - called) / setup_cal + cal_units(runner.calls)}
        if args.role == "run":
            out.update(run_loop(wl, tracer, args.seconds))
            out["sizes"] = wl.sizes
            out["provenance"] = provenance(args.seed)
            out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer:
                tpath = os.path.join(ROOT, ".bench_work", "traces",
                                     f"{args.workload}-seed{args.seed}.jsonl")
                tracer.dump(tpath, {"provenance": out["provenance"], "sizes": wl.sizes})
                out["trace_file"] = os.path.relpath(tpath, ROOT)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(out))
    return 0


_CAL = np.random.default_rng(0)
_CAL_X = _CAL.random(20000)
_CAL_V = _CAL.random(50)
_CAL_M = _CAL.random((50, 50))
_CAL_S = _CAL.random((120, 120))
_CAL_S = _CAL_S + _CAL_S.T


def calibrate() -> float:
    """Seconds for a fixed, package-independent kernel with the workloads' mix
    of interpreter loops, numpy vector ops, small matvecs, Bessel calls and a
    small eigensolve.  Timed right after each CLI call and after set-up, it
    measures how fast the shared host ran at that moment, so run.py can report
    op times in reference-host seconds next to the raw wall times."""
    t = time.perf_counter()
    s = 0
    for k in range(30000):
        s += k & 7
    np.exp(1j * _CAL_X)
    for _ in range(200):
        _CAL_M @ _CAL_V
    jv(3, 10.0 * _CAL_X[:5000])
    np.linalg.eigh(_CAL_S)
    return time.perf_counter() - t


def cal_units(calls: list) -> float:
    """Time of CLI calls in calibration units."""
    return sum(dt / c for dt, c in calls)


def calibrate_call() -> float:
    """Calibration time taken right after each CLI call of an untraced run."""
    return statistics.median(calibrate() for _ in range(3))


def run_loop(wl, tracer, seconds: float) -> dict:
    """Closed loop, one client.  With a tracer, each op runs twice on the same
    inputs, untraced then traced, so the pair gives the tracing overhead."""
    results, plain, units = [], [], []
    calls = wl.s.calls
    first = len(calls)
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        if tracer:
            plain.append(wl.op(i).seconds)
            tracer.op = i
            tracer.install()
            try:
                results.append(wl.op(i))
            finally:
                tracer.uninstall()
        else:
            k = len(calls)
            results.append(wl.op(i))
            units.append(cal_units(calls[k:]))
        i += 1
    # Untraced, each CLI call's time is divided by the calibration time taken
    # right after it: cal_units is each op's time in calibration units.
    out = {"loop_s": time.perf_counter() - t_start,
           "ops": [[r.seconds, r.failures, r.rel_err] for r in results],
           "cal_units": units, "cal": [c for _, c in calls[first:]]}
    if tracer:
        traced = [r.seconds for r in results]
        p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
        overhead = (p50_traced / p50_plain - 1.0,
                    f"traced p50 {p50_traced:.4g} s / untraced p50 {p50_plain:.4g} s, "
                    f"{len(traced)} op pairs")
        out["layers"] = layer_metrics(tracer.spans, len(results), overhead)
        out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
