"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs each workload in its own long-lived worker process (worker.py) that
drives `prolate.cli.run` in a closed loop with one client, prints every metric
by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones.

Set-up is measured SETUPS times (fresh processes, fresh work directories) and
reported as the median; the last set-up is the one the timed loop follows.
Set-up and op times are also reported rescaled to the reference host by a
calibration kernel timed right after set-up and after each CLI call of an op
(see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
# BLAS threads per workload, never above nproc (2 on the reference machine).
# partial_aperture is dominated by dense eigensolves, which two threads speed
# up (op_p50_s 1.4-1.8 s against 1.8-2.1 s with one).  The other workloads
# call BLAS on small matrices; on a shared 2-CPU host two threads made them
# no faster and widened the run-to-run spread (full_aperture op_p50_s
# 1.22-1.78 s over six seeds with two threads, 1.35-1.61 s with one).
BLAS_THREADS = {"full_aperture": 1, "partial_aperture": 2, "recon_sweep": 1}
# worker.calibrate() on the reference host when it ran fast (2-CPU Xeon,
# numpy 2.4.6).  Reference seconds = wall seconds x CAL_REF_S / calibration
# time measured right after the op.
CAL_REF_S = 0.0080
WORKLOADS = ("full_aperture", "partial_aperture", "recon_sweep")
# Seconds a workload may take beyond --seconds (set-ups, the last op, teardown);
# a worker still running after that is killed.
MARGIN = 140.0


def _worker(workload: str, seed: int, seconds: float, trace: int, size: str, role: str,
            k: int, deadline: float) -> dict:
    threads = str(min(BLAS_THREADS[workload], len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}-{k}")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
         "--size", size, "--role", role, "--t0", repr(t0), "--work", work],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        raise RuntimeError(f"{workload} worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 ops beyond it (the max below 11 ops)."""
    t = sorted(times)
    n = len(t)
    if n < 11:
        return t[-1], f"max, only {n} ops"
    k = n - 11
    return t[k], f"p{100.0 * (k + 1) / n:.0f}, 10 of {n} ops beyond"


def summarize(name: str, setups: list[float], run: dict, seconds: float, trace: int) -> dict:
    ops = run["ops"]
    times = [o[0] for o in ops]
    failed = [o for o in ops if o[1]]
    unexpected = [o for o in failed if any(known is None for _, known in o[1])]
    causes: dict[str, int] = {}
    for o in failed:
        for cause, known in o[1]:
            key = f"{cause} [known defect: {known}]" if known else cause
            causes[key] = causes.get(key, 0) + 1
    errs = [o[2] for o in ops if o[2] is not None]
    n = len(ops)
    tail_v, tail_base = tail(times)
    wall = [s for s, _ in setups]
    e2e = {
        "setup_s": (statistics.median(u * CAL_REF_S for _, u in setups), "s",
                    "reference-host seconds, median of 3 set-ups"),
        "setup_wall_s": (statistics.median(wall), "s",
                         "median of " + ", ".join(f"{s:.3f}" for s in wall)),
        "op_p50_s": (statistics.median(times), "s", f"{n} ops"),
        "op_tail_s": (tail_v, "s", tail_base),
        "ops_per_s": (n / sum(times), "1/s", f"{n} ops / {sum(times):.3f} s timed"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MiB", "ru_maxrss of the worker"),
        "fail_frac": (len(failed) / n, "ratio", f"{len(failed)}/{n} ops"),
        "recon_rel_err": (statistics.median(errs) if errs else 0.0, "ratio",
                          f"median of {len(errs)} ops"),
    }
    if run["cal"]:
        # each CLI call's time rescaled by the calibration timed right after it
        ref = [u * CAL_REF_S for u in run["cal_units"]]
        ref_tail, ref_base = tail(ref)
        cal = statistics.median(run["cal"])
        e2e.update({
            "op_p50_ref_s": (statistics.median(ref), "s", f"{n} ops; host ran at "
                             f"{CAL_REF_S / cal:.3f}x reference, calibration median {cal:.4g} s"),
            "op_tail_ref_s": (ref_tail, "s", ref_base),
            "ops_per_ref_s": (n / sum(ref), "1/s", f"{n} ops / {sum(ref):.3f} reference s"),
        })
    print(f"== {name}  seed {run['provenance']['seed']}  {n} ops in {run['loop_s']:.1f} s "
          f"(--seconds {seconds:g})  trace {trace}")
    print("   sizes " + json.dumps(run["sizes"], sort_keys=True))
    metrics = e2e if not trace else {k: (v[0], v[2], v[1]) for k, v in run["layers"].items()}
    for key, (value, unit, base) in metrics.items():
        print(f"   {key:<36} {value:>14.6g} {unit:<9} ({base})")
    print(f"   failures by cause: {json.dumps(causes, sort_keys=True) if causes else 'none'}"
          f"; {len(failed) - len(unexpected)} ops failed only on known defects, "
          f"{len(unexpected)} on another cause")
    if trace:
        print(f"   spans {run['spans']} written to {run['trace_file']}")
    print("   provenance " + json.dumps(run["provenance"], sort_keys=True))
    # `failed` counts the ops that failed on a cause other than a known defect.
    # Ops that failed only on known defects are counted in fail_frac and by
    # cause above; how many of them a run meets depends on how many ops fit in
    # --seconds, so two runs of one seed would not agree on them.
    return {"correct": not unexpected, "attempted": n, "failed": len(unexpected),
            "metrics": metrics}


def bench_metrics(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: minimal inputs for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prolate", "__init__.py")):
        print("error: src/prolate not found next to perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + (args.seconds + MARGIN) * len(names)
    wanted = bench_metrics(args.trace)
    results = {}
    for name in names:
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                out = _worker(name, args.seed, args.seconds, 0, args.size, "setup", k, deadline)
                setups.append((out["setup_s"], out["setup_units"]))
        run = _worker(name, args.seed, args.seconds, args.trace, args.size, "run", SETUPS,
                      deadline)
        setups.append((run["setup_s"], run["setup_units"]))
        res = summarize(name, setups, run, args.seconds, args.trace)
        missing = [m for m in wanted if m not in res["metrics"]]
        if missing:
            raise RuntimeError(f"metrics missing from the run: {missing}")
        res["metrics"] = {m: {"value": res["metrics"][m][0], "unit": res["metrics"][m][1]}
                          for m in wanted}
        results[name] = res
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
