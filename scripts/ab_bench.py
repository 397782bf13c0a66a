#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark, in alternating pairs.

    python scripts/ab_bench.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30] [--seed N]

Pair i runs `perfbench/run.py --workload W --seed N+i --seconds S --trace 0`
once in each checkout, the parent first on even i and the change first on
odd i, and reads each run's last line, its JSON result.  It then prints, for
each end-to-end metric of BENCHMARK.json (next to this script), each side's
median and quartiles, the pairs the change won, the parent's interquartile
range and a verdict:

  gain       the change won at least 9 of 10 pairs, and its median is better
             than the parent's by more than the parent's interquartile range;
  worse      the change's median is worse than the parent's by more than the
             metric's relative bound;
  no change  neither.

A last line gives each side's failed and attempted op counts.  W is one
workload, not `all`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced benchmark run in `checkout`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout}: perfbench/run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    record = json.loads(lines[-1])
    if "metrics" not in record:
        raise SystemExit(f"error: {checkout}: the result holds more than one workload")
    return record


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[str, dict]:
    """The verdict on one metric of `spec` (a BENCHMARK.json end-to-end entry)
    from its values in paired runs, and the figures behind it."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p = np.percentile(parent, [25, 50, 75])
    c = np.percentile(change, [25, 50, 75])
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = p[2] - p[0]
    figures = {"parent": p, "change": c, "won": won, "pairs": len(parent), "iqr": iqr}
    if sign * (c[1] - p[1]) < -spec["bound"] * abs(p[1]):
        return "worse", figures
    if 10 * won >= 9 * len(parent) and sign * (c[1] - p[1]) > iqr:
        return "gain", figures
    return "no change", figures


def summarize(specs: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric of `specs` for paired run records, then the failed-op counts."""
    lines = []
    for spec in specs:
        name = spec["name"]
        word, f = verdict(spec, [r["metrics"][name]["value"] for r in parent],
                          [r["metrics"][name]["value"] for r in change])
        lines.append(f"{name} ({spec['better']} is better, bound {spec['bound']:g}): "
                     + "  ".join(f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
                                 for side, q in (("parent", f["parent"]), ("change", f["change"])))
                     + f"  won {f['won']}/{f['pairs']}  parent IQR {f['iqr']:.3g}  {word}")
    lines.append("failed ops: " + ", ".join(
        f"{side} {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}"
        for side, runs in (("parent", parent), ("change", change))))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        specs = json.load(f)["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed + i,
                                       args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed {args.seed + i} {side}: "
                  + json.dumps({m: v["value"] for m, v in runs[side][-1]["metrics"].items()}),
                  file=sys.stderr, flush=True)
    print("\n".join(summarize(specs, runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
