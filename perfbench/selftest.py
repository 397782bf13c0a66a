"""Self-test of the benchmark on tiny inputs; makes no timing assertions.

    python3 perfbench/selftest.py

1. Runs every workload once at --size tiny, untraced and traced, and checks
   that every end-to-end and per-layer metric is printed with its unit, that
   the final JSON line has the contract's keys, and that no op failed for a
   cause other than the known defects.
2. Flips one value of a synthesized data file and checks that the op counts
   as failed for an unexpected cause, so fail_frac and failed rise and correct
   is false, while an op that failed only on a known defect raises fail_frac
   but not failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files and checks that it fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import prolate.cli  # noqa: E402
import run  # noqa: E402
from workloads import CliRunner, WORKLOADS  # noqa: E402

E2E_PRINTED = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb", "fail_frac",
               "recon_rel_err", "setup_wall_s", "op_p50_ref_s", "op_tail_ref_s", "ops_per_ref_s")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def check_outputs() -> None:
    spec = _spec()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            assert result["correct"], (workload, trace, "an op failed for an unknown cause")
            wanted = spec["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted], workload
            report = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if len(ln.split()) > 2}
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), m
                assert report.get(m["name"]) == m["unit"], (workload, m["name"], "not printed")
            if not trace:
                for name in E2E_PRINTED:
                    assert name in report, (workload, name, "not printed")
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                  f"{len(result['metrics'])} metrics")


class _FlipRunner(CliRunner):
    """Negates the first data value of every synthesized file."""

    def call(self, op, argv):
        out = super().call(op, argv)
        if out is not None and argv[0] == "synthesize":
            path = argv[argv.index("-o") + 1]
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
            cols = lines[2].split(",")
            cols[3] = repr(-float(cols[3]) - 1.0)
            lines[2] = ",".join(cols)
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(lines)
        return out


def check_corruption() -> None:
    work = os.path.join(ROOT, ".bench_work", "selftest-corrupt")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = WORKLOADS["full_aperture"](_FlipRunner(prolate.cli), work, "tiny", 0)
        wl.setup()
        clean = WORKLOADS["full_aperture"](CliRunner(prolate.cli), work + "-clean", "tiny", 0)
        os.makedirs(clean.work)
        clean.setup()
        i = 0  # op 0 draws a single shape, so no overlap defect is involved
        good, bad = clean.op(i), wl.op(i)
        assert not good.failures, good.failures
        assert ["forward_mismatch", None] in bad.failures, bad.failures
        ops = [[r.seconds, r.failures, r.rel_err] for r in (good, bad)]
        known = [good.seconds, [["forward_mismatch", "overlap_double_count"]], None]
        fake_run = {"ops": ops + [known], "cal": [0.008] * 3,
                    "cal_units": [o[0] / 0.008 for o in ops + [known]], "maxrss_kb": 1024,
                    "loop_s": 1.0, "sizes": {}, "provenance": {"seed": 0}}
        res = run.summarize("full_aperture", [(1.0, 125.0)], fake_run, 1.0, 0)
        assert res["failed"] == 1 and not res["correct"], res
        assert res["metrics"]["fail_frac"][0] == 2 / 3, res["metrics"]["fail_frac"]
        print("ok  flipped data value counts toward fail_frac and failed, and clears correct;"
              " a known-defect op counts toward fail_frac only")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(work + "-clean", ignore_errors=True)


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recon_sweep",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  without the sources the benchmark exits {proc.returncode}: "
              f"{proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_corruption()
    check_bare_directory()
    check_outputs()
    print("selftest passed")
