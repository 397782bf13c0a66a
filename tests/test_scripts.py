"""Smoke runs of the experiment scripts on tiny configurations, each in its
own working directory."""

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_full_recon_demo(tmp_path):
    out = run_script("full_recon_demo.py", ["--grid", "8", "--c", "6"], tmp_path)
    assert out.count("L2 error") == 3
    fields = sorted(tmp_path.glob("recon_alpha_*.csv"))
    assert len(fields) == 3
    truth = np.loadtxt(tmp_path / "recon_truth.csv", delimiter=",", skiprows=1)
    for f in fields:
        rows = np.loadtxt(f, delimiter=",", skiprows=1)
        assert rows.shape == (64, 3) and np.isfinite(rows).all()
        assert np.array_equal(rows[:, :2], truth[:, :2])


def test_stability_sweep(tmp_path):
    run_script("stability_sweep.py", ["--m-max", "3", "--n-max", "3", "--n-alphas", "3",
                                      "--seeds", "1"], tmp_path)
    rows = np.loadtxt(tmp_path / "stability.csv", delimiter=",", skiprows=1)
    assert rows.shape == (12, 4)  # 4 default deltas x 3 alphas
    assert np.isfinite(rows).all()
    assert (rows[:, 2] <= rows[:, 3] * (1.0 + 1e-9)).all()  # error <= bound


def test_aperture_spectra(tmp_path):
    out = run_script("aperture_spectra.py", ["--resolution", "32", "--modes", "10",
                                             "--thetas", "1.0,0.5"], tmp_path)
    assert out.count("modes above") == 2
    rows = np.loadtxt(tmp_path / "aperture_spectra.csv", delimiter=",", skiprows=1,
                      usecols=(0, 1, 2))
    parity = np.loadtxt(tmp_path / "aperture_spectra.csv", delimiter=",", skiprows=1,
                        usecols=3, dtype=str)
    assert np.isfinite(rows).all() and set(parity) <= {"even", "odd"}
    for theta in (1.0, 0.5):
        mags = rows[rows[:, 0] == theta, 2]
        assert len(mags) == 10
        assert (np.diff(mags) <= 0.0).all()


def test_corpus(tmp_path):
    # the tiny corpus: one sha256 line per file it writes, and a comparison of
    # two directories that names the changed file and its relative difference
    out = run_script("corpus.py", ["corpus", "--tiny"], tmp_path)
    root = tmp_path / "corpus"
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    listing = [line.split("  ") for line in out.strip().splitlines()]
    assert [name for _, name in listing] == files
    assert {"field.csv", "ext.csv", "report.json", "table.csv", "ingL.csv", "fieldM.csv",
            "reportM.json"} <= set(files)
    assert sum(name.startswith("cache/") for name in files) == 3
    for digest, name in listing:
        assert digest == hashlib.sha256((root / name).read_bytes()).hexdigest()

    shutil.copytree(root, tmp_path / "other")
    assert run_script("corpus.py", ["--compare", "corpus", "other"], tmp_path).strip() == \
        f"0 of {len(files)} files differ"
    field = tmp_path / "other" / "field.csv"
    lines = field.read_text().splitlines()
    x, y, q = lines[1].split(",")
    lines[1] = f"{x},{y},{float(q) + 1e-3 * max(abs(float(r.split(',')[2])) for r in lines[1:])!r}"
    field.write_text("\n".join(lines) + "\n")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "corpus.py"), "--compare",
                           "corpus", "other"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    changed, total = proc.stdout.splitlines()
    assert total == f"1 of {len(files)} files differ"
    head, rel, column = changed.rsplit(" ", 2)
    assert head == "field.csv: max relative difference" and column == "(q)"
    assert float(rel) == pytest.approx(1e-3, rel=1e-2)

    # every JSON file and data header is strict JSON and every CSV number finite;
    # a NaN or an infinity in any of them is named
    strict = sum(name.endswith((".json", ".csv")) for name in files)
    assert run_script("corpus.py", ["--check", "corpus"], tmp_path).strip() == \
        f"0 of {strict} JSON and CSV files are not strict"
    edits = {"rec.json": lambda text: text.replace('"residual": ', '"residual": NaN, "x": ', 1),
             "data.csv": lambda text: text.replace('"delta": ', '"delta": Infinity, "x": ', 1),
             "table.csv": lambda text: text + "0.0,0.05,-inf,0.0\n"}
    for name, edit in edits.items():
        path = tmp_path / "other" / name
        path.write_text(edit(path.read_text()))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "corpus.py"), "--check",
                           "other"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == sorted(edits)
    assert lines[-1] == f"3 of {strict} JSON and CSV files are not strict"


def test_ab_bench_summary():
    # the verdicts of scripts/ab_bench.py on canned run records, without running the benchmark
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    specs = [{"name": "ops_per_ref_s", "better": "higher", "bound": 0.15},
             {"name": "op_p50_ref_s", "better": "lower", "bound": 0.2},
             {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
             {"name": "setup_s", "better": "lower", "bound": 0.25}]

    def records(ops, p50, rss, setup, failed):
        return [{"attempted": 20, "failed": f, "metrics": {
                    "ops_per_ref_s": {"value": o}, "op_p50_ref_s": {"value": p},
                    "peak_rss_mb": {"value": r}, "setup_s": {"value": s}}}
                for o, p, r, s, f in zip(ops, p50, rss, setup, failed)]

    rss = [69.8, 70.0, 70.2, 69.9, 70.1, 69.8, 70.0, 70.2, 69.9, 70.1]
    parent = records([14.0, 14.5, 14.2, 14.8, 14.1, 14.6, 14.3, 14.4, 14.7, 14.9],
                     [0.07] * 10, rss, [2.0] * 10, [0] * 10)
    # ops: 9 of 10 pairs won by more than the parent's IQR; p50 25 % slower; rss and
    # set-up within their bounds, rss a gain that wins 9 pairs by less than the IQR
    change = records([15.5, 15.6, 15.2, 15.9, 15.4, 14.5, 15.3, 15.8, 15.7, 15.6],
                     [0.0875] * 10, [r - 0.05 for r in rss[:9]] + [70.15], [2.4] * 10,
                     [0] * 9 + [2])
    lines = ab.summarize(specs, parent, change)
    assert [line.rsplit("  ", 1)[1] for line in lines[:-1]] == \
        ["gain", "worse", "no change", "no change"]
    assert "won 9/10" in lines[0] and "parent 14.45 [14.225, 14.675]" in lines[0]
    assert "won 0/10" in lines[1]
    assert lines[-1] == "failed ops: parent 0 of 200, change 2 of 200"
    # 8 of 10 pairs is not a gain, however large the gap
    change[1]["metrics"]["ops_per_ref_s"]["value"] = 14.0
    assert ab.summarize(specs, parent, change)[0].endswith("won 8/10  parent IQR 0.45  no change")
