"""Smoke runs of the experiment scripts on tiny configurations, each in its
own working directory."""

import hashlib
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
