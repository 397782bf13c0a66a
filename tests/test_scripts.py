"""Smoke runs of the experiment scripts on tiny configurations, each in its
own working directory."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
