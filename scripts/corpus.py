#!/usr/bin/env python3
"""The standard CLI output corpus: write it, list its checksums, compare two.

    python scripts/corpus.py OUT_DIR [--tiny]
    python scripts/corpus.py --compare A B

The first form runs, in one process and in OUT_DIR, the README disk
walkthrough (basis disk, synthesize with noise, reconstruct with a field,
extrapolate, validate, stability) and two partial-data pipelines, an L(Theta)
polar and an M midpoint basis, each through synthesize, ingest of a
closed-form far field, reconstruct with a field and validate.  It prints one
`sha256  file` line per file, in path order, as `sha256sum` does, so two
listings compare with `diff`.  `--tiny` shrinks every size, for a smoke run.

The second form prints, for each file that differs between two corpus
directories, the largest difference of its numbers relative to the largest
|value| of the same column (a CSV column, a JSON key path with list indices
dropped, or a cache array), and exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

# Stage sizes: the README's, and the smallest that still runs every stage.
SIZES = {
    "standard": {"m": 8, "n": 8, "field": 64, "seeds": 5, "contrast": 160, "resolution": 64,
                 "modes": 24, "directions": 96},
    "tiny": {"m": 3, "n": 3, "field": 8, "seeds": 1, "contrast": 24, "resolution": 16,
             "modes": 4, "directions": 16},
}
DISK_SETUP = {"regime": "full", "k": 1.0, "c_param": 10.0,
              "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                       "radius": 0.8, "value": 1.0}]}}
# one disk inside each partial-data domain at h = 1
PHANTOMS = {"L": {"type": "disk", "center": [0.9, 0.2], "radius": 0.25, "value": 1.0},
            "M": {"type": "disk", "center": [0.54, 0.72], "radius": 0.3, "value": 1.0}}


def _stage(*argv) -> str:
    """Run one CLI stage; its last printed line, or exit 1 naming the stage.
    `validate` may exit 1: its report, which names the failed check, is written."""
    from prolate.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(a) for a in argv])
    if code and not (argv[0] == "validate" and code == 1):
        sys.exit(f"corpus: `prolate {' '.join(map(str, argv))}` exited {code}")
    lines = out.getvalue().strip().splitlines()
    return lines[-1] if lines else ""


def _far_field(path, k, disk, x_hat, theta_hat) -> None:
    """Far-field samples k^2 int exp(i k d.y) q(y) dy, d = theta_hat - x_hat, of one
    disk of radius a, centre c and value v, in closed form:
    k^2 v exp(i k d.c) 2 pi a^2 J_1(k|d| a) / (k|d| a)."""
    from prolate.numerics import bessel_table

    d = theta_hat - x_hat
    ka = k * disk["radius"] * np.hypot(d[:, 0], d[:, 1])
    jinc = np.where(ka > 0.0, bessel_table(1, ka)[1] / np.where(ka > 0.0, ka, 1.0), 0.5)
    u = (k * k * disk["value"] * 2.0 * math.pi * disk["radius"] ** 2 * jinc
         * np.exp(1j * k * (d @ np.asarray(disk["center"]))))
    np.savetxt(path, np.column_stack([x_hat, theta_hat, u.real, u.imag]), delimiter=",",
               fmt="%.17g", comments="", header="xhat_x,xhat_y,thetahat_x,thetahat_y,re,im")


def _write(name: str, text: str) -> str:
    with open(name, "w", encoding="utf-8") as f:
        f.write(text)
    return name


def write_corpus(size: dict) -> None:
    """Every stage of the corpus, run in the working directory."""
    m, n, field = str(size["m"]), str(size["n"]), str(size["field"])
    contrast = ["--contrast-resolution", size["contrast"]]

    setup = _write("setup.json", json.dumps(DISK_SETUP))
    basis = _stage("basis", "disk", "--c", "10", "--m-max", m, "--n-max", n, "-o", "cache")
    _stage("synthesize", setup, "--basis", basis, "-o", "data.csv", "--noise", "0.01",
           "--seed", "7", *contrast)
    _stage("reconstruct", "data.csv", "--basis", basis, "--alpha", "1e-2", "-o", "rec.json",
           "--field-out", "field.csv", "--field-grid", field)
    targets = _write("targets.csv", "x,y\n6.0,0.0\n8.0,2.0\n0.5,-1.0\n")
    _stage("extrapolate", "data.csv", "--basis", basis, "--targets", targets, "-o", "ext.csv")
    _stage("validate", "--basis", basis, "-o", "report.json")
    _stage("stability", setup, "--basis", basis, "--deltas", "0,1e-3,1e-2",
           "--alphas", "0.05,0.02,0.01", "--seeds", size["seeds"], *contrast, "-o", "table.csv")

    # partial data at k = c = 5, h = 1: L(2.2) on unit direction pairs over
    # [-2.2, 2.2], and M(0.6, 0.8) on rings x_hat = -+s x*, |theta_hat| = s
    count = size["directions"]
    t = 2.2 * ((np.arange(count) + 0.5) / count * 2.0 - 1.0)
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    _far_field("ffL.csv", 5.0, PHANTOMS["L"], np.repeat(e, count, axis=0),
               np.tile(e, (count, 1)))
    x_star = np.array([0.6, 0.8])
    s = np.sqrt((np.arange(count // 2) + 0.5) / (count // 2))
    t = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    x_hat = np.concatenate([np.repeat(-sign * s[:, None] * x_star, count, axis=0)
                            for sign in (1, -1)])
    _far_field("ffM.csv", 5.0, PHANTOMS["M"], x_hat,
               np.tile((s[:, None, None] * e).reshape(-1, 2), (2, 1)))
    pipelines = (
        ("L", {"regime": "limited", "k": 5.0, "theta": 2.2},
         ["--geometry", "L", "--theta", "2.2", "--method", "polar"]),
        ("M", {"regime": "multifreq", "K": 5.0, "x_star": x_star.tolist()},
         ["--geometry", "M", "--x-star", "0.6,0.8", "--method", "midpoint"]),
    )
    for tag, regime, flags in pipelines:
        setup = _write(f"setup{tag}.json", json.dumps(
            {**regime, "c_param": 5.0, "contrast": {"shapes": [PHANTOMS[tag]]}}))
        basis = _stage("basis", "symset", *flags, "--c", "5", "--resolution",
                       size["resolution"], "--modes", size["modes"], "-o", "cache")
        _stage("synthesize", setup, "--basis", basis, "-o", f"data{tag}.csv", *contrast)
        _stage("ingest", f"ff{tag}.csv", "--k", "5", "--basis", basis, "-o", f"ing{tag}.csv")
        _stage("reconstruct", f"ing{tag}.csv", "--basis", basis, "--alpha", "1e-3",
               "-o", f"rec{tag}.json", "--field-out", f"field{tag}.csv", "--field-grid", field)
        _stage("validate", "--basis", basis, "-o", f"report{tag}.json")


def _files(root: str) -> list[str]:
    """The files under root, as sorted relative paths with '/' separators."""
    return sorted(os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
                  for d, _, names in os.walk(root) for f in names)


def listing(root: str) -> list[str]:
    lines = []
    for name in _files(root):
        with open(os.path.join(root, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    return lines


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _json_columns(value, path: str, out: dict) -> None:
    """The leaves of a JSON value, numbers as floats, grouped by key path (list
    indices dropped)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _json_columns(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _json_columns(item, path + "[]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.setdefault(path, []).append(float(value))
    else:
        out.setdefault(path, []).append(value)


def _columns(path: str) -> dict:
    """A corpus file as named columns of values: cache arrays and metadata,
    JSON leaves, or CSV columns (with a data file's JSON header line as JSON)."""
    with open(path, "rb") as f:
        blob = f.read()
    out = {}
    if blob.startswith(b"GPSWF1\n"):
        _, meta, payload = blob.split(b"\n", 2)
        meta = json.loads(meta)
        offset = 0
        for name, dtype, shape in meta.pop("arrays"):
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            out[name] = np.frombuffer(payload[offset:offset + size], dtype=dtype).ravel().tolist()
            offset += size
        meta.pop("payload_sha256")
        _json_columns(meta, "meta", out)
        return out
    text = blob.decode("utf-8")
    try:
        _json_columns(json.loads(text), "", out)
        return out
    except json.JSONDecodeError:
        pass
    names = None
    for line in text.splitlines():
        if line.startswith("{"):
            _json_columns(json.loads(line), "header", out)
            continue
        tokens = line.split(",")
        if names is None and any(_number(t) is None for t in tokens):
            names = tokens
            continue
        for i, token in enumerate(tokens):
            name = names[i] if names and i < len(names) else str(i)
            value = _number(token)
            out.setdefault(name, []).append(token if value is None else value)
    return out


def difference(path_a: str, path_b: str) -> str:
    """The largest difference between two versions of a corpus file, relative to
    the largest |value| of its column in either, with the column named; and the
    columns only one of them has."""
    try:
        a, b = _columns(path_a), _columns(path_b)
    except (ValueError, UnicodeDecodeError):
        return "differs (not parsed)"
    notes = [f"only in {path}: {', '.join(sorted(cols.keys() - other.keys()))}"
             for path, cols, other in ((path_a, a, b), (path_b, b, a))
             if cols.keys() - other.keys()]
    worst, where = 0.0, ""
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if len(x) != len(y) or any(isinstance(v, str) or v is None for v in x + y):
            if x != y:
                notes.append(f"{name} differs in length or text")
            continue
        x, y = np.array(x), np.array(y)
        if np.array_equal(x, y):
            continue
        scale = max(np.abs(x).max(), np.abs(y).max())
        rel = float(np.abs(x - y).max() / scale)
        if rel >= worst:
            worst, where = rel, name
    if where:
        notes.insert(0, f"max relative difference {worst:.3g} ({where})")
    return "; ".join(notes) or "differs in formatting only"


def compare(root_a: str, root_b: str) -> int:
    files_a, files_b = set(_files(root_a)), set(_files(root_b))
    names = sorted(files_a | files_b)
    differ = 0
    for name in names:
        pa, pb = os.path.join(root_a, name), os.path.join(root_b, name)
        if name not in files_a & files_b:
            note = f"only in {root_a if name in files_a else root_b}"
        else:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() == fb.read():
                    continue
            note = difference(pa, pb)
        print(f"{name}: {note}")
        differ += 1
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", nargs="?", help="directory to write the corpus into")
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for a smoke run")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two corpus directories instead")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out_dir:
        ap.error("give OUT_DIR or --compare A B")
    os.makedirs(args.out_dir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(args.out_dir)
    try:
        write_corpus(SIZES["tiny" if args.tiny else "standard"])
    finally:
        os.chdir(cwd)
    print("\n".join(listing(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
