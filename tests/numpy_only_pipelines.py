"""Tiny end-to-end pipelines of every stage, in one process in which `import scipy` fails.

Run it from an empty working directory, where it writes its files:

    python tests/numpy_only_pipelines.py

It imports `prolate` from wherever Python finds it: an installed package, or
`src` on PYTHONPATH. The pipelines are L(2.2) at h = 1 (k = c = 5) and at h = 2
(k = 2.5, so ingest scales p by k / kappa = h), and M(0.6, 0.8) at h = 1 on a
ring layout of far-field directions, each on its polar rule, basis ->
synthesize -> ingest -> reconstruct --field-out -> stability -> extrapolate
(the Nystrom extension, to a point inside the set and one outside 2h) ->
validate; L(2.2) at h = 1 on its midpoint rule, basis -> synthesize -> ingest
-> reconstruct --field-out -> stability -> validate, which fails the
Hilbert-Schmidt area check alone, then ingest of the same far-field grid
written at 6 significant digits and, with one row dropped, an ingest that
exits 2 because the rows are no direction grid; and the full-aperture disk
and annulus, basis
disk -> synthesize -> reconstruct -> extrapolate -> stability, each stage
dilating the disk basis onto the data disk.

It checks the exit code of every stage, that each ingest interpolated its
far-field grid in angle space, the checks the midpoint basis fails, and that no
scipy module was loaded; it prints each and exits 1 on a mismatch.
"""

import contextlib
import io
import json
import sys

sys.modules["scipy"] = None  # `import scipy` raises ImportError from here on

import numpy as np  # noqa: E402

from prolate import ContrastField, synthesize_born  # noqa: E402
from prolate.cli import run  # noqa: E402

codes = []


def stage(*argv):
    """Run one CLI stage, record its exit code and return the last line it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(run([str(a) for a in argv]))
    lines = out.getvalue().strip().splitlines()
    return lines[-1] if lines else ""


def far_field(path, k, shapes, x_hat, theta_hat):
    """Far-field samples k^2 u(theta_hat - x_hat) of the Born data of `shapes`, as a CSV."""
    u = k * k * synthesize_born(ContrastField.from_shapes(shapes, resolution=40), k,
                                theta_hat - x_hat).values
    np.savetxt(path, np.column_stack([x_hat, theta_hat, u.real, u.imag]), delimiter=",",
               fmt="%.17g", comments="", header="xhat_x,xhat_y,thetahat_x,thetahat_y,re,im")


shapes = [{"type": "disk", "center": [0.9, 0.2], "radius": 0.25, "value": 1.0}]
with open("targetsL.csv", "w") as f:  # inside L(2.2)_h and outside 2h, at h = 1 and 2
    f.write("x,y\n0.3,0.1\n6.0,1.0\n")
for h, k in ((1.0, 5.0), (2.0, 2.5)):
    setup = f"setup{h:g}.json"
    with open(setup, "w") as f:
        json.dump({"regime": "limited", "k": k, "theta": 2.2, "c_param": 5.0,
                   "contrast": {"shapes": shapes}}, f)
    t = 2.2 * ((np.arange(48) + 0.5) / 48 * 2.0 - 1.0)
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    far_field(f"ff{h:g}.csv", k, shapes, np.repeat(e, 48, axis=0), np.tile(e, (48, 1)))
    basis = stage("basis", "symset", "--geometry", "L", "--theta", "2.2", "--c", "5", "--h", h,
                  "--resolution", "24", "--modes", "6", "--method", "polar", "-o", "cache")
    stage("synthesize", setup, "--basis", basis, "-o", f"data{h:g}.csv",
          "--contrast-resolution", "24")
    stage("ingest", f"ff{h:g}.csv", "--k", k, "--basis", basis, "-o", f"ing{h:g}.csv")
    stage("reconstruct", f"ing{h:g}.csv", "--basis", basis, "--alpha", "1e-3",
          "-o", f"rec{h:g}.json", "--field-out", f"field{h:g}.csv", "--field-grid", "8")
    stage("stability", setup, "--basis", basis, "--deltas", "0,1e-3", "--alphas", "0.5",
          "-o", f"table{h:g}.csv")
    stage("extrapolate", f"data{h:g}.csv", "--basis", basis, "--targets", "targetsL.csv",
          "-o", f"ext{h:g}.csv")
    stage("validate", "--basis", basis, "-o", f"valid{h:g}.json")

# L(2.2) at h = 1 on the midpoint rule, which `--method auto` picks for L and M;
# validate exits 1 on the rule's known Hilbert-Schmidt area defect
basis = stage("basis", "symset", "--geometry", "L", "--theta", "2.2", "--c", "5",
              "--resolution", "24", "--modes", "6", "--method", "midpoint", "-o", "cache")
stage("synthesize", "setup1.json", "--basis", basis, "-o", "dataMid.csv",
      "--contrast-resolution", "24")
stage("ingest", "ff1.csv", "--k", 5.0, "--basis", basis, "-o", "ingMid.csv")
stage("reconstruct", "ingMid.csv", "--basis", basis, "--alpha", "1e-3", "-o", "recMid.json",
      "--field-out", "fieldMid.csv", "--field-grid", "8")
stage("stability", "setup1.json", "--basis", basis, "--deltas", "0,1e-3", "--alphas", "0.5",
      "-o", "tableMid.csv")
stage("validate", "--basis", basis, "-o", "validMid.json")
table = np.loadtxt("ff1.csv", delimiter=",", skiprows=1)
for name, rows in (("ff6g.csv", table), ("ffDropped.csv", table[1:])):
    np.savetxt(name, rows, delimiter=",", fmt="%.6g", comments="",
               header="xhat_x,xhat_y,thetahat_x,thetahat_y,re,im")
stage("ingest", "ff6g.csv", "--k", 5.0, "--basis", basis, "-o", "ing6g.csv")
stage("ingest", "ffDropped.csv", "--k", 5.0, "--basis", basis, "-o", "ingDropped.csv")

# M(0.6, 0.8): x_hat = -+s x* at 24 fractions s, theta_hat = s e(t) at 48 angles
x_star = np.array([0.6, 0.8])
shapes = [{"type": "disk", "center": [0.54, 0.72], "radius": 0.3, "value": 1.0}]
with open("setupM.json", "w") as f:
    json.dump({"regime": "multifreq", "K": 5.0, "x_star": x_star.tolist(), "c_param": 5.0,
               "contrast": {"shapes": shapes}}, f)
s = np.sqrt((np.arange(24) + 0.5) / 24)
t = 2.0 * np.pi * (np.arange(48) + 0.5) / 48
e = np.stack([np.cos(t), np.sin(t)], axis=1)
x_hat = np.concatenate([np.repeat(-sign * s[:, None] * x_star, 48, axis=0) for sign in (1, -1)])
far_field("ffM.csv", 5.0, shapes, x_hat, np.tile((s[:, None, None] * e).reshape(-1, 2), (2, 1)))
basis = stage("basis", "symset", "--geometry", "M", "--x-star", "0.6,0.8", "--c", "5",
              "--resolution", "24", "--modes", "6", "--method", "polar", "-o", "cache")
stage("synthesize", "setupM.json", "--basis", basis, "-o", "dataM.csv",
      "--contrast-resolution", "24")
stage("ingest", "ffM.csv", "--k", 5.0, "--basis", basis, "-o", "ingM.csv")
stage("reconstruct", "ingM.csv", "--basis", basis, "--alpha", "1e-3", "-o", "recM.json",
      "--field-out", "fieldM.csv", "--field-grid", "8")
stage("stability", "setupM.json", "--basis", basis, "--deltas", "0,1e-3", "--alphas", "0.5",
      "-o", "tableM.csv")
with open("targetsM.csv", "w") as f:
    f.write("x,y\n0.54,0.72\n3.0,0.5\n")
stage("extrapolate", "dataM.csv", "--basis", basis, "--targets", "targetsM.csv", "-o", "extM.csv")
stage("validate", "--basis", basis, "-o", "validM.json")

# the full aperture; c_param is left to its default, 4.09547008329006, which
# the basis pairs with to the 1e-9 tolerance
with open("full.json", "w") as f:
    json.dump({"regime": "full", "k": 1.0, "contrast": {"shapes": [
        {"type": "disk", "center": [0.7, 0.3], "radius": 1.1, "value": 1.0},
        {"type": "annulus", "center": [-0.4, -0.2], "r_inner": 0.3, "r_outer": 0.6,
         "value": 0.5}]}}, f)
with open("targets.csv", "w") as f:
    f.write("x,y\n0.1,0.2\n3.0,0.5\n")
basis = stage("basis", "disk", "--c", "4.09547008329", "--m-max", "4", "--n-max", "4",
              "-o", "cache")
stage("synthesize", "full.json", "--basis", basis, "-o", "full.csv", "--contrast-resolution", "24")
stage("reconstruct", "full.csv", "--basis", basis, "--alpha", "1e-2", "-o", "full_rec.json",
      "--field-out", "full_field.csv", "--field-grid", "8")
stage("extrapolate", "full.csv", "--basis", basis, "--targets", "targets.csv", "-o", "ext.csv")
stage("stability", "full.json", "--basis", basis, "--deltas", "0,1e-3", "--alphas", "1e-2",
      "--contrast-resolution", "24", "-o", "full_table.csv")

interp = []
for name in ("ing1.csv", "ing2.csv", "ingMid.csv", "ing6g.csv", "ingM.csv"):
    with open(name) as f:
        interp.append(json.loads(f.readline())["meta"].get("interp"))
with open("validMid.json") as f:
    failed = [c["check"] for c in json.load(f) if not c["passed"]]
checks = [
    # validate of the midpoint basis exits 1, and ingest of the grid less a row exits 2
    ("exit codes", codes, [0] * 19 + [1, 0, 2] + [0] * 12),
    ("ingest interpolation", interp, ["angle"] * 5),
    ("midpoint basis failed checks", failed, ["hilbert_schmidt_area"]),
    ("scipy modules loaded",
     sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod), []),
]
mismatches = 0
for name, got, want in checks:
    print(f"{name}: {got}" + ("" if got == want else f" (expected {want})"))
    mismatches += got != want
sys.exit(1 if mismatches else 0)
