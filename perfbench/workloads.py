"""The three benchmark workloads.

Each workload is a closed loop with one client: an op is a chain of
`prolate.cli.run(argv)` calls on files the benchmark generated from its seed,
and the next op starts only when the previous one has been checked.  Only the
CLI calls are timed; input generation and the output checks run between them.

Failures are recorded per cause.  Three causes are known defects of the
program at the time the benchmark was written (see NOTES.md) and are labelled
as such; they count in fail_frac but not in the result's `failed`.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import reference as ref

KNOWN_OVERLAP = "overlap_double_count"
KNOWN_MIDPOINT_HS = "midpoint_hs_area"
KNOWN_CUTOFF = "ingest_default_cutoff"

# Tolerances of the output checks.  Synthesized data must match the
# closed-form transform to rounding; ingested data is an inverse-distance
# interpolation of far-field samples, which is first-order accurate, so it
# gets a loose tolerance that still catches a wrong node mapping or scale.
FORWARD_TOL = 1e-7
INGEST_TOL = 0.15
MAX_MISSING_WEIGHT = 0.10

SIZES = {
    "full": {
        "full_aperture": {"m_max": 8, "n_max": 8, "contrast_resolution": 40, "field_grid": 32,
                          "targets": 3},
        "partial_aperture": {"modes": 30, "contrast_resolution": 40, "field_grid": 24,
                             "far_angles": 96, "node_levels": (1550, 1250, 1325, 1400, 1475)},
        "recon_sweep": {"m_max": 8, "n_max": 8, "pool": ((10.0, 1), (5.0, 2), (10.0, 3)),
                        "contrast_resolution": 32, "seeds": 3},
    },
    "tiny": {
        "full_aperture": {"m_max": 2, "n_max": 2, "contrast_resolution": 24, "field_grid": 8,
                          "targets": 1},
        "partial_aperture": {"modes": 8, "contrast_resolution": 12, "field_grid": 8,
                             "far_angles": 96, "node_levels": (300,)},
        "recon_sweep": {"m_max": 2, "n_max": 2, "pool": ((5.0, 1), (10.0, 2)),
                        "contrast_resolution": 12, "seeds": 1},
    },
}


@dataclass
class OpResult:
    seconds: float = 0.0
    failures: list = field(default_factory=list)  # [cause, known-defect label or None]
    rel_err: float | None = None

    def fail(self, cause: str, known: str | None = None) -> None:
        self.failures.append([cause, known])


class CliRunner:
    """Runs CLI calls in-process, times them, and lets a tracer span them."""

    def __init__(self, cli, tracer=None, calibrate=None):
        self.cli = cli
        self.tracer = tracer
        # If given, calibrate() runs after every call, outside the call's time;
        # calls then logs [call seconds, calibration seconds] for each call.
        self.calibrate = calibrate
        self.calls: list[list[float]] = []
        self.cal_spent = 0.0  # seconds spent in calibrate()

    def call(self, op: OpResult, argv: list[str]) -> str | None:
        """Run one CLI call; return its stdout, or None (and record why) if it failed."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.tracer is not None and self.tracer.active:
                    rc = self.tracer.call("cli." + argv[0], self.cli.run, argv)
                else:
                    rc = self.cli.run(argv)
        except Exception as e:  # an uncaught program error is a counted failure
            rc, exc = None, e
        dt = time.perf_counter() - t0
        op.seconds += dt
        if self.calibrate is not None:
            t1 = time.perf_counter()
            self.calls.append([dt, self.calibrate()])
            self.cal_spent += time.perf_counter() - t1
        if exc is not None:
            op.fail(f"exception:{argv[0]}:{type(exc).__name__}")
            return None
        if rc != 0:
            op.fail(f"exit:{argv[0]}={rc}")
            return None
        return out.getvalue()


def _read_data(path: str) -> tuple[dict, np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return header, rows


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _finite_json(path: str) -> bool:
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    vals = [rec["alpha"], rec.get("beta_alpha") or 0.0]
    vals += [v for m in rec["modes"] for v in (m["coeff_re"], m["coeff_im"])]
    return bool(rec["modes"]) and all(math.isfinite(v) for v in vals)


def _basis_meta(path: str) -> dict:
    with open(path, "rb") as f:
        f.readline()
        return json.loads(f.readline())


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def _random_shapes(rng, count: int, domain: dict, r_range: tuple[float, float],
                   reach: float) -> list[dict]:
    """`count` disks or annuli with centres in the disk of radius `reach`, each
    inside the domain; overlaps are allowed and their values add."""
    shapes = []
    while len(shapes) < count:
        r_out = float(rng.uniform(*r_range))
        rho, ang = reach * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        sh = {"center": [rho * math.cos(ang), rho * math.sin(ang)],
              "value": round(float(rng.uniform(0.5, 1.5)), 3)}
        if rng.random() < 0.5:
            sh.update(type="disk", radius=r_out)
        else:
            sh.update(type="annulus", r_inner=float(rng.uniform(0.3, 0.7)) * r_out, r_outer=r_out)
        if ref.shape_inside(domain, sh):
            shapes.append(sh)
    return shapes


def _random_grid(rng, half: float, n: int) -> dict:
    """An n x n pixel-grid phantom on [-half, half]^2: two Gaussian bumps on a
    background of 0.2, so every pixel is part of the support."""
    dx = 2.0 * half / n
    c = (np.arange(n) + 0.5) * dx - half
    X, Y = np.meshgrid(c, c, indexing="ij")
    vals = np.zeros((n, n))
    for _ in range(2):
        cx, cy = rng.uniform(-0.5 * half, 0.5 * half, 2)
        s = rng.uniform(0.2, 0.4) * half
        vals += rng.uniform(0.5, 1.5) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
    vals = np.round(0.2 + vals, 4)
    return {"grid": {"origin": [-half, -half], "dx": dx, "dy": dx, "values": vals.tolist()}}


class Workload:
    name = ""

    def __init__(self, runner: CliRunner, work: str, size: str, seed: int):
        self.s = runner
        self.work = work
        self.p = SIZES[size][self.name]
        self.seed = seed
        self.sizes: dict = {}
        self._calls = 0

    def fresh_dir(self, tag: str) -> str:
        self._calls += 1
        d = os.path.join(self.work, f"{tag}{self._calls}")
        os.makedirs(d)
        return d

    def rng(self, i: int):
        return np.random.default_rng([self.seed, i])

    def op(self, i: int) -> OpResult:
        d = self.fresh_dir("op")
        try:
            return self._op(i, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _op(self, i: int, d: str) -> OpResult:
        raise NotImplementedError

    def _check_forward(self, r: OpResult, data_path: str, phantom: dict, kappa: float,
                       noise: float) -> None:
        """Synthesized data against the closed-form / separable-sum reference.

        With calibrated noise the weighted distance to the reference must equal
        the requested relative noise level; any forward error shifts it.
        """
        _, rows = _read_data(data_path)
        if not np.isfinite(rows).all():
            r.fail("nonfinite:synthesize")
            return
        want = ref.forward_reference(phantom, kappa, rows[:, :2])
        dev = abs(ref.weighted_rel(rows[:, 3] + 1j * rows[:, 4], want, rows[:, 2]) - noise)
        if dev > FORWARD_TOL:
            r.fail("forward_mismatch", KNOWN_OVERLAP if ref.shapes_overlap(phantom) else None)

    def _field_error(self, r: OpResult, field_path: str, phantom: dict, domain: dict) -> None:
        f = _read_csv(field_path)
        if not np.isfinite(f).all():
            r.fail("nonfinite:field")
            return
        inside = ref.in_domain(domain, f[:, :2])
        q = ref.phantom_values(phantom, f[inside, :2])
        if q.any():  # a grid too coarse to hit the phantom gives no error figure
            r.rel_err = float(np.linalg.norm(f[inside, 2] - q) / np.linalg.norm(q))


class FullAperture(Workload):
    """Fresh phantom per op on the README disk basis: synthesize with noise,
    reconstruct at three cutoffs (field at the first), extrapolate."""

    name = "full_aperture"
    C, K = 10.0, 1.0
    ALPHAS = ("1e-2", "3e-3", "1e-3")
    # Shapes per phantom (0: pixel grid), cycled by op index.  Each kind gets
    # about the same number of support nodes (contrast_resolution^2 in all:
    # the per-shape resolution shrinks as 1/sqrt(count), and the grid has
    # that many pixels), so the synthesis work, and the op time, does not
    # depend on the kind and any percentile of a run is stable.
    KINDS = (1, 2, 3, 0, 2)

    def setup(self) -> None:
        cache = os.path.join(self.work, "cache")
        r = OpResult()
        out = self.s.call(r, ["basis", "disk", "--c", repr(self.C), "--m-max", str(self.p["m_max"]),
                              "--n-max", str(self.p["n_max"]), "-o", cache])
        if out is None:
            raise RuntimeError(f"basis priming failed: {r.failures}")
        self.basis = out.strip().splitlines()[-1]
        self.h = self.C / (2.0 * self.K)
        self.domain = {"kind": "disk", "h": self.h}
        meta = _basis_meta(self.basis)
        n_r, n_t = meta["quad_size"]
        self.sizes = {"basis": f"disk c={self.C:g} m,n<={self.p['m_max']}",
                      "basis_modes": len(meta["modes"]), "basis_nodes": n_r * n_t,
                      "field_grid": f"{self.p['field_grid']}^2",
                      "contrast_resolution": self.p["contrast_resolution"],
                      "alphas": list(self.ALPHAS), "noise": 1e-2,
                      "extrapolation_targets": self.p["targets"]}

    def phantom(self, i: int) -> dict:
        rng = self.rng(i)
        count = self.KINDS[i % len(self.KINDS)]
        if count == 0:
            return _random_grid(rng, 0.64 * self.h, self.p["contrast_resolution"])
        return {"shapes": _random_shapes(rng, count, self.domain, (0.5, 1.6), 0.9 * self.h)}

    def _op(self, i: int, d: str) -> OpResult:
        phantom = self.phantom(i)
        count = self.KINDS[i % len(self.KINDS)]
        res = round(self.p["contrast_resolution"] / math.sqrt(max(count, 1)))
        res += res % 2  # the polar shape rules use an even angle count
        setup, data, field_csv = f"{d}/setup.json", f"{d}/data.csv", f"{d}/field.csv"
        _write_json(setup, {"regime": "full", "k": self.K, "c_param": self.C,
                            "contrast": phantom})
        ang = np.linspace(0.0, 2.0 * math.pi, self.p["targets"], endpoint=False) + i
        rad = self.h * (1.1 + 0.5 * self.rng(i).random(self.p["targets"]))
        np.savetxt(f"{d}/targets.csv", np.stack([rad * np.cos(ang), rad * np.sin(ang)], 1),
                   delimiter=",", header="x,y", comments="", fmt="%.17g")
        r = OpResult()
        B = ["--basis", self.basis]
        if self.s.call(r, ["synthesize", setup, *B, "-o", data, "--noise", "1e-2",
                           "--seed", str(i), "--contrast-resolution", str(res)]) is None:
            return r
        self._check_forward(r, data, phantom, 4.0 * self.K**2 / self.C, 1e-2)
        for j, alpha in enumerate(self.ALPHAS):
            extra = (["--field-out", field_csv, "--field-grid", str(self.p["field_grid"])]
                     if j == 0 else [])
            if self.s.call(r, ["reconstruct", data, *B, "--alpha", alpha,
                               "-o", f"{d}/rec{j}.json", *extra]) is None:
                return r
            if not _finite_json(f"{d}/rec{j}.json"):
                r.fail("nonfinite:reconstruct")
        self._field_error(r, field_csv, phantom, self.domain)
        if self.s.call(r, ["extrapolate", data, *B, "--targets", f"{d}/targets.csv",
                           "-o", f"{d}/ext.csv"]) is None:
            return r
        if not np.isfinite(_read_csv(f"{d}/ext.csv")).all():
            r.fail("nonfinite:extrapolate")
        return r


def _node_count(domain: dict, rule: str, res: int) -> int:
    """Nodes the README's quadrature rules put in the domain at a resolution:
    polar from the rule's grid sizes, midpoint by counting cell centres."""
    n_r = max(12, res // 8)
    if rule == "polar":
        if domain["kind"] == "multi_freq":
            n_t = max(24, 2 * (res // 8))
            return 2 * n_r * (n_t + n_t % 2)
        return n_r * (max(64, res) + max(64, res) % 2)  # L(Theta > pi/2): every angle live
    step = 4.0 * domain["h"] / res
    g = step * (np.arange(res) - (res - 1) / 2.0)
    X, Y = np.meshgrid(g, g, indexing="ij")
    return int(ref.in_domain(domain, np.stack([X.ravel(), Y.ravel()], 1)).sum())


def _resolution(domain: dict, rule: str, target: int) -> int:
    """The resolution whose node count is closest to `target`."""
    if rule == "polar":
        candidates = range(16, 401, 2)
    else:
        frac = _node_count(domain, rule, 64) / 64**2
        guess = int(round(math.sqrt(target / frac)))
        candidates = range(max(8, guess - 2), guess + 3)
    return min(candidates, key=lambda r: abs(_node_count(domain, rule, r) - target))


class PartialAperture(Workload):
    """A new symmetric-set geometry per op: cold symset basis, synthesize,
    ingest far-field samples, reconstruct with a field, validate."""

    name = "partial_aperture"
    C = K = 5.0  # h = c / k = 1, so far-field p = theta_hat - x_hat needs no rescaling
    ALPHA = "1e-3"
    # Op 0 is M polar at the top level: its node count does not depend on the
    # drawn geometry, so every run reaches the same largest N in its first op
    # and peak_rss_mb does not depend on how many ops fit in the run.
    CELLS = (("M", "polar"), ("L", "polar"), ("M", "midpoint"), ("L", "midpoint"))

    def setup(self) -> None:
        self.nodes: list[int] = []
        self.sizes = {"basis": f"symset c={self.C:g} h=1, {self.p['modes']} modes",
                      "rules": ["polar", "midpoint"],
                      "node_levels": list(self.p["node_levels"]),
                      "field_grid": f"{self.p['field_grid']}^2",
                      "contrast_resolution": self.p["contrast_resolution"],
                      "far_field_angles": self.p["far_angles"], "alpha": float(self.ALPHA)}

    def cell(self, i: int) -> dict:
        """Op i: cell i % 4, node-count level i % 5, and a random geometry and
        two-shape phantom.  Any five consecutive ops hold every level once, so
        the op-time mix is the same for every seed; over 20 ops every cell
        meets every level.  The levels are close enough that neighbouring
        levels' op times overlap, which keeps the median from sitting on a
        step between two levels."""
        rng = self.rng(i)
        geo, rule = self.CELLS[i % len(self.CELLS)]
        levels = self.p["node_levels"]
        target = levels[i % len(levels)]
        if geo == "L":
            theta = math.pi * float(rng.uniform(0.55, 0.85))
            domain = {"kind": "limited_aperture", "h": 1.0, "theta": theta}
            reach = 1.6
        else:
            a = 2.0 * math.pi * float(rng.random())
            domain = {"kind": "multi_freq", "h": 1.0, "x_star": [math.cos(a), math.sin(a)]}
            reach = 1.9
        shapes = _random_shapes(rng, 2, domain, (0.15, 0.3), reach)
        return {"geo": geo, "rule": rule, "res": _resolution(domain, rule, target),
                "domain": domain, "phantom": {"shapes": shapes}}

    def _far_field(self, path: str, c: dict) -> None:
        """Far-field rows (x_hat, theta_hat, k^2 u(theta_hat - x_hat)) from the closed form.

        L: unit directions with both arguments in (-Theta, Theta).  M: one
        observation direction -+x* at frequency fraction s, encoded as
        direction vectors scaled by s, so p = s (theta_hat +- x*).
        """
        n = self.p["far_angles"]
        dom = c["domain"]
        if c["geo"] == "L":
            t = dom["theta"] * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
            e = np.stack([np.cos(t), np.sin(t)], 1)
            xh = np.repeat(e, n, axis=0)
            th = np.tile(e, (n, 1))
        else:
            s = np.sqrt((np.arange(n // 2) + 0.5) / (n // 2))
            t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
            e = np.stack([np.cos(t), np.sin(t)], 1)
            xs = np.asarray(dom["x_star"])
            xh, th = [], []
            for sign in (1.0, -1.0):
                xh.append(np.repeat(-sign * s[:, None] * xs[None, :], n, axis=0))
                th.append((s[:, None, None] * e[None, :, :]).reshape(-1, 2))
            xh, th = np.concatenate(xh), np.concatenate(th)
        vals = self.K**2 * ref.forward_reference(c["phantom"], self.K, th - xh)
        np.savetxt(path, np.column_stack([xh, th, vals.real, vals.imag]), delimiter=",",
                   header="xhat_x,xhat_y,thetahat_x,thetahat_y,re,im", comments="",
                   fmt="%.17g")

    def _check_ingest(self, r: OpResult, path: str, c: dict) -> str | None:
        """Ingested data against the closed form on the nodes it covers.

        Returns the known-defect label when too much weight is flagged missing
        because the default cutoff collapsed below the spacing of the
        far-field angle grid (see NOTES.md)."""
        header, rows = _read_data(path)
        self.nodes.append(len(rows))
        self.sizes["node_range"] = [min(self.nodes), max(self.nodes)]
        if not np.isfinite(rows).all():
            r.fail("nonfinite:ingest")
            return None
        valid = rows[:, 5] == 0
        missing = rows[~valid, 2].sum() / rows[:, 2].sum()
        if missing > MAX_MISSING_WEIGHT:
            step = 2.0 * math.sin(c["domain"].get("theta", 0.0) / self.p["far_angles"])
            known = KNOWN_CUTOFF if header["meta"]["cutoff"] < step else None
            r.fail("ingest_missing_weight", known)
            return known
        want = ref.forward_reference(c["phantom"], self.K, rows[valid, :2])
        got = rows[valid, 3] + 1j * rows[valid, 4]
        if ref.weighted_rel(got, want, rows[valid, 2]) > INGEST_TOL:
            r.fail("ingest_mismatch")
        return None

    def _op(self, i: int, d: str) -> OpResult:
        c = self.cell(i)
        dom = c["domain"]
        setup, data, ing, field_csv = (f"{d}/setup.json", f"{d}/data.csv", f"{d}/ing.csv",
                                       f"{d}/field.csv")
        cfg = {"c_param": self.C, "contrast": c["phantom"]}
        geo_args = ["--geometry", c["geo"], "--c", repr(self.C), "--h", "1.0"]
        if c["geo"] == "L":
            cfg.update(regime="limited", k=self.K, theta=dom["theta"])
            geo_args += ["--theta", repr(dom["theta"])]
        else:
            cfg.update(regime="multifreq", K=self.K, x_star=dom["x_star"])
            # the = form keeps argparse from reading a negative component as an option
            geo_args += [f"--x-star={dom['x_star'][0]!r},{dom['x_star'][1]!r}"]
        _write_json(setup, cfg)
        self._far_field(f"{d}/ff.csv", c)
        r = OpResult()
        out = self.s.call(r, ["basis", "symset", *geo_args, "--resolution", str(c["res"]),
                              "--modes", str(self.p["modes"]), "--method", c["rule"],
                              "-o", f"{d}/cache"])
        if out is None:
            return r
        B = ["--basis", out.strip().splitlines()[-1]]
        if self.s.call(r, ["synthesize", setup, *B, "-o", data, "--contrast-resolution",
                           str(self.p["contrast_resolution"])]) is None:
            return r
        self._check_forward(r, data, c["phantom"], self.K**2 / self.C, 0.0)
        if self.s.call(r, ["ingest", f"{d}/ff.csv", "--k", repr(self.K), *B, "-o", ing]) is None:
            return r
        known = self._check_ingest(r, ing, c)
        if self.s.call(r, ["reconstruct", ing, *B, "--alpha", self.ALPHA, "-o", f"{d}/rec.json",
                           "--field-out", field_csv,
                           "--field-grid", str(self.p["field_grid"])]) is None:
            if known and r.failures[-1][0] == "exit:reconstruct=1":
                r.failures[-1][1] = known  # too little data left after the ingest defect
        else:
            if not _finite_json(f"{d}/rec.json"):
                r.fail("nonfinite:reconstruct")
            self._field_error(r, field_csv, c["phantom"], dom)
        report = f"{d}/val.json"
        if self.s.call(r, ["validate", *B, "-o", report]) is None and os.path.exists(report):
            with open(report, encoding="utf-8") as f:
                failed = sorted(ch["check"] for ch in json.load(f) if not ch["passed"])
            if r.failures[-1][0] == "exit:validate=1":
                known = c["rule"] == "midpoint" and failed == ["hilbert_schmidt_area"]
                r.failures[-1] = [f"exit:validate=1:{'+'.join(failed)}",
                                  KNOWN_MIDPOINT_HS if known else None]
        return r


class ReconSweep(Workload):
    """Read path on prepared inputs: cached basis load, reconstructions over an
    alpha sweep without a field, and a small stability table."""

    name = "recon_sweep"
    K = 1.0
    ALPHAS = ("3e-2", "1e-2", "3e-3", "1e-3")
    DELTAS, ST_ALPHAS = "0,1e-3,1e-2", "1e-2,3e-3,1e-3"

    def basis_argv(self, c: float, cache: str) -> list[str]:
        return ["basis", "disk", "--c", repr(c), "--m-max", str(self.p["m_max"]),
                "--n-max", str(self.p["n_max"]), "-o", cache]

    def setup(self) -> None:
        """Bases for each c of the pool, then one noisy data file per pool
        entry (c, shape count); ops cycle through the pool in order."""
        self.cache = os.path.join(self.work, "cache")
        self.pool = []
        bases = {}
        r = OpResult()
        for j, (c, count) in enumerate(self.p["pool"]):
            if c not in bases:
                out = self.s.call(r, self.basis_argv(c, self.cache))
                if out is None:
                    raise RuntimeError(f"basis priming failed: {r.failures}")
                bases[c] = out.strip().splitlines()[-1]
            h = c / (2.0 * self.K)
            domain = {"kind": "disk", "h": h}
            rng = np.random.default_rng([self.seed, j])
            phantom = {"shapes": _random_shapes(rng, count, domain, (0.1 * h, 0.3 * h), 0.85 * h)}
            d = self.fresh_dir("pool")
            setup, data = f"{d}/setup.json", f"{d}/data.csv"
            _write_json(setup, {"regime": "full", "k": self.K, "c_param": c, "contrast": phantom})
            if self.s.call(r, ["synthesize", setup, "--basis", bases[c], "-o", data,
                               "--noise", "1e-2", "--seed", str(j), "--contrast-resolution",
                               str(self.p["contrast_resolution"])]) is None:
                raise RuntimeError(f"pool synthesis failed: {r.failures}")
            self.pool.append({"c": c, "count": count, "basis": bases[c], "data": data})
        self.sizes = {"bases": [f"disk c={c:g} m,n<={self.p['m_max']}" for c in bases],
                      "basis_modes": len(_basis_meta(self.pool[0]["basis"])["modes"]),
                      "pool": [list(e) for e in self.p["pool"]],
                      "alphas": [float(a) for a in self.ALPHAS],
                      "stability": {"deltas": self.DELTAS, "alphas": self.ST_ALPHAS,
                                    "seeds": self.p["seeds"]},
                      "contrast_resolution": self.p["contrast_resolution"]}

    def _op(self, i: int, d: str) -> OpResult:
        e = self.pool[i % len(self.pool)]
        r = OpResult()
        out = self.s.call(r, self.basis_argv(e["c"], self.cache))
        if out is None:
            return r
        if out.strip().splitlines()[-1] != e["basis"]:
            r.fail("basis_path_changed")
        B = ["--basis", e["basis"]]
        for j, alpha in enumerate(self.ALPHAS):
            if self.s.call(r, ["reconstruct", e["data"], *B, "--alpha", alpha,
                               "-o", f"{d}/rec{j}.json"]) is None:
                return r
            if not _finite_json(f"{d}/rec{j}.json"):
                r.fail("nonfinite:reconstruct")
        # the stability table gets a fresh phantom of the entry's kind per op,
        # so recon_rel_err is a median over many phantoms
        h = e["c"] / (2.0 * self.K)
        phantom = {"shapes": _random_shapes(self.rng(i), e["count"], {"kind": "disk", "h": h},
                                            (0.1 * h, 0.3 * h), 0.85 * h)}
        setup, table = f"{d}/setup.json", f"{d}/table.csv"
        _write_json(setup, {"regime": "full", "k": self.K, "c_param": e["c"], "contrast": phantom})
        if self.s.call(r, ["stability", setup, *B, "--deltas", self.DELTAS,
                           "--alphas", self.ST_ALPHAS, "--seeds", str(self.p["seeds"]),
                           "--seed", str(i), "--contrast-resolution",
                           str(self.p["contrast_resolution"]), "-o", table]) is None:
            return r
        rows = _read_csv(table)  # delta, alpha, error, bound
        if not np.isfinite(rows).all():
            r.fail("nonfinite:stability")
            return r
        if (rows[:, 2] > rows[:, 3]).any():
            r.fail("stability_bound")
        r.rel_err = float(np.median(rows[rows[:, 0] == 0.0, 2])) / ref.phantom_norm(phantom, h)
        return r


WORKLOADS = {w.name: w for w in (FullAperture, PartialAperture, ReconSweep)}
