import hashlib
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prolate as P
from prolate import cache, cli, forward
from prolate.cli import experiment_stability, run
from prolate.errors import ParameterError
from prolate.forward import add_noise, read_datagrid
from prolate.geometry_config import effective_kernel_scale, setup_from_dict
from prolate.numerics import mirror_map

from oracles import class_spectra


SETUP = {
    "regime": "full",
    "k": 1.0,
    "c_param": 5.0,
    "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                             "radius": 0.8, "value": 1.0}]},
}


# Values every geometry field refuses, from whichever source it is read: a
# string, null, a boolean and non-finite numbers; x_star also refuses a list
# that is not a pair, and a pair holding a boolean (numpy reads [true, 0.0] as
# floats).
BAD_NUMBERS = ["x", None, True, math.nan, math.inf, -math.inf]
BAD_PAIRS = [[1.0], [0.6, 0.8, 7.0], [True, 0.0]]
BAD_FIELDS = ([("h", v) for v in BAD_NUMBERS] + [("radius", v) for v in BAD_NUMBERS]
              + [("theta", v) for v in BAD_NUMBERS]
              + [("x_star", v) for v in BAD_PAIRS + BAD_NUMBERS])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("PROLATE_CACHE_DIR", str(d))
    return d


@pytest.fixture()
def disk_basis_file(cache_dir, capsys):
    assert run(["basis", "disk", "--c", "5.0", "--m-max", "3", "--n-max", "3"]) == 0
    return capsys.readouterr().out.strip().splitlines()[-1]


def write_setup(tmp_path, cfg=SETUP):
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(cfg))
    return path


class TestProcess:
    def test_import_loads_no_scipy(self):
        # scipy is a test oracle only; no module of the package imports it
        src = os.path.dirname(os.path.dirname(P.__file__))
        code = ("import sys, prolate.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_parser_built_once(self, capsys):
        assert cli._parser() is cli._parser()
        assert run(["--help"]) == 0
        first = capsys.readouterr().out
        assert run(["--help"]) == 0
        assert capsys.readouterr().out == first and first.startswith("usage: prolate")
        assert run(["reconstruct"]) == 2  # a failed parse leaves the parser usable
        assert run(["basis", "disk", "--help"]) == 0


class TestBasisCommand:
    def test_cache_hit_keeps_file_identical(self, cache_dir, tmp_path, capsys):
        assert run(["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]) == 0
        path = tmp_path / "cache"
        files = list(path.glob("*.gpswf"))
        assert len(files) == 1
        h1 = sha(files[0])
        assert run(["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]) == 0
        assert sha(files[0]) == h1

    def test_corrupt_cache_recomputed(self, cache_dir, tmp_path, capsys):
        assert run(["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]) == 0
        f = next((tmp_path / "cache").glob("*.gpswf"))
        blob = bytearray(f.read_bytes())
        blob[-3] ^= 0xFF
        f.write_bytes(bytes(blob))
        assert run(["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]) == 0
        assert P.load_basis(f) is not None  # checksum valid again

    def test_cache_hit_builds_no_zernike_table(self, cache_dir, capsys, monkeypatch):
        # a hit checks the checksum and the metadata only: no mode objects,
        # Zernike tables or polar rule are built for it
        argv = ["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]
        assert run(argv) == 0
        first = capsys.readouterr().out

        def no_table(*args, **kwargs):
            raise AssertionError("Zernike table built on a cache hit")

        monkeypatch.setattr(P.disk_basis, "zernike_radial_table", no_table)
        monkeypatch.setattr(P.numerics, "zernike_radial_table", no_table)
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_cache_hit_of_the_other_kind_is_recomputed(self, cache_dir, capsys):
        # a file at the key's path is served only if it holds a basis of the
        # requested kind with every entry a load reads
        argv = ["basis", "symset", "--geometry", "disk", "--c", "2.0", "--resolution", "32",
                "--modes", "4"]
        assert run(argv) == 0
        path = capsys.readouterr().out.strip()
        assert run(["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]) == 0
        disk_file = capsys.readouterr().out.strip()
        os.replace(disk_file, path)
        assert run(argv) == 0
        assert isinstance(P.load_basis(path), P.SymSetBasis)

    @pytest.mark.parametrize("edit", ["mode_records", "quad_size", "theta"])
    def test_cache_hit_with_malformed_metadata_is_recomputed(self, cache_dir, capsys, edit):
        # each rewrite keeps the payload and its checksum, and a load refuses
        # it; the cache-hit check refuses it too, so the printed path loads
        if edit == "theta":
            argv = ["basis", "symset", "--geometry", "L", "--c", "3.0", "--theta", "2.2",
                    "--resolution", "32", "--modes", "4", "--method", "polar"]
        else:
            argv = ["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]
        assert run(argv) == 0
        path = capsys.readouterr().out.strip()
        with open(path, "rb") as f:
            magic, meta, payload = f.read().split(b"\n", 2)
        meta = json.loads(meta)
        if edit == "mode_records":
            meta["modes"] = [record[:3] for record in meta["modes"]]
        elif edit == "quad_size":
            meta["quad_size"] = [12, 7]
        else:
            meta["geometry_params"].pop("theta")
        with open(path, "wb") as f:
            f.write(magic + b"\n" + json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(P.CacheError, match="malformed basis container"):
            P.load_basis(path)
        assert run(argv) == 0
        assert capsys.readouterr().out.strip() == path
        assert P.load_basis(path) is not None

    def test_disk_file_without_radial(self, cache_dir, tmp_path, capsys):
        # a disk file of the layout before `radial` was stored: `basis disk`
        # recomputes it at its key path, and any other stage exits 1 naming it
        argv = ["basis", "disk", "--c", "5.0", "--m-max", "2", "--n-max", "2"]
        assert run(argv) == 0
        path = capsys.readouterr().out.strip()
        old = tmp_path / "old.gpswf"
        meta, arrays = cache._read_container(path)
        arrays.pop("radial")
        meta = {k: v for k, v in meta.items() if k not in ("format", "arrays", "payload_sha256")}
        cache._write_container(old, meta, list(arrays.items()))
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", path, "-o", str(data),
                    "--contrast-resolution", "24"]) == 0
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis", str(old),
                                             "--alpha", "1e-2", "-o", str(tmp_path / "r.json")])
        assert code == 1 and len(err) == 1 and "radial" in err[0], err
        os.replace(old, path)
        assert run(argv) == 0
        assert capsys.readouterr().out.strip() == path
        assert [name for name, _, _ in cache._read_container(path)[0]["arrays"]] == [
            "chi", "gamma", "alpha", "coeffs", "radial"]
        assert run(["reconstruct", str(data), "--basis", path, "--alpha", "1e-2",
                    "-o", str(tmp_path / "r.json")]) == 0

    L_ARGV = ["basis", "symset", "--geometry", "L", "--c", "5.0", "--theta", "2.2", "--h", "5",
              "--resolution", "24", "--modes", "4", "--method", "polar"]

    @pytest.mark.parametrize("stage", ["synthesize", "ingest", "reconstruct", "extrapolate",
                                       "validate", "stability"])
    def test_symset_file_with_spectra(self, cache_dir, tmp_path, capsys, stage):
        # a set file of the layout that stored the complete spectra and neither
        # residuals nor hs_norm2: every other stage exits 1 naming the missing
        # entry, and `basis symset` recomputes it at its key path
        assert run(self.L_ARGV) == 0
        path = capsys.readouterr().out.strip()
        geo = P.Geometry.limited_aperture(2.2, h=5.0)
        spectra = class_spectra(P.compute_symset_basis(
            5.0, geo, P.build_quadrature(geo, 24, method="polar"), 4))
        meta, arrays = cache._read_container(path)
        meta = {k: v for k, v in meta.items()
                if k not in ("format", "arrays", "payload_sha256", "hs_norm2")}
        arrays.pop("residual")
        arrays["spectrum_even"] = np.sort(np.concatenate(spectra[:2]))
        arrays["spectrum_odd"] = np.sort(np.concatenate(spectra[2:]))
        old = tmp_path / "old.gpswf"
        cache._write_container(old, meta, list(arrays.items()))
        setup = str(write_setup(tmp_path, TestPairing.SETUP_L))
        data, targets, far = tmp_path / "data.csv", tmp_path / "t.csv", tmp_path / "ff.csv"
        assert run(["synthesize", setup, "--basis", path, "-o", str(data),
                    "--contrast-resolution", "24"]) == 0
        targets.write_text("x,y\n0.1,0.2\n")
        _far_field_file(far, n=8)
        out = str(tmp_path / "out")
        argv = {"synthesize": [setup, "--contrast-resolution", "24"],
                "ingest": [str(far), "--k", "1"],
                "reconstruct": [str(data), "--alpha", "1e-2"],
                "extrapolate": [str(data), "--targets", str(targets)],
                "validate": [],
                "stability": [setup, "--deltas", "0,1e-3", "--alphas", "0.5",
                              "--contrast-resolution", "24"]}[stage]
        code, err = _exit_and_error(capsys, [stage, *argv, "--basis", str(old), "-o", out])
        assert code == 1 and len(err) == 1 and "missing hs_norm2" in err[0], err
        assert not os.path.exists(out)
        os.replace(old, path)
        assert run(self.L_ARGV) == 0
        assert capsys.readouterr().out.strip() == path
        assert [name for name, _, _ in cache._read_container(path)[0]["arrays"]] == [
            "nodes", "weights", "parity", "alpha", "residual", "node_values"]
        assert run([stage, *argv, "--basis", path, "-o", out]) in (0, 1)  # validate: the area

    def test_corrupt_residual_fails_validate(self, cache_dir, tmp_path, capsys):
        assert run(self.L_ARGV) == 0
        path = capsys.readouterr().out.strip()
        report = tmp_path / "report.json"
        run(["validate", "--basis", path, "-o", str(report)])
        before = {entry["check"]: entry for entry in json.loads(report.read_text())}
        assert before["eigen_residual"]["passed"], before
        meta, arrays = cache._read_container(path)
        meta = {k: v for k, v in meta.items() if k not in ("format", "arrays", "payload_sha256")}
        alpha0 = np.abs(arrays["alpha"].view(complex)[0, 0])
        arrays["residual"][-1] = 1e-9 * alpha0
        cache._write_container(path, meta, list(arrays.items()))
        assert run(["validate", "--basis", path, "-o", str(report)]) == 1
        after = {entry["check"]: entry for entry in json.loads(report.read_text())}
        assert not after["eigen_residual"]["passed"]
        assert after["eigen_residual"]["residual"] == pytest.approx(1e-9)
        assert {k: v["passed"] for k, v in after.items() if k != "eigen_residual"} == {
            k: v["passed"] for k, v in before.items() if k != "eigen_residual"}

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -5.0, "4.0", True])
    @pytest.mark.parametrize("kind", ["disk", "L"])
    def test_cache_hit_with_bad_bandwidth(self, cache_dir, tmp_path, capsys, kind, c):
        # a bandwidth that is not a finite positive number is refused by a
        # load and by the cache-hit check: `basis` recomputes the file, and
        # `validate` on it exits 1 with one line and writes no report
        if kind == "L":
            argv = ["basis", "symset", "--geometry", "L", "--c", "3.0", "--theta", "2.2",
                    "--resolution", "32", "--modes", "4", "--method", "polar"]
        else:
            argv = ["basis", "disk", "--c", "4.0", "--m-max", "2", "--n-max", "2"]
        assert run(argv) == 0
        path = capsys.readouterr().out.strip()
        with open(path, "rb") as f:
            magic, meta, payload = f.read().split(b"\n", 2)
        meta = json.loads(meta)
        meta["c"] = c
        with open(path, "wb") as f:
            f.write(magic + b"\n" + json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
        report = tmp_path / "report.json"
        code, err = _exit_and_error(capsys, ["validate", "--basis", path, "-o", str(report)])
        assert code == 1 and len(err) == 1 and "bandwidth c" in err[0], err
        assert not report.exists()
        assert run(argv) == 0
        assert capsys.readouterr().out.strip() == path
        assert P.load_basis(path).c == float(argv[argv.index("--c") + 1])

    def test_symset_cache_key_reads_the_rule(self, cache_dir, capsys, monkeypatch):
        # a builder change that moves any weight, here every weight by one ulp,
        # names a new file, so no basis solved on the old rule is served
        argv = ["basis", "symset", "--geometry", "M", "--c", "3.0", "--resolution", "40",
                "--modes", "6", "--method", "polar"]
        assert run(argv) == 0
        first = capsys.readouterr().out.strip()
        build = cli.build_quadrature

        def moved(*args, **kwargs):
            quad = build(*args, **kwargs)
            return replace(quad, weights=np.nextafter(quad.weights, np.inf))

        monkeypatch.setattr(cli, "build_quadrature", moved)
        assert run(argv) == 0
        second = capsys.readouterr().out.strip()
        assert second != first and os.path.exists(first) and os.path.exists(second)
        assert not np.array_equal(P.load_basis(first).quad.weights,
                                  P.load_basis(second).quad.weights)

    @pytest.mark.parametrize("base,other,shared", [
        (["--geometry", "disk", "--radius", "1.5"], ["--theta", "2.2"], True),
        (["--geometry", "M", "--x-star", "0.6,0.8"], ["--theta", "2.2", "--radius", "1.5"],
         True),
        (["--geometry", "L", "--theta", "2.2"], ["--radius", "1.5", "--x-star", "0,1"], True),
        (["--geometry", "L", "--theta", "2.2", "--method", "midpoint"], ["--theta", "2.2001"],
         False),
    ], ids=["disk-theta", "M-theta-radius", "L-radius-x-star", "L-same-rule-other-theta"])
    def test_symset_cache_key_reads_the_geometry(self, cache_dir, capsys, base, other, shared):
        # the key holds the fields of Geometry.to_dict(), so a flag the geometry
        # ignores cannot split one basis into two cache files; and two domains
        # that build one rule bitwise (L(2.2) and L(2.2001) on the midpoint grid
        # of 24) still name a file each, since each pairs with its own setups
        argv = ["basis", "symset", "--c", "3.0", "--resolution", "24", "--modes", "4",
                "--method", "polar", *base]
        assert run(argv) == 0
        first = capsys.readouterr().out.strip()
        assert run([*argv, *other]) == 0
        second = capsys.readouterr().out.strip()
        assert (second == first) == shared
        assert sorted(p.name for p in cache_dir.glob("*.gpswf")) == sorted(
            {os.path.basename(first), os.path.basename(second)})
        one, two = P.load_basis(first).quad, P.load_basis(second).quad
        assert np.array_equal(one.nodes, two.nodes) and np.array_equal(one.weights, two.weights)

    @pytest.mark.parametrize("argv,flags,other", [
        (["--geometry", "L", "--theta", "2.2", "--resolution", "24"],
         ["--method", "auto"], ["--method", "midpoint"]),
        (["--geometry", "disk", "--resolution", "24"], ["--method", "auto"], ["--method", "polar"]),
        (["--geometry", "L", "--theta", "2.2", "--method", "polar"],
         ["--resolution", "8"], ["--resolution", "64"]),
        (["--geometry", "M", "--x-star", "0.6,0.8", "--method", "polar"],
         ["--resolution", "24"], ["--resolution", "96"]),
    ], ids=["L-auto-midpoint", "disk-auto-polar", "L-polar-8-64", "M-polar-24-96"])
    def test_symset_flags_building_one_rule_share_one_file(self, cache_dir, capsys, monkeypatch,
                                                            argv, flags, other):
        # the file is named by the rule the flags build, not by the flags: a
        # second flag set that builds the same rule is served the first file
        argv = ["basis", "symset", "--c", "5.0", "--modes", "6", *argv]
        assert run([*argv, *flags]) == 0
        first = capsys.readouterr().out.strip()

        def no_solve(*args, **kwargs):
            raise AssertionError("a rule already cached was solved again")

        monkeypatch.setattr(cli, "compute_symset_basis", no_solve)
        assert run([*argv, *other]) == 0
        assert capsys.readouterr().out.strip() == first
        assert [p.name for p in cache_dir.glob("*.gpswf")] == [os.path.basename(first)]

    def test_readme_disk_basis_file_name(self, tmp_path, capsys):
        # the README walkthrough's disk basis keeps its file name
        assert run(["basis", "disk", "--c", "10", "--m-max", "8", "--n-max", "8",
                    "-o", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "disk_a9ca8c8b88568500.gpswf")

    def test_symset_basis(self, cache_dir, capsys):
        assert run(["basis", "symset", "--geometry", "L", "--c", "3.0", "--theta", "2.2",
                    "--resolution", "48", "--modes", "8", "--method", "polar"]) == 0
        path = capsys.readouterr().out.strip().splitlines()[-1]
        basis = P.load_basis(path)
        assert isinstance(basis, P.SymSetBasis)
        assert len(basis.modes) == 8

    def test_symset_midpoint_half_aperture(self, cache_dir, capsys):
        # boundary cells of L(pi/2) whose mirror cell tests outside must be
        # dropped, or the rule is asymmetric and the command exits 2
        assert run(["basis", "symset", "--geometry", "L", "--c", "3.0",
                    "--theta", "1.5707963267948966", "--resolution", "34", "--modes", "8",
                    "--method", "midpoint"]) == 0
        path = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(P.load_basis(path).modes) == 8


class TestSynthesizeReconstruct:
    def test_end_to_end(self, tmp_path, disk_basis_file, capsys):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(data)]) == 0
        rec = tmp_path / "rec.json"
        field = tmp_path / "field.csv"
        assert run(["reconstruct", str(data), "--basis", disk_basis_file,
                    "--alpha", "0.01", "-o", str(rec),
                    "--field-out", str(field), "--field-grid", "16"]) == 0
        payload = json.loads(rec.read_text())
        assert payload["alpha"] == 0.01
        assert payload["beta_alpha"] > 0
        assert len(payload["modes"]) >= 1
        lines = field.read_text().strip().splitlines()
        assert lines[0] == "x,y,q"
        assert len(lines) == 1 + 16 * 16

    def test_symset_field_square_holds_the_domain(self, tmp_path, cache_dir, capsys):
        # the --field-out square of a set basis is its bounding box: R h for a disk
        assert run(["basis", "symset", "--geometry", "disk", "--radius", "3", "--c", "2",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip()
        basis = P.load_basis(basis_file)
        data, rec, field = (tmp_path / name for name in ("data.csv", "rec.json", "field.csv"))
        P.write_datagrid(data, P.DataGrid(basis.quad.nodes, basis.quad.weights,
                                          basis.mu[0] * basis.node_values[0],
                                          np.zeros(len(basis.quad), dtype=np.uint8),
                                          meta={"kappa": basis.kernel_scale},
                                          geometry=basis.geometry))
        assert run(["reconstruct", str(data), "--basis", basis_file, "--alpha", "1e-3",
                    "-o", str(rec), "--field-out", str(field), "--field-grid", "8"]) == 0
        pts = np.loadtxt(field, delimiter=",", skiprows=1)[:, :2]
        assert np.hypot(*basis.quad.nodes.T).max() > 2.9
        assert pts.min() == -3.0 and pts.max() == 3.0

    def test_empty_cutoff_exits_one(self, tmp_path, disk_basis_file):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(data)]) == 0
        rec = tmp_path / "rec.json"
        # alpha >= 1/chi_00 retains nothing
        assert run(["reconstruct", str(data), "--basis", disk_basis_file,
                    "--alpha", "1.0", "-o", str(rec)]) == 1

    def test_unknown_subcommand_exits_two(self):
        assert run(["frobnicate"]) == 2

    def test_bad_flag_exits_two(self, tmp_path, disk_basis_file):
        assert run(["reconstruct", "nope.csv", "--basis", disk_basis_file,
                    "-o", str(tmp_path / "r.json")]) == 2  # missing alpha
        assert run(["basis", "disk", "--c", "5.0"]) == 2  # missing required flags

    def test_containment_violation_rejected(self, tmp_path, disk_basis_file):
        bad = dict(SETUP)
        bad["contrast"] = {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                       "radius": 3.0, "value": 1.0}]}
        setup = write_setup(tmp_path, bad)
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(tmp_path / "d.csv")]) == 2

    def test_partial_regime_auto_alpha(self, tmp_path, cache_dir, capsys):
        theta = 3 * math.pi / 4
        assert run(["basis", "symset", "--geometry", "L", "--c", "5.0",
                    "--theta", repr(theta), "--h", "5.0",
                    "--resolution", "64", "--modes", "20", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        cfg = {"regime": "limited", "k": 1.0, "c_param": 5.0, "theta": theta,
               "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                        "radius": 1.0, "value": 1.0}]}}
        setup = tmp_path / "setup_L.json"
        setup.write_text(json.dumps(cfg))
        data = tmp_path / "dataL.csv"
        assert run(["synthesize", str(setup), "--basis", basis_file, "-o", str(data),
                    "--noise", "0.01", "--seed", "1"]) == 0
        rec = tmp_path / "recL.json"
        assert run(["reconstruct", str(data), "--basis", basis_file,
                    "--delta", "0.05", "--E", "1.0", "--sigma", "1.0", "--c0", "1.0",
                    "-o", str(rec)]) == 0
        payload = json.loads(rec.read_text())
        assert payload["beta_alpha"] is None
        assert payload["alpha"] == pytest.approx(math.sqrt(0.05))
        assert len(payload["modes"]) >= 1

    def test_noise_reported_and_seeded(self, tmp_path, disk_basis_file, capsys):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(data), "--noise", "0.01", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "relative 0.01" in out and "absolute" in out
        grid = read_datagrid(data)
        assert grid.meta["seed"] == 3
        assert grid.meta["delta"] == 0.01


class TestDeterminism:
    def test_synthesize_byte_identical(self, tmp_path, disk_basis_file):
        setup = write_setup(tmp_path)
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        for out in (out1, out2):
            assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                        "-o", str(out), "--noise", "0.05", "--seed", "11"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reconstruct_byte_identical(self, tmp_path, disk_basis_file):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(data), "--noise", "0.02", "--seed", "7"]) == 0
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert run(["reconstruct", str(data), "--basis", disk_basis_file,
                        "--alpha", "0.01", "-o", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestIngestExtrapolate:
    def test_ingest_command(self, tmp_path, cache_dir, capsys):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        k = 2.0  # the basis's kernel scale c / h^2, so p = theta_hat - x_hat
        n = 48
        ang = 2 * math.pi * np.arange(n) / n
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        q = P.ContrastField.from_shapes([{"type": "disk", "radius": 0.5, "value": 1.0}],
                                        resolution=64)
        rows = ["xhat_x,xhat_y,thetahat_x,thetahat_y,re,im"]
        for xh in dirs:
            for th in dirs:
                v = P.far_field(q, xh, th, k)
                rows.append(f"{float(xh[0])!r},{float(xh[1])!r},{float(th[0])!r},"
                            f"{float(th[1])!r},{v.real!r},{v.imag!r}")
        samples = tmp_path / "ff.csv"
        samples.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ingested.csv"
        assert run(["ingest", str(samples), "--k", "2.0", "--basis", basis_file,
                    "-o", str(out)]) == 0
        grid = read_datagrid(out)
        assert grid.valid.sum() > 0.9 * len(grid.values)

    @pytest.mark.parametrize("theta", [2.356, 2.6, 2.9])
    def test_default_cutoff_is_the_direction_step(self, tmp_path, cache_dir, capsys, theta):
        # a uniform 96-direction grid over L(theta): at the wider apertures the
        # merged p points nearly repeat, and a cutoff taken from their spacing
        # (2.5e-4 at 2.6) flagged all the weight missing; three direction
        # steps flag none
        assert run(["basis", "symset", "--geometry", "L", "--c", "5.0", "--theta", repr(theta),
                    "--resolution", "96", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        n = 96
        t = theta * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
        e = np.stack([np.cos(t), np.sin(t)], axis=1)
        table = np.column_stack([np.repeat(e, n, axis=0), np.tile(e, (n, 1)),
                                 np.ones(n * n), np.zeros(n * n)])
        samples = tmp_path / "ff.csv"
        np.savetxt(samples, table, delimiter=",", fmt="%.17g", comments="",
                   header="xhat_x,xhat_y,thetahat_x,thetahat_y,re,im")
        out = tmp_path / "ingested.csv"
        # k = c / h^2 = 5: the directions map onto the nodes unscaled
        assert run(["ingest", str(samples), "--k", "5.0", "--basis", basis_file,
                    "-o", str(out)]) == 0
        with open(out, encoding="utf-8") as f:
            header = json.loads(f.readline())
        assert header["meta"]["cutoff"] == pytest.approx(3.0 * 2.0 * math.sin(theta / n),
                                                         rel=1e-12)
        assert read_datagrid(out).valid.all()

    def test_extrapolate_command(self, tmp_path, disk_basis_file):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file,
                    "-o", str(data)]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0.5,0.0\n3.5,1.0\n")
        out = tmp_path / "ext.csv"
        assert run(["extrapolate", str(data), "--basis", disk_basis_file,
                    "--targets", str(targets), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 3

    def test_extrapolate_rows_are_the_per_row_format(self, tmp_path, disk_basis_file):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0.5,-0.0\n3.5,1.0\n-7.25,1e-3\n")
        out = tmp_path / "ext.csv"
        assert run(["extrapolate", str(data), "--basis", disk_basis_file,
                    "--targets", str(targets), "-o", str(out)]) == 0
        pts = np.array([[0.5, -0.0], [3.5, 1.0], [-7.25, 1e-3]])
        grid = read_datagrid(data)
        scaled = P.load_basis(disk_basis_file).dilated(2.5)
        values = P.extrapolate(grid, scaled, pts)
        rows = "".join(f"{float(x)!r},{float(y)!r},{float(v.real)!r},{float(v.imag)!r}\n"
                       for (x, y), v in zip(pts, values))
        assert out.read_text() == "x,y,re,im\n" + rows

    def test_validate_command(self, tmp_path, disk_basis_file):
        out = tmp_path / "report.json"
        assert run(["validate", "--basis", disk_basis_file, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(entry["passed"] for entry in report)


def _exit_and_error(capsys, argv):
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err.strip().splitlines()
    return code, err


def _per_row_ingest(samples, k, basis):
    """The far-field ingest one row at a time: each row's first six fields
    parsed by float(), each direction scaled by k / kappa and value / k^2
    formed per row.  The per-row samples are handed to ingest_farfield with
    k = kappa = 1, under which its own mapping leaves them bit for bit
    unchanged, and the basis's kappa is put back in the meta."""
    with open(samples, encoding="utf-8") as f:
        f.readline()
        rows = [[float(v) for v in line.strip().split(",")[:6]] for line in f if line.strip()]
    scale = k / basis.kernel_scale
    x_hat = [[scale * v for v in r[0:2]] for r in rows]
    theta_hat = [[scale * v for v in r[2:4]] for r in rows]
    vals = [complex(r[4], r[5]) / k**2 for r in rows]
    data = P.ingest_farfield(x_hat, theta_hat, vals, 1.0, 1.0, basis.quad,
                             geometry=basis.geometry)
    return replace(data, meta={**data.meta, "kappa": basis.kernel_scale})


def _grid_rows(table, values):
    """Far-field CSV text of the directions of `table` with `values`, each
    field the repr of its float."""
    rows = [",".join(map(repr, r)) for r in np.column_stack([table[:, :4], values]).tolist()]
    return ",".join(FAR_COLUMNS) + "\n" + "\n".join(rows) + "\n"


class TestIngestArrayPath:
    """`ingest` parses the far-field file in one pass and maps it with array
    arithmetic; its output is byte-identical to the per-row mapping."""

    @pytest.mark.parametrize("geometry", [["--geometry", "L", "--theta", "2.2"],
                                          ["--geometry", "M", "--x-star=0.6,-0.8"]])
    def test_byte_identical_to_per_row_reference(self, tmp_path, cache_dir, capsys, geometry):
        # c = k = 1.7 at h = 1, so that k / kappa is 1 and the per-row
        # directions are the file's, a direction grid on either layout
        assert run(["basis", "symset", *geometry, "--c", "1.7", "--resolution", "40",
                    "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        basis = P.load_basis(basis_file)
        samples = tmp_path / "ff.csv"
        write = _far_field_file if geometry[1] == "L" else _ring_far_field_file
        table = write(samples, n=16)
        rng = np.random.default_rng(8)
        table = table[rng.permutation(len(table))]
        values = rng.standard_normal((len(table), 2)) * [[1e3, 1e-3]]
        samples.write_text(_grid_rows(table, values))
        out, ref = tmp_path / "ing.csv", tmp_path / "ref.csv"
        assert run(["ingest", str(samples), "--k", "1.7", "--basis", basis_file,
                    "-o", str(out)]) == 0
        want = _per_row_ingest(samples, 1.7, basis)
        P.write_datagrid(ref, want)
        assert out.read_bytes() == ref.read_bytes()
        assert want.meta["interp"] == "angle" and want.valid.any()

    def test_blank_lines_and_extra_columns(self, tmp_path, cache_dir, capsys):
        # rows with a seventh field or blank lines take the line-by-line parse
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        table = _far_field_file(plain, n=4)
        table = table[np.random.default_rng(3).permutation(len(table))]
        text = _grid_rows(table, table[:, 4:])
        plain.write_text(text)
        extra.write_text("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im,note\n\n"
                         + "\n  \n".join(r + ",x" for r in text.splitlines()[1:]) + "\n\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for samples, out in ((plain, a), (extra, b)):
            assert run(["ingest", str(samples), "--k", "1.0", "--basis", basis_file,
                        "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_datagrid(a).valid.any()

    @pytest.mark.parametrize("header,body,message", [
        ("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im", "1.0,0.0,-1.0,0.0,abc,0.0",
         "line 4: malformed row '1.0,0.0,-1.0,0.0,abc,0.0'"),
        ("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im", "  1.0,0.0,-1.0,0.0,0.5  ",
         "line 4: expected 6 fields, got '1.0,0.0,-1.0,0.0,0.5'"),
        ("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im", "1.0,0.0,-1.0,0.0,nan,0.0,7",
         "line 4: non-finite number in row '1.0,0.0,-1.0,0.0,nan,0.0,7'"),
        ("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im", "1.0,0.0,-1.0,0.0,1e999,0.0",
         "line 4: non-finite number in row '1.0,0.0,-1.0,0.0,1e999,0.0'"),
        ("xhat_x,xhat_y,thetahat_x,re,im", "1.0,0.0,-1.0,0.0,0.5,0.1",
         "unexpected far-field columns ['xhat_x', 'xhat_y', 'thetahat_x', 're', 'im']"),
    ])
    def test_far_field_messages(self, tmp_path, cache_dir, capsys, header, body, message):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        # the bad row is the second of three data rows, after a blank line
        samples.write_text(f"{header}\n1.0,0.0,0.0,1.0,0.5,0.1\n\n{body}\n0.0,1.0,1.0,0.0,abc,0\n")
        out = tmp_path / "ing.csv"
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "1.0",
                                             "--basis", basis_file, "-o", str(out)])
        where = "" if message.startswith("unexpected") else f"{samples} "
        assert (code, err) == (2, [f"error: {where}{message}"])
        assert not out.exists()

    @pytest.mark.parametrize("body,message", [
        ("1.0,abc", "line 3: malformed row '1.0,abc'"),
        ("3.5", "line 3: expected 2 fields, got '3.5'"),
        ("-inf,0.0", "line 3: non-finite number in row '-inf,0.0'"),
    ])
    def test_target_messages(self, tmp_path, disk_basis_file, capsys, body, message):
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text(f"x,y\n3.5,1.0\n{body}\n")
        out = tmp_path / "ext.csv"
        code, err = _exit_and_error(capsys, ["extrapolate", str(data), "--basis",
                                             disk_basis_file, "--targets", str(targets),
                                             "-o", str(out)])
        assert (code, err) == (2, [f"error: {targets} {message}"])
        assert not out.exists()


FAR_COLUMNS = ["xhat_x", "xhat_y", "thetahat_x", "thetahat_y", "re", "im"]
FAR_ROW = "0.6,0.8,-0.8,0.6,1.5,-0.25"


def _far_field_file(path, n=48, theta=2.2):
    """Far-field rows on a uniform n x n grid of directions over L(theta)."""
    t = theta * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    table = np.column_stack([np.repeat(e, n, axis=0), np.tile(e, (n, 1)),
                             np.cos(np.arange(n * n)), np.sin(np.arange(n * n))])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", comments="",
               header=",".join(FAR_COLUMNS))
    return table


def _ring_far_field_file(path, n=16, x_star=(0.6, -0.8)):
    """Far-field rows on a ring layout: x_hat = -+s x* at n / 2 fractions s,
    each with theta_hat = s e(t) at n angles round the circle."""
    s = np.sqrt((np.arange(n // 2) + 0.5) / (n // 2))
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    x_hat = np.concatenate([np.repeat(-sign * s[:, None] * np.asarray(x_star), n, axis=0)
                            for sign in (1.0, -1.0)])
    theta_hat = np.tile((s[:, None, None] * e).reshape(-1, 2), (2, 1))
    m = len(x_hat)
    table = np.column_stack([x_hat, theta_hat, np.cos(np.arange(m)), np.sin(np.arange(m))])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", comments="",
               header=",".join(FAR_COLUMNS))
    return table


def _header_meta(path):
    with open(path, encoding="utf-8") as f:
        return json.loads(f.readline())["meta"]


class TestIngestGrid:
    """`ingest` of a far-field file on a direction grid interpolates in the
    grid's angles, whatever the order of the rows; a file that is not quite
    such a grid exits 2 with one line naming the layout condition it breaks."""

    GEOMETRIES = {"L": ["--geometry", "L", "--theta", "2.2"],
                  "M": ["--geometry", "M", "--x-star=0.6,-0.8"]}
    # what each edit of a 16 x 16 grid (16 x_hat of 16 rows each) breaks
    NEAR_GRIDS = {"dropped row": "16 distinct x_hat with 15 to 16 rows",
                  "jittered direction": "17 distinct x_hat with 1 to 16 rows",
                  "duplicated row": "16 distinct x_hat with 16 to 17 rows"}

    @pytest.fixture(params=["L", "M"])
    def grid_case(self, request, tmp_path, cache_dir, capsys):
        """(basis file, far-field file, its table) of a small L or M grid."""
        assert run(["basis", "symset", *self.GEOMETRIES[request.param], "--c", "5.0",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        write = _far_field_file if request.param == "L" else _ring_far_field_file
        return basis_file, samples, write(samples, n=16)

    def _ingest(self, samples, basis_file, out):
        assert run(["ingest", str(samples), "--k", "5.0", "--basis", basis_file,
                    "-o", str(out)]) == 0
        return out.read_bytes()

    def _refused(self, capsys, samples, basis_file, out, condition):
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "5.0",
                                             "--basis", basis_file, "-o", str(out)])
        assert (code, err) == (2, [f"error: {samples}: not a direction grid: {condition}"])
        assert not out.exists()

    def test_rows_in_any_order(self, tmp_path, grid_case):
        basis_file, samples, table = grid_case
        got = self._ingest(samples, basis_file, tmp_path / "ing.csv")
        shuffled = tmp_path / "shuffled.csv"
        np.savetxt(shuffled, table[np.random.default_rng(4).permutation(len(table))],
                   delimiter=",", fmt="%.17g", comments="", header=",".join(FAR_COLUMNS))
        assert self._ingest(shuffled, basis_file, tmp_path / "again.csv") == got
        meta = _header_meta(tmp_path / "ing.csv")
        assert meta["interp"] == "angle" and 0.0 < meta["cutoff"] < math.inf

    @pytest.mark.parametrize("edit", ["dropped row", "jittered direction", "duplicated row"])
    def test_near_grids_are_refused(self, tmp_path, grid_case, capsys, edit):
        basis_file, samples, table = grid_case
        if edit == "dropped row":
            table = np.delete(table, 37, axis=0)
        elif edit == "jittered direction":
            table = table.copy()
            table[37, 0] += 1e-9
        else:
            table = np.insert(table, 37, table[37], axis=0)
        near = tmp_path / "near.csv"
        np.savetxt(near, table, delimiter=",", fmt="%.17g", comments="",
                   header=",".join(FAR_COLUMNS))
        self._refused(capsys, near, basis_file, tmp_path / "ing.csv",
                      f"{self.NEAR_GRIDS[edit]} each; a grid needs at least 2, each with the "
                      f"same number of rows, at least 2")

    @pytest.mark.parametrize("body", ["1.0,0.0,0.0,1.0,0.5,0.1\n",
                                      "1.0,0.0,0.0,1.0,0.5,0.1\n" * 2 + "1.0,0.0,0.0,1.0,0.7,0.0\n"])
    def test_one_direction_pair(self, tmp_path, cache_dir, capsys, body):
        # one x_hat is no grid: there is no step across the groups
        assert run(["basis", "symset", *self.GEOMETRIES["L"], "--c", "5.0",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        samples.write_text(",".join(FAR_COLUMNS) + "\n" + body)
        rows = len(body.splitlines())
        self._refused(capsys, samples, basis_file, tmp_path / "ing.csv",
                      f"1 distinct x_hat with {rows} row{'s' * (rows > 1)} each; a grid needs "
                      f"at least 2, each with the same number of rows, at least 2")


class TestPairing:
    """A basis file on another data domain than the setup's or data file's
    (`paired`), or one without a set's domain for `ingest`, exits 2 with one
    line and writes no output; a basis on that domain is accepted whatever its
    type."""

    SETUP_L = {"regime": "limited", "k": 1.0, "c_param": 5.0, "theta": 2.2,
               "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0], "radius": 1.0,
                                        "value": 1.0}]}}

    @pytest.fixture()
    def files(self, tmp_path, disk_basis_file, capsys):
        def symset(*flags):
            assert run(["basis", "symset", "--c", "5", *flags, "--resolution", "24",
                        "--modes", "6", "--method", "polar"]) == 0
            return capsys.readouterr().out.strip().splitlines()[-1]

        def setup(name, cfg):
            path = tmp_path / name
            path.write_text(json.dumps(cfg))
            return str(path)

        files = {"disk": disk_basis_file,
                 "L": symset("--geometry", "L", "--theta", "2.2", "--h", "5"),
                 "symset-disk": symset("--geometry", "disk", "--h", "2.5"),
                 "full": setup("full.json", SETUP),
                 "limited": setup("limited.json", self.SETUP_L),
                 "limited-theta": setup("theta.json", {**self.SETUP_L, "theta": 2.0}),
                 "dataL": str(tmp_path / "dataL.csv"),
                 "targets": str(tmp_path / "targets.csv"),
                 "farfield": str(tmp_path / "ff.csv")}
        assert run(["synthesize", files["limited"], "--basis", files["L"], "-o", files["dataL"],
                    "--contrast-resolution", "24"]) == 0
        (tmp_path / "targets.csv").write_text("x,y\n0.1,0.2\n")
        _far_field_file(files["farfield"], n=8)
        return files

    @pytest.mark.parametrize("argv,message", [
        (["synthesize", "limited", "--basis", "disk"],
         "a disk basis pairs only with a disk domain, got 'limited_aperture'"),
        (["synthesize", "full", "--basis", "L"], "does not match the data domain"),
        (["synthesize", "limited-theta", "--basis", "L"], "does not match"),
        (["stability", "limited-theta", "--basis", "L", "--deltas", "0,1e-3",
          "--alphas", "0.5"], "does not match"),
        (["reconstruct", "dataL", "--basis", "disk", "--alpha", "0.01"], "disk domain"),
        (["ingest", "farfield", "--k", "1", "--basis", "disk"], "symset basis"),
    ], ids=["disk-limited", "L-full", "theta-synthesize", "theta-stability", "disk-L-data",
            "ingest-disk"])
    def test_refused(self, tmp_path, files, capsys, argv, message):
        out = tmp_path / "out"
        code, err = _exit_and_error(capsys, [files.get(a, a) for a in argv] + ["-o", str(out)])
        assert code == 2 and len(err) == 1 and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synthesize", "full", "--basis", "symset-disk"],
        ["extrapolate", "dataL", "--basis", "L", "--targets", "targets"],
    ], ids=["symset-disk-full", "extrapolate-symset"])
    def test_accepted(self, tmp_path, files, capsys, argv):
        # a full setup's disk B(0, c / 2k) is the symset disk basis's domain, and its
        # kernel scale 4 k^2 / c that basis's c / h^2; extrapolate runs on any basis
        out = tmp_path / "out"
        assert run([files.get(a, a) for a in argv] + ["-o", str(out)]) == 0
        assert out.exists()

    def test_full_setup_on_symset_disk_basis(self, tmp_path, files, capsys):
        data, rec, table = (str(tmp_path / name) for name in ("data.csv", "rec.json", "t.csv"))
        for argv in (["synthesize", files["full"], "--basis", files["symset-disk"], "-o", data,
                      "--contrast-resolution", "24"],
                     ["reconstruct", data, "--basis", files["symset-disk"], "--alpha", "1e-3",
                      "-o", rec],
                     ["stability", files["full"], "--basis", files["symset-disk"],
                      "--deltas", "0,1e-3", "--alphas", "0.5", "--contrast-resolution", "24",
                      "-o", table]):
            assert run(argv) == 0, capsys.readouterr().err
        assert read_datagrid(data).bandwidth == pytest.approx(5.0, rel=1e-14)
        assert json.loads(Path(rec).read_text())["modes"]
        assert len(Path(table).read_text().splitlines()) == 3


class TestFarFieldReader:
    """`forward.read_columns` reads a far-field file with numpy's reader straight
    from the file, and falls back to its line-by-line parse where the reader
    refuses a row or meets a non-finite number: the two give the same arrays,
    or the same one-line exit-2 message."""

    CORPUS = {
        "plain": (FAR_ROW + "\n") * 3,
        "no final newline": FAR_ROW + "\n" + FAR_ROW,
        "blank lines": "\n" + FAR_ROW + "\n\n" + FAR_ROW + "\n\n",
        "crlf": FAR_ROW + "\r\n" + FAR_ROW + "\r\n",
        "extra column": FAR_ROW + ",7\n" + FAR_ROW + ",x\n",
        "extra empty field": FAR_ROW + ",\n",
        "padded fields": " 0.6 ,0.8,\t-0.8 ,0.6,1.5, -0.25 \n",
        "line of spaces": FAR_ROW + "\n   \n" + FAR_ROW + "\n",
        "file separator padding": "0.6\x1c,0.8,-0.8,0.6,1.5,-0.25\n",
        "unit separator at the end": FAR_ROW + "\x1f\n",
        "underscore": FAR_ROW + "\n0.6,0.8,-0.8,0.6,1_5,-0.25\n",
        "non-ascii digit": "١" + FAR_ROW[3:] + "\n",
        "nan": FAR_ROW + "\n0.6,0.8,-0.8,0.6,nan,-0.25\n",
        "inf": "0.6,0.8,-0.8,0.6,1.5,-inf\n",
        "overflow": "0.6,0.8,-0.8,0.6,1e999,-0.25\n",
        "short row": FAR_ROW + "\n0.6,0.8,-0.8,0.6,1.5\n",
        "non-numeric field": FAR_ROW + "\n0.6,0.8,abc,0.6,1.5,-0.25\n",
        "empty field": ",0.8,-0.8,0.6,1.5,-0.25\n",
        "no rows": "",
        "blank lines only": "\n\n",
    }
    # the cases numpy's reader takes; the rest go through the fallback
    READER = {"plain", "no final newline", "blank lines", "crlf", "extra column",
              "extra empty field", "padded fields"}
    # padding that `float` refuses is refused wherever it stands in a row, as
    # in a data row; the message shows the row stripped
    MESSAGES = {"unit separator at the end": f"line 2: malformed row {FAR_ROW!r}"}

    @staticmethod
    def _parse(path):
        try:
            return forward.read_columns(str(path), FAR_COLUMNS, "far-field")
        except ParameterError as exc:
            return str(exc)

    @pytest.mark.parametrize("case", list(CORPUS))
    def test_reader_and_fallback_agree(self, tmp_path, monkeypatch, case):
        path = tmp_path / "ff.csv"
        path.write_bytes((",".join(FAR_COLUMNS) + "\n" + self.CORPUS[case]).encode())
        taken = []
        loadtxt = forward._loadtxt
        monkeypatch.setattr(forward, "_loadtxt",
                            lambda *a: taken.append(loadtxt(*a)) or taken[-1])
        fast = self._parse(path)
        assert (taken[0] is not None and np.isfinite(taken[0]).all()) == (case in self.READER)
        monkeypatch.setattr(forward, "_loadtxt", lambda *a: None)  # the line-by-line pass
        slow = self._parse(path)
        if case in self.MESSAGES:
            assert slow == f"{path} {self.MESSAGES[case]}"
        if isinstance(slow, str):
            assert fast == slow and "\n" not in slow
        else:
            assert fast.dtype == slow.dtype and fast.shape == slow.shape
            assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))

    def test_parse_memory(self, tmp_path):
        # a file of the benchmark's far-field size, 96 x 96 direction pairs:
        # the reader holds no copy of the body, only the table it returns
        path = tmp_path / "ff.csv"
        table = _far_field_file(path, n=96)
        forward.read_columns(str(path), FAR_COLUMNS, "far-field")
        tracemalloc.start()
        try:
            got = forward.read_columns(str(path), FAR_COLUMNS, "far-field")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, table)
        assert peak - got.nbytes < 1_000_000, peak

    def test_ingest_loads_no_scipy(self, tmp_path, cache_dir, capsys):
        assert run(["basis", "symset", "--geometry", "L", "--c", "5.0", "--theta", "2.2",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples, out = tmp_path / "ff.csv", tmp_path / "ing.csv"
        _far_field_file(samples)
        code = ("import sys; from prolate.cli import run; rc = run(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "sys.exit(rc)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(P.__file__)))
        proc = subprocess.run([sys.executable, "-c", code, "ingest", str(samples), "--k", "5.0",
                               "--basis", basis_file, "-o", str(out)],
                              env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert read_datagrid(out).valid.any()


def _readme_commands():
    """The argv of each `prolate` command in the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("prolate "):
                yield shlex.split(line, comments=True)[1:]


README_COMMANDS = list(_readme_commands())


def test_readme_names_every_command():
    assert {argv[0] for argv in README_COMMANDS} == {
        "basis", "synthesize", "ingest", "reconstruct", "extrapolate", "validate", "stability"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_readme_command_parses(argv):
    try:
        cli._parser().parse_args(cli._attach_list_values(argv))
    except SystemExit:
        pytest.fail(f"README command does not parse: prolate {' '.join(argv)}")


def test_numpy_only_pipelines(tmp_path):
    # the script the CI job without scipy runs against the installed package
    script = os.path.join(os.path.dirname(__file__), "numpy_only_pipelines.py")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(P.__file__)))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("b", [1.0, 2.0, 2.5, 3.7, 5.123, 10.0 / 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 24, 32, 64, 97])
def test_field_axis_is_symmetric(b, n):
    # np.linspace(-b, b, n) is not (g != -g[::-1] at every b here for n = 24,
    # 32, 64), so the field's Born sums could not fold over p -> -p
    g = cli._field_axis(b, n)
    assert np.array_equal(g, -g[::-1])
    if n > 1:
        assert g[0] == -b and g[-1] == b
        assert np.abs(g - np.linspace(-b, b, n)).max() <= 4 * np.spacing(b)
        X, Y = np.meshgrid(g, g, indexing="ij")
        assert mirror_map(np.stack([X.ravel(), Y.ravel()], axis=1)) is not None


class TestNonFiniteInput:
    """A nan or inf in an input file exits 2 with one stderr line and no output."""

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_data_file(self, tmp_path, disk_basis_file, capsys, bad):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data)]) == 0
        lines = data.read_text().splitlines()
        row = lines[7].split(",")
        row[3] = bad
        lines[7] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        rec = tmp_path / "rec.json"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01",
                                             "-o", str(rec)])
        assert code == 2
        assert len(err) == 1 and "non-finite" in err[0]
        assert not rec.exists()

    def test_targets_file(self, tmp_path, disk_basis_file, capsys):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data)]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n3.5,1.0\nnan,0.0\n")
        out = tmp_path / "ext.csv"
        code, err = _exit_and_error(capsys, ["extrapolate", str(data), "--basis",
                                             disk_basis_file, "--targets", str(targets),
                                             "-o", str(out)])
        assert code == 2
        assert len(err) == 1 and "non-finite" in err[0]
        assert not out.exists()

    def test_far_field_file(self, tmp_path, cache_dir, capsys):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        samples.write_text("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im\n"
                           "1.0,0.0,0.0,1.0,0.5,0.1\n1.0,0.0,-1.0,0.0,inf,0.0\n")
        out = tmp_path / "ingested.csv"
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "1.0",
                                             "--basis", basis_file, "-o", str(out)])
        assert code == 2
        assert len(err) == 1 and "non-finite" in err[0]
        assert not out.exists()


class TestMalformedInput:
    """A non-numeric field or a short row in an input file exits 2 with one
    stderr line that names the file and line, and writes no output."""

    @pytest.mark.parametrize("edit", ["abc", "short"])
    def test_data_file(self, tmp_path, disk_basis_file, capsys, edit):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        lines = data.read_text().splitlines()
        row = lines[7].split(",")
        lines[7] = ",".join(row[:3] + ["abc"] + row[4:]) if edit == "abc" else ",".join(row[:4])
        data.write_text("\n".join(lines) + "\n")
        rec = tmp_path / "rec.json"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01", "-o", str(rec)])
        assert code == 2
        assert len(err) == 1 and f"{data} line 8" in err[0], err
        assert not rec.exists()

    @pytest.mark.parametrize("row", ["abc,0.0", "3.5"])
    def test_targets_file(self, tmp_path, disk_basis_file, capsys, row):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text(f"x,y\n3.5,1.0\n{row}\n")
        out = tmp_path / "ext.csv"
        code, err = _exit_and_error(capsys, ["extrapolate", str(data), "--basis",
                                             disk_basis_file, "--targets", str(targets),
                                             "-o", str(out)])
        assert code == 2
        assert len(err) == 1 and f"{targets} line 3" in err[0], err
        assert not out.exists()

    def test_targets_file_without_rows(self, tmp_path, disk_basis_file, capsys):
        setup = write_setup(tmp_path)
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(setup), "--basis", disk_basis_file, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n")
        out = tmp_path / "ext.csv"
        code, err = _exit_and_error(capsys, ["extrapolate", str(data), "--basis",
                                             disk_basis_file, "--targets", str(targets),
                                             "-o", str(out)])
        assert code == 2
        assert len(err) == 1 and str(targets) in err[0], err
        assert not out.exists()

    def test_far_field_file_without_rows(self, tmp_path, cache_dir, capsys):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        samples.write_text("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im\n")
        out = tmp_path / "ingested.csv"
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "1.0",
                                             "--basis", basis_file, "-o", str(out)])
        assert code == 2
        assert err == [f"error: {samples}: no far-field rows"], err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["1.0,0.0,-1.0,0.0,abc,0.0", "1.0,0.0,-1.0,0.0,0.5"])
    def test_far_field_file(self, tmp_path, cache_dir, capsys, row):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        samples.write_text("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im\n"
                           f"1.0,0.0,0.0,1.0,0.5,0.1\n{row}\n")
        out = tmp_path / "ingested.csv"
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "1.0",
                                             "--basis", basis_file, "-o", str(out)])
        assert code == 2
        assert len(err) == 1 and f"{samples} line 3" in err[0], err
        assert not out.exists()


def _run_capped(argv):
    """(exit code, stderr lines) of `prolate argv` in a child process whose address
    space is capped at 2 GiB, so an allocation a bad size flag asks for fails there
    and cannot exhaust the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    code = "import sys; from prolate.cli import run; sys.exit(run(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(P.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, preexec_fn=cap)
    return proc.returncode, proc.stderr.strip().splitlines()


class TestBadFlags:
    """Non-finite or out-of-range numeric flags exit 2 with one stderr line."""

    @pytest.mark.parametrize("noise", ["nan", "-1", "inf"])
    def test_synthesize_noise(self, tmp_path, disk_basis_file, capsys, noise):
        out = tmp_path / "data.csv"
        code, err = _exit_and_error(capsys, ["synthesize", str(write_setup(tmp_path)),
                                             "--basis", disk_basis_file, "-o", str(out),
                                             f"--noise={noise}"])
        assert code == 2 and len(err) == 1 and "--noise" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "stability"])
    def test_negative_seed(self, tmp_path, disk_basis_file, capsys, command):
        out = tmp_path / "out.csv"
        extra = (["--noise", "0.01"] if command == "synthesize"
                 else ["--deltas", "0,1e-3", "--alphas", "0.05"])
        code, err = _exit_and_error(capsys, [command, str(write_setup(tmp_path)), "--basis",
                                             disk_basis_file, "-o", str(out), *extra,
                                             "--seed=-1"])
        assert code == 2 and len(err) == 1 and "--seed" in err[0], err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [["--geometry", "disk", "--h", "1e200"],
                                       ["--geometry", "disk", "--radius", "1e200"],
                                       ["--geometry", "L", "--theta", "2.2", "--h", "1e100"],
                                       ["--geometry", "M", "--h", "1e-90"]],
                             ids=["disk-h", "disk-radius", "L-large", "M-small"])
    def test_set_scale_out_of_range(self, cache_dir, capsys, flags):
        # a set whose squared area leaves the float range: its rule weights or
        # the Hilbert-Schmidt sums `validate` compares would overflow or vanish
        code, err = _exit_and_error(capsys, ["basis", "symset", *flags, "--c", "3",
                                             "--resolution", "24", "--modes", "4"])
        assert code == 2 and len(err) == 1 and "--h" in err[0], err
        assert ("--radius" in err[0]) == (flags[1] == "disk")
        assert not cache_dir.exists() or not os.listdir(cache_dir)

    @pytest.mark.parametrize("k", ["2e154", "1e-308"])
    def test_ingest_k_out_of_range(self, tmp_path, cache_dir, capsys, k):
        # k^2 overflows (an OverflowError from k**2) or underflows to 0 (every node
        # flagged missing after divide-by-zero warnings)
        assert run(["basis", "symset", "--geometry", "L", "--theta", "2.2", "--c", "5",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip()
        samples, out = tmp_path / "ff.csv", tmp_path / "ing.csv"
        table = _far_field_file(samples, n=16)
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", k,
                                             "--basis", basis_file, "-o", str(out)])
        assert code == 2 and len(err) == 1 and err[0].startswith(f"error: --k {float(k)!r}"), err
        assert not out.exists()
        basis = P.load_basis(basis_file)
        with pytest.raises(ParameterError, match="k\\^2 a finite normal float"):
            P.ingest_farfield(table[:, 0:2], table[:, 2:4], table[:, 4], float(k),
                              basis.kernel_scale, basis.quad)

    def test_ingest_values_overflow(self, tmp_path, cache_dir, capsys):
        # k^2 = 1e-10 is a normal float, but values of 1e300 divided by it are not
        assert run(["basis", "symset", "--geometry", "L", "--theta", "2.2", "--c", "5",
                    "--resolution", "24", "--modes", "4", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip()
        samples, out = tmp_path / "ff.csv", tmp_path / "ing.csv"
        table = _far_field_file(samples, n=16)
        table[:, 4] = 1e300
        np.savetxt(samples, table, delimiter=",", fmt="%.17g", comments="",
                   header=",".join(FAR_COLUMNS))
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--k", "1e-5",
                                             "--basis", basis_file, "-o", str(out)])
        assert code == 2 and len(err) == 1, err
        assert err[0] == f"error: {samples}: far-field values / k^2 overflow at k = 1e-05"
        assert not out.exists()
        basis = P.load_basis(basis_file)
        with pytest.raises(ParameterError, match="overflow at k = 1e-05"):
            P.ingest_farfield(table[:, 0:2], table[:, 2:4], table[:, 4], 1e-5,
                              basis.kernel_scale, basis.quad)

    @pytest.mark.parametrize("alpha", ["nan", "0", "-0.01"])
    def test_reconstruct_alpha(self, tmp_path, disk_basis_file, capsys, alpha):
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        rec = tmp_path / "rec.json"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, f"--alpha={alpha}", "-o", str(rec)])
        assert code == 2 and len(err) == 1 and "--alpha" in err[0], err
        assert not rec.exists()

    @pytest.mark.parametrize("flags,line", [
        # the rule's alpha underflows to 0, which on a set would keep every mode unregularized
        (["--delta", "1e-300", "--E", "1e300", "--sigma", "1e-300", "--c0", "1"],
         "alpha must be a finite number > 0, got 0.0"),
        # the rule's alpha overflows to inf
        (["--delta", "1e300", "--E", "1e-300", "--sigma", "1", "--c0", "1"],
         "alpha must be a finite number > 0, got inf"),
        # two sources of alpha
        (["--alpha", "0.01", "--delta", "1e-3", "--E", "1", "--sigma", "1", "--c0", "1"],
         "--alpha excludes"),
        (["--delta", "nan", "--E", "1", "--sigma", "1", "--c0", "1"], "delta must be"),
        (["--delta", "1e-3", "--E", "1"], "reconstruct requires --alpha or all of"),
    ], ids=["rule-zero", "rule-inf", "alpha-and-rule", "delta-nan", "incomplete-rule"])
    def test_reconstruct_alpha_rule(self, tmp_path, cache_dir, capsys, flags, line):
        assert run(["basis", "symset", "--geometry", "L", "--theta", "2.2", "--c", "5",
                    "--resolution", "24", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip()
        setup, data, rec = tmp_path / "setup.json", tmp_path / "data.csv", tmp_path / "rec.json"
        setup.write_text(json.dumps({"regime": "limited", "k": 5.0, "theta": 2.2, "c_param": 5.0,
                                     "contrast": {"shapes": [{"type": "disk", "center": [0.9, 0.2],
                                                              "radius": 0.25, "value": 1.0}]}}))
        assert run(["synthesize", str(setup), "--basis", basis_file, "-o", str(data),
                    "--contrast-resolution", "24"]) == 0
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis", basis_file,
                                             *flags, "-o", str(rec)])
        assert code == 2 and len(err) == 1 and err[0].startswith(f"error: {line}"), err
        assert not rec.exists()

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_reconstruct_field_grid(self, tmp_path, disk_basis_file, capsys, grid):
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        rec, field = tmp_path / "rec.json", tmp_path / "field.csv"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01", "-o", str(rec),
                                             "--field-out", str(field), f"--field-grid={grid}"])
        assert code == 2 and len(err) == 1 and "--field-grid" in err[0], err
        assert not rec.exists() and not field.exists()

    @pytest.mark.parametrize("flag,values", [("--deltas", "0,nan"), ("--deltas", "-1e-3"),
                                             ("--deltas", "0,x"), ("--alphas", "0.05,nan"),
                                             ("--alphas", "0")])
    def test_stability_lists(self, tmp_path, disk_basis_file, capsys, flag, values):
        argv = {"--deltas": "0,1e-3", "--alphas": "0.05,0.02"}
        argv[flag] = values
        out = tmp_path / "table.csv"
        code, err = _exit_and_error(capsys, ["stability", str(write_setup(tmp_path)),
                                             "--basis", disk_basis_file,
                                             f"--deltas={argv['--deltas']}",
                                             f"--alphas={argv['--alphas']}", "-o", str(out)])
        assert code == 2 and len(err) == 1 and flag in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_stability_seeds(self, tmp_path, disk_basis_file, capsys, seeds):
        out = tmp_path / "table.csv"
        code, err = _exit_and_error(capsys, ["stability", str(write_setup(tmp_path)),
                                             "--basis", disk_basis_file, "--deltas", "0,1e-3",
                                             "--alphas", "0.05", f"--seeds={seeds}",
                                             "-o", str(out)])
        assert code == 2 and len(err) == 1 and "--seeds" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        *[(["disk", "--c", bad, "--m-max", "2", "--n-max", "2"], "--c") for bad in ("nan", "inf")],
        *[(["symset", "--geometry", "disk", "--c", "3", f"--{name}", bad], f"--{name}")
          for name in ("c", "h", "radius") for bad in ("nan", "inf")],
        (["symset", "--geometry", "L", "--c", "3", "--theta", "nan"], "--theta"),
        (["symset", "--geometry", "M", "--c", "3", "--x-star", "-0.6,nan"], "--x-star"),
        *[(["symset", "--geometry", "L", "--c", "3", f"--{name}={bad}"], f"--{name}")
          for name in ("c", "h", "theta") for bad in ("inf", "-inf")],
        (["symset", "--geometry", "disk", "--c", "3", "--radius=-inf"], "--radius"),
        (["symset", "--geometry", "M", "--c", "3", "--x-star", "x,0"], "--x-star"),
        (["symset", "--geometry", "M", "--c", "3", "--x-star", "1"], "'x_star'"),
        (["symset", "--geometry", "M", "--c", "3", "--x-star", "0.6,0.8,7"], "'x_star'"),
        # a set with no grid node inside it is a flag error, not a computation failure
        (["symset", "--geometry", "L", "--c", "5", "--theta", "0.05", "--resolution", "8"],
         "--resolution"),
        (["symset", "--geometry", "L", "--c", "5", "--theta", "1e-9"], "--resolution"),
    ])
    def test_basis_numbers(self, cache_dir, capsys, argv, flag):
        code, err = _exit_and_error(capsys, ["basis", *argv])
        assert code == 2 and len(err) == 1 and flag in err[0], err
        assert not list(cache_dir.glob("*.gpswf"))

    @pytest.mark.parametrize("flag,value", [("--k", "nan"), ("--k", "inf")])
    def test_ingest_numbers(self, tmp_path, cache_dir, capsys, flag, value):
        assert run(["basis", "symset", "--geometry", "disk", "--c", "2.0", "--radius", "2.0",
                    "--resolution", "32", "--modes", "6", "--method", "polar"]) == 0
        basis_file = capsys.readouterr().out.strip().splitlines()[-1]
        samples = tmp_path / "ff.csv"
        samples.write_text("xhat_x,xhat_y,thetahat_x,thetahat_y,re,im\n"
                           "1.0,0.0,0.0,1.0,0.5,0.1\n0.0,1.0,-1.0,0.0,0.25,0.0\n")
        flags = [f"{k}={v}" for k, v in {"--k": "1.0", flag: value}.items()]
        out = tmp_path / "ingested.csv"
        code, err = _exit_and_error(capsys, ["ingest", str(samples), "--basis", basis_file,
                                             "-o", str(out), *flags])
        assert code == 2 and len(err) == 1 and flag in err[0], err
        assert not out.exists()

    def test_negative_list_value_is_a_value(self, tmp_path, cache_dir, capsys):
        # argparse would read -0.6,0.8 as an unknown option; a list flag takes it
        base = ["basis", "symset", "--geometry", "M", "--c", "3.0", "--resolution", "40",
                "--modes", "6", "--method", "polar"]
        assert run([*base, "--x-star", "-0.6,0.8"]) == 0
        path = capsys.readouterr().out.strip().splitlines()[-1]
        assert P.load_basis(path).geometry.x_star == pytest.approx((-0.6, 0.8), abs=1e-15)
        assert run([*base, "--x-star=-0.6,0.8"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == path
        out = tmp_path / "table.csv"
        code, err = _exit_and_error(capsys, ["stability", str(write_setup(tmp_path)),
                                             "--basis", path, "--deltas", "-1e-3,0",
                                             "--alphas", "0.05", "-o", str(out)])
        assert code == 2 and len(err) == 1 and "--deltas" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["disk", "--c", "1e300", "--m-max", "2", "--n-max", "2"], "'c'"),
        (["symset", "--geometry", "disk", "--c", "3", "--h", "1e300"], "'h'"),
        (["symset", "--geometry", "disk", "--c", "3", "--radius", "1e300"], "'radius'"),
    ])
    def test_basis_numbers_past_the_cache_key(self, cache_dir, capsys, argv, name):
        # finite, but not once quantized to the cache key's 1e-12 steps
        code, err = _exit_and_error(capsys, ["basis", *argv])
        assert code == 2 and len(err) == 1 and f"cache key parameter {name}" in err[0], err
        assert not list(cache_dir.glob("*.gpswf"))

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.16 TiB for an array"),
                                       MemoryError(),
                                       OverflowError("cannot fit 'int' into an index-sized "
                                                     "integer")])
    def test_basis_too_large_to_compute(self, cache_dir, capsys, monkeypatch, error):
        # stands in for the allocation of an oversized --n-max or --m-max table
        def too_large(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "compute_disk_basis", too_large)
        code, err = _exit_and_error(capsys, ["basis", "disk", "--c", "4", "--m-max", "2",
                                             "--n-max", "2"])
        assert code == 2 and len(err) == 1 and "too large" in err[0], err
        assert str(error) in err[0]
        assert not list(cache_dir.glob("*.gpswf"))

    def test_contrast_grid_too_large_to_build(self, tmp_path, disk_basis_file, capsys,
                                              monkeypatch):
        # stands in for an --contrast-resolution whose grid size overflows an index
        def too_large(*args, **kwargs):
            raise OverflowError("cannot fit 'int' into an index-sized integer")
        monkeypatch.setattr(cli, "read_setup", too_large)
        out = tmp_path / "data.csv"
        code, err = _exit_and_error(capsys, ["synthesize", str(write_setup(tmp_path)),
                                             "--basis", disk_basis_file, "-o", str(out),
                                             "--contrast-resolution", "10000000"])
        assert code == 2 and len(err) == 1 and "--contrast-resolution" in err[0], err
        assert not out.exists()

    def test_overflow_outside_a_sized_allocation_is_not_a_flag_error(self, tmp_path,
                                                                     disk_basis_file,
                                                                     monkeypatch):
        # only allocations a size flag controls report an overflow as bad input
        def defect(*args, **kwargs):
            raise OverflowError("math range error")
        monkeypatch.setattr(cli, "validate_basis", defect)
        with pytest.raises(OverflowError, match="math range error"):
            run(["validate", "--basis", disk_basis_file, "-o", str(tmp_path / "report.json")])

    def test_field_grid_too_large_to_build(self, tmp_path, disk_basis_file, capsys, monkeypatch):
        # the field is built before any output is written, so neither file appears
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0

        def too_large(b, n):
            raise MemoryError(f"Unable to allocate 29.1 TiB for an array with shape ({n}, {n})")
        monkeypatch.setattr(cli, "_field_axis", too_large)
        rec, field = tmp_path / "rec.json", tmp_path / "field.csv"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01", "-o", str(rec),
                                             "--field-out", str(field),
                                             "--field-grid", "2000000"])
        assert code == 2 and len(err) == 1 and "out of memory" in err[0], err
        assert not rec.exists() and not field.exists()

    @pytest.mark.parametrize("grid", ["9223372036854775807", "10000000000000000000"])
    def test_field_grid_too_large_to_index(self, tmp_path, disk_basis_file, grid):
        # np.arange(2^63 - 1) is empty (a header-only field); 10^19 is a size numpy
        # refuses with a ValueError
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        rec, field = tmp_path / "rec.json", tmp_path / "field.csv"
        code, err = _run_capped(["reconstruct", str(data), "--basis", disk_basis_file,
                                 "--alpha", "0.01", "-o", str(rec), "--field-out", str(field),
                                 "--field-grid", grid])
        assert code == 2 and len(err) == 1 and "--field-grid" in err[0], err
        assert not rec.exists() and not field.exists()

    @pytest.mark.parametrize("method", ["midpoint", "polar"])
    def test_symset_resolution_too_large_to_index(self, tmp_path, method):
        # numpy refuses the grid's size with a ValueError before allocating
        out = tmp_path / "cache"
        code, err = _run_capped(["basis", "symset", "--geometry", "L", "--theta", "2.356",
                                 "--c", "5", "--method", method,
                                 "--resolution", "9223372036854775807", "-o", str(out)])
        assert code == 2 and len(err) == 1 and "--resolution" in err[0], err
        assert not list(out.glob("*.gpswf"))

    def test_symset_resolution_over_memory_budget(self, cache_dir, capsys):
        code, err = _exit_and_error(capsys, ["basis", "symset", "--geometry", "M", "--c", "5",
                                             "--resolution", "2000"])
        assert code == 2
        assert len(err) == 1 and "GiB" in err[0] and "lower --resolution" in err[0], err
        assert not list(cache_dir.glob("*.gpswf"))


class TestMissingKeys:
    """A required key missing from an input record exits 2 with one line; a
    KeyError raised anywhere else is a program fault, not bad input."""

    @pytest.mark.parametrize("cfg,key", [
        ({**SETUP, "contrast": {"shapes": [{"type": "disk", "value": 1.0}]}}, "radius"),
        ({k: v for k, v in SETUP.items() if k != "k"}, "'k'"),
        ({**SETUP, "contrast": {"grid": {"origin": [0, 0], "dx": 0.1}}}, "dy"),
    ])
    def test_setup(self, tmp_path, disk_basis_file, capsys, cfg, key):
        out = tmp_path / "data.csv"
        code, err = _exit_and_error(capsys, ["synthesize", str(write_setup(tmp_path, cfg)),
                                             "--basis", disk_basis_file, "-o", str(out)])
        assert code == 2 and len(err) == 1 and key in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.pop("count"), "'count'"),
        (lambda h: h.update(meta=5), "header meta"),
        (lambda h: h.update(geometry={"kind": "limited_aperture", "h": 2.0}), "'theta'"),
    ])
    def test_data_header(self, tmp_path, disk_basis_file, capsys, edit, message):
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        lines = data.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        data.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01",
                                             "-o", str(tmp_path / "rec.json")])
        assert code == 2 and len(err) == 1 and message in err[0], err

    def test_internal_key_error_is_not_bad_input(self, disk_basis_file, tmp_path, monkeypatch):
        def broken(basis):
            raise KeyError("internal")
        monkeypatch.setattr("prolate.cli.validate_basis", broken)
        with pytest.raises(KeyError, match="internal"):
            run(["validate", "--basis", disk_basis_file, "-o", str(tmp_path / "report.json")])


DISK = SETUP["contrast"]["shapes"][0]
GRID = {"origin": [-1.0, -1.0], "dx": 0.5, "dy": 0.5, "values": [[1.0, 0.0], [0.0, 1.0]]}


class TestTypedValues:
    """A setup number of the wrong type exits 2 with one line naming the field."""

    @pytest.mark.parametrize("cfg,key", [
        ({**SETUP, "contrast": {"shapes": [{**DISK, "radius": "0.8"}]}}, "'radius'"),
        ({**SETUP, "k": "x"}, "'k'"),
        ({**SETUP, "contrast": {"shapes": [{**DISK, "center": "ab"}]}}, "'center'"),
        ({**SETUP, "contrast": {"grid": {**GRID, "dx": "a"}}}, "'dx'"),
        ({**SETUP, "contrast": {"grid": {**GRID, "values": [[1.0, 2.0], [3.0]]}}}, "'values'"),
        ({"regime": "multifreq", "K": 1.0, "c_param": 5.0, "x_star": "1,0",
          "contrast": SETUP["contrast"]}, "'x_star'"),
        ({**SETUP, "contrast": {"grid": {**GRID, "dx": 0}}}, "'dx'"),
        ({**SETUP, "contrast": {"grid": {**GRID, "dy": 0}}}, "'dy'"),
        ({**SETUP, "contrast": {"grid": {**GRID, "dx": -0.1, "dy": -0.1}}}, "'dx'"),
        *[({**SETUP, "regime": "limited", "k": 5.0, "c_param": 5.0, "theta": v}, "'theta'")
          for v in BAD_NUMBERS],
        *[({**SETUP, "regime": "multifreq", "K": 5.0, "c_param": 5.0, "x_star": v}, "'x_star'")
          for v in BAD_PAIRS + BAD_NUMBERS],
    ])
    def test_setup(self, tmp_path, disk_basis_file, capsys, cfg, key):
        out = tmp_path / "data.csv"
        code, err = _exit_and_error(capsys, ["synthesize", str(write_setup(tmp_path, cfg)),
                                             "--basis", disk_basis_file, "-o", str(out)])
        assert code == 2 and len(err) == 1 and key in err[0], err
        assert not out.exists()


class TestOneDataDomain:
    """Every stage dilates a disk basis onto the data disk of radius h, whether
    h comes from the setup or from a data-file header."""

    def test_default_c_full_round_trip(self, tmp_path, cache_dir, capsys):
        # c_F defaults to 4.09547008329006 here; a basis at c = 4.09547008329
        # pairs with it, and the data file it yields reconstructs and extrapolates
        cfg = {"regime": "full", "k": 1.0,
               "contrast": {"shapes": [{"type": "disk", "center": [0.7, 0.3], "radius": 1.1,
                                        "value": 1.0}]}}
        setup = write_setup(tmp_path, cfg)
        assert run(["basis", "disk", "--c", "4.09547008329", "--m-max", "4", "--n-max", "4"]) == 0
        basis = capsys.readouterr().out.strip()
        data, rec, field = tmp_path / "data.csv", tmp_path / "rec.json", tmp_path / "field.csv"
        assert run(["synthesize", str(setup), "--basis", basis, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        assert run(["reconstruct", str(data), "--basis", basis, "--alpha", "0.01", "-o", str(rec),
                    "--field-out", str(field), "--field-grid", "8"]) == 0
        targets, out = tmp_path / "targets.csv", tmp_path / "ext.csv"
        targets.write_text("x,y\n0.1,0.2\n3.0,0.5\n")
        assert run(["extrapolate", str(data), "--basis", basis, "--targets", str(targets),
                    "-o", str(out)]) == 0
        h = setup_from_dict(cfg).h
        assert h == 4.09547008329006 / 2.0 and read_datagrid(data).geometry.h == h
        assert np.array_equal(read_datagrid(data).nodes,
                              P.load_basis(basis).dilated(h).quad.nodes)


# A valid geometry record with each field, and the symset flags that build it.
GEOMETRY_RECORDS = {
    "h": {"kind": "disk", "h": 1.0, "radius": 1.0},
    "radius": {"kind": "disk", "h": 1.0, "radius": 1.0},
    "theta": {"kind": "limited_aperture", "h": 1.0, "theta": 2.2},
    "x_star": {"kind": "multi_freq", "h": 1.0, "x_star": [0.6, 0.8]},
}
GEOMETRY_FLAGS = {"disk": ["--geometry", "disk"], "limited_aperture": ["--geometry", "L",
                                                                       "--theta", "2.2"],
                  "multi_freq": ["--geometry", "M", "--x-star", "0.6,0.8"]}


def _rewrite_json_line(path, index, edit):
    """Apply `edit` to the JSON record on line `index` (0-based) of a file, in place."""
    with open(path, "rb") as f:
        lines = f.read().split(b"\n", index + 1)
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(b"\n".join(lines))


class TestBadGeometry:
    """A bad geometry field (BAD_FIELDS) in a data-file header exits 2 with one
    line naming it; in cache metadata it is a CacheError (exit 1), and `basis`
    recomputes such a file.  TestTypedValues and TestBadFlags run the corpus
    through setups and `basis symset` flags."""

    @pytest.mark.parametrize("key,value", BAD_FIELDS)
    def test_data_header(self, tmp_path, disk_basis_file, capsys, key, value):
        data = tmp_path / "data.csv"
        assert run(["synthesize", str(write_setup(tmp_path)), "--basis", disk_basis_file,
                    "-o", str(data), "--contrast-resolution", "40"]) == 0
        _rewrite_json_line(data, 0, lambda h: h.update(
            geometry={**GEOMETRY_RECORDS[key], key: value}))
        rec = tmp_path / "rec.json"
        code, err = _exit_and_error(capsys, ["reconstruct", str(data), "--basis",
                                             disk_basis_file, "--alpha", "0.01", "-o", str(rec)])
        assert code == 2 and len(err) == 1 and f"geometry '{key}'" in err[0], err
        assert not rec.exists()

    @pytest.mark.parametrize("key,value", BAD_FIELDS)
    def test_cache_metadata(self, tmp_path, cache_dir, capsys, key, value):
        argv = ["basis", "symset", "--c", "3", *GEOMETRY_FLAGS[GEOMETRY_RECORDS[key]["kind"]],
                "--resolution", "24", "--modes", "4", "--method", "polar"]
        assert run(argv) == 0
        path = capsys.readouterr().out.strip()
        _rewrite_json_line(path, 1, lambda meta: meta["geometry_params"].update({key: value}))
        report = tmp_path / "report.json"
        code, err = _exit_and_error(capsys, ["validate", "--basis", path, "-o", str(report)])
        assert code == 1 and len(err) == 1, err
        assert "malformed basis container" in err[0] and f"geometry '{key}'" in err[0], err
        assert not report.exists()
        assert run(argv) == 0
        assert capsys.readouterr().out.strip() == path
        assert P.load_basis(path).geometry.matches(P.Geometry.from_dict(GEOMETRY_RECORDS[key]))


def _stability_case(basis):
    """A basis on its data domain and a matching setup with a small disk phantom."""
    phantom = {"shapes": [{"type": "disk", "center": [0.1, -0.05], "radius": 0.3, "value": 1.0}]}
    if isinstance(basis, P.SymSetBasis):  # kernel scale k^2 / c = c / h^2 at h = 1
        cfg = {"regime": "limited", "k": basis.c, "c_param": basis.c, "theta": 2.0}
    else:
        basis = basis.dilated(basis.c / 2.0)
        cfg = {"regime": "full", "k": 1.0, "c_param": basis.c}
    return basis, setup_from_dict({**cfg, "contrast": phantom}, contrast_resolution=40)


def _stability_alphas(basis):
    if isinstance(basis, P.SymSetBasis):
        mags = np.sort(np.abs(basis.mu))[::-1]
        return [float(mags[3]), float(mags[12]), float(mags[30])]
    return [0.05, 0.01, 1e-3]


def _stability_by_cell(setup, basis, deltas, alphas, seed, n_seeds):
    """The stability table cell by cell: fresh noise and one reconstruction per cell."""
    clean = P.synthesize_born(setup.contrast, effective_kernel_scale(setup), basis.quad,
                              geometry=setup.domain)
    u_norm = clean.weighted_norm()
    q_nodes = setup.contrast.evaluate(basis.quad.nodes)
    w = basis.quad.weights
    partial = isinstance(basis, P.SymSetBasis)

    def err_of(grid, alpha):
        rec = P.reconstruct(grid, basis, alpha)
        return float(np.sqrt(np.sum(w * np.abs(rec.node_field - q_nodes) ** 2)))

    rows = []
    for alpha in alphas:
        trunc = err_of(clean, alpha)
        rate = 1.0 / alpha if partial else 1.0 / basis.cutoff(alpha)[1]
        for delta in deltas:
            errs = ([err_of(add_noise(clean, delta / u_norm, seed + s), alpha)
                     for s in range(n_seeds)] if delta > 0 else [trunc])
            rows.append({"delta": delta, "alpha": alpha, "error": float(np.mean(errs)),
                         "bound": delta * rate + trunc})
    rows.sort(key=lambda r: (r["delta"], -r["alpha"]))
    return rows


def _assert_tables_agree(got, want, rel):
    assert [(r["delta"], r["alpha"]) for r in got] == [(r["delta"], r["alpha"]) for r in want]
    for key in ("error", "bound"):
        a = np.array([r[key] for r in got])
        b = np.array([r[key] for r in want])
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), key


class TestStability:
    def test_table_properties(self, tmp_path, cache_dir):
        setup = setup_from_dict(SETUP)
        basis = P.compute_disk_basis(5.0, 3, 3).dilated(2.5)
        alphas = [0.05, 0.02, 0.01, 0.005]
        rows = experiment_stability(setup, basis, [0.0, 1e-3, 1e-2], alphas, seed=0, n_seeds=5)
        by = {(r["delta"], r["alpha"]): r for r in rows}
        for r in rows:
            assert r["error"] <= r["bound"] * (1.0 + 1e-9)
        for a in alphas:
            # delta = 0 errors are pure truncation: bound equals the error there
            zero = by[(0.0, a)]
            assert zero["error"] == pytest.approx(zero["bound"], rel=1e-6, abs=1e-12)
            assert by[(1e-3, a)]["error"] <= by[(1e-2, a)]["error"] + 1e-12
            assert zero["error"] <= by[(1e-3, a)]["error"] + 1e-12

    @pytest.mark.parametrize("fixture", ["disk_c5", "symset_disk_c5"])
    def test_batched_table_matches_per_cell_reconstruction(self, fixture, request, monkeypatch):
        basis, setup = _stability_case(request.getfixturevalue(fixture))
        deltas, alphas = [0.0, 1e-3, 1e-2, 1e-3], _stability_alphas(basis)
        want = _stability_by_cell(setup, basis, deltas, alphas, seed=4, n_seeds=3)
        got = experiment_stability(setup, basis, deltas, alphas, seed=4, n_seeds=3)
        _assert_tables_agree(got, want, 1e-12)
        # one column per block: every block seam is crossed
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", 1)
        _assert_tables_agree(experiment_stability(setup, basis, deltas, alphas, seed=4, n_seeds=3),
                             want, 1e-12)

    def test_noise_drawn_once_per_delta_and_seed(self, disk_c5, monkeypatch):
        basis, setup = _stability_case(disk_c5)
        calls = []

        def counting(data, delta, seed):
            calls.append((delta, seed))
            return add_noise(data, delta, seed)

        monkeypatch.setattr(cli, "add_noise", counting)
        experiment_stability(setup, basis, [0.0, 1e-3, 1e-2], [0.05, 0.02, 0.01], seed=7, n_seeds=2)
        assert len(calls) == len(set(calls)) == 4
        assert sorted(seed for _, seed in calls) == [7, 7, 8, 8]

    def test_stability_command(self, tmp_path, cache_dir, disk_basis_file):
        setup = write_setup(tmp_path)
        out = tmp_path / "table.csv"
        assert run(["stability", str(setup), "--basis", disk_basis_file,
                    "--deltas", "0.0,0.001", "--alphas", "0.02,0.01",
                    "--seed", "0", "--seeds", "2", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,alpha,error,bound"
        assert len(lines) == 5
        for line in lines[1:]:
            delta, alpha, error, bound = map(float, line.split(","))
            assert error <= bound * (1.0 + 1e-9)


    def test_zero_contrast(self, tmp_path, cache_dir, disk_basis_file, capsys):
        # noise levels are drawn relative to the clean data's norm, here 0
        zero = {**SETUP, "contrast": {"shapes": [{**SETUP["contrast"]["shapes"][0],
                                                  "value": 0.0}]}}
        setup, out = write_setup(tmp_path, zero), tmp_path / "table.csv"
        argv = ["stability", str(setup), "--basis", disk_basis_file, "--alphas", "0.05",
                "-o", str(out)]
        code, err = _exit_and_error(capsys, argv + ["--deltas", "0,1e-3"])
        assert code == 2 and len(err) == 1 and "Born data is zero" in err[0], err
        assert not out.exists()
        assert run(argv + ["--deltas", "0"]) == 0
        assert out.read_text().splitlines()[1:] == ["0.0,0.05,0.0,0.0"]


def _edit_field(path, row, column, value):
    """Set field `column` of data row `row` (0-based) of a data file to `value`."""
    lines = path.read_text().split("\n")
    fields = lines[2 + row].split(",")
    fields[column] = value
    lines[2 + row] = ",".join(fields)
    path.write_text("\n".join(lines))


def _null_kappa(path):
    """Rewrite the kernel scale kappa in a data file's header to null."""
    _rewrite_json_line(path, 0, lambda h: h.update(kappa=None))


class TestBornDataOfTheBasis:
    """A stage reads a data file only as the Born data of its basis's rule,
    domain and bandwidth, and a setup only where its contrast lies in its
    domain; anything else exits 2 with one stderr line and writes no output."""

    # contained in the h = c / (2k) = 5 data disk of c = 10, k = 1
    SETUP = {"regime": "full", "k": 1.0, "c_param": 10.0,
             "contrast": {"shapes": [{"type": "disk", "center": [1.0, 0.5], "radius": 1.5,
                                      "value": 1.0}]}}
    OUTSIDE = {**SETUP, "contrast": {"shapes": [{"type": "disk", "center": [4.5, 0.0],
                                                 "radius": 1.5, "value": 1.0}]}}

    @pytest.fixture()
    def files(self, tmp_path, cache_dir, capsys):
        files = {}
        # c = 9.5 and c = 10 at m, n <= 4 share J = 28 and so their rule, bit for bit
        for c in ("9.5", "10"):
            assert run(["basis", "disk", "--c", c, "--m-max", "4", "--n-max", "4"]) == 0
            files["c" + c] = capsys.readouterr().out.strip()
        for name, cfg in (("setup", self.SETUP), ("outside", self.OUTSIDE)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            files[name] = str(path)
        files["data"] = str(tmp_path / "data.csv")
        assert run(["synthesize", files["setup"], "--basis", files["c10"], "-o", files["data"],
                    "--contrast-resolution", "40"]) == 0
        files["targets"] = str(tmp_path / "targets.csv")
        (tmp_path / "targets.csv").write_text("x,y\n0.5,0.0\n7.0,1.0\n")
        capsys.readouterr()
        return files

    RECONSTRUCT = ["reconstruct", "data", "--basis", "c10", "--alpha", "0.01"]
    EXTRAPOLATE = ["extrapolate", "data", "--basis", "c10", "--targets", "targets"]

    @pytest.mark.parametrize("argv,edit,message", [
        (["stability", "outside", "--basis", "c10", "--deltas", "0", "--alphas", "0.05"],
         None, "not contained in the data domain"),
        (RECONSTRUCT, lambda p: _edit_field(p, 0, 2, "-1.0"), "weights must match"),
        (EXTRAPOLATE, lambda p: _edit_field(p, 0, 2, "-1.0"), "weights must match"),
        (["reconstruct", "data", "--basis", "c9.5", "--alpha", "0.01"], None,
         "basis bandwidth 9.5"),
        (["extrapolate", "data", "--basis", "c9.5", "--targets", "targets"], None,
         "basis bandwidth 9.5"),
        (RECONSTRUCT, lambda p: _edit_field(p, 0, 5, "7"), "flag must be 0"),
        (RECONSTRUCT, lambda p: _rewrite_json_line(p, 0, lambda h: h.update(delta="x")),
         "'delta'"),
        (RECONSTRUCT, lambda p: _rewrite_json_line(p, 0, lambda h: h.update(kappa="abc")),
         "'kappa'"),
        # without kappa the bandwidth c = kappa h^2 cannot be checked: c = 9.5 and c = 10
        # share their rule bit for bit, so nothing else would stop the c = 9.5 basis
        (["reconstruct", "data", "--basis", "c9.5", "--alpha", "0.01"], _null_kappa,
         "the data records no kappa"),
        (["extrapolate", "data", "--basis", "c9.5", "--targets", "targets"], _null_kappa,
         "the data records no kappa"),
    ], ids=["stability-uncontained", "reconstruct-negative-weight",
            "extrapolate-negative-weight", "reconstruct-c9.5-on-c10", "extrapolate-c9.5-on-c10",
            "flag-7", "delta-x", "kappa-abc", "reconstruct-kappa-null", "extrapolate-kappa-null"])
    def test_refused(self, tmp_path, files, capsys, argv, edit, message):
        if edit is not None:
            edit(Path(files["data"]))
        out = tmp_path / "out"
        code, err = _exit_and_error(capsys, [files.get(a, a) for a in argv] + ["-o", str(out)])
        assert code == 2 and len(err) == 1 and message in err[0], err
        assert not out.exists()

    def test_null_kappa_read(self, files):
        _null_kappa(Path(files["data"]))
        data = read_datagrid(files["data"])
        assert data.meta["kappa"] is None and data.bandwidth is None

    def test_intact_data_accepted(self, tmp_path, files, capsys):
        for argv in (self.RECONSTRUCT, self.EXTRAPOLATE):
            assert run([files.get(a, a) for a in argv] + ["-o", str(tmp_path / "out")]) == 0
        assert run(["stability", files["setup"], "--basis", files["c10"], "--deltas", "0",
                    "--alphas", "0.05", "-o", str(tmp_path / "table.csv")]) == 0

    @pytest.mark.parametrize("command", ["reconstruct", "extrapolate"])
    def test_missing_weight_guard(self, tmp_path, files, capsys, command):
        # flag rows missing until they carry over a fifth of the weight
        data = Path(files["data"])
        weights = read_datagrid(data).weights
        for row in range(int(np.searchsorted(np.cumsum(weights), 0.2 * weights.sum())) + 1):
            _edit_field(data, row, 5, "1")
        argv = self.RECONSTRUCT if command == "reconstruct" else self.EXTRAPOLATE
        out = tmp_path / "out"
        code, err = _exit_and_error(capsys, [files.get(a, a) for a in argv] + ["-o", str(out)])
        assert code == 1 and len(err) == 1 and "missing nodes carry" in err[0], err
        assert not out.exists()


class TestIngestScale:
    """`ingest` maps the far field at k onto the nodes at p = (k / kappa)(theta_hat
    - x_hat), kappa = c / h^2, so on a data domain of any scale h it matches the
    Born data `synthesize` writes for the same phantom."""

    C = 5.0

    @pytest.mark.parametrize("h", [0.5, 2.0])
    @pytest.mark.parametrize("geo", ["L", "M"])
    def test_matches_synthesized_data(self, tmp_path, cache_dir, capsys, geo, h):
        k, n = self.C / h, 64
        if geo == "L":
            theta = 2.2
            flags = ["--geometry", "L", "--theta", repr(theta)]
            cfg = {"regime": "limited", "k": k, "theta": theta}
            shape = {"type": "disk", "center": [0.9 * h, 0.2 * h], "radius": 0.25 * h}
            t = theta * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
            e = np.stack([np.cos(t), np.sin(t)], axis=1)
            x_hat, theta_hat = np.repeat(e, n, axis=0), np.tile(e, (n, 1))
        else:
            x_star = np.array([0.6, 0.8])
            flags = ["--geometry", "M", "--x-star", "0.6,0.8"]
            cfg = {"regime": "multifreq", "K": k, "x_star": x_star.tolist()}
            shape = {"type": "disk", "center": (0.9 * h * x_star).tolist(), "radius": 0.3 * h}
            # one observation direction -+x* at n / 2 equispaced frequency fractions s,
            # as direction vectors
            s = (np.arange(n // 2) + 0.5) / (n // 2)
            t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
            e = np.stack([np.cos(t), np.sin(t)], axis=1)
            x_hat = np.concatenate([np.repeat(-sign * s[:, None] * x_star, n, axis=0)
                                    for sign in (1.0, -1.0)])
            theta_hat = np.tile((s[:, None, None] * e).reshape(-1, 2), (2, 1))
        shapes = [{**shape, "value": 1.0}]
        setup = write_setup(tmp_path, {**cfg, "c_param": self.C, "contrast": {"shapes": shapes}})
        q = P.ContrastField.from_shapes(shapes, resolution=40)
        u = k * k * P.synthesize_born(q, k, theta_hat - x_hat).values
        samples = tmp_path / "ff.csv"
        np.savetxt(samples, np.column_stack([x_hat, theta_hat, u.real, u.imag]), delimiter=",",
                   fmt="%.17g", comments="", header=",".join(FAR_COLUMNS))
        assert run(["basis", "symset", *flags, "--c", repr(self.C), "--h", repr(h),
                    "--resolution", "48", "--modes", "10", "--method", "polar"]) == 0
        basis = capsys.readouterr().out.strip()
        data, ing = tmp_path / "data.csv", tmp_path / "ing.csv"
        assert run(["synthesize", str(setup), "--basis", basis, "-o", str(data),
                    "--contrast-resolution", "40"]) == 0
        assert run(["ingest", str(samples), "--k", repr(k), "--basis", basis,
                    "-o", str(ing)]) == 0
        want, got = read_datagrid(data), read_datagrid(ing)
        assert got.meta["kappa"] == P.load_basis(basis).kernel_scale
        assert got.meta["kappa"] * h**2 == pytest.approx(self.C, rel=1e-14)
        w = got.weights
        assert w[got.valid].sum() >= 0.9 * w.sum()
        diff = got.values - want.values
        err = np.sqrt(np.sum(w[got.valid] * np.abs(diff[got.valid]) ** 2)
                      / np.sum(w[got.valid] * np.abs(want.values[got.valid]) ** 2))
        assert err <= 0.05, err
        assert run(["reconstruct", str(ing), "--basis", basis, "--alpha", "1e-3",
                    "-o", str(tmp_path / "rec.json")]) == 0
