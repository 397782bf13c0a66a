"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import prolate as P
from prolate.cli import run as cli_run
from prolate.disk_basis import assemble_sl_matrix, eval_psi
from prolate.forward import DataGrid, add_noise, synthesize_born
from prolate.numerics import bessel_j, disk_polar_rule, sym_eig
from prolate.recon import choose_alpha_partial, picard_coefficients, reconstruct


@pytest.fixture()
def criterion():
    @contextmanager
    def _block(num, name):
        try:
            yield
        except BaseException:
            print(f"\nACCEPTANCE {num:02d} [{name}]: FAIL")
            raise
        print(f"\nACCEPTANCE {num:02d} [{name}]: PASS")

    return _block


def wnorm(w, v):
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2)))


def make_grid(basis, values):
    return DataGrid(nodes=basis.quad.nodes, weights=basis.quad.weights, values=values,
                    flags=np.zeros(len(basis.quad), dtype=np.uint8))


def discrete_forward(basis, q_nodes):
    kernel = np.exp(1j * basis.kernel_scale * (basis.quad.nodes @ basis.quad.nodes.T))
    return kernel @ (basis.quad.weights * q_nodes)


def test_01_eigenvalue_bracketing(criterion):
    with criterion(1, "eigenvalue bracketing"):
        t0 = time.time()
        for c in (1.0, 5.0, 10.0, 20.0):
            for m in range(0, 41):
                n_top = (40 - m) // 2
                J = 2 * n_top + math.ceil(c) + 10
                chis, _ = sym_eig(assemble_sl_matrix(c, m, J))
                for n in range(n_top + 1):
                    lo = (m + 2 * n) * (m + 2 * n + 2)
                    assert lo - 1e-9 < chis[n] < lo + c * c + 1e-9
        assert time.time() - t0 < 30.0


def test_02_double_orthogonality(criterion, disk_c10):
    with criterion(2, "double orthogonality and norms"):
        w = disk_c10.quad.weights
        vals = disk_c10.node_values[:50]
        gram = (vals * w) @ vals.T
        d = np.diag(gram)
        off = np.abs(gram - np.diag(d)) / np.sqrt(np.outer(d, d))
        assert off.max() < 1e-8
        lam2 = disk_c10.mode_norms[:50] ** 2
        assert np.abs(d / lam2 - 1.0).max() < 1e-6


def test_03_galerkin_vs_nystrom(criterion):
    with criterion(3, "Galerkin vs Nystrom cross-validation"):
        t0 = time.time()
        for c, m_max, n_max in ((5.0, 10, 8), (10.0, 9, 6)):
            disk = P.compute_disk_basis(c, m_max, n_max)
            geo = P.Geometry.disk(radius=1.0, h=1.0)
            quad = P.build_quadrature(geo, 200, method="polar")
            sym = P.compute_symset_basis(c, geo, quad, 24)
            galerkin = np.sort(np.abs(disk.modes["alpha"]))[::-1][:20]
            nystrom = np.abs(sym.alphas[:20])
            assert np.abs(nystrom / galerkin - 1.0).max() < 1e-4
        assert time.time() - t0 < 120.0


def test_04_hilbert_schmidt_sum_rule(criterion, symset_disk_c5):
    with criterion(4, "Hilbert-Schmidt sum rule"):
        geometries = {
            "disk": symset_disk_c5,
            "L": None,
            "M": None,
        }
        geoL = P.Geometry.limited_aperture(3 * math.pi / 4)
        quadL = P.build_quadrature(geoL, 128, method="polar")
        geometries["L"] = P.compute_symset_basis(5.0, geoL, quadL, 20)
        geoM = P.Geometry.multi_freq((1.0, 0.0))
        quadM = P.build_quadrature(geoM, 200, method="polar")
        geometries["M"] = P.compute_symset_basis(5.0, geoM, quadM, 20)
        for name, basis in geometries.items():
            total = float(np.sum(basis.spectrum_even**2) + np.sum(basis.spectrum_odd**2))
            area2 = P.analytic_area(basis.geometry) ** 2
            assert abs(total - area2) / area2 < 1e-3, name


def test_05_picard_round_trip(criterion, scaled_c6):
    with criterion(5, "Picard round trip"):
        rng = np.random.default_rng(17)
        idx = rng.choice(14, 10, replace=False)
        amps = rng.standard_normal(10)
        norms = scaled_c6.mode_norms

        def q_field(pts):
            out = np.zeros(len(np.atleast_2d(pts)))
            for a, i in zip(amps, idx):
                out += a / norms[i] * eval_psi(scaled_c6, i, pts)
            return out

        omega = disk_polar_rule(scaled_c6.radius, 90, 96)
        q = P.ContrastField.from_callable(q_field, omega, circumradius=scaled_c6.radius)
        data = synthesize_born(q, scaled_c6.kernel_scale, scaled_c6.quad)
        chi_max = scaled_c6.chis.max()
        rec = reconstruct(data, scaled_c6, alpha=0.99 / chi_max)
        q_nodes = q_field(scaled_c6.quad.nodes)
        w = scaled_c6.quad.weights
        assert wnorm(w, rec.node_field - q_nodes) < 1e-6 * wnorm(w, q_nodes)


def test_06_closed_form_forward(criterion):
    with criterion(6, "closed-form Born data"):
        radius, kappa = 0.8, 1.5
        q = P.ContrastField.from_shapes(
            [{"type": "disk", "center": (0.0, 0.0), "radius": radius, "value": 1.0}],
            resolution=400)
        assert len(q.quad) == 400 * 400
        targets = np.array([[0.2, 0.1], [0.9, -0.3], [1.5, 0.5], [0.0, 1.9], [2.0, 0.0]])
        data = synthesize_born(q, kappa, targets)
        pr = np.hypot(targets[:, 0], targets[:, 1])
        closed = 2 * math.pi * radius * bessel_j(1, kappa * radius * pr) / (kappa * pr)
        assert np.abs(data.values - closed).max() < 1e-6 * np.abs(closed).max()


def test_07_regularized_error_bound(criterion, scaled_c6):
    with criterion(7, "regularized error bound sweep"):
        rng = np.random.default_rng(23)
        idx = np.arange(12)
        amps = rng.standard_normal(12)
        psi_hat = scaled_c6.node_values / scaled_c6.mode_norms[:, None]
        q_nodes = amps @ psi_hat[idx]
        norms = scaled_c6.mode_norms

        def q_field(pts):
            out = np.zeros(len(np.atleast_2d(pts)))
            for a, i in zip(amps, idx):
                out += a / norms[i] * eval_psi(scaled_c6, i, pts)
            return out

        omega = disk_polar_rule(scaled_c6.radius, 90, 96)
        q = P.ContrastField.from_callable(q_field, omega, circumradius=scaled_c6.radius)
        clean = synthesize_born(q, scaled_c6.kernel_scale, scaled_c6.quad)
        u_norm = clean.weighted_norm()
        w = scaled_c6.quad.weights
        chis = scaled_c6.chis
        alphas = np.geomspace(0.95 / chis.min(), 0.9 / chis.max(), 15)
        for delta in (1e-3, 1e-2):
            for alpha in alphas:
                proj_err = wnorm(w, P.project_pi_alpha(q_nodes, scaled_c6, float(alpha)) - q_nodes)
                for seed in range(5):
                    noisy = add_noise(clean, delta / u_norm, seed)
                    rec = reconstruct(noisy, scaled_c6, alpha=float(alpha))
                    err = wnorm(w, rec.node_field - q_nodes)
                    assert err <= delta / rec.beta_alpha + proj_err + 1e-12


def test_08_approximation_decay(criterion):
    with criterion(8, "projection error decay for |x|"):
        c = 5.0
        basis = P.compute_disk_basis(c, m_max=0, n_max=70)
        # |x| is radial, so only m = 0 modes carry coefficients
        psi_hat = basis.node_values / basis.mode_norms[:, None]
        r = np.hypot(basis.quad.nodes[:, 0], basis.quad.nodes[:, 1])
        coeffs = psi_hat @ (basis.quad.weights * r)
        u_sq = math.pi / 2.0  # analytic squared norm of |x| on the unit disk
        chis = basis.chis
        alphas = np.geomspace(1e-4, 1e-2, 15)
        errs = []
        for alpha in alphas:
            keep = chis < 1.0 / alpha
            errs.append(math.sqrt(max(u_sq - float(np.sum(coeffs[keep] ** 2)), 0.0)))
        slope = np.polyfit(np.log(alphas), np.log(errs), 1)[0]
        assert slope >= 0.4


def test_09_partial_data_stability(criterion):
    with criterion(9, "partial-data stability bound"):
        for geo, res in ((P.Geometry.limited_aperture(3 * math.pi / 4), 128),
                         (P.Geometry.multi_freq((1.0, 0.0)), 128)):
            quad = P.build_quadrature(geo, res, method="polar")
            basis = P.compute_symset_basis(5.0, geo, quad, 30)
            rng = np.random.default_rng(29)
            n_use = 22
            a = rng.uniform(-1.0, 1.0, n_use)
            E = float(np.linalg.norm(a))
            psi_hat = basis.node_values[:n_use] / basis.mode_norms[:n_use, None]
            q_nodes = (a * np.abs(basis.mu[:n_use])) @ psi_hat
            data = make_grid(basis, discrete_forward(basis, q_nodes))
            u_norm = data.weighted_norm()
            w = basis.quad.weights
            c0, sigma = 1.0, 1.0
            for ratio in (1e-2, 1e-3):
                delta = ratio * E
                noisy = add_noise(data, delta / u_norm, 41)
                alpha = choose_alpha_partial(delta, E, sigma, c0)
                rec = reconstruct(noisy, basis, alpha=alpha)
                err = wnorm(w, rec.node_field - q_nodes)
                assert err <= math.sqrt(delta) * math.sqrt(E) * (1.0 / c0 + c0), geo.kind


def test_10_aperture_illposedness_trend(criterion):
    with criterion(10, "aperture ill-posedness trend"):
        counts = []
        for theta in (math.pi, 3 * math.pi / 4, math.pi / 2, math.pi / 4):
            geo = P.Geometry.limited_aperture(theta)
            quad = P.build_quadrature(geo, 128, method="polar")
            n_modes = min(280, len(quad) // 2 - 1)
            basis = P.compute_symset_basis(5.0, geo, quad, n_modes)
            mags = np.abs(basis.alphas)
            count = int(np.sum(mags > 1e-3 * mags[0]))
            assert count < len(mags)  # the retained list covers the threshold
            counts.append(count)
        assert counts == sorted(counts, reverse=True)


def test_11_extrapolation_consistency(criterion, scaled_c6):
    with criterion(11, "band-limited extrapolation"):
        rng = np.random.default_rng(31)
        amps = rng.standard_normal(10)
        psi_hat = scaled_c6.node_values / scaled_c6.mode_norms[:, None]
        vals = amps @ psi_hat[:10]
        data = make_grid(scaled_c6, vals + 0j)
        w = scaled_c6.quad.weights
        back = P.extrapolate(data, scaled_c6, scaled_c6.quad.nodes)
        assert wnorm(w, back - vals) < 1e-8 * wnorm(w, vals)
        # single-mode exterior residual against the eigenfunction extension
        i = 3
        single = make_grid(scaled_c6, scaled_c6.node_values[i] + 0j)
        pts = scaled_c6.radius * np.array([[1.5, 0.0], [0.8, 1.2], [-2.0, 0.4]])
        got = P.extrapolate(single, scaled_c6, pts)
        want = eval_psi(scaled_c6, i, pts)
        assert np.abs(got - want).max() < 1e-7 * np.abs(scaled_c6.node_values[i]).max()


def test_12_cli_determinism(criterion, tmp_path, monkeypatch):
    with criterion(12, "CLI determinism"):
        monkeypatch.setenv("PROLATE_CACHE_DIR", str(tmp_path / "cache"))
        setup = tmp_path / "setup.json"
        setup.write_text(json.dumps({
            "regime": "full", "k": 1.0, "c_param": 5.0,
            "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                     "radius": 0.8, "value": 1.0}]},
        }))
        assert cli_run(["basis", "disk", "--c", "5.0", "--m-max", "3", "--n-max", "3"]) == 0
        cachefile = next((tmp_path / "cache").glob("*.gpswf"))
        h0 = hashlib.sha256(cachefile.read_bytes()).hexdigest()
        assert cli_run(["basis", "disk", "--c", "5.0", "--m-max", "3", "--n-max", "3"]) == 0
        assert hashlib.sha256(cachefile.read_bytes()).hexdigest() == h0
        digests = []
        for tag in ("a", "b"):
            data = tmp_path / f"data_{tag}.csv"
            rec = tmp_path / f"rec_{tag}.json"
            assert cli_run(["synthesize", str(setup), "--basis", str(cachefile),
                            "-o", str(data), "--noise", "0.01", "--seed", "5"]) == 0
            assert cli_run(["reconstruct", str(data), "--basis", str(cachefile),
                            "--alpha", "0.01", "-o", str(rec)]) == 0
            digests.append((hashlib.sha256(data.read_bytes()).hexdigest(),
                            hashlib.sha256(rec.read_bytes()).hexdigest()))
        assert digests[0] == digests[1]
