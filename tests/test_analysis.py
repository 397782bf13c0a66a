from dataclasses import replace

import numpy as np
import pytest

import prolate as P
from prolate.analysis import (project_pi_alpha, projection_error_report, sobolev_norm_tilde,
                              extrapolate, validate_basis)
from prolate.forward import DataGrid
from prolate.numerics import _frozen
from prolate.recon import expand, project
from prolate.symset_basis import mirror_indices


def with_perturbed_alpha(basis, index, factor):
    """Copy of a disk basis with one alpha scaled by `factor` (for fault-injection checks)."""
    modes = basis.modes.copy()
    modes["alpha"][index] *= factor
    modes["gamma"][index] *= factor
    return replace(basis, modes=_frozen(modes))


def psi_hat(basis):
    return basis.node_values / basis.mode_norms[:, None]


def make_grid(basis, values):
    return DataGrid(nodes=basis.quad.nodes, weights=basis.quad.weights, values=values,
                    flags=np.zeros(len(basis.quad), dtype=np.uint8))


@pytest.fixture(scope="module", params=["L", "M"])
def set_basis(request):
    """Small L(2.2) polar and M(0.6, 0.8) midpoint bases at c = 2, h = 2, whose 24 |mu|
    fall to 0.16 and 0.01 of the largest."""
    if request.param == "L":
        geo, method = P.Geometry.limited_aperture(2.2, h=2.0), "polar"
    else:
        geo, method = P.Geometry.multi_freq((0.6, 0.8), h=2.0), "midpoint"
    return P.compute_symset_basis(2.0, geo, P.build_quadrature(geo, 48, method=method), 24)


def set_born_data(basis):
    """Born data on the set basis's rule of a disk inside the set."""
    x = 0.9 * np.array(basis.geometry.x_star if basis.geometry.kind == "multi_freq" else (1, 0))
    q = P.ContrastField.from_shapes([{"type": "disk", "center": (x * basis.geometry.h).tolist(),
                                      "radius": 0.5, "value": 1.0}], resolution=40)
    return P.synthesize_born(q, basis.kernel_scale, basis.quad, geometry=basis.geometry)


class TestProjection:
    def test_identity_on_retained_span(self, disk_c5, wnorm):
        hat = psi_hat(disk_c5)
        u = 1.5 * hat[0] - 0.7 * hat[4]
        chi4 = disk_c5.chis[4]
        proj = project_pi_alpha(u, disk_c5, alpha=0.9 / chi4)
        assert wnorm(disk_c5.quad.weights, proj - u) < 1e-9 * wnorm(disk_c5.quad.weights, u)

    def test_idempotent(self, disk_c5, wnorm):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(len(disk_c5.quad))
        p1 = project_pi_alpha(u, disk_c5, alpha=1e-2)
        p2 = project_pi_alpha(p1, disk_c5, alpha=1e-2)
        assert wnorm(disk_c5.quad.weights, p2 - p1) < 1e-10 * max(wnorm(disk_c5.quad.weights, p1), 1e-30)

    def test_self_adjoint(self, disk_c5):
        rng = np.random.default_rng(1)
        w = disk_c5.quad.weights
        u = rng.standard_normal(len(w))
        v = rng.standard_normal(len(w))
        pu = project_pi_alpha(u, disk_c5, alpha=5e-3)
        pv = project_pi_alpha(v, disk_c5, alpha=5e-3)
        a = np.sum(w * pu * v)
        b = np.sum(w * u * pv)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_empty_cutoff_gives_zero(self, disk_c5):
        u = np.ones(len(disk_c5.quad))
        proj = project_pi_alpha(u, disk_c5, alpha=1.0)  # 1/alpha below every chi
        assert np.all(proj == 0.0)

    def test_set_keeps_modes_above_alpha(self, set_basis, wnorm):
        # pi_alpha on a set is the cutoff {|mu| > alpha}: it fixes each retained
        # normalized mode and annihilates each dropped one
        mags = np.abs(set_basis.mu)
        gap = int(np.argmax(mags[4:-1] / mags[5:])) + 4  # a clear gap past the first modes
        alpha = float(np.sqrt(mags[gap] * mags[gap + 1]))
        w = set_basis.quad.weights
        for n, u in enumerate(psi_hat(set_basis)):
            proj = project_pi_alpha(u, set_basis, alpha)
            assert wnorm(w, proj - (u if n <= gap else 0.0)) <= 1e-10, n
        assert np.all(project_pi_alpha(u, set_basis, 2.0 * mags.max()) == 0.0)

    def test_sobolev_bound_exact_construction(self, disk_c5, wnorm):
        # u built with coefficients chi^{-s/2} b has H~s norm ||b||; the
        # projection error obeys the alpha^{s/2} bound for every cutoff
        rng = np.random.default_rng(3)
        s = 1.0
        chis = disk_c5.chis
        b = rng.uniform(-1.0, 1.0, len(chis))
        u = (chis ** (-s / 2.0) * b) @ psi_hat(disk_c5)
        hnorm = np.linalg.norm(b)
        w = disk_c5.quad.weights
        for alpha in np.geomspace(2e-4, 5e-2, 10):
            err = wnorm(w, project_pi_alpha(u, disk_c5, float(alpha)) - u)
            assert err <= alpha ** (s / 2.0) * hnorm * (1.0 + 1e-9)

    def test_error_monotone_in_alpha(self, disk_c5, wnorm):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(len(disk_c5.quad))
        w = disk_c5.quad.weights
        errs = [wnorm(w, project_pi_alpha(u, disk_c5, float(a)) - u)
                for a in np.geomspace(5e-2, 1e-4, 12)]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_projection_report(self, disk_c5):
        rng = np.random.default_rng(6)
        chis = disk_c5.chis
        b = rng.uniform(-1.0, 1.0, len(chis))
        u = (chis**-0.5 * b) @ psi_hat(disk_c5)
        rep = projection_error_report(u, disk_c5, alpha=1e-2, s=1.0)
        assert rep.passed
        assert rep.retained == int(np.sum(chis < 1e2))
        assert rep.error_l2 <= rep.bound


class TestSobolevNorm:
    def test_single_mode_value(self, disk_c5):
        i = 7
        u = psi_hat(disk_c5)[i]
        for s in (0.0, 1.0, 2.0, 0.5):
            got = sobolev_norm_tilde(u, disk_c5, s)
            assert got.value == pytest.approx(disk_c5.chis[i] ** (s / 2.0), rel=1e-9)
            assert got.tail_fraction < 1e-6

    def test_s_zero_is_l2_of_projected_part(self, disk_c5, wnorm):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(len(disk_c5.quad))
        got = sobolev_norm_tilde(u, disk_c5, 0.0)
        coeffs = psi_hat(disk_c5) @ (disk_c5.quad.weights * u)
        assert got.value == pytest.approx(np.linalg.norm(coeffs), rel=1e-12)
        assert 0.0 < got.tail_fraction < 1.0

    def test_s1_matches_quadratic_form(self, disk_c5):
        # independent oracle: central differences + quadrature of
        # ||grad u||^2_w + ||angular derivative||^2 + c^2 ||x u||^2
        c = disk_c5.c

        def u_fn(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            return np.exp(-2.0 * (x**2 + y**2)) * (1.0 + 0.8 * x + 0.5 * x * y)

        u = u_fn(disk_c5.quad.nodes)
        spectral = sobolev_norm_tilde(u, disk_c5, 1.0)
        assert spectral.tail_fraction < 1e-4

        rule = P.disk_polar_rule(1.0 - 4e-3, 160, 64)  # boundary ring excluded
        pts = rule.nodes
        w = rule.weights
        h = 1e-3
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        ux = (u_fn(pts + ex) - u_fn(pts - ex)) / (2 * h)
        uy = (u_fn(pts + ey) - u_fn(pts - ey)) / (2 * h)
        uu = u_fn(pts)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        weight = 1.0 - r2
        rot = pts[:, 1] * ux - pts[:, 0] * uy
        form = (np.sum(w * weight * (ux**2 + uy**2)) + np.sum(w * rot**2)
                + c**2 * np.sum(w * r2 * uu**2))
        assert np.sqrt(form) == pytest.approx(spectral.value, rel=1e-2)


class TestExtrapolate:
    def test_reproduces_band_limited_data_inside(self, scaled_c6, wnorm):
        rng = np.random.default_rng(10)
        coeffs = rng.standard_normal(8)
        vals = coeffs @ psi_hat(scaled_c6)[:8]
        data = make_grid(scaled_c6, vals + 0j)
        got = extrapolate(data, scaled_c6, scaled_c6.quad.nodes)
        assert wnorm(scaled_c6.quad.weights, got - vals) < 1e-8 * wnorm(scaled_c6.quad.weights, vals)

    def test_single_mode_eigenrelation_outside(self, scaled_c6):
        i = 2
        data = make_grid(scaled_c6, scaled_c6.node_values[i] + 0j)
        radius = scaled_c6.radius
        pts = np.array([[1.4 * radius, 0.2], [2.0 * radius, -0.5]])
        got = extrapolate(data, scaled_c6, pts)
        want = P.eval_psi(scaled_c6, i, pts)
        assert np.abs(got - want).max() < 1e-7 * np.abs(scaled_c6.node_values[i]).max()

    def test_truncation_exposes_exterior_illposedness(self, scaled_c6, wnorm):
        # dropping weak modes barely moves the interior values but changes the
        # exterior extension much more
        n_modes = len(scaled_c6.modes)
        mags = np.abs(scaled_c6.mu)
        coeffs = np.linspace(1.0, 0.2, n_modes)
        vals = coeffs @ psi_hat(scaled_c6)
        data = make_grid(scaled_c6, vals + 0j)
        keep = mags >= 1e-6 * mags.max()
        truncated = coeffs.copy()
        truncated[~keep] = 0.0
        vals_t = truncated @ psi_hat(scaled_c6)
        data_t = make_grid(scaled_c6, vals_t + 0j)

        inner_pts = scaled_c6.quad.nodes[::7]
        outer_r = 2.0 * scaled_c6.radius
        ang = np.linspace(0, 2 * np.pi, 17)[:-1]
        outer_pts = outer_r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        d_in = np.abs(extrapolate(data, scaled_c6, inner_pts)
                      - extrapolate(data_t, scaled_c6, inner_pts)).max()
        d_out = np.abs(extrapolate(data, scaled_c6, outer_pts)
                       - extrapolate(data_t, scaled_c6, outer_pts)).max()
        assert not keep.all()
        assert d_out > d_in

    def test_linear_in_data(self, scaled_c6):
        rng = np.random.default_rng(12)
        n = len(scaled_c6.quad)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n)
        pts = np.array([[0.5, 0.2], [4.0, 1.0]])
        a = extrapolate(make_grid(scaled_c6, u), scaled_c6, pts)
        b = extrapolate(make_grid(scaled_c6, v + 0j), scaled_c6, pts)
        ab = extrapolate(make_grid(scaled_c6, u + 3.0 * v), scaled_c6, pts)
        assert np.abs(ab - (a + 3.0 * b)).max() < 1e-10 * np.abs(ab).max()


    def test_set_extension_is_the_projection_at_the_nodes(self, set_basis):
        # the Nystrom extension through the Born sum reproduces, on the nodes, the
        # projection of the data onto every mode of the set basis
        data = set_born_data(set_basis)
        want = expand(set_basis, project(set_basis, data.weights * data.values),
                      np.ones(len(set_basis.modes), dtype=bool))
        got = extrapolate(data, set_basis, set_basis.quad.nodes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        h = set_basis.geometry.h
        t = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        outside = 2.5 * h * np.stack([np.cos(t), np.sin(t)], axis=1)
        assert np.isfinite(extrapolate(data, set_basis, outside)).all()


class TestValidateBasis:
    def test_fresh_disk_basis_passes(self, disk_c10):
        assert all(c["passed"] for c in validate_basis(disk_c10))

    def test_fresh_symset_basis_passes(self, symset_disk_c5):
        assert all(c["passed"] for c in validate_basis(symset_disk_c5))

    def test_perturbed_alpha_fails_norm_check(self, disk_c5):
        bad = with_perturbed_alpha(disk_c5, 3, 1.1)
        report = {c["check"]: c for c in validate_basis(bad)}
        assert not report["norm_alpha_consistency"]["passed"]

    def test_symset_disk_cross_check(self, disk_c5, symset_disk_c5):
        galerkin = np.sort(np.abs(disk_c5.modes["alpha"]))[::-1][:20]
        nystrom = np.abs(symset_disk_c5.alphas[:20])
        assert np.abs(nystrom / galerkin - 1.0).max() < 1e-4

    def test_table_checks_match_per_mode_loops(self, disk_c5, symset_disk_c5):
        # the chain and parity checks read the mode tables; the same arithmetic
        # mode by mode gives the same residuals, bitwise
        bad = with_perturbed_alpha(disk_c5, disk_c5.mode_index((2, 1, 1)), 10.0)
        chains = {}
        for (m, n, ell), alpha, usable in zip(bad.keys.tolist(), bad.modes["alpha"].tolist(),
                                              bad.modes["usable"].tolist()):
            if ell == 1 and usable:
                chains.setdefault(m, []).append((n, abs(alpha)))
        worst = 0.0
        for chain in chains.values():
            mags = np.array([a for _, a in sorted(chain)])
            if len(mags) > 1:
                worst = max(worst, float(((mags[1:] - mags[:-1]) / mags[:-1]).max()))
        report = {c["check"]: c["residual"] for c in validate_basis(bad)}
        assert worst > 1.0
        assert report["alpha_monotone_chains"] == worst

        mirror = mirror_indices(symset_disk_c5.quad)
        worst = 0.0
        for even, v in zip(symset_disk_c5.modes["even"].tolist(), symset_disk_c5.node_values):
            dev = np.abs(v[mirror] - (1.0 if even else -1.0) * v).max()
            worst = max(worst, dev / np.abs(v).max())
        report = {c["check"]: c["residual"] for c in validate_basis(symset_disk_c5)}
        assert report["parity_node_symmetry"] == worst

    def test_report_schema(self, disk_c5):
        for entry in validate_basis(disk_c5):
            assert set(entry) == {"check", "residual", "threshold", "passed"}
