import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi, jv

import prolate as P
from prolate import disk_basis
from prolate.disk_basis import (assemble_sl_matrix, compute_disk_basis, default_truncation,
                                eval_psi)
from prolate.errors import ParameterError
from prolate.numerics import gauss_legendre_01, zernike_radial_table


def radial_derivatives(m, j, r):
    """Analytic Z, Z', Z'' through the Jacobi representation (oracle only)."""
    s = math.sqrt(2.0 * (m + 2 * j + 1)) * (-1.0) ** j
    t = 1.0 - 2.0 * r * r
    p0 = eval_jacobi(j, m, 0, t)
    p1 = 0.5 * (j + m + 1) * eval_jacobi(j - 1, m + 1, 1, t) if j >= 1 else np.zeros_like(r)
    p2 = (0.25 * (j + m + 1) * (j + m + 2) * eval_jacobi(j - 2, m + 2, 2, t)
          if j >= 2 else np.zeros_like(r))
    z = s * r**m * p0
    z1 = s * (m * r ** (m - 1) * p0 - 4.0 * r ** (m + 1) * p1)
    z2 = s * (m * (m - 1) * r ** (m - 2) * p0 - 4.0 * (2 * m + 1) * r**m * p1
              + 16.0 * r ** (m + 2) * p2)
    return z, z1, z2


def apply_radial_operator(c, m, j, r):
    """(D restricted to azimuthal order m) Z_j at interior radii."""
    z, z1, z2 = radial_derivatives(m, j, r)
    return (-(1.0 - r * r) * z2 + (3.0 * r - 1.0 / r) * z1
            + (m * m / (r * r)) * z + c * c * r * r * z)


def scipy_zernike(m, J, r):
    """Disk polynomials from scipy's eval_jacobi, one degree per call (oracle only)."""
    return np.array([math.sqrt(2.0 * (m + 2 * j + 1)) * (-1.0) ** j * r**m
                     * eval_jacobi(j, m, 0, 1.0 - 2.0 * r * r) for j in range(J)])


def scipy_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def scipy_disk_reference(c, m_max, n_max):
    """(chi, gamma, coeffs) per (m, n), built order by order with scipy's eval_jacobi,
    eigh_tridiagonal and jv.  The gamma rule is the basis's shared one, sized for
    m_max: gamma is a Rayleigh quotient whose last digits (about 1e-13 of the
    chain maximum) move with the rule size, so a rule of another size would
    measure that rounding rather than the special functions."""
    J = default_truncation(c, n_max)
    s, ws = scipy_rule(m_max + 2 * J + math.ceil(c / 2.0) + 16)
    out = {}
    for m in range(m_max + 1):
        x, w = scipy_rule(m + 2 * J + 4)
        Z = scipy_zernike(m, J, x)
        gram = (Z * (w * x**3)) @ Z.T
        degrees = m + 2 * np.arange(J)
        chis, vecs = eigh_tridiagonal(degrees * (degrees + 2) + c * c * np.diag(gram),
                                      c * c * np.diag(gram, 1))
        Zs, kernel = scipy_zernike(m, J, s), jv(m, c * np.outer(s, s))
        for n in range(n_max + 1):
            v = vecs[:, n] * np.sign(vecs[np.argmax(np.abs(vecs[:, n]) > 1e-8 * np.abs(
                vecs[:, n]).max()), n])
            R = v @ Zs
            gamma = np.dot(ws * s * R, math.sqrt(c) * (kernel @ (ws * s * R))) / np.dot(
                ws * s * R, R)
            amp = 2.0 * np.pi if m == 0 else np.pi
            out[m, n] = chis[n], gamma, v * c * abs(gamma) / (math.sqrt(c) * math.sqrt(amp))
    return out


class TestAgainstScipyReference:
    """The recurrence tables, the shared radial rule and the dense eigensolver give the
    eigensystem that scipy's per-order special functions give, mode by mode."""

    @pytest.mark.parametrize("fixture", ["disk_c5", "disk_c10"])
    def test_chi_gamma_node_values(self, fixture, request):
        basis = request.getfixturevalue(fixture)
        m_max = int(basis.modes["m"].max())
        n_max = int(basis.modes["n"].max())
        ref = scipy_disk_reference(basis.c, m_max, n_max)
        r = np.hypot(basis.quad.nodes[:, 0], basis.quad.nodes[:, 1])
        theta = np.arctan2(basis.quad.nodes[:, 1], basis.quad.nodes[:, 0])
        zern = {m: scipy_zernike(m, basis.truncation, r) for m in range(m_max + 1)}
        chain_gamma = {m: max(abs(ref[m, n][1]) for n in range(n_max + 1))
                       for m in range(m_max + 1)}
        chain_values = {}
        expected = []
        for m, n, ell in basis.keys.tolist():
            chi, gamma, coeffs = ref[m, n]
            angular = np.ones_like(theta) if m == 0 else (
                np.cos(m * theta) if ell == 1 else np.sin(m * theta))
            expected.append((chi, gamma, (coeffs @ zern[m]) * angular))
            chain_values[m] = max(chain_values.get(m, 0.0), np.abs(expected[-1][2]).max())
        for key, mo, values, (chi, gamma, want) in zip(basis.keys.tolist(), basis.modes,
                                                       basis.node_values, expected):
            assert mo["usable"]
            assert abs(mo["chi"] - chi) <= 1e-13 * abs(chi), key
            assert abs(mo["gamma"] - gamma) <= 1e-13 * chain_gamma[key[0]], key
            assert np.abs(values - want).max() <= 1e-13 * chain_values[key[0]], key


class TestNodeValuesOnLoad:
    def test_loaded_node_values_match_mode_by_mode(self, disk_c5, tmp_path):
        # the per-order products on load against one coeffs @ table product per mode
        path = tmp_path / "disk.gpswf"
        P.save_disk_basis(path, disk_c5)
        loaded = P.load_basis(path)
        n_r, n_t = loaded.quad_size
        block = n_r * (n_t // 2)
        r = np.hypot(loaded.quad.nodes[:block, 0], loaded.quad.nodes[:block, 1])
        theta = np.arctan2(loaded.quad.nodes[:block, 1], loaded.quad.nodes[:block, 0])
        ref = np.empty_like(loaded.node_values)
        for i, (m, n, ell) in enumerate(loaded.keys.tolist()):
            radial = loaded.coeffs[i] @ zernike_radial_table(m, loaded.truncation, r)
            first = radial * (np.cos(m * theta) if ell == 1 else np.sin(m * theta))
            ref[i] = np.concatenate([first, (-1.0) ** m * first])
        assert np.abs(loaded.node_values - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(disk_c5.node_values - ref).max() <= 1e-14 * np.abs(ref).max()
        assert not loaded.node_values.flags.writeable


class TestCombineDistinctRadii:
    """`combine` tabulates its radial sums once per distinct |x| and gathers
    them to the points."""

    def test_symmetric_grid_matches_point_by_point(self, disk_c10, monkeypatch):
        # a symmetric grid over [-1.5, 1.5]^2 repeats its radii inside and
        # outside the unit disk; one Zernike call serves every live order
        g = 1.5 * (2.0 * np.arange(32) - 31) / 31
        pts = np.stack([np.repeat(g, 32), np.tile(g, 32)], axis=1)
        r = np.hypot(pts[:, 0], pts[:, 1])
        for part in (r <= 1.0, r > 1.0):
            assert len(np.unique(r[part])) < part.sum() // 4
        rng = np.random.default_rng(5)
        w = rng.standard_normal(len(disk_c10.modes)) + 1j * rng.standard_normal(len(disk_c10.modes))
        calls = []
        real = disk_basis.zernike_radial_table
        monkeypatch.setattr(disk_basis, "zernike_radial_table",
                            lambda *args: calls.append(args) or real(*args))
        got = disk_c10.combine(w, pts)
        assert len(calls) == 1 and len(calls[0][0]) == len(np.unique(disk_c10.modes["m"]))
        want = np.array([disk_c10.combine(w, p) for p in pts])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestAssemble:
    def test_c_zero_decouples(self):
        tri = assemble_sl_matrix(0.0, 0, 3)
        assert np.allclose(np.diag(tri), [0.0, 8.0, 24.0], atol=1e-12)
        assert np.allclose(np.diag(tri, 1), 0.0, atol=1e-13)

    def test_symmetric_by_construction(self):
        dense = assemble_sl_matrix(7.3, 4, 12)
        assert np.array_equal(dense, dense.T)

    def test_tridiagonal(self):
        dense = assemble_sl_matrix(7.3, 4, 12)
        assert dense.shape == (12, 12)
        assert not np.triu(dense, 2).any() and not np.tril(dense, -2).any()

    def test_matches_dense_quadrature_oracle(self):
        c, m, J = 10.0, 2, 20
        rule = gauss_legendre_01(400)
        r, w = rule.nodes, rule.weights
        Z = zernike_radial_table(m, J, r)
        dense = np.empty((J, J))
        for j in range(J):
            dz = apply_radial_operator(c, m, j, r)
            dense[j] = Z @ (w * r * dz)
        tri = assemble_sl_matrix(c, m, J)
        scale = np.abs(dense).max()
        assert np.abs(tri - dense).max() <= 1e-11 * scale

    def test_rejects_negative_c(self):
        with pytest.raises(ParameterError):
            assemble_sl_matrix(-1.0, 0, 4)


class TestComputeBasis:
    def test_bracketing_example_c20(self):
        basis = compute_disk_basis(20.0, m_max=3, n_max=2)
        chi = basis.chis[basis.mode_index((3, 2, 1))]
        assert 63.0 < chi < 63.0 + 400.0

    def test_tiny_c_limit(self):
        basis = compute_disk_basis(1e-6, m_max=1, n_max=1)
        chi = basis.chis[basis.mode_index((1, 1, 1))]
        assert chi == pytest.approx(15.0, abs=1e-9)

    def test_alpha_matches_nystrom(self, disk_c5, symset_disk_c5):
        modes = disk_c5.modes
        wanted = sorted(np.abs(modes["alpha"][(modes["m"] <= 3) & (modes["n"] <= 3)
                                              & (modes["ell"] == 1)]))
        nystrom = sorted(np.abs(symset_disk_c5.alphas), reverse=True)
        for target in wanted:
            best = min(abs(a - target) / target for a in nystrom)
            assert best < 1e-5

    def test_mode_ordering(self, disk_c5):
        keys = [(m + 2 * n, m, ell) for m, n, ell in disk_c5.keys.tolist()]
        assert keys == sorted(keys)

    def test_alpha_structure(self, disk_c5):
        for m, gamma, alpha in zip(disk_c5.modes["m"].tolist(), disk_c5.modes["gamma"].tolist(),
                                   disk_c5.modes["alpha"].tolist()):
            # alpha = 2 pi i^m gamma / sqrt(c) with gamma real
            predicted = 2.0 * np.pi * 1j**m * gamma / math.sqrt(disk_c5.c)
            assert abs(alpha - predicted) <= 1e-15 * abs(alpha)
            assert alpha != 0.0

    def test_validation_report_passes(self, disk_c10):
        report = P.validate_basis(disk_c10)
        assert all(chk["passed"] for chk in report), report

    def test_truncation_stability(self):
        c, m, n_max = 7.0, 2, 4
        J = default_truncation(c, n_max)
        a = compute_disk_basis(c, m, n_max, truncation=J)
        b = compute_disk_basis(c, m, n_max, truncation=J + 10)
        for n in range(n_max + 1):
            chi_a = a.chis[a.mode_index((m, n, 1))]
            chi_b = b.chis[b.mode_index((m, n, 1))]
            assert abs(chi_a - chi_b) <= 1e-9 * abs(chi_b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            compute_disk_basis(0.0, 1, 1)
        with pytest.raises(ParameterError):
            compute_disk_basis(5.0, -1, 1)


class TestEval:
    def test_sine_mode_vanishes_on_axis(self, disk_c5):
        val = eval_psi(disk_c5, (1, 0, 2), np.array([0.7, 0.0]))
        assert val == 0.0

    def test_radial_symmetry(self, disk_c5):
        a = eval_psi(disk_c5, (0, 0, 1), np.array([0.3, 0.4]))
        b = eval_psi(disk_c5, (0, 0, 1), np.array([0.5, 0.0]))
        assert a == pytest.approx(b, abs=1e-10)

    def test_finite_at_origin(self, disk_c5):
        for key in [(0, 0, 1), (1, 0, 1), (3, 1, 2)]:
            v = eval_psi(disk_c5, key, np.array([0.0, 0.0]))
            assert np.isfinite(v)

    def test_exterior_eigenrelation(self, disk_c5):
        c = disk_c5.c
        x = np.array([1.5, 0.2])
        n_t = 2 * int(c * np.hypot(*x)) + 48
        quad = P.disk_polar_rule(1.0, 60, n_t + n_t % 2)
        for key in [(0, 0, 1), (2, 1, 1), (1, 0, 2)]:
            i = disk_c5.mode_index(key)
            lhs = disk_c5.modes["alpha"][i] * eval_psi(disk_c5, i, x)
            kernel = np.exp(1j * c * (quad.nodes @ x))
            rhs = np.sum(quad.weights * kernel * eval_psi(disk_c5, i, quad.nodes))
            assert abs(lhs - rhs) < 1e-8


    def test_exterior_blocks_agree(self, disk_c5, monkeypatch):
        # the exterior Bessel table is built in blocks of points; block size
        # changes nothing beyond rounding
        rng = np.random.default_rng(4)
        w = rng.standard_normal(len(disk_c5.modes))
        pts = rng.uniform(-2.5, 2.5, (300, 2))
        whole = disk_c5.combine(w, pts)
        rows = 10 + 2 * disk_c5.truncation  # J_0 .. J_{m_max + 2J - 1}
        n_out = np.count_nonzero(np.hypot(pts[:, 0], pts[:, 1]) > 1.0)
        assert n_out > 2 * (5000 // rows)  # at least three blocks
        monkeypatch.setattr(disk_basis, "_BESSEL_BLOCK", 5000)
        blocked = disk_c5.combine(w, pts)
        assert np.abs(blocked - whole).max() <= 1e-13 * np.abs(whole).max()

    def test_angular_blocks_agree(self, disk_c5, monkeypatch):
        # the radial sums are gathered to the points and summed over orders in
        # blocks of points, each point's terms in the same order, so bitwise
        rng = np.random.default_rng(5)
        w = rng.standard_normal(len(disk_c5.modes)) + 1j * rng.standard_normal(len(disk_c5.modes))
        pts = rng.uniform(-2.5, 2.5, (300, 2))
        whole = disk_c5.combine(w, pts)
        monkeypatch.setattr(disk_basis, "BLOCK_ENTRIES", 7)
        assert np.array_equal(disk_c5.combine(w, pts), whole)

    def test_field_grid_memory(self, disk_c5):
        # a 512^2 grid: the radial sums are held once per distinct radius (about
        # one point in eight), and the gathers and angular sums take blocks of
        # points, so the peak is set by the sort of the radii, 58 bytes per
        # point (the whole-array gathers took 98)
        axis = 1.5 * (2.0 * np.arange(512) - 511) / 511
        pts = np.stack([np.repeat(axis, 512), np.tile(axis, 512)], axis=1)
        w = np.random.default_rng(6).standard_normal(len(disk_c5.modes))
        tracemalloc.start()
        try:
            disk_c5.combine(w, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * len(pts)

    def test_exterior_matches_per_mode_jv_quadrature(self, disk_c5):
        # the radial reduction sqrt(c)/gamma int_0^1 J_m(c|x|s) R(s) s ds with scipy's
        # jv, on a Gauss rule sized for the oscillation c|x|s; the error scale is
        # the same integral over |J_m R|, its rounding level, times the phase
        # error of about eps c|x| that jv carries at large arguments
        groups = ([[1.7, -0.4], [0.0, 3.0], [-1.01, 0.0]],  # near the disk
                  [[20.0, 0.0], [-12.0, 16.0]],  # 20 radii
                  [[0.0, -200.0], [120.0, 160.0]])  # 200 radii
        for x in map(np.array, groups):
            rho, phi = np.hypot(x[:, 0], x[:, 1]), np.arctan2(x[:, 1], x[:, 0])
            s, w = scipy_rule(200 + math.ceil(disk_c5.c * rho.max()))
            phase = max(1.0, disk_c5.c * rho.max() / 100.0)
            for key in [(0, 0, 1), (2, 1, 1), (5, 3, 2), (10, 8, 1)]:
                m, _, ell = key
                i = disk_c5.mode_index(key)
                R = disk_c5.coeffs[i] @ scipy_zernike(m, disk_c5.truncation, s)
                gamma = disk_c5.modes["gamma"][i]
                kernel = math.sqrt(disk_c5.c) / gamma * jv(m, disk_c5.c * np.outer(rho, s))
                angular = np.cos(m * phi) if ell == 1 else np.sin(m * phi)
                want = (kernel @ (w * s * R)) * angular
                scale = (np.abs(kernel) @ (w * s * np.abs(R))).max()
                got = eval_psi(disk_c5, key, x)
                assert np.abs(got - want).max() <= 1e-13 * scale * phase, (key, rho.max())

    def test_exterior_memory_does_not_grow_with_distance(self, disk_c5):
        # the closed form needs a few Bessel table rows per point, whatever its
        # distance; a radial rule sized for c|x| grows like (c|x|)^2 (13.8 MB here)
        w = np.random.default_rng(5).standard_normal(len(disk_c5.modes))
        t = 2 * math.pi * np.arange(8) / 8
        pts = 500.0 * np.stack([np.cos(t), np.sin(t)], axis=1)
        tracemalloc.start()
        try:
            vals = disk_c5.combine(w, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vals))
        assert peak < 2_000_000


class TestScaled:
    def test_unit_scaling_is_identity(self, disk_c5):
        scaled = disk_c5.dilated(1.0)
        assert scaled.radius == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.9, 0.9, (20, 2))
        assert np.allclose(eval_psi(scaled, 3, pts), eval_psi(disk_c5, 3, pts),
                           atol=1e-13)

    def test_scaled_norms(self, scaled_c6):
        gram_diag = np.sum(scaled_c6.quad.weights * scaled_c6.node_values**2, axis=1)
        lam2 = scaled_c6.mode_norms**2
        assert np.abs(gram_diag / lam2 - 1.0).max() < 1e-8

    def test_scaled_eigenrelation_on_nodes(self, scaled_c6):
        kappa = scaled_c6.kernel_scale
        quad = scaled_c6.quad
        i = 4
        kernel = np.exp(1j * kappa * (quad.nodes @ quad.nodes.T))
        rhs = kernel @ (quad.weights * scaled_c6.node_values[i])
        lhs = scaled_c6.mu[i] * scaled_c6.node_values[i]
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(lhs).max()

    @staticmethod
    def _plane_energy(scaled, index, T, n_gl):
        inner = float(np.sum(scaled.quad.weights * scaled.node_values[index] ** 2))
        rad = P.gauss_legendre(n_gl)
        R_out = T * scaled.radius
        r = 0.5 * (R_out - scaled.radius) * rad.nodes + 0.5 * (R_out + scaled.radius)
        w = 0.5 * (R_out - scaled.radius) * rad.weights
        vals = eval_psi(scaled, index, np.stack([r, np.zeros_like(r)], axis=1))
        a_m = 2.0 * np.pi if scaled.modes["m"][index] == 0 else np.pi
        return inner + a_m * float(np.sum(w * r * vals**2))

    def test_plane_energy_unit(self, disk_c10):
        # the exterior energy density decays like 1/r^3, leaving a 1/T tail
        # after truncation at T; well-concentrated modes meet 1e-6 at T = 40
        # radii and the less concentrated ones converge to 1 at the 1/T rate
        scaled = disk_c10.dilated(disk_c10.c / 4.0)
        for idx in (0, 1):
            assert self._plane_energy(scaled, idx, 40.0, 800) == pytest.approx(1.0, abs=1e-6)
        e40 = abs(self._plane_energy(scaled, 3, 40.0, 800) - 1.0)
        e80 = abs(self._plane_energy(scaled, 3, 80.0, 1600) - 1.0)
        assert e40 < 1e-5
        assert 0.4 * e40 < e80 < 0.6 * e40

    def test_dilated_radius_is_exact(self, disk_c5):
        # the radius is the data disk's h as given, with no round trip through a k
        h = 4.09547008329006 / 2.0
        scaled = disk_c5.dilated(h)
        assert scaled.radius == h
        assert np.array_equal(scaled.quad.nodes, h * disk_c5.quad.nodes)
        assert np.array_equal(scaled.quad.weights, h**2 * disk_c5.quad.weights)

    def test_rejects_nonpositive_radius(self, disk_c5):
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="dilation radius"):
                disk_c5.dilated(radius)

    @staticmethod
    def _weights_and_points(basis, seed=0):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(len(basis.modes)) + 1j * rng.standard_normal(len(basis.modes))
        pts = np.concatenate([basis.quad.nodes[::29], rng.uniform(-3.0, 3.0, (20, 2))])
        return w, pts

    def test_unit_radius_is_bitwise_the_unit_basis(self, disk_c5):
        same = disk_c5.dilated(1.0)
        assert same.radius == 1.0
        assert np.array_equal(same.quad.nodes, disk_c5.quad.nodes)
        assert np.array_equal(same.quad.weights, disk_c5.quad.weights)
        assert np.array_equal(same.node_values, disk_c5.node_values)
        assert np.array_equal(same.mu, disk_c5.mu)
        w, pts = self._weights_and_points(disk_c5)
        assert np.array_equal(same.combine(w, pts), disk_c5.combine(w, pts))

    def test_combine_is_the_dilated_unit_combine(self, disk_c5):
        scaled = disk_c5.dilated(disk_c5.c / 1.4)
        r = scaled.radius
        w, pts = self._weights_and_points(scaled, seed=1)
        assert np.array_equal(scaled.combine(w, pts), disk_c5.combine(w, pts / r) / r)
        assert scaled.combine(w, pts[3]) == disk_c5.combine(w, pts[3] / r) / r

    def test_rescaling_matches_one_scaling(self, disk_c5):
        twice = disk_c5.dilated(disk_c5.c / 1.4).dilated(disk_c5.c / 2.6)
        once = disk_c5.dilated(disk_c5.c / 2.6)
        assert twice.radius == once.radius
        for got, want in [(twice.quad.nodes, once.quad.nodes),
                          (twice.quad.weights, once.quad.weights),
                          (twice.node_values, once.node_values), (twice.mu, once.mu)]:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        w, pts = self._weights_and_points(once, seed=2)
        want = once.combine(w, pts)
        assert np.abs(twice.combine(w, pts) - want).max() <= 1e-14 * np.abs(want).max()

    def test_cache_refuses_a_scaled_basis(self, scaled_c6, tmp_path):
        path = tmp_path / "scaled.gpswf"
        with pytest.raises(ParameterError, match="radius"):
            P.save_disk_basis(path, scaled_c6)
        assert not path.exists()


class TestRadialOperator:
    def test_finite_difference_eigenrelation(self, disk_c5):
        i = disk_c5.mode_index((2, 1, 1))
        m, coeffs = 2, disk_c5.coeffs[i]
        J = len(coeffs)
        c = disk_c5.c

        def phi(r):
            return np.sqrt(r) * (coeffs @ zernike_radial_table(m, J, r))

        r = np.linspace(0.15, 0.85, 141)

        def residual(h):
            d2 = (phi(r + h) - 2.0 * phi(r) + phi(r - h)) / h**2
            d1 = (phi(r + h) - phi(r - h)) / (2.0 * h)
            dphi = (-(1.0 - r * r) * d2 + 2.0 * r * d1
                    - ((0.25 - m**2) / r**2 - c * c * r * r) * phi(r))
            # the radial operator on sqrt(r) R(r) has eigenvalue chi + 3/4
            target = (disk_c5.chis[i] + 0.75) * phi(r)
            return np.abs(dphi - target).max() / np.abs(target).max()

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r2 < 5e-5
        assert 2.5 < r1 / r2 < 6.0  # O(h^2) convergence

    def test_alpha_monotone_along_chains(self, disk_c10):
        by_m = {}
        for (m, n, ell), alpha in zip(disk_c10.keys.tolist(), disk_c10.modes["alpha"].tolist()):
            if ell == 1:
                by_m.setdefault(m, []).append((n, abs(alpha)))
        for chain in by_m.values():
            mags = [a for _, a in sorted(chain)]
            assert all(b <= a * (1.0 + 1e-10) for a, b in zip(mags, mags[1:]))


def dense_node_values(basis):
    """The (modes, N) table built as the basis stored it before it held only
    radial factors: per order, coeffs @ Zernike table times cos or sin(m theta)
    on the unit rule's first half circle, mirrored with (-1)^m; scaling divided
    the table by radius / 1 (an exact no-op on the unit disk)."""
    n_r, n_t = basis.quad_size
    quad = P.disk_polar_rule(1.0, n_r, n_t)
    half = n_t // 2
    block = n_r * half
    r = np.hypot(quad.nodes[:block, 0], quad.nodes[:block, 1]).reshape(n_r, half)[:, 0]
    theta = np.arctan2(quad.nodes[:block, 1], quad.nodes[:block, 0]).reshape(n_r, half)[0]
    orders = basis.modes["m"]
    tables = zernike_radial_table(np.arange(orders.max() + 1), basis.truncation, r)
    table = np.empty((len(basis.modes), len(quad)))
    for m in np.unique(orders):
        idx = np.flatnonzero(orders == m)
        radial = basis.coeffs[idx] @ tables[m]
        Y = np.stack([np.cos(m * theta), np.sin(m * theta)])[basis.modes["ell"][idx] - 1]
        first = (radial[:, :, None] * Y[:, None, :]).reshape(len(idx), block)
        table[idx] = np.hstack([first, -first if m % 2 else first])
    return table / basis.radius


class TestRingProducts:
    """`inner` and `on_nodes` form the node-value products ring by ring."""

    @pytest.fixture(params=["disk_c5", "disk_c10", "scaled"])
    def basis(self, request):
        if request.param == "scaled":
            return request.getfixturevalue("disk_c10").dilated(10.0 / 1.6)
        return request.getfixturevalue(request.param)

    @staticmethod
    def _columns(rng, n, shape):
        return {"real": rng.standard_normal((n,) + shape),
                "complex": rng.standard_normal((n,) + shape)
                + 1j * rng.standard_normal((n,) + shape)}

    @pytest.mark.parametrize("shape", [(), (1,), (7,)])
    def test_match_the_dense_products(self, basis, shape):
        rng = np.random.default_rng(11)
        table = basis.node_values
        for kind, u in self._columns(rng, len(basis.quad), shape).items():
            got, want = basis.inner(u), table @ u
            assert got.shape == want.shape and got.dtype == want.dtype, kind
            scale = (np.abs(table) @ np.abs(u)).max()
            assert np.abs(got - want).max() <= 1e-14 * scale, kind
        for kind, w in self._columns(rng, len(basis.modes), shape).items():
            got, want = basis.on_nodes(w), table.T @ w
            assert got.shape == want.shape and got.dtype == want.dtype, kind
            scale = (np.abs(table.T) @ np.abs(w)).max()
            assert np.abs(got - want).max() <= 1e-14 * scale, kind

    def test_modes_missing_from_a_ring_order(self, disk_c5):
        # a basis without some (m, ell) blocks, e.g. after dropping modes
        modes = disk_c5.modes
        keep = np.flatnonzero(~((modes["m"] == 3) | (modes["ell"] == 2)))
        sub = disk_basis.disk_basis_from_modes(disk_c5.c, disk_c5.truncation, modes[keep],
                                               disk_c5.coeffs[keep], *disk_c5.quad_size)
        assert np.array_equal(sub.node_values, disk_c5.node_values[keep])
        u = np.random.default_rng(2).standard_normal(len(sub.quad))
        want = sub.node_values @ u
        assert np.abs(sub.inner(u) - want).max() <= 1e-14 * np.abs(want).max()


class TestLazyNodeValues:
    def test_bitwise_the_dense_table(self, disk_c5):
        for basis in (disk_c5, disk_c5.dilated(disk_c5.c / 1.4)):
            assert np.array_equal(basis.node_values, dense_node_values(basis))
            assert not basis.node_values.flags.writeable
            assert basis.node_values is basis.node_values  # built once

    def test_scaling_builds_no_table(self, disk_c5):
        fresh = disk_basis.disk_basis_from_modes(disk_c5.c, disk_c5.truncation, disk_c5.modes,
                                                 disk_c5.coeffs, *disk_c5.quad_size)
        scaled = fresh.dilated(fresh.c / 2.6)
        assert "node_values" not in vars(fresh) and "node_values" not in vars(scaled)
        assert scaled.radial is fresh.radial
        assert scaled.radial.shape == (len(fresh.modes), fresh.quad_size[0])
