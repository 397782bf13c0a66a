import json
import tracemalloc
import warnings

import numpy as np
import pytest

import prolate as P
from prolate.errors import DataCoverageError, EmptyCutoffError, ParameterError
from prolate.forward import DataGrid, add_noise
from prolate.numerics import real_matmul
from prolate.recon import (choose_alpha_partial, effective_weights, expand, picard_coefficients,
                           project, reconstruct, write_result)


def read_result(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def make_grid(basis, values, flags=None, meta=None):
    n = len(basis.quad)
    return DataGrid(nodes=basis.quad.nodes, weights=basis.quad.weights, values=values,
                    flags=np.zeros(n, dtype=np.uint8) if flags is None else flags,
                    meta=meta or {})


def eigen_data(basis, coeffs_by_index):
    """Data whose Picard coefficients are exactly the given dictionary."""
    psi_hat = basis.node_values / basis.mode_norms[:, None]
    mu = basis.mu
    vals = np.zeros(len(basis.quad), dtype=complex)
    for i, c in coeffs_by_index.items():
        vals += c * mu[i] * psi_hat[i]
    return make_grid(basis, vals)


def discrete_forward(basis, q_nodes):
    """Apply the quadrature Born operator on the basis nodes."""
    quad = basis.quad
    kappa = basis.kernel_scale
    kernel = np.exp(1j * kappa * (quad.nodes @ quad.nodes.T))
    return kernel @ (quad.weights * q_nodes)


class TestPicardCoefficients:
    def test_single_mode(self, scaled_c6):
        data = eigen_data(scaled_c6, {5: 1.0})
        coeffs = picard_coefficients(data, scaled_c6)
        assert abs(coeffs[5] - 1.0) < 1e-8
        others = np.delete(coeffs, 5)
        assert np.abs(others).max() < 1e-8

    def test_zero_data(self, scaled_c6):
        data = make_grid(scaled_c6, np.zeros(len(scaled_c6.quad), dtype=complex))
        assert np.abs(picard_coefficients(data, scaled_c6)).max() == 0.0

    def test_orthogonal_component_invariance(self, scaled_c6):
        base = eigen_data(scaled_c6, {2: 1.3 + 0.4j})
        extra = eigen_data(scaled_c6, {7: -2.0, 9: 0.5j})
        combined = make_grid(scaled_c6, base.values + extra.values)
        c1 = picard_coefficients(base, scaled_c6)[2]
        c2 = picard_coefficients(combined, scaled_c6)[2]
        assert abs(c1 - c2) < 1e-8 * abs(c1)

    def test_linearity(self, scaled_c6):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(len(scaled_c6.quad)) + 1j * rng.standard_normal(len(scaled_c6.quad))
        v = rng.standard_normal(len(scaled_c6.quad))
        ca = picard_coefficients(make_grid(scaled_c6, u), scaled_c6)
        cb = picard_coefficients(make_grid(scaled_c6, v + 0j), scaled_c6)
        cab = picard_coefficients(make_grid(scaled_c6, u + 2.0 * v), scaled_c6)
        assert np.abs(cab - (ca + 2.0 * cb)).max() < 1e-12 * np.abs(cab).max()

    def test_node_mismatch_rejected(self, scaled_c6):
        data = make_grid(scaled_c6, np.zeros(len(scaled_c6.quad), dtype=complex))
        shifted = DataGrid(nodes=data.nodes + 1e-9, weights=data.weights,
                           values=data.values, flags=data.flags)
        with pytest.raises(ParameterError):
            picard_coefficients(shifted, scaled_c6)

    @pytest.mark.parametrize("scale", [1.0 + 1e-15, -1.0])
    def test_weight_mismatch_rejected(self, scaled_c6, scale):
        # the weights must be the basis rule's bit for bit, as the nodes must
        weights = scaled_c6.quad.weights.copy()
        weights[0] *= scale
        data = DataGrid(nodes=scaled_c6.quad.nodes, weights=weights,
                        values=np.ones(len(weights), dtype=complex),
                        flags=np.zeros(len(weights), dtype=np.uint8))
        for call in (lambda: picard_coefficients(data, scaled_c6),
                     lambda: reconstruct(data, scaled_c6, alpha=0.01),
                     lambda: P.extrapolate(data, scaled_c6, np.zeros((1, 2)))):
            with pytest.raises(ParameterError, match="weights must match"):
                call()

    def test_effective_weights_zero_missing_nodes(self, scaled_c6):
        flags = np.zeros(len(scaled_c6.quad), dtype=np.uint8)
        flags[:3] = 1
        data = make_grid(scaled_c6, np.zeros(len(flags), dtype=complex), flags=flags)
        w = effective_weights(data, scaled_c6)
        assert np.array_equal(w, np.where(flags == 0, scaled_c6.quad.weights, 0.0))

    def test_refuses_poor_coverage(self, scaled_c6):
        n = len(scaled_c6.quad)
        flags = np.zeros(n, dtype=np.uint8)
        order = np.argsort(-scaled_c6.quad.weights)
        cum = np.cumsum(scaled_c6.quad.weights[order])
        flags[order[: np.searchsorted(cum, 0.2 * cum[-1]) + 1]] = 1
        data = make_grid(scaled_c6, np.zeros(n, dtype=complex), flags=flags)
        with pytest.raises(DataCoverageError):
            picard_coefficients(data, scaled_c6)


class TestProjection:
    """The real-GEMM projection against the explicit psi_hat = psi / ||psi|| formula."""

    @pytest.mark.parametrize("alpha", [1e-1, 1e-2, 1e-3])
    def test_reconstruct_matches_explicit_psi_hat(self, disk_c5, alpha):
        basis = disk_c5.dilated(2.5)
        rng = np.random.default_rng(11)
        n = len(basis.quad)
        flags = (rng.uniform(size=n) < 0.02).astype(np.uint8)
        data = make_grid(basis, rng.standard_normal(n) + 1j * rng.standard_normal(n), flags)
        rec = reconstruct(data, basis, alpha)
        w = np.where(data.valid, data.weights, 0.0)
        psi_hat = basis.node_values / basis.mode_norms[:, None]
        keep = basis.cutoff(alpha)[0]
        coeffs = (psi_hat @ (w * data.values) / basis.mu)[keep]
        node_field = coeffs @ psi_hat[keep]
        predicted = (coeffs * basis.mu[keep]) @ psi_hat[keep]
        residual = (np.sqrt(np.sum(w * np.abs(predicted - data.values) ** 2))
                    / np.sqrt(np.sum(w * np.abs(data.values) ** 2)))
        assert np.abs(rec.coefficients - coeffs).max() <= 1e-13 * np.abs(coeffs).max()
        assert np.abs(rec.node_field - node_field).max() <= 1e-13 * np.abs(node_field).max()
        assert abs(rec.diagnostics["residual"] - residual) <= 1e-13 * residual

    def test_block_of_columns_matches_single_columns(self, scaled_c6):
        rng = np.random.default_rng(4)
        n = len(scaled_c6.quad)
        values = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        block = picard_coefficients(make_grid(scaled_c6, values[:, 0]), scaled_c6, values)
        assert block.shape == (len(scaled_c6.modes), 3)
        for k in range(3):
            single = picard_coefficients(make_grid(scaled_c6, values[:, k]), scaled_c6)
            assert np.abs(block[:, k] - single).max() <= 1e-14 * np.abs(single).max()

    def test_reconstruct_makes_no_modes_by_nodes_temporary(self, disk_c5):
        # the node values are multiplied as real numbers: no psi_hat array and
        # no complex copy of them, so the peak stays far below one modes x N array
        basis = disk_c5.dilated(2.5)
        n = len(basis.quad)
        data = make_grid(basis, np.exp(1j * np.arange(n) / 7.0))
        reconstruct(data, basis, 1e-3)  # cached per-mode arrays are built outside the trace
        tracemalloc.start()
        try:
            reconstruct(data, basis, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.node_values.nbytes / 4, peak

    def test_load_scale_reconstruct_builds_no_node_table(self, disk_c5, tmp_path):
        # a disk basis holds radial factors and forms its products ring by
        # ring, so reading it from the cache and reconstructing never makes a
        # modes x N array
        path = tmp_path / "disk.gpswf"
        P.save_disk_basis(path, disk_c5)
        nodes = disk_c5.dilated(2.5).quad
        data = make_grid(disk_c5.dilated(2.5),
                         np.exp(1j * np.arange(len(nodes)) / 7.0))
        tracemalloc.start()
        try:
            basis = P.load_basis(path).dilated(2.5)
            reconstruct(data, basis, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "node_values" not in vars(basis)
        assert peak < len(disk_c5.modes) * len(nodes) * 8 / 4, peak

    def test_symset_products_are_the_real_matmul(self, symset_disk_c5):
        # the symmetric-set products are the node-value products, bit for bit
        basis = symset_disk_c5
        rng = np.random.default_rng(6)
        n = len(basis.quad)
        u = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        w = rng.standard_normal(len(basis.modes)) + 1j * rng.standard_normal(len(basis.modes))
        keep = np.arange(len(basis.modes)) % 3 != 0
        assert np.array_equal(project(basis, u, 2.0),
                              (real_matmul(basis.node_values, u).T / (basis.mode_norms * 2.0)).T)
        assert np.array_equal(expand(basis, w, keep),
                              real_matmul(basis.node_values.T,
                                          np.where(keep, w / basis.mode_norms, 0.0)))


class TestBetaOfAlpha:
    def test_singleton_cutoff(self, scaled_c6):
        chi0 = scaled_c6.chis[0]
        alpha = 1.0 / (chi0 + 1e-6)
        beta = scaled_c6.cutoff(alpha)[1]
        expected = scaled_c6.radius**2 * abs(scaled_c6.modes["alpha"][0])
        assert beta == pytest.approx(expected, rel=1e-14)

    def test_empty_cutoff_raises(self, scaled_c6):
        with pytest.raises(EmptyCutoffError):
            scaled_c6.cutoff(1.0 / scaled_c6.chis[0])[1]

    def test_nonincreasing_as_alpha_decreases(self, scaled_c6):
        chis = scaled_c6.chis
        alphas = np.geomspace(0.99 / chis.min(), 1.01 / chis.max(), 20)
        betas = [scaled_c6.cutoff(a)[1] for a in alphas]
        # alphas descend, so the cutoff set grows and beta cannot increase
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(betas, betas[1:]))


@pytest.mark.parametrize("name", ["scaled_c6", "symset_disk_c5"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
def test_cutoff_refuses_alpha(request, name, alpha):
    # one check and one message on both bases, also through the projector; alpha = 0
    # would keep every mode of a set unregularized
    basis = request.getfixturevalue(name)
    message = f"alpha must be a finite number > 0, got {alpha!r}"
    with pytest.raises(ParameterError) as info:
        basis.cutoff(alpha)
    assert str(info.value) == message
    with pytest.raises(ParameterError) as info:
        P.project_pi_alpha(np.ones(len(basis.quad)), basis, alpha)
    assert str(info.value) == message


class TestReconstructFull:
    def test_exact_recovery_of_band_limited(self, scaled_c6):
        rng = np.random.default_rng(4)
        idx = rng.choice(12, 6, replace=False)
        coeffs = {int(i): complex(v) for i, v in zip(idx, rng.standard_normal(6))}
        data = eigen_data(scaled_c6, coeffs)
        chi_max = scaled_c6.chis[max(coeffs)]
        rec = reconstruct(data, scaled_c6, alpha=0.99 / chi_max)
        psi_hat = scaled_c6.node_values / scaled_c6.mode_norms[:, None]
        want = np.zeros(len(scaled_c6.quad), dtype=complex)
        for i, cf in coeffs.items():
            want += cf * psi_hat[i]
        w = scaled_c6.quad.weights
        err = np.sqrt(np.sum(w * np.abs(rec.node_field - want) ** 2))
        assert err < 1e-8 * np.sqrt(np.sum(w * np.abs(want) ** 2))

    def test_fewer_modes_for_larger_alpha(self, scaled_c6):
        data = eigen_data(scaled_c6, {0: 1.0})
        chis = sorted(scaled_c6.chis)
        small = reconstruct(data, scaled_c6, alpha=0.99 / chis[-1])
        large = reconstruct(data, scaled_c6, alpha=1.01 / chis[2])
        assert large.diagnostics["mode_count"] < small.diagnostics["mode_count"]
        assert large.beta_alpha >= small.beta_alpha

    def test_noise_amplification_bound(self, scaled_c6):
        n = len(scaled_c6.quad)
        rng = np.random.default_rng(12)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = scaled_c6.quad.weights
        delta = 1e-2
        raw *= delta / np.sqrt(np.sum(w * np.abs(raw) ** 2))
        data = make_grid(scaled_c6, raw)
        for alpha in (0.02, 0.005, 0.002):
            rec = reconstruct(data, scaled_c6, alpha=alpha)
            norm = np.sqrt(np.sum(w * np.abs(rec.node_field) ** 2))
            assert norm <= delta / rec.beta_alpha * (1.0 + 1e-12)

    def test_error_bound_small_sweep(self, scaled_c6, wnorm):
        rng = np.random.default_rng(9)
        coeffs = {int(i): complex(v) for i, v in zip(range(8), rng.standard_normal(8))}
        clean = eigen_data(scaled_c6, coeffs)
        psi_hat = scaled_c6.node_values / scaled_c6.mode_norms[:, None]
        q_nodes = np.zeros(len(scaled_c6.quad), dtype=complex)
        for i, cf in coeffs.items():
            q_nodes += cf * psi_hat[i]
        w = scaled_c6.quad.weights
        u_norm = clean.weighted_norm()
        delta = 1e-2
        chis = scaled_c6.chis
        for alpha in np.geomspace(0.9 / chis.min(), 1.2 / chis.max(), 8):
            noisy = add_noise(clean, delta / u_norm, 5)
            rec = reconstruct(noisy, scaled_c6, alpha=float(alpha))
            proj = P.project_pi_alpha(q_nodes, scaled_c6, float(alpha))
            bound = delta / rec.beta_alpha + wnorm(w, q_nodes - proj)
            assert wnorm(w, rec.node_field - q_nodes) <= bound * (1.0 + 1e-10)

    def test_monotone_convergence_with_mode_count(self, scaled_c6, wnorm):
        # noiseless data: deeper cutoffs only improve the best approximation
        rng = np.random.default_rng(2)
        q_nodes = np.exp(-np.hypot(*scaled_c6.quad.nodes.T) ** 2)
        data = make_grid(scaled_c6, discrete_forward(scaled_c6, q_nodes))
        w = scaled_c6.quad.weights
        chis = scaled_c6.chis
        errs = []
        for alpha in (1.0 / 20.0, 1.0 / 50.0, 1.0 / 90.0, 0.99 / chis.max()):
            rec = reconstruct(data, scaled_c6, alpha=float(alpha))
            errs.append(wnorm(w, rec.node_field - q_nodes))
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_realify_diagnostic(self, scaled_c6, wnorm):
        # the field stays complex; the diagnostic is the norm of the imaginary
        # part that a real field (the field CSV) drops, here 0.5 ||psi_hat_1||
        data = eigen_data(scaled_c6, {1: 1.0 + 0.5j})
        rec = reconstruct(data, scaled_c6, alpha=1.0 / 40.0)
        dropped = rec.diagnostics["dropped_imag_norm"]
        assert dropped == pytest.approx(wnorm(scaled_c6.quad.weights, rec.node_field.imag))
        assert dropped == pytest.approx(0.5, rel=1e-8)
        assert reconstruct(eigen_data(scaled_c6, {1: 1.0}), scaled_c6,
                           alpha=1.0 / 40.0).diagnostics["dropped_imag_norm"] < 1e-12

    def test_result_file_round_trip(self, scaled_c6, tmp_path):
        data = eigen_data(scaled_c6, {0: 2.0})
        rec = reconstruct(data, scaled_c6, alpha=1.0 / 30.0)
        path = tmp_path / "rec.json"
        write_result(path, rec)
        back = read_result(path)
        assert back["alpha"] == rec.alpha
        assert back["beta_alpha"] == rec.beta_alpha
        assert len(back["modes"]) == rec.diagnostics["mode_count"]
        ids = [m["id"] for m in back["modes"]]
        assert [0, 0, 1] in ids

    def test_result_ids_pinned(self, symset_disk_c5, tmp_path):
        # rec.json names disk modes by [m, n, ell] and symset modes by index, as
        # JSON integers (json.loads reads `true` as 1, so the ids are compared as text)
        disk = P.compute_disk_basis(5.0, 1, 1).dilated(2.5)
        for basis, rec, want in (
                (disk, reconstruct, "[[0, 0, 1], [1, 0, 1], [1, 0, 2]]"),
                (symset_disk_c5, reconstruct, "[0, 1, 2]")):
            mu = np.abs(basis.mu)
            alpha = 1.0 / 20.0 if basis is disk else 0.5 * (mu[2] + mu[3])
            path = tmp_path / "rec.json"
            write_result(path, rec(eigen_data(basis, {0: 1.0}), basis, alpha))
            assert json.dumps([m["id"] for m in read_result(path)["modes"]]) == want


class TestReconstructPartial:
    def test_single_mode_recovery(self, symset_disk_c5):
        data = eigen_data(symset_disk_c5, {3: 2.5})
        mags = np.abs(symset_disk_c5.mu)
        rec = reconstruct(data, symset_disk_c5, alpha=0.5 * mags[3])
        assert 3 in rec.cutoff_set
        got = rec.coefficients[rec.cutoff_set.index(3)]
        assert abs(got - 2.5) < 1e-8
        others = [c for i, c in zip(rec.cutoff_set, rec.coefficients) if i != 3]
        assert np.abs(others).max() < 1e-8

    def test_empty_cutoff(self, symset_disk_c5):
        data = eigen_data(symset_disk_c5, {0: 1.0})
        with pytest.raises(EmptyCutoffError):
            reconstruct(data, symset_disk_c5, alpha=2.0 * abs(symset_disk_c5.mu[0]))

    def test_agrees_with_full_reconstruction_on_disk(self, scaled_c6, wnorm):
        # the same band-limited contrast, reconstructed through the scaled disk
        # eigensystem and through an independent Nystrom system on the same disk
        geo = P.Geometry.disk(radius=1.0, h=scaled_c6.radius)
        quad = P.build_quadrature(geo, 200, method="polar")
        sym = P.compute_symset_basis(scaled_c6.c, geo, quad, 30)
        assert sym.kernel_scale == pytest.approx(scaled_c6.kernel_scale, rel=1e-14)

        rng = np.random.default_rng(11)
        idx = [0, 1, 3, 4, 6]
        amps = rng.standard_normal(len(idx))
        psi_hat = scaled_c6.node_values / scaled_c6.mode_norms[:, None]

        def q_field(pts):
            out = np.zeros(len(np.atleast_2d(pts)))
            for a, i in zip(amps, idx):
                out += a / scaled_c6.mode_norms[i] * P.eval_psi(
                    scaled_c6, i, pts)
            return out

        data_full = make_grid(scaled_c6, discrete_forward(scaled_c6, q_field(scaled_c6.quad.nodes)))
        data_part = DataGrid(nodes=sym.quad.nodes, weights=sym.quad.weights,
                             values=discrete_forward(sym, q_field(sym.quad.nodes)),
                             flags=np.zeros(len(sym.quad), dtype=np.uint8))
        chi_cut = scaled_c6.chis[max(idx)]
        rec_full = reconstruct(data_full, scaled_c6, alpha=0.9 / chi_cut)
        mu_cut = np.abs(sym.mu[len(idx) + 10])
        rec_part = reconstruct(data_part, sym, alpha=float(mu_cut))
        probe = scaled_c6.quad
        a = rec_full.node_field
        b = rec_part.field(probe.nodes)
        qn = q_field(probe.nodes)
        scale = wnorm(probe.weights, qn)
        assert wnorm(probe.weights, a - qn) < 1e-4 * scale
        assert wnorm(probe.weights, b - qn) < 1e-4 * scale
        assert wnorm(probe.weights, a - b) < 1e-4 * scale

    def test_source_condition_stability_bound(self, symset_disk_c5, wnorm):
        basis = symset_disk_c5
        rng = np.random.default_rng(21)
        n_use = 20
        a = rng.standard_normal(n_use)
        E = float(np.linalg.norm(a))
        mags = np.abs(basis.mu[:n_use])
        psi_hat = basis.node_values[:n_use] / basis.mode_norms[:n_use, None]
        q_nodes = (a * mags) @ psi_hat  # in Range((K*K)^(1/2)) with source norm E
        data = make_grid(basis, discrete_forward(basis, q_nodes))
        w = basis.quad.weights
        u_norm = data.weighted_norm()
        sigma, c0 = 1.0, 1.0
        for ratio in (1e-2, 1e-3):
            delta = ratio * E
            noisy = add_noise(data, delta / u_norm, 31)
            alpha = choose_alpha_partial(delta, E, sigma, c0)
            rec = reconstruct(noisy, basis, alpha=alpha)
            err = wnorm(w, rec.node_field - q_nodes)
            bound = delta**0.5 * E**0.5 * (1.0 / c0 + c0)
            assert err <= bound

    def test_choose_alpha(self):
        assert choose_alpha_partial(0.5, 0.5, 2.0, 3.0) == pytest.approx(3.0)
        assert choose_alpha_partial(0.04, 1.0, 1.0, 1.0) == pytest.approx(0.2)
        a1 = choose_alpha_partial(1e-4, 1.0, 1.0, 1.0)
        a2 = choose_alpha_partial(1e-3, 1.0, 1.0, 1.0)
        assert a2 > a1
        with pytest.raises(ParameterError):
            choose_alpha_partial(0.0, 1.0, 1.0, 1.0)
        for bad, name in (((float("nan"), 1.0, 1.0, 1.0), "delta"),
                          ((0.04, 1.0, float("inf"), 1.0), "sigma"),
                          ((0.04, 1.0, 1.0, -2.0), "c0")):
            with pytest.raises(ParameterError, match=f"^{name} must be a finite number > 0"):
                choose_alpha_partial(*bad)

    def test_choose_alpha_numpy_scalars(self, disk_c5):
        # numpy scalars overflow to inf as Python floats do, with no warning
        # (the module runs under -W error), and the cutoff then refuses inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = choose_alpha_partial(np.float64(1e300), np.float64(1e-300), 1.0, 1.0)
            assert alpha == np.inf and type(alpha) is float
            assert choose_alpha_partial(np.float64(1e-300), np.float64(1e300), np.float64(1e-300),
                                        np.float64(1.0)) == 0.0
            assert choose_alpha_partial(*map(np.float64, (0.04, 1.0, 1.0, 1.0))) == \
                choose_alpha_partial(0.04, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError, match="^alpha must be a finite number > 0, got inf"):
            disk_c5.cutoff(alpha)
