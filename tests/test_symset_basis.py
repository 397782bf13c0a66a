import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import prolate as P
from prolate import symset_basis
from prolate.disk_basis import eval_psi
from prolate.errors import EmptyQuadratureError, ParameterError
from prolate.symset_basis import (Geometry, analytic_area, build_quadrature,
                                  compute_symset_basis, membership,
                                  mirror_indices, radial_profile)

from oracles import class_spectra


def beta(basis, i):
    """Signed real eigenvalue of the cos (even) or sin (odd) kernel on A for mode i."""
    alpha = basis.alphas[i]
    return alpha.real if basis.modes["even"][i] else alpha.imag


def limited_area_param_oracle(theta, n=3000):
    """|L| from the (a, b) parametrization with analytic multiplicity."""
    a = -theta + (np.arange(n) + 0.5) * (2 * theta / n)
    A, B = np.meshgrid(a, a, indexing="ij")
    mult = np.where((np.abs(A) > np.pi - theta) & (np.abs(B) > np.pi - theta), 2.0, 1.0)
    return float(np.sum(np.abs(np.sin(A - B)) / mult) * (2 * theta / n) ** 2)


class TestMembership:
    def test_multifreq_disk_center(self):
        geo = Geometry.multi_freq((1.0, 0.0))
        assert membership(geo, np.array([1.0, 0.0])) is True

    def test_full_aperture_is_disk_of_radius_two(self):
        geo = Geometry.limited_aperture(math.pi)
        assert membership(geo, np.array([1.99, 0.0]))
        assert not membership(geo, np.array([2.01, 0.0]))

    def test_limited_half_aperture_boundary_point(self):
        geo = Geometry.limited_aperture(math.pi / 2)
        assert not membership(geo, np.array([0.0, 2.0]))
        # the only generating pair sits on the closed arc ends: a dense sweep
        # over the OPEN parameter square never attains p = (0, 2)
        tt = np.linspace(-math.pi / 2, math.pi / 2, 2001)[1:-1]
        A, B = np.meshgrid(tt, tt, indexing="ij")
        px = np.cos(B) - np.cos(A)
        py = np.sin(B) - np.sin(A)
        d2 = px**2 + (py - 2.0) ** 2
        assert d2.min() > 0.0
        # while points just inside along the same direction are members
        assert membership(geo, np.array([0.0, 1.999]))

    def test_origin_interior_only_above_half_aperture(self):
        assert membership(Geometry.limited_aperture(0.6 * math.pi), np.array([0.0, 0.0]))
        assert not membership(Geometry.limited_aperture(0.5 * math.pi), np.array([0.0, 0.0]))

    def test_scale_h(self):
        geo = Geometry.disk(radius=1.0, h=2.5)
        assert membership(geo, np.array([2.4, 0.0]))
        assert not membership(geo, np.array([2.6, 0.0]))

    @given(st.floats(min_value=0.15, max_value=math.pi),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_under_negation(self, theta, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.2, 2.2, (50, 2))
        for geo in (Geometry.limited_aperture(theta),
                    Geometry.multi_freq((math.cos(theta), math.sin(theta))),
                    Geometry.disk(radius=1.3)):
            assert np.array_equal(membership(geo, pts), membership(geo, -pts))

    def test_symmetry_ten_thousand_points(self):
        rng = np.random.default_rng(123)
        pts = rng.uniform(-2.2, 2.2, (10_000, 2))
        for geo in (Geometry.limited_aperture(2.0), Geometry.multi_freq((0.6, 0.8)),
                    Geometry.disk(radius=1.4)):
            assert np.array_equal(membership(geo, pts), membership(geo, -pts))

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 0.55 * math.pi, 2.2, 2.35619449,
                                       0.85 * math.pi, math.pi])
    def test_limited_membership_matches_closed_form(self, theta):
        # p / h = e(b) - e(a) with a, b in (-Theta, Theta) is 2 sin(d) e(m +- pi/2)
        # with m = (a + b) / 2 and |d| = (b - a) / 2, so p is in L(Theta)_h iff
        # |p| < 2h and asin(|p| / 2h) + min |wrap(arg p -+ pi/2)| < Theta; checked on
        # every midpoint-grid centre `build_quadrature` tests, off the boundary
        for h in (1.0, 5.0):
            geo = Geometry.limited_aperture(theta, h=h)
            grids = []
            for resolution in range(8, 131):
                step = 4.0 * h / resolution
                c = step * (np.arange(resolution) - (resolution - 1) / 2.0)
                grids.append(np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2))
            pts = np.concatenate(grids)
            r = np.hypot(pts[:, 0], pts[:, 1]) / h
            phi = np.arctan2(pts[:, 1], pts[:, 0])
            m = np.minimum(*(np.abs((phi + shift + math.pi) % (2.0 * math.pi) - math.pi)
                             for shift in (-math.pi / 2, math.pi / 2)))
            f = np.arcsin(np.clip(r / 2.0, 0.0, 1.0)) + m
            clear = (np.abs(f - theta) > 1e-12) & (np.abs(r - 2.0) > 1e-12)
            assert clear.mean() > 0.99
            got = membership(geo, pts)[clear]
            assert np.array_equal(got, ((r < 2.0) & (f < theta))[clear])

    def test_membership_against_parameter_sweep(self):
        theta = 2.0
        geo = Geometry.limited_aperture(theta)
        tt = np.linspace(-theta, theta, 1200)[1:-1]
        A, B = np.meshgrid(tt, tt, indexing="ij")
        cloud = np.stack([(np.cos(B) - np.cos(A)).ravel(), (np.sin(B) - np.sin(A)).ravel()], axis=1)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2.0, 2.0, (300, 2))
        near = np.min(np.sum((pts[:, None, :] - cloud[None, ::37, :]) ** 2, axis=2), axis=1)
        got = membership(geo, pts)
        # every member must be close to the attained set; strongly exterior
        # points must never be members
        assert np.all(near[got] < 0.05)
        assert not np.any(got[near > 0.25])


class TestGeometryFields:
    @pytest.mark.parametrize("field,value", [
        *[(name, bad) for name in ("h", "radius", "theta")
          for bad in ("1", None, True, math.nan, math.inf, -math.inf)],
        *[(name, bad) for name in ("h", "radius") for bad in (0.0, -1.0)],
        ("theta", 0.0), ("theta", 3.2),
        ("x_star", (1.0,)), ("x_star", (0.6, 0.8, 7.0)), ("x_star", (0.6, 0.7)),
        ("x_star", (math.nan, 1.0)), ("x_star", None), ("x_star", (True, 0.0)),
    ])
    def test_refuses_a_bad_field_by_name(self, field, value):
        kind = {"radius": "disk", "theta": "limited_aperture"}.get(field, "multi_freq")
        with pytest.raises(ParameterError, match=f"geometry '{field}'"):
            Geometry(kind=kind, **{field: value})

    @pytest.mark.parametrize("kind", ["annulus", ["disk"], None])
    def test_refuses_an_unknown_kind(self, kind):
        with pytest.raises(ParameterError, match="unknown geometry kind"):
            Geometry(kind=kind)
        with pytest.raises(ParameterError, match="unknown geometry kind"):
            Geometry.from_dict({"kind": kind, "h": 1.0})

    def test_fields_become_floats(self):
        geo = Geometry.multi_freq(np.array([0, 1]), h=2)
        assert geo.x_star == (0.0, 1.0) and type(geo.x_star[0]) is float
        assert type(geo.h) is float and geo.to_dict() == {"kind": "multi_freq", "h": 2.0,
                                                          "x_star": [0.0, 1.0]}

    def test_matches_up_to_rounding(self):
        for geo, near, far in [
            (Geometry.disk(1.3, h=2.0), Geometry.disk(1.3 + 1e-12, h=2.0 * (1 + 1e-12)),
             Geometry.disk(1.3 + 1e-6, h=2.0)),
            (Geometry.limited_aperture(2.2, h=5.0), Geometry.limited_aperture(2.2 + 1e-12, h=5.0),
             Geometry.limited_aperture(2.2, h=5.0 * (1 + 1e-6))),
            (Geometry.multi_freq((0.6, 0.8)), Geometry.multi_freq((0.6 + 1e-12, 0.8)),
             Geometry.multi_freq((0.8, 0.6))),
        ]:
            assert geo.matches(geo) and geo.matches(near) and not geo.matches(far)
        assert not Geometry.disk(h=5.0).matches(Geometry.limited_aperture(math.pi, h=5.0))


class TestAreas:
    def test_limited_area_against_parameter_oracle(self):
        for theta in (math.pi, 3 * math.pi / 4, math.pi / 2, math.pi / 4):
            geo = Geometry.limited_aperture(theta)
            assert analytic_area(geo) == pytest.approx(limited_area_param_oracle(theta), rel=5e-6)

    def test_known_values(self):
        assert analytic_area(Geometry.limited_aperture(math.pi)) == pytest.approx(4 * math.pi, rel=1e-8)
        assert analytic_area(Geometry.limited_aperture(math.pi / 2)) == pytest.approx(2 * math.pi, rel=1e-8)
        assert analytic_area(Geometry.limited_aperture(math.pi / 4)) == pytest.approx(math.pi - 2, rel=1e-7)
        assert analytic_area(Geometry.multi_freq((0.0, 1.0), h=2.0)) == pytest.approx(8 * math.pi)
        assert analytic_area(Geometry.disk(radius=1.5, h=2.0)) == pytest.approx(math.pi * 9.0)


    @pytest.mark.parametrize("h", [1.0, 2.5])
    def test_limited_closed_form_exact_values(self, h):
        assert analytic_area(Geometry.limited_aperture(math.pi, h=h)) == pytest.approx(
            4 * math.pi * h * h, rel=4e-16)
        assert analytic_area(Geometry.limited_aperture(math.pi / 2, h=h)) == pytest.approx(
            2 * math.pi * h * h, rel=4e-16)
        # F(pi/4) = pi/2 - 1 and F(3pi/4) = 2 pi (see analytic_area)
        assert analytic_area(Geometry.limited_aperture(math.pi / 4, h=h)) == pytest.approx(
            (math.pi - 2) * h * h, rel=1e-15)
        assert analytic_area(Geometry.limited_aperture(3 * math.pi / 4, h=h)) == pytest.approx(
            (3 * math.pi + 2) * h * h, rel=1e-15)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.356, 2.9])
    def test_limited_closed_form_matches_profile_sum(self, theta):
        # the midpoint sum of rho^2 / 2 over 200,000 angles, accurate to about 1e-9
        geo = Geometry.limited_aperture(theta, h=1.7)
        n = 200_000
        rho = radial_profile(geo, 2.0 * math.pi * (np.arange(n) + 0.5) / n)
        summed = 0.5 * np.sum(rho**2) * (2.0 * math.pi / n) * geo.h**2
        assert analytic_area(geo) == pytest.approx(summed, rel=1e-8)


class TestBuildQuadrature:
    def test_disk_measure(self):
        quad = build_quadrature(Geometry.disk(radius=1.0), 400)
        assert quad.total_weight == pytest.approx(math.pi, rel=1e-3)

    def test_multifreq_measure_midpoint(self):
        quad = build_quadrature(Geometry.multi_freq((1.0, 0.0)), 400, method="midpoint")
        assert quad.total_weight == pytest.approx(2 * math.pi, rel=1e-3)

    def test_multifreq_polar_exact(self):
        quad = build_quadrature(Geometry.multi_freq((0.6, 0.8)), 64, method="polar")
        assert quad.total_weight == pytest.approx(2 * math.pi, rel=1e-12)

    def test_midpoint_refinement_reduces_boundary_error(self):
        geo = Geometry.disk(radius=1.0)
        e200 = abs(build_quadrature(geo, 200, method="midpoint").total_weight - math.pi)
        e400 = abs(build_quadrature(geo, 400, method="midpoint").total_weight - math.pi)
        assert e400 <= e200 / 2.0

    def test_limited_polar_tracks_area(self):
        geo = Geometry.limited_aperture(3 * math.pi / 4, h=1.0)
        quad = build_quadrature(geo, 256, method="polar")
        assert quad.total_weight == pytest.approx(analytic_area(geo), rel=2e-4)

    def test_nodes_symmetric(self):
        for geo, method in ((Geometry.limited_aperture(2.2), "midpoint"),
                            (Geometry.limited_aperture(2.2), "polar"),
                            (Geometry.multi_freq((1.0, 0.0)), "polar"),
                            (Geometry.disk(), "polar")):
            quad = build_quadrature(geo, 48, method=method)
            mirror = mirror_indices(quad)
            assert np.array_equal(quad.nodes[mirror], -quad.nodes)

    @pytest.mark.parametrize("geo,resolution,method", [
        (Geometry.limited_aperture(2.2), 48, "midpoint"),
        (Geometry.limited_aperture(0.85 * math.pi), 112, "polar"),
        (Geometry.limited_aperture(0.55 * math.pi), 113, "polar"),
        (Geometry.disk(radius=1.3, h=2.0), 120, "polar"),
        (Geometry.limited_aperture(0.75 * math.pi, h=2.0), 41, "midpoint"),
        (Geometry.multi_freq((1.0, 0.0)), 40, "midpoint"),
    ])
    def test_reflection_in_the_x_axis_is_exact(self, geo, resolution, method):
        # the angle tables are symmetrized about pi/2, so cos(pi - t) is
        # bitwise -cos t (most L polar nodes had no bitwise mirror otherwise)
        quad = build_quadrature(geo, resolution, method=method)
        assert quad.axis == (1.0, 0.0)
        assert np.array_equal(quad.nodes[quad.reflection], quad.nodes * [1.0, -1.0])

    def test_multifreq_polar_laid_out_in_the_x_star_frame(self):
        geo = Geometry.multi_freq((math.cos(2.0), math.sin(2.0)), h=1.5)
        quad = build_quadrature(geo, 96, method="polar")
        assert len(quad) == 2 * 12 * 24  # n_r = 12 radii, n_t = 24 angles per disk
        assert quad.axis == geo.x_star
        e = np.array(geo.x_star)
        u, v = quad.nodes @ e, quad.nodes @ np.array([-e[1], e[0]])
        assert np.abs(u[quad.reflection] - u).max() <= 1e-15
        assert np.abs(v[quad.reflection] + v).max() <= 1e-15
        assert np.array_equal(quad.weights[quad.reflection], quad.weights)
        assert quad.total_weight == pytest.approx(analytic_area(geo), rel=1e-13)

    @pytest.mark.parametrize("x_star,resolution", [((0.6, 0.8), 40), ((0.0, 1.0), 41),
                                                   ((math.cos(1.1), math.sin(1.1)), 45)])
    def test_multifreq_midpoint_generic_axis_records_its_reflection(self, x_star, resolution):
        # the grid is laid out in the x* frame: its frame coordinates are
        # centres of the x* = (1, 0) grid, and the rule records its reflection in x*
        geo = Geometry.multi_freq(x_star, h=1.5)
        quad = build_quadrature(geo, resolution, method="midpoint")
        assert quad.axis == geo.x_star
        e = np.array(geo.x_star)
        u, v = quad.nodes @ e, quad.nodes @ np.array([-e[1], e[0]])
        assert np.abs(u[quad.reflection] - u).max() <= 1e-15
        assert np.abs(v[quad.reflection] + v).max() <= 1e-15
        cell = np.stack([u, v], axis=1) / (4.0 * geo.h / resolution) + (resolution - 1) / 2.0
        assert np.abs(cell - np.round(cell)).max() <= 1e-12

    @pytest.mark.parametrize("resolution", [39, 78, 170])
    def test_midpoint_rule_symmetric_by_construction(self, resolution):
        # at these resolutions some boundary cells of L(pi/2) test inside
        # while their mirror cells test outside; the rule keeps neither
        geo = Geometry.limited_aperture(math.pi / 2)
        quad = build_quadrature(geo, resolution, method="midpoint")
        mirror = mirror_indices(quad)
        assert np.array_equal(quad.nodes[mirror], -quad.nodes)
        assert membership(geo, quad.nodes).all() and membership(geo, -quad.nodes).all()
        step = 4.0 / resolution
        centers = step * (np.arange(resolution) - (resolution - 1) / 2.0)
        grid = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1).reshape(-1, 2)
        assert len(quad) < membership(geo, grid).sum()

    def test_resolution_floor(self):
        with pytest.raises(ParameterError):
            build_quadrature(Geometry.disk(), 4)

    def test_empty_set_raises(self):
        geo = Geometry.limited_aperture(0.05)
        with pytest.raises(EmptyQuadratureError):
            build_quadrature(geo, 8, method="midpoint")


class TestEigensystem:
    def test_top_alphas_match_disk_basis(self, disk_c5, symset_disk_c5):
        galerkin = np.sort(np.abs(disk_c5.modes["alpha"]))[::-1][:20]
        nystrom = np.abs(symset_disk_c5.alphas[:20])
        assert np.abs(nystrom - galerkin).max() / galerkin.min() < 1e-4

    def test_hilbert_schmidt_sum_rule(self, symset_disk_c5):
        # the complete spectra from a dense solve here, against the stored sum
        total = float(sum(np.sum(vals**2) for vals in class_spectra(symset_disk_c5)))
        assert symset_disk_c5.hs_norm2 == pytest.approx(total, rel=1e-12)
        assert total == pytest.approx(symset_disk_c5.quad.total_weight**2, rel=1e-12)
        assert total == pytest.approx(math.pi**2, rel=1e-3)

    def test_parity_types(self, symset_disk_c5):
        for even, alpha, _ in symset_disk_c5.modes.tolist():
            if even:
                assert alpha.imag == 0.0
            else:
                assert alpha.real == 0.0
            assert abs(alpha) > 0.0

    def test_mode_parity_on_nodes(self, symset_disk_c5):
        mirror = mirror_indices(symset_disk_c5.quad)
        for even, v in zip(symset_disk_c5.modes["even"][:12], symset_disk_c5.node_values):
            sgn = 1.0 if even else -1.0
            dev = np.abs(v[mirror] - sgn * v).max()
            assert dev < 1e-8 * np.abs(v).max()

    def test_weighted_norms(self, symset_disk_c5):
        w = symset_disk_c5.quad.weights
        for i, v in enumerate(symset_disk_c5.node_values):
            n2 = float(np.sum(w * v**2))
            assert n2 == pytest.approx(symset_disk_c5.mode_norms[i] ** 2, rel=1e-10)

    def test_ordering_by_modulus(self, symset_disk_c5):
        mags = np.abs(symset_disk_c5.alphas)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_validation_report(self, symset_disk_c5):
        report = P.validate_basis(symset_disk_c5)
        assert all(chk["passed"] for chk in report), report

    def test_nystrom_resolution_convergence(self):
        geo = Geometry.disk(radius=1.0)
        tops = []
        for res in (96, 192, 384):
            quad = build_quadrature(geo, res, method="polar")
            basis = compute_symset_basis(5.0, geo, quad, 10)
            tops.append(np.abs(basis.alphas[:10]))
        d1 = np.abs(tops[1] - tops[0]).max()
        d2 = np.abs(tops[2] - tops[1]).max()
        assert d2 < 10.0 * max(d1, 1e-15)

    def test_aperture_trend(self):
        counts = []
        for theta in (math.pi, 3 * math.pi / 4, math.pi / 2, math.pi / 4):
            geo = Geometry.limited_aperture(theta)
            quad = build_quadrature(geo, 96, method="polar")
            basis = compute_symset_basis(5.0, geo, quad, min(60, len(quad) // 2))
            mags = np.abs(basis.alphas)
            counts.append(int(np.sum(mags > 1e-3 * mags[0])))
        assert counts == sorted(counts, reverse=True)

    def test_signs_do_not_depend_on_the_eigensolver(self, monkeypatch):
        # the README L(3pi/4) basis from `top_eigenpairs` and from scipy's MRRR
        # solver (evr): every mode keeps its sign (the argmax |v| rule flipped 3 of these 30)
        geo = Geometry.limited_aperture(2.35619449, h=5.0)
        quad = build_quadrature(geo, 96, method="polar")
        reference = compute_symset_basis(5.0, geo, quad, 30)

        def mrrr(a, k):
            vals, vecs = scipy.linalg.eigh(a, driver="evr")
            top = np.argsort(-np.abs(vals))[:k]
            return vals[top], vecs[:, top], np.zeros(len(top))

        monkeypatch.setattr(symset_basis, "top_eigenpairs", mrrr)
        other = compute_symset_basis(5.0, geo, quad, 30)
        w = quad.weights
        assert np.array_equal(reference.modes["even"], other.modes["even"])
        for a, b in zip(reference.node_values, other.node_values):
            overlap = np.sum(w * a * b) / np.sum(w * a**2)
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_requires_modest_mode_count(self):
        geo = Geometry.disk()
        quad = build_quadrature(geo, 24, method="polar")
        with pytest.raises(ParameterError):
            compute_symset_basis(5.0, geo, quad, len(quad))


class TestEval:
    def test_node_consistency(self, symset_disk_c5):
        idx = [0, 3, 7]
        sample = symset_disk_c5.quad.nodes[::29]
        for i in idx:
            got = eval_psi(symset_disk_c5, i, sample)
            want = symset_disk_c5.node_values[i, ::29]
            assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()

    def test_even_mode_symmetry(self, symset_disk_c5):
        i = int(np.flatnonzero(symset_disk_c5.modes["even"])[0])
        pts = np.random.default_rng(2).uniform(-0.9, 0.9, (25, 2))
        a = eval_psi(symset_disk_c5, i, pts)
        b = eval_psi(symset_disk_c5, i, -pts)
        assert np.abs(a - b).max() < 1e-10 * np.abs(a).max()

    def test_exterior_extension_residual(self, symset_disk_c5):
        # the Nystrom interpolant must satisfy the continuous eigenrelation:
        # evaluate it on a finer independent rule and integrate the kernel
        basis = symset_disk_c5
        fine = build_quadrature(basis.geometry, 400, method="polar")
        pts = np.array([[1.4, 0.3], [2.2, -0.8]])
        for i in (0, 1, 2):
            even = basis.modes["even"][i]
            vals_fine = eval_psi(basis, i, fine.nodes)
            lam = beta(basis, i) * basis.geometry.h**2
            for p in pts:
                kernel = np.exp(1j * basis.kernel_scale * (fine.nodes @ p))
                rhs = np.sum(fine.weights * kernel * vals_fine)
                lhs = (lam if even else 1j * lam) * eval_psi(basis, i, p)
                assert abs(lhs - rhs) < 1e-7 * np.abs(basis.node_values[i]).max()

    def test_combine_memory_is_blocked(self):
        # a 64^2 field on the N = 3,200 L(3 pi/4) polar basis: the dense
        # 4,096 x 3,200 phase matrix and its cosine would take about 210 MB
        geo = Geometry.limited_aperture(0.75 * math.pi, h=5.0)
        quad = build_quadrature(geo, 160, method="polar")
        assert len(quad) == 3200
        basis = compute_symset_basis(5.0, geo, quad, 40)
        w = np.random.default_rng(3).standard_normal(len(basis.modes))
        g = np.linspace(-10.0, 10.0, 64)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        assert basis.node_values.shape == (40, 3200)  # cached before tracing
        tracemalloc.start()
        try:
            field = basis.combine(w, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        # a point subset fits in one block, so it checks the block seams
        sub = basis.combine(w, pts[::97])
        assert np.abs(field[::97] - sub).max() <= 1e-12 * np.abs(field).max()


def unfolded_reference(c, geo, quad):
    """Eigenpairs of the full N x N cos and sin Nystrom matrices, |lambda| descending,
    with eigenvectors mapped to node values of unit weighted norm."""
    sw = np.sqrt(quad.weights)
    gram = (c / geo.h**2) * (quad.nodes @ quad.nodes.T)
    out = {}
    for parity, kernel in (("even", np.cos), ("odd", np.sin)):
        vals, vecs = np.linalg.eigh(sw[:, None] * kernel(gram) * sw[None, :])
        order = np.argsort(-np.abs(vals))
        out[parity] = (vals[order], vecs[:, order])
    return out


FOLD_CASES = {
    "disk_polar": (Geometry.disk(), 96, "polar"),
    "L_polar": (Geometry.limited_aperture(0.75 * math.pi), 8, "polar"),
    "M_polar": (Geometry.multi_freq((0.6, 0.8)), 16, "polar"),
    "M_midpoint_odd": (Geometry.multi_freq((1.0, 0.0)), 25, "midpoint"),
    "M_midpoint_generic": (Geometry.multi_freq((math.cos(1.1), math.sin(1.1))), 25, "midpoint"),
    "L_midpoint_odd": (Geometry.limited_aperture(0.75 * math.pi, h=2.0), 25, "midpoint"),
}


class TestParityFold:
    """The folded solve against the unfolded N x N eigenproblems built here.

    Every rule folds over p -> -p and the reflection in the set's axis.
    """

    N_MODES = 20

    @pytest.fixture(scope="class", params=sorted(FOLD_CASES))
    def case(self, request):
        geo, res, method = FOLD_CASES[request.param]
        quad = build_quadrature(geo, res, method=method)
        basis = compute_symset_basis(5.0, geo, quad, self.N_MODES)
        return basis, unfolded_reference(5.0, geo, quad)

    def test_case_sizes(self, case):
        basis, _ = case
        assert 200 <= len(basis.quad) <= 800
        n_half = (len(basis.quad) + 1) // 2
        spectra = class_spectra(basis)
        assert len(spectra[0]) + len(spectra[1]) == n_half
        assert len(spectra[2]) + len(spectra[3]) == len(basis.quad) // 2

    def test_top_eigenvalues(self, case):
        # the dense spectra of the even (cos) and odd (sin) class blocks, and the
        # kept eigenvalues of each parity, against the unfolded solves
        basis, ref = case
        top = 2 * self.N_MODES + 8
        lam0 = max(abs(ref["even"][0][0]), abs(ref["odd"][0][0]))
        spectra = class_spectra(basis)
        for parity, even, blocks in (("even", True, spectra[:2]), ("odd", False, spectra[2:])):
            spectrum = np.concatenate(blocks)
            folded = spectrum[np.argsort(-np.abs(spectrum))][:top]
            assert np.abs(folded - ref[parity][0][:top]).max() <= 1e-12 * lam0
            kept = [beta(basis, i) * basis.geometry.h**2
                    for i in np.flatnonzero(basis.modes["even"] == even)]
            assert np.abs(kept - ref[parity][0][:len(kept)]).max() <= 1e-12 * lam0

    def test_hilbert_schmidt_sums(self, case):
        # the dense spectra of the class blocks carry each parity's weight, and
        # the stored sum of squared block norms carries both
        basis, ref = case
        spectra = class_spectra(basis)
        for parity, blocks in (("even", spectra[:2]), ("odd", spectra[2:])):
            folded = float(sum(np.sum(vals**2) for vals in blocks))
            assert folded == pytest.approx(float(np.sum(ref[parity][0] ** 2)), rel=1e-12)
        full = float(np.sum(ref["even"][0] ** 2) + np.sum(ref["odd"][0] ** 2))
        assert basis.hs_norm2 == pytest.approx(full, rel=1e-12)

    def test_node_values_span_reference_clusters(self, case):
        # eigenvectors are unique only up to rotation inside a (near-)degenerate
        # cluster, so compare each retained mode with the projector onto the
        # reference cluster around its eigenvalue; both solves are backward
        # stable, so the angle between them is bounded by eps |lambda_0| / gap
        basis, ref = case
        sw = np.sqrt(basis.quad.weights)
        lam0 = abs(basis.mu[0])
        for i, v in enumerate(basis.node_values):
            vals, vecs = ref["even" if basis.modes["even"][i] else "odd"]
            lam = beta(basis, i) * basis.geometry.h**2
            cluster = np.abs(vals - lam) <= 1e-8 * lam0
            assert cluster.any()
            gap = np.abs(vals[~cluster] - lam).min()
            q = vecs[:, cluster]
            x = sw * v
            residual = np.linalg.norm(x - q @ (q.T @ x)) / np.linalg.norm(x)
            assert residual <= 1e-13 * lam0 / gap

    def test_odd_modes_vanish_at_self_mirror_node(self, case):
        basis, _ = case
        fixed = np.flatnonzero(mirror_indices(basis.quad) == np.arange(len(basis.quad)))
        assert len(fixed) == len(basis.quad) % 2  # only the p = 0 node is its own mirror
        odd = basis.node_values[~basis.modes["even"]]
        assert len(odd)
        for v in odd:
            assert np.all(v[fixed] == 0.0)

    def test_exact_node_parity(self, case):
        basis, _ = case
        mirror = mirror_indices(basis.quad)
        for even, v in zip(basis.modes["even"], basis.node_values):
            sgn = 1.0 if even else -1.0
            assert np.array_equal(v[mirror], sgn * v)

    def test_exact_reflection_symmetry(self, case):
        # each mode is even or odd under the reflection R, bitwise, and every
        # one of the four symmetry classes holds some of the retained modes
        basis, _ = case
        refl = basis.quad.reflection
        classes = set()
        for even, v in zip(basis.modes["even"].tolist(), basis.node_values):
            r = 1.0 if np.array_equal(v[refl], v) else -1.0
            assert np.array_equal(v[refl], r * v)
            classes.add((even, r))
        assert len(classes) == 4

    def test_retained_alphas_match_complex_kernel(self, case):
        # the unfolded N x N Nystrom matrix of the complex kernel e^{i s p.q}:
        # on a rule symmetric under p -> -p its real (cos) part acts on even
        # and its imaginary (sin) part on odd node functions, so the real
        # symmetric Re + Im has the eigenvalues beta of both, |alpha| = |beta|
        basis, _ = case
        quad = basis.quad
        sw = np.sqrt(quad.weights)
        kernel = np.exp(1j * basis.kernel_scale * (quad.nodes @ quad.nodes.T))
        lam = np.linalg.eigh(sw[:, None] * (kernel.real + kernel.imag) * sw[None, :])[0]
        ref = np.sort(np.abs(lam))[::-1][:len(basis.modes)] / basis.geometry.h**2
        assert len(basis.modes) == self.N_MODES
        assert np.abs(np.abs(basis.alphas) - ref).max() <= 1e-12 * ref[0]

    def test_validate_passes(self, case, request):
        # midpoint grids miss the set's area at first order, so the sum rule
        # against the analytic area fails there by exactly the rule's own area
        # error (the eigenvalues meet the discrete sum rule); every other
        # check passes at its threshold
        basis, _ = case
        report = {chk["check"]: chk for chk in P.validate_basis(basis)}
        area = report.pop("hilbert_schmidt_area")
        assert all(chk["passed"] for chk in report.values()), report
        if FOLD_CASES[request.node.callspec.params["case"]][2] == "polar":
            assert area["passed"], area
        else:
            exact = analytic_area(basis.geometry) ** 2
            rule_error = abs(basis.quad.total_weight**2 - exact) / exact
            assert area["residual"] == pytest.approx(rule_error, rel=1e-8)


def assert_matches_dense(basis):
    """The kept |alpha| against the leading eigenvalues of the dense class spectra
    to 1e-13 |alpha_0|, the stored Frobenius sum against their sum of squares, and
    every stored residual certified to 1e-13 |alpha_0|."""
    spectra = class_spectra(basis)
    dense = np.sort(np.abs(np.concatenate(spectra)))[::-1] / basis.geometry.h**2
    kept = np.abs(basis.alphas)
    assert np.abs(kept - dense[:len(kept)]).max() <= 1e-13 * dense[0]
    assert basis.hs_norm2 == pytest.approx(sum(np.sum(v**2) for v in spectra), rel=1e-12)
    assert basis.modes["residual"].max() <= 1e-13 * dense[0]


# The rules on which the truncated solve is checked for c in {2, 5, 10, 20}.
SOLVE_GRID = {
    "L2.2_polar96": (Geometry.limited_aperture(2.2), 96, "polar"),
    "L1.2_polar160": (Geometry.limited_aperture(1.2), 160, "polar"),
    "M_midpoint96": (Geometry.multi_freq((0.6, 0.8)), 96, "midpoint"),
    "M_polar136": (Geometry.multi_freq((0.6, 0.8)), 136, "polar"),
    "L2.356_midpoint46": (Geometry.limited_aperture(2.356), 46, "midpoint"),
}


class TestTruncatedSolve:
    """Each class block is solved for its kept modes only (`top_eigenpairs`); the
    kept modes are those of the complete dense spectra."""

    def test_fixture_basis(self, symset_disk_c5):
        assert_matches_dense(symset_disk_c5)

    @pytest.mark.parametrize("c", [2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("rule", sorted(SOLVE_GRID))
    def test_grid(self, rule, c):
        geo, res, method = SOLVE_GRID[rule]
        basis = compute_symset_basis(c, geo, build_quadrature(geo, res, method=method), 40)
        assert len(basis.modes) == 40
        assert_matches_dense(basis)

    def test_fold_cases(self):
        for geo, res, method in FOLD_CASES.values():
            quad = build_quadrature(geo, res, method=method)
            assert_matches_dense(compute_symset_basis(5.0, geo, quad, TestParityFold.N_MODES))


class TestFoldInputs:
    def test_midpoint_odd_resolution_has_origin_node(self):
        quad = build_quadrature(Geometry.limited_aperture(0.75 * math.pi), 25, method="midpoint")
        assert np.sum(np.all(quad.nodes == 0.0, axis=1)) == 1
        assert len(quad) % 2 == 1

    @pytest.mark.parametrize("name", ["L_midpoint_odd", "M_polar"])
    def test_same_modes_as_dict_pairing(self, name, monkeypatch):
        # the fold pairs nodes through numerics.mirror_map; a per-node dict of
        # negated nodes (the reference pairing) must give bitwise the same modes
        geo, res, method = FOLD_CASES[name]
        quad = build_quadrature(geo, res, method=method)
        basis = compute_symset_basis(5.0, geo, quad, 12)
        lookup = {(-x, -y): i for i, (x, y) in enumerate(map(tuple, quad.nodes))}
        by_dict = np.array([lookup[(x, y)] for x, y in map(tuple, quad.nodes)])
        monkeypatch.setattr(symset_basis, "mirror_indices", lambda q: by_dict)
        ref = compute_symset_basis(5.0, geo, quad, 12)
        assert np.array_equal(basis.modes, ref.modes)
        assert np.array_equal(basis.node_values, ref.node_values)
        assert basis.hs_norm2 == ref.hs_norm2

    @pytest.mark.parametrize("name", ["L_midpoint_odd", "L_polar", "M_polar", "disk_polar"])
    def test_same_modes_as_dict_reflection(self, name):
        # the fold takes R from the map the rule records as it is built; it must
        # be the per-node dict pairing of mirrored frame coordinates (u, v) ->
        # (u, -v), and a rule carrying the dict's map gives bitwise the same modes
        geo, res, method = FOLD_CASES[name]
        quad = build_quadrature(geo, res, method=method)
        e = np.array(quad.axis)
        frame = np.round(quad.nodes @ np.array([[e[0], -e[1]], [e[1], e[0]]]), 9) + 0.0
        lookup = {(u, -v): i for i, (u, v) in enumerate(map(tuple, frame))}
        by_dict = np.array([lookup[(u, v)] for u, v in map(tuple, frame)])
        assert np.array_equal(quad.reflection, by_dict)
        basis = compute_symset_basis(5.0, geo, quad, 12)
        ref = compute_symset_basis(5.0, geo, P.QuadratureRule(quad.nodes, quad.weights,
                                                              reflection=by_dict,
                                                              axis=quad.axis), 12)
        assert np.array_equal(basis.modes, ref.modes)
        assert np.array_equal(basis.node_values, ref.node_values)
        assert basis.hs_norm2 == ref.hs_norm2

    def test_wrong_reflection_rejected(self):
        geo = Geometry.disk()
        quad = build_quadrature(geo, 24, method="polar")
        for refl, axis in ((np.arange(len(quad)), (1.0, 0.0)), (quad.reflection, (0.6, 0.8))):
            bad = P.QuadratureRule(quad.nodes, quad.weights, reflection=refl, axis=axis)
            with pytest.raises(ParameterError, match="reflection"):
                compute_symset_basis(5.0, geo, bad, 4)

    def test_asymmetric_nodes_rejected(self):
        geo = Geometry.disk()
        quad = build_quadrature(geo, 24, method="polar")
        shifted = P.QuadratureRule(quad.nodes + np.array([0.01, 0.0]), quad.weights)
        with pytest.raises(ParameterError, match="symmetric"):
            compute_symset_basis(5.0, geo, shifted, 4)

    def test_asymmetric_weights_rejected(self):
        geo = Geometry.disk()
        quad = build_quadrature(geo, 24, method="polar")
        weights = quad.weights.copy()
        weights[0] *= 1.5
        bad = P.QuadratureRule(quad.nodes, weights, reflection=quad.reflection, axis=quad.axis)
        with pytest.raises(ParameterError, match="symmetric"):
            compute_symset_basis(5.0, geo, bad, 4)

    @pytest.mark.parametrize("resolution", [24, 25])
    @pytest.mark.parametrize("method", ["auto", "midpoint", "polar"])
    @pytest.mark.parametrize("geo", [Geometry.disk(radius=1.3, h=2.0),
                                     Geometry.limited_aperture(2.2),
                                     Geometry.multi_freq((math.cos(1.1), math.sin(1.1)))],
                             ids=["disk", "L", "M_generic"])
    def test_every_built_rule_folds(self, geo, method, resolution):
        # the solve folds over {1, -1, R, -R} only: every rule build_quadrature
        # makes records its reflection R, and a rule without one is refused
        quad = build_quadrature(geo, resolution, method=method)
        assert len(compute_symset_basis(5.0, geo, quad, 4).modes) == 4
        with pytest.raises(ParameterError, match="records no reflection"):
            compute_symset_basis(5.0, geo, P.QuadratureRule(quad.nodes, quad.weights), 4)

    def test_memory_budget_checked_before_allocating(self):
        half = np.random.default_rng(0).uniform(-1.0, 1.0, (1_000_000, 2))
        quad = P.QuadratureRule(np.concatenate([half, -half]), np.ones(2 * len(half)))
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="lower --resolution"):
                compute_symset_basis(5.0, Geometry.disk(radius=2.0), quad, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
