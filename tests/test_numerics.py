import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, jv

from prolate import numerics, symset_basis
from prolate.errors import EigensolverError, ParameterError
from prolate.numerics import (QuadratureRule, bessel_table, disk_polar_rule,
                              gauss_legendre, gauss_legendre_01, mirror_map, sym_eig,
                              top_eigenpairs, zernike_radial, zernike_radial_table)
from prolate.symset_basis import Geometry, build_quadrature

from oracles import bessel_j

J0_FIRST_ZERO = 2.404825557695773


def bessel_series(m: int, x: float, terms: int = 40) -> float:
    """Independent power-series oracle, adequate for x up to ~15."""
    total = 0.0
    for k in range(terms):
        c = (-1) ** k / (math.factorial(k) * math.factorial(m + k))
        total += c * (x / 2.0) ** (m + 2 * k)
    return total


def bessel_integral(m: int, x: float) -> float:
    """Integral-representation oracle: (1/pi) int_0^pi cos(m t - x sin t) dt."""
    rule = gauss_legendre(800)
    t = 0.5 * math.pi * (rule.nodes + 1.0)
    w = 0.5 * math.pi * rule.weights
    return float(np.sum(w * np.cos(m * t - x * np.sin(t))) / math.pi)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_jm_at_zero(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        # oracle locates the same zero
        assert abs(bessel_series(0, J0_FIRST_ZERO)) < 1e-10
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.5, 9.0])
    def test_matches_series_oracle(self, m, x):
        # series cancellation grows with x; 5e-13 keeps the check meaningful
        assert abs(bessel_j(m, x) - bessel_series(m, x)) < 5e-13

    @pytest.mark.parametrize("m", [0, 2, 10, 50, 100])
    @pytest.mark.parametrize("x", [0.5, 10.0, 100.0, 200.0])
    def test_matches_integral_oracle(self, m, x):
        assert abs(bessel_j(m, x) - bessel_integral(m, x)) < 1e-12

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_three_term_recurrence(self, m, x):
        lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
        assert abs(lhs - (2.0 * m / x) * bessel_j(m, x)) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            bessel_table(-1, 1.0)
        with pytest.raises(ParameterError):
            bessel_table(0, -0.5)

    def test_vectorized(self):
        x = np.linspace(0.0, 20.0, 7)
        assert np.allclose(bessel_j(2, x), [bessel_j(2, xi) for xi in x])


class TestBesselTable:
    """One Miller recurrence for every order, or Hankel's expansion and the
    forward recurrence at large arguments, against scipy's jv as the oracle."""

    X = np.concatenate([[0.0, 1e-300, 1e-9, 1e-3, 1e-2, 0.1], np.linspace(0.5, 200.0, 1200)])

    def test_matches_jv(self):
        table = bessel_table(20, self.X)
        oracle = jv(np.arange(21)[:, None], self.X[None, :])
        assert table.shape == (21, len(self.X))
        assert np.abs(table - oracle).max() <= 1e-14

    def test_zero_is_exact(self):
        table = bessel_table(6, np.zeros(3))
        assert np.array_equal(table[0], np.ones(3))
        assert np.array_equal(table[1:], np.zeros((6, 3)))

    def test_small_arguments_relative(self):
        # values far below 1 keep their relative accuracy (no overflow, no flush);
        # the oracle is the power series in 40-digit decimal arithmetic
        def series(m, x):
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                y, term, total = (decimal.Decimal(x) / 2) ** 2, decimal.Decimal(1), 0
                for k in range(12):
                    total += term
                    term *= -y / ((k + 1) * (m + k + 1))
                return float(total * (decimal.Decimal(x) / 2) ** m / math.factorial(m))

        x = np.array([1e-300, 1e-20, 1e-8, 1e-7, 1e-3, 0.5])
        table = bessel_table(12, x)
        for m in range(13):
            for i, xi in enumerate(x):
                want = series(m, xi)
                if want > 1e-280:
                    assert abs(table[m, i] / want - 1.0) <= 4e-15, (m, xi)

    def test_shape_follows_x(self):
        x = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        table = bessel_table(5, x)
        assert table.shape == (6, 3, 4)
        assert np.abs(table[:, 1] - bessel_table(5, x[1])).max() <= 1e-15
        assert bessel_table(0, 2.5).shape == (1,)

    def test_large_arguments_match_jv(self):
        # above max(m_max, HANKEL_ABOVE) the table comes from Hankel's expansion;
        # jv carries a phase error of about eps x there, so the bound grows with x
        # as in the disk basis's exterior test
        rng = np.random.default_rng(3)
        x = np.concatenate([np.exp(rng.uniform(math.log(40.0), math.log(1e7), 2000)),
                            [np.nextafter(80.0, np.inf), 1e3]])
        with np.errstate(all="raise"):
            table = bessel_table(80, x)
        oracle = jv(np.arange(81)[:, None], x[None, :])
        assert np.all(np.abs(table - oracle) <= 1e-13 * np.maximum(1.0, x / 100.0))

    def test_hankel_meets_miller(self):
        # the same arguments through both paths: Hankel's where they exceed
        # m_max = 1 or 30, Miller's where m_max = 150 exceeds them all
        x = np.linspace(numerics.HANKEL_ABOVE, 140.0, 501)[1:]
        miller = bessel_table(150, x)
        for m_max in (1, 30):
            assert np.abs(bessel_table(m_max, x) - miller[:m_max + 1]).max() <= 2e-15

    def test_huge_arguments(self):
        # the recurrence never runs up to the argument, so 1e200 costs what 50 does;
        # J_0 is its leading Hankel term to 1/(8x) relative
        x = np.array([1e12, 1e200, np.finfo(float).max])
        with np.errstate(all="raise"):
            table = bessel_table(60, np.concatenate([x, [0.0, 3.0]]))
        assert np.isfinite(table).all()
        assert np.array_equal(table[:, 3:], bessel_table(60, np.array([0.0, 3.0])))
        for xi, j0 in zip(x[:2], table[0]):
            lead = (math.cos(xi) + math.sin(xi)) / math.sqrt(math.pi * xi)
            assert abs(j0 - lead) <= 1e-12 / math.sqrt(xi)

    def test_rejects_bad_arguments(self):
        for x in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                bessel_table(3, np.array([1.0, x]))
        with pytest.raises(ParameterError):
            bessel_table(-1, 1.0)


class TestGaussLegendre:
    def test_one_point(self):
        r = gauss_legendre(1)
        assert r.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert r.weights[0] == pytest.approx(2.0, abs=1e-15)

    def test_two_point(self):
        r = gauss_legendre(2)
        assert np.allclose(sorted(r.nodes), [-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)])
        assert np.allclose(r.weights, [1.0, 1.0])

    def test_three_point_quartic(self):
        r = gauss_legendre(3)
        assert np.sum(r.weights * r.nodes**4) == pytest.approx(0.4, abs=1e-14)

    @given(st.integers(min_value=1, max_value=60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_polynomial_exactness(self, n, data):
        d = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
        r = gauss_legendre(n)
        approx = float(np.sum(r.weights * r.nodes**d))
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        scale = max(1.0, float(np.sum(r.weights * np.abs(r.nodes) ** d)))
        assert abs(approx - exact) <= 1e-13 * scale

    def test_total_weight(self):
        assert gauss_legendre(37).total_weight == pytest.approx(2.0, rel=1e-14)
        assert gauss_legendre_01(19).total_weight == pytest.approx(1.0, rel=1e-14)

    def test_requires_positive_size(self):
        with pytest.raises(ParameterError):
            gauss_legendre(0)
        with pytest.raises(ParameterError):
            gauss_legendre_01(0)

    def test_memoized_rules_are_shared_and_read_only(self):
        for rule_of in (gauss_legendre, gauss_legendre_01):
            rule = rule_of(23)
            assert rule_of(23) is rule
            for a in (rule.nodes, rule.weights):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0
        nodes, weights = np.polynomial.legendre.leggauss(23)
        assert np.array_equal(gauss_legendre(23).nodes, nodes)
        assert np.array_equal(gauss_legendre(23).weights, weights)


class TestZernikeRadial:
    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_orthonormal_weight_r(self, m):
        rule = gauss_legendre_01(200)
        Z = zernike_radial_table(m, 8, rule.nodes)
        gram = (Z * (rule.weights * rule.nodes)) @ Z.T
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_degree_zero_constant(self):
        r = np.linspace(0.0, 1.0, 11)
        vals = zernike_radial(0, 0, r)
        assert np.ptp(vals) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            zernike_radial(-1, 0, 0.5)

    def test_matches_eval_jacobi(self):
        # Dyadic radii make 1 - 2r^2 exact, so the oracle sees the same argument.
        # scipy's eval_jacobi is accurate near the endpoint its recurrence starts
        # from, so it is evaluated in the Jacobi form anchored at the nearer one:
        # (-1)^j P_j^(m,0)(1 - 2r^2) for r^2 < 1/2 and P_j^(0,m)(2r^2 - 1) above.
        r = np.arange(257) / 256.0
        inner = r * r < 0.5
        for m in range(21):
            table = zernike_radial_table(m, 61, r)
            for j in range(61):
                p = np.where(inner, (-1.0) ** j * eval_jacobi(j, m, 0, 1.0 - 2.0 * r * r),
                             eval_jacobi(j, 0, m, 2.0 * r * r - 1.0))
                oracle = math.sqrt(2.0 * (m + 2 * j + 1)) * r**m * p
                assert np.abs(table[j] - oracle).max() <= 1e-13 * np.abs(oracle).max(), (m, j)

    def test_table_rows_are_single_degrees(self):
        r = np.linspace(0.0, 1.0, 9)
        table = zernike_radial_table(3, 5, r)
        for j in range(5):
            assert np.array_equal(zernike_radial(3, j, r), table[j])
        assert zernike_radial(2, 1, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)
        assert zernike_radial_table(4, 0, r).shape == (0, 9)

    @pytest.mark.parametrize("shape", [(), (37,), (5, 6)])
    def test_all_orders_in_one_pass(self, shape):
        # each order of the multi-order table is that order's own table, bitwise
        r = np.random.default_rng(5).uniform(0.0, 1.0, shape)
        orders = np.arange(21)
        tables = zernike_radial_table(orders, 40, r)
        assert tables.shape == (21, 40) + shape
        for m in orders:
            assert np.array_equal(tables[m], zernike_radial_table(int(m), 40, r)), m
        assert np.array_equal(zernike_radial_table([4, 2], 7, r)[1], zernike_radial_table(2, 7, r))
        assert zernike_radial_table([], 3, r).shape == (0, 3) + shape
        with pytest.raises(ParameterError):
            zernike_radial_table([0, -1], 3, r)


def zernike_table_by_degree(m, count, r):
    """zernike_radial_table with its coefficients computed degree by degree in
    the loop, as the recurrence was first written (reference only)."""
    orders = np.asarray(m)
    r = np.asarray(r, dtype=float)
    m = orders.reshape(orders.shape + (1,) * r.ndim)
    y = 2.0 * r * r - 1.0
    u = 2.0 * (1.0 - r) * (1.0 + r)
    outer = y >= 0.0
    table = np.empty((count,) + orders.shape + r.shape)
    if count:
        table[0] = 1.0
    if count > 1:
        d = -0.5 * (m + 2) * u
        table[1] = 1.0 + d
    for j in range(2, count):
        s = 2 * j + m
        a = (s - 1) * s / (2.0 * j * (j + m))
        b = (s - 1) * m * m / (2.0 * j * (j + m) * (s - 2))
        g = (j - 1) * (j + m - 1) * s / (j * (j + m) * (s - 2))
        d = g * d - a * u * table[j - 1]
        plain = (a * y - b) * table[j - 1] - g * table[j - 2]
        table[j] = np.where(outer, table[j - 1] + d, plain)
    j = np.arange(count).reshape((count,) + (1,) * (orders.ndim + r.ndim))
    table *= np.sqrt(2.0 * (m + 2 * j + 1))
    table *= np.reshape([r ** int(k) for k in orders.ravel()], orders.shape + r.shape)
    return np.ascontiguousarray(np.moveaxis(table, 0, orders.ndim))


class TestZernikeVectorCoefficients:
    @pytest.mark.parametrize("m,count,shape", [(np.arange(9), 36, (82,)), (3, 36, (82,)),
                                               (0, 5, (7, 3)), ([4, 2], 2, (9,)), (2, 1, (9,)),
                                               (1, 0, (9,)), (5, 3, ()), (20, 61, (257,))])
    def test_bitwise_the_degree_by_degree_loop(self, m, count, shape):
        r = np.random.default_rng(7).uniform(0.0, 1.0, shape)
        if len(shape) == 1:
            r[:3] = [0.0, 1.0, np.sqrt(0.5)]  # the ends and the switch of form, y = 0
        got, want = zernike_radial_table(m, count, r), zernike_table_by_degree(m, count, r)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _class_block(c: float, theta: float = 2.2, resolution: int = 96, k: int = 0) -> np.ndarray:
    """Class block k of the symmetric-set solve on L(theta), polar rule."""
    quad = build_quadrature(Geometry.limited_aperture(theta), resolution, method="polar")
    blocks = symset_basis._class_blocks(c, quad, symset_basis._symmetry_maps(quad))
    return [block for *_, block in blocks][k]


class TestTopEigenpairs:
    """The block Krylov solve and its dense fallback against numpy's eigvalsh."""

    @staticmethod
    def _check(a, k, vals, vecs, res):
        ref = np.linalg.eigvalsh(a)
        ref = ref[np.argsort(-np.abs(ref))][:k]
        assert np.abs(np.abs(vals) - np.abs(ref)).max() <= 1e-13 * abs(ref[0])
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-13
        actual = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert np.allclose(res, actual, rtol=1e-3, atol=1e-15 * abs(ref[0]))  # to rounding
        assert res.max() <= 1e-13 * abs(ref[0])

    @staticmethod
    def _count_dense(monkeypatch):
        """The orders of the blocks handed to the dense solve, as they are handed."""
        calls, dense = [], numerics._top_dense
        monkeypatch.setattr(numerics, "_top_dense", lambda m, k: calls.append(len(m)) or dense(m, k))
        return calls

    @pytest.mark.parametrize("switch,dense", [(math.inf, 0), (0.0, 1)], ids=["krylov", "dense"])
    def test_each_path(self, monkeypatch, switch, dense):
        # a switch no Ritz ratio reaches keeps the Krylov path, a switch of 0
        # takes the dense one at the first Rayleigh-Ritz step
        a = _class_block(5.0)
        monkeypatch.setattr(numerics, "KRYLOV_SWITCH", switch)
        calls = self._count_dense(monkeypatch)
        vals, vecs, res = top_eigenpairs(a, 30)
        assert calls == [len(a)] * dense
        self._check(a, 30, vals, vecs, res)

    def test_default_switch_on_a_plateau(self, monkeypatch):
        # at c = 20 the 30th pair is still near the top of the spectrum: dense
        calls = self._count_dense(monkeypatch)
        a = _class_block(20.0)
        self._check(a, 30, *top_eigenpairs(a, 30))
        assert calls == [len(a)]

    def test_space_short_of_k_pairs_goes_dense(self, monkeypatch):
        # on L(1.2) at c = 2 the space stops growing below 40 columns: no 40
        # pairs to certify
        calls = self._count_dense(monkeypatch)
        a = _class_block(2.0, 1.2, 160)
        self._check(a, 40, *top_eigenpairs(a, 40))
        assert calls == [len(a)]

    @pytest.mark.parametrize("dim", [1, 5, 37])
    def test_small_matrices(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        k = min(4, dim)
        self._check(a, k, *top_eigenpairs(a, k))

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            top_eigenpairs(np.eye(3), 1)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ParameterError, match="top_eigenpairs requires a symmetric"):
            top_eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        with pytest.raises(ParameterError, match="square"):
            top_eigenpairs(np.zeros((2, 3)), 1)


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(5))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(5), atol=1e-12)

    def test_diagonal(self):
        vals, _ = sym_eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_swap_matrix(self):
        vals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_tridiagonal_form(self):
        tri = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)
        vals, vecs = sym_eig(tri)
        dense_vals, _ = sym_eig(tri)
        assert np.allclose(vals, dense_vals, atol=1e-12)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 37, 120, 200])
    def test_reconstruction_random(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2.0
        vals, vecs = sym_eig(a)
        assert np.all(np.diff(vals) >= -1e-12)
        nrm = np.linalg.norm(a)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a) <= 1e-9 * nrm
        assert np.abs(vecs.T @ vecs - np.eye(dim)).max() <= 1e-10
        residual = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert residual.max() <= 1e-10 * np.linalg.norm(a, 2)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ParameterError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_nan(self, where):
        a = np.eye(3)
        a[where] = a[where[::-1]] = np.nan
        with pytest.raises(ParameterError, match="symmetric"):
            sym_eig(a)

    def test_symmetry_tolerance_scales_with_the_largest_entry(self):
        # |a - a^T| <= 1e-12 max(1, max|a|): a skew of 1e-13 max|a| passes, 1e-11 fails
        a = np.diag([-1e6, 2.0, 3.0])
        a[0, 1] = a[1, 0] = 5.0
        b = a.copy()
        b[0, 1] += 1e-7
        assert len(sym_eig(b)[0]) == 3
        b[0, 1] += 1e-5
        with pytest.raises(ParameterError):
            sym_eig(b)

    def test_single_entry_tridiagonal(self):
        vals, vecs = sym_eig(np.diag([3.5]))
        assert np.array_equal(vals, [3.5]) and np.array_equal(np.abs(vecs), [[1.0]])

    @pytest.mark.parametrize("matrix", [np.eye(3), np.diag(np.ones(3)) + np.diag(np.ones(2), 1)
                                        + np.diag(np.ones(2), -1)])
    def test_lapack_failure_is_eigensolver_error(self, monkeypatch, matrix):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            sym_eig(matrix)


class TestQuadratureRule:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ParameterError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_disk_rule_measure(self):
        rule = disk_polar_rule(1.7, 24, 32)
        assert rule.total_weight == pytest.approx(math.pi * 1.7**2, rel=1e-10)

    def test_disk_rule_symmetric_nodes(self):
        rule = disk_polar_rule(1.0, 6, 8)
        flipped = {tuple(-p) for p in rule.nodes}
        assert flipped == {tuple(p) for p in rule.nodes}

    def test_immutable(self):
        rule = gauss_legendre(4)
        with pytest.raises(ValueError):
            rule.weights[0] = 5.0


def dict_mirror(points):
    """Reference pairing: a dict from each negated node to its index."""
    lookup = {(-x, -y): i for i, (x, y) in enumerate(map(tuple, points))}
    return np.array([lookup[(x, y)] for x, y in map(tuple, points)])


SYMMETRIC_RULES = {
    "disk_polar": lambda: disk_polar_rule(1.3, 9, 12).nodes,
    "L_polar": lambda: build_quadrature(Geometry.limited_aperture(2.0, h=1.5), 40, "polar").nodes,
    "L_midpoint_origin": lambda: build_quadrature(Geometry.limited_aperture(2.4), 41,
                                                  "midpoint").nodes,
    "M_polar": lambda: build_quadrature(Geometry.multi_freq((0.6, 0.8)), 32, "polar").nodes,
    "M_midpoint": lambda: build_quadrature(Geometry.multi_freq((1.0, 0.0)), 40,
                                           "midpoint").nodes,
}


class TestMirrorMap:
    @pytest.mark.parametrize("rule", sorted(SYMMETRIC_RULES))
    def test_equals_dict_reference(self, rule):
        pts = SYMMETRIC_RULES[rule]()
        mirror = mirror_map(pts)
        assert np.array_equal(mirror, dict_mirror(pts))
        assert np.array_equal(pts[mirror], -pts)
        assert np.array_equal(mirror[mirror], np.arange(len(pts)))

    def test_origin_is_its_own_mirror(self):
        pts = SYMMETRIC_RULES["L_midpoint_origin"]()
        fixed = np.flatnonzero(mirror_map(pts) == np.arange(len(pts)))
        assert len(fixed) == 1 and not pts[fixed].any()
        assert np.array_equal(mirror_map(np.array([[0.0, -0.0], [-0.0, 0.0]])), [0, 1])

    def test_none_for_asymmetric_sets(self):
        pts = disk_polar_rule(1.0, 6, 8).nodes
        assert mirror_map(pts + np.array([1e-12, 0.0])) is None  # shifted off the origin
        assert mirror_map(pts[1:]) is None                         # one mirror missing
        assert mirror_map(np.random.default_rng(0).standard_normal((20, 2))) is None
        assert mirror_map(np.array([[0.5, 0.25]])) is None
