import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prolate as P
from prolate import forward, numerics
from prolate.disk_basis import eval_psi
from prolate.errors import DataCoverageError, ParameterError
from prolate.forward import (_ROW_DTYPE, ContrastField, DataGrid, _data_row, _group_rows,
                             _loadtxt, _read_table, _split_columns, add_noise, far_field,
                             ingest_farfield, read_datagrid, synthesize_born, write_datagrid)
from prolate.numerics import (GridPiece, RingPiece, _aliased_orders, _born_sum, _piece, _point_map,
                              annulus_polar_rule, disk_polar_rule, mirror_map)
from prolate.recon import write_field_csv

from oracles import bessel_j

DISK = [{"type": "disk", "center": (0.0, 0.0), "radius": 0.8, "value": 1.0}]


def _loadtxt_columns(path):
    """The columns that `read_datagrid` takes from numpy's reader, or None where
    the reader declines the file and the row parse takes over."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        f.readline()
        table = _loadtxt(path, f, _ROW_DTYPE)
    return None if table is None else _split_columns(table)


def _row_pass_columns(path, monkeypatch):
    """The columns of the line-by-line pass that `read_datagrid` makes where
    numpy's reader declines the file; raises its ParameterError on a bad row."""
    with monkeypatch.context() as m, open(path, encoding="utf-8") as f:
        m.setattr(forward, "_loadtxt", lambda *a: None)
        f.readline()
        f.readline()
        return _split_columns(_read_table(path, f, 3, _ROW_DTYPE, _data_row))


def midpoint_rule(r_inner, r_outer, resolution):
    """Midpoint rule on the origin-centred disk or annulus; symmetric under p -> -p."""
    step = 2.0 * r_outer / resolution
    g = step * (np.arange(resolution) - (resolution - 1) / 2.0)
    X, Y = np.meshgrid(g, g, indexing="ij")
    d2 = X**2 + Y**2
    keep = (d2 < r_outer**2) & (d2 > r_inner**2) if r_inner > 0 else d2 < r_outer**2
    pts = np.stack([X[keep], Y[keep]], axis=1)
    return P.QuadratureRule(pts, np.full(len(pts), step * step))


def midpoint_disk(resolution):
    """The DISK contrast on the midpoint rule: a brute-force oracle."""
    return ContrastField.from_callable(ContrastField.from_shapes(DISK, 8).evaluate,
                                       midpoint_rule(0.0, 0.8, resolution))


def disk_closed_form(radius, kappa, pts):
    pr = np.hypot(pts[:, 0], pts[:, 1])
    out = np.full(len(pts), math.pi * radius**2, dtype=complex)
    nz = pr > 0
    out[nz] = 2 * math.pi * radius * bessel_j(1, kappa * radius * pr[nz]) / (kappa * pr[nz])
    return out


class TestSynthesize:
    def test_zero_frequency_moment(self):
        q = ContrastField.from_shapes(DISK, resolution=120)
        data = synthesize_born(q, 1.5, np.array([[0.0, 0.0]]))
        assert data.values[0] == pytest.approx(math.pi * 0.64, rel=1e-12)

    def test_overlapping_shapes_counted_once(self):
        # two unit disks 0.5 apart: the lens they share belongs to both shapes
        # and must be integrated once per shape, with that shape's own value
        two = [{"type": "disk", "center": (0.0, 0.0), "radius": 1.0, "value": 1.0},
               {"type": "disk", "center": (0.5, 0.0), "radius": 1.0, "value": 1.0}]
        q = ContrastField.from_shapes(two, resolution=80)
        u0 = synthesize_born(q, 1.0, np.array([[0.0, 0.0]])).values[0]
        assert u0 == pytest.approx(2 * math.pi, rel=1e-12)
        two[1]["value"] = 0.5
        q = ContrastField.from_shapes(two, resolution=80)
        d = np.array([0.0, 1.0])
        assert far_field(q, d, d, 1.0) == pytest.approx(1.5 * math.pi, rel=1e-12)

    def test_disk_indicator_closed_form(self):
        q = ContrastField.from_shapes(DISK, resolution=200)
        targets = np.array([[0.3, 0.1], [1.0, -0.4], [2.0, 0.0], [0.0, 1.7]])
        data = synthesize_born(q, 1.5, targets)
        closed = disk_closed_form(0.8, 1.5, targets)
        assert np.abs(data.values - closed).max() < 1e-8 * np.abs(closed).max()

    def test_closed_form_agrees_with_bruteforce_oracle(self):
        # midpoint brute force at ~1e6 nodes confirms the Bessel closed form
        q = midpoint_disk(1100)
        targets = np.array([[0.9, 0.2], [1.6, -0.6]])
        data = synthesize_born(q, 1.5, targets)
        closed = disk_closed_form(0.8, 1.5, targets)
        assert np.abs(data.values - closed).max() < 1e-4

    def test_mode_is_forward_eigenfunction(self, scaled_c6):
        i = 4
        quad = disk_polar_rule(scaled_c6.radius, 90, 96)
        q = ContrastField.from_callable(
            lambda pts: eval_psi(scaled_c6, i, pts),
            quad, circumradius=scaled_c6.radius)
        data = synthesize_born(q, scaled_c6.kernel_scale, scaled_c6.quad)
        pred = scaled_c6.mu[i] * scaled_c6.node_values[i]
        assert np.abs(data.values - pred).max() < 1e-10 * np.abs(pred).max()

    def test_linearity_on_shared_quadrature(self):
        shared = disk_polar_rule(0.8, 60, 64)
        qa = ContrastField.from_shapes(DISK, resolution=64)
        qb = ContrastField.from_shapes(
            [{"type": "annulus", "center": (0.1, 0.0), "r_inner": 0.2, "r_outer": 0.5,
              "value": 2.0}], resolution=64)
        fields = [
            ContrastField.from_callable(qa.evaluate, shared, circumradius=0.8),
            ContrastField.from_callable(qb.evaluate, shared, circumradius=0.8),
            ContrastField.from_callable(lambda p: qa.evaluate(p) + qb.evaluate(p), shared,
                                        circumradius=0.8),
        ]
        targets = np.array([[0.5, 0.5], [1.0, 0.0]])
        ua, ub, uab = (synthesize_born(f, 2.0, targets).values for f in fields)
        assert np.abs(uab - (ua + ub)).max() < 1e-12 * np.abs(uab).max()

    def test_hermitian_symmetry_for_real_contrast(self):
        q = ContrastField.from_shapes(DISK, resolution=100)
        pts = np.array([[0.7, 0.3], [-0.7, -0.3], [1.2, -0.5], [-1.2, 0.5]])
        u = synthesize_born(q, 2.0, pts).values
        assert abs(u[1] - np.conj(u[0])) < 1e-10 * abs(u[0])
        assert abs(u[3] - np.conj(u[2])) < 1e-10 * abs(u[2])

    def test_midpoint_refinement_converges_linearly(self):
        targets = np.stack([np.linspace(0.1, 2.0, 12), np.linspace(-1.0, 1.0, 12)], axis=1)
        closed = disk_closed_form(0.8, 1.5, targets)
        errs = {}
        for res in (50, 100, 400):
            q = midpoint_disk(res)
            errs[res] = np.linalg.norm(synthesize_born(q, 1.5, targets).values - closed)
        assert errs[100] <= errs[50] / 2.0
        assert errs[400] <= errs[100] / 2.0

    def test_underresolved_flag(self):
        q = ContrastField.from_shapes(DISK, resolution=8)
        data = synthesize_born(q, 200.0, np.array([[3.0, 0.0]]))
        assert data.meta["underresolved"]

    def test_grid_contrast(self):
        vals = np.zeros((8, 8))
        vals[2:6, 2:6] = 1.0
        q = ContrastField.from_grid((-0.4, -0.4), 0.1, 0.1, vals)
        data = synthesize_born(q, 1.0, np.array([[0.0, 0.0]]))
        assert data.values[0] == pytest.approx(16 * 0.01, rel=1e-12)
        assert q.evaluate(np.array([[0.05, 0.05], [0.35, 0.35]])).tolist() == [1.0, 0.0]


def shape_support(shapes, resolution):
    """Support nodes and values value * weight, one shape at a time."""
    rules = [(sh["value"], ContrastField.from_shapes([sh], resolution).quad) for sh in shapes]
    return (np.concatenate([r.nodes for _, r in rules]),
            np.concatenate([v * r.weights for v, r in rules]))


def direct_sum(nodes, values, kappa, targets):
    """The dense reference sum_j a_j exp(i kappa p.q_j)."""
    return np.exp(1j * kappa * (targets @ nodes.T)) @ values


OFF_CENTRE = [{"type": "disk", "center": (0.7, -0.4), "radius": 0.5, "value": 1.5},
              {"type": "annulus", "center": (-0.6, 0.3), "r_inner": 0.2, "r_outer": 0.5,
               "value": -0.7}]


def _grid_support():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 2.0, (9, 12))
    vals[rng.uniform(size=vals.shape) < 0.3] = 0.0  # zeros without a symmetric pattern
    q = ContrastField.from_grid((-0.6, -0.2), 0.1, 0.08, vals)
    return q, q.quad.nodes, vals[vals != 0.0] * 0.1 * 0.08


def _complex_support():
    quad = disk_polar_rule(0.9, 20, 24)
    f = lambda p: (1.0 + 0.5j * p[:, 0]) * np.exp(p[:, 1]) + 0.3j * p[:, 1] ** 2  # noqa: E731
    return ContrastField.from_callable(f, quad), quad.nodes, f(quad.nodes) * quad.weights


def _complex_asymmetric_support():
    quad = disk_polar_rule(0.6, 12, 16, center=(0.2, -0.1))
    f = lambda p: 1.0 + 2.0j * p[:, 0]  # noqa: E731
    return ContrastField.from_callable(f, quad), quad.nodes, f(quad.nodes) * quad.weights


def _shapes(shapes, resolution):
    return ContrastField.from_shapes(shapes, resolution), *shape_support(shapes, resolution)


def _midpoint_shapes(shapes, resolution):
    """The shapes on the midpoint rule, one folded piece per shape about its
    centre, like a shape on any other rule."""
    rules = [(np.asarray(sh["center"], dtype=float), sh["value"],
              midpoint_rule(sh.get("r_inner", 0.0), sh.get("r_outer", sh.get("radius")),
                            resolution)) for sh in shapes]
    nodes = np.concatenate([c + r.nodes for c, _, r in rules])
    weights = np.concatenate([r.weights for _, _, r in rules])
    q = replace(ContrastField.from_shapes(shapes, 8), quad=P.QuadratureRule(nodes, weights),
                pieces=tuple(_piece(c, r.nodes, v * r.weights) for c, v, r in rules))
    return q, nodes, np.concatenate([v * r.weights for _, v, r in rules])


def _callable_support(quad, f):
    return ContrastField.from_callable(f, quad), quad.nodes, f(quad.nodes) * quad.weights


def _real(p):
    return 1.0 + 0.5 * p[:, 0] + p[:, 1] + 0.8 * p[:, 1] ** 2


def _complex(p):
    return (1.0 + 0.5j * p[:, 0]) * np.exp(p[:, 1]) + 0.3j * p[:, 1] ** 3


def _mirror_only_rule():
    # a set symmetric under p -> -p whose reflection in the x-axis is not in it
    half = np.random.default_rng(11).uniform(-0.7, 0.7, (40, 2))
    return P.QuadratureRule(np.concatenate([half, -half]), np.full(80, 0.01))


def _grid(vals, dx=0.05, dy=0.04):
    q = ContrastField.from_grid((-0.5, -0.3), dx, dy, vals)
    ii, jj = np.nonzero(vals)
    return q, q.quad.nodes, vals[ii, jj] * dx * dy


def _zero_lines_grid():
    vals = np.random.default_rng(4).uniform(-1.0, 2.0, (12, 10))
    vals[[0, 3, 4, 11], :] = 0.0
    vals[:, [1, 2, 9]] = 0.0
    return _grid(vals)


SUPPORTS = {
    "polar_off_centre": lambda: _shapes(OFF_CENTRE, 24),
    "midpoint_odd": lambda: _midpoint_shapes(OFF_CENTRE[:1], 31),
    "midpoint_even": lambda: _midpoint_shapes(OFF_CENTRE, 30),
    "grid": _grid_support,
    "grid_40": lambda: _grid(np.random.default_rng(5).uniform(-1.0, 2.0, (40, 40)), 0.03, 0.03),
    "grid_zero_lines": _zero_lines_grid,
    "grid_row": lambda: _grid(np.random.default_rng(6).uniform(0.5, 2.0, (1, 17))),
    "complex_callable": _complex_support,
    "complex_asymmetric": _complex_asymmetric_support,
    # off the origin on the x-axis: reflection but no mirror pairs
    "real_x_axis": lambda: _callable_support(disk_polar_rule(0.5, 10, 14, center=(0.3, 0.0)),
                                             _real),
    "complex_x_axis": lambda: _callable_support(disk_polar_rule(0.5, 10, 14, center=(0.3, 0.0)),
                                                _complex),
    # off both axes: neither symmetry
    "real_off_axis": lambda: _callable_support(disk_polar_rule(0.6, 12, 16, center=(0.2, -0.1)),
                                               _real),
    "real_mirror_only": lambda: _callable_support(_mirror_only_rule(), _real),
    "complex_mirror_only": lambda: _callable_support(_mirror_only_rule(), _complex),
}


def _symset_targets(method):
    geo = P.Geometry.limited_aperture(3 * math.pi / 4, h=2.0)
    return P.build_quadrature(geo, 25, method=method).nodes


def _axis_grid():
    # 7 x 7 points on a grid through the origin: 13 of them reflect to themselves
    g = 0.37 * (np.arange(7) - 3)
    X, Y = np.meshgrid(g, g, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


TARGETS = {
    "scaled_disk": lambda: P.compute_disk_basis(6.0, 3, 3).dilated(3.0).quad.nodes,
    "readme_disk": lambda: disk_polar_rule(5.0, 82, 42).nodes / 4.0,
    "symset_polar": lambda: _symset_targets("polar"),
    "symset_midpoint_origin": lambda: _symset_targets("midpoint"),
    "axis_grid": _axis_grid,
    "asymmetric": lambda: np.random.default_rng(8).uniform(-3.0, 3.0, (57, 2)),
}


class TestBornKernel:
    """The folded kernel equals the dense exp sum to rounding, on every kind of
    support rule and target set."""

    @pytest.mark.parametrize("support", sorted(SUPPORTS))
    @pytest.mark.parametrize("targets", sorted(TARGETS))
    def test_matches_direct_sum(self, support, targets):
        q, nodes, values = SUPPORTS[support]()
        pts = TARGETS[targets]()
        got = synthesize_born(q, 1.3, pts).values
        want = direct_sum(nodes, values, 1.3, pts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(values).sum()

    @pytest.mark.parametrize("support", sorted(SUPPORTS))
    def test_far_field_single_point(self, support):
        q, nodes, values = SUPPORTS[support]()
        k, x_hat, t_hat = 1.7, np.array([0.6, 0.8]), np.array([-1.0, 0.0])
        want = k * k * direct_sum(nodes, values, k, (t_hat - x_hat)[None, :])[0]
        assert abs(far_field(q, x_hat, t_hat, k) - want) <= 1e-13 * k * k * np.abs(values).sum()

    def test_cases_cover_the_mirror_cases(self):
        fixed = [np.flatnonzero(mirror_map(TARGETS[t]()) == np.arange(len(TARGETS[t]())))
                 for t in ("symset_midpoint_origin", "symset_polar")]
        assert [len(f) for f in fixed] == [1, 0]
        assert mirror_map(TARGETS["asymmetric"]()) is None
        # an odd midpoint resolution puts a support node at the shape centre
        centre = [(SUPPORTS[s]()[0].pieces[0].offsets == 0.0).all(axis=1).sum()
                  for s in ("midpoint_odd", "midpoint_even")]
        assert centre == [1, 0]
        assert mirror_map(SUPPORTS["complex_asymmetric"]()[0].pieces[0].offsets) is None

    def test_real_symmetric_shapes_have_no_odd_part(self):
        q = ContrastField.from_shapes(OFF_CENTRE, 24)
        assert len(q.pieces) == 2
        x = 1.3 * TARGETS["asymmetric"]()[None]
        for piece, sh in zip(q.pieces, OFF_CENTRE):
            assert isinstance(piece, RingPiece)
            assert np.array_equal(piece.center, sh["center"])
            assert not piece.sums(x)[1].any()
        assert sum(len(p.radii) * p.n_t for p in q.pieces) == len(q.quad)

    def test_cases_cover_the_reflection_cases(self):
        # every target set but the random one is symmetric under both p -> -p
        # and the x-axis reflection R; on the axis grid 13 points are fixed by R
        for name, make in TARGETS.items():
            pts = make()
            has = mirror_map(pts) is not None and _point_map(pts, (1.0, -1.0)) is not None
            assert has == (name != "asymmetric"), name
        pts = _axis_grid()
        assert (_point_map(pts, (1.0, -1.0)) == np.arange(len(pts))).sum() == 7
        assert (_point_map(pts, (1.0, -1.0)) == mirror_map(pts)).sum() == 7
        # supports with and without R, with and without mirror pairs
        perm = {name: [p.perm is not None for p in make()[0].pieces]
                for name, make in SUPPORTS.items()
                if not name.startswith("grid") and name != "polar_off_centre"}
        # a shape's ring piece does not fold: the case is its polar nodes, folded
        perm["polar_off_centre"] = [p.perm is not None for p in _folded_shapes(OFF_CENTRE, 24)]
        assert perm == {"polar_off_centre": [True, True], "midpoint_odd": [True],
                        "midpoint_even": [True, True], "complex_callable": [True],
                        "complex_asymmetric": [False], "real_x_axis": [True],
                        "complex_x_axis": [True], "real_off_axis": [False],
                        "real_mirror_only": [False], "complex_mirror_only": [False]}
        for name in ("real_x_axis", "real_mirror_only"):
            nodes = SUPPORTS[name]()[1]
            assert (mirror_map(nodes) is None) == (name == "real_x_axis")
        # the reflection reaches values that are not symmetric under it
        piece = SUPPORTS["complex_callable"]()[0].pieces[0]
        assert np.any(piece.even[piece.perm] != piece.even)
        assert np.any(piece.sign < 0.0) and np.any(piece.odd[piece.sign < 0.0])

    def test_grid_pieces_keep_nonzero_lines(self):
        q, _, _ = _zero_lines_grid()
        (piece,) = q.pieces
        assert isinstance(piece, GridPiece)
        assert piece.values.shape == (8, 7) and piece.values.all()
        assert np.array_equal(piece.center, [-0.5 + 12 * 0.05 / 2, -0.3 + 10 * 0.04 / 2])
        assert np.array_equal(piece.xs, (np.array([1, 2, 5, 6, 7, 8, 9, 10]) - 5.5) * 0.05)

    def test_synthesis_memory_stays_small(self):
        # 3,444 targets (the README disk basis rule) x 25,600 support nodes; the
        # dense kernel peaked at about 160 MB, the folded one at under 1 MB
        targets = disk_polar_rule(5.0, 82, 42)
        q = ContrastField.from_shapes(DISK, resolution=160)
        assert (len(targets), len(q.quad)) == (3444, 25600)
        tracemalloc.start()
        try:
            synthesize_born(q, 0.4, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_grid_synthesis_memory_stays_small(self):
        # 3,444 targets x a 160 x 160 pixel grid, by the separable contraction
        targets = disk_polar_rule(5.0, 82, 42)
        q = ContrastField.from_grid((-0.8, -0.8), 0.01, 0.01,
                                    np.random.default_rng(2).uniform(0.5, 1.5, (160, 160)))
        tracemalloc.start()
        try:
            synthesize_born(q, 0.4, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _folded_shapes(shapes, resolution):
    """The shapes' pieces as folded sums over the nodes of their polar rules,
    the reference for their ring sums."""
    n_t = resolution + resolution % 2
    rules = [disk_polar_rule(sh["radius"], resolution, n_t) if sh["type"] == "disk"
             else annulus_polar_rule(sh["r_inner"], sh["r_outer"], resolution, n_t)
             for sh in shapes]
    return tuple(_piece(np.asarray(sh["center"], dtype=float), r.nodes, sh["value"] * r.weights)
                 for sh, r in zip(shapes, rules))


RING_SHAPES = OFF_CENTRE + [{"type": "disk", "center": (0.0, 0.0), "radius": 0.3, "value": 0.4}]
RING_TARGETS = {
    # symmetric under p -> -p and the x-axis reflection, with p = 0 among them
    "symmetric": lambda: np.concatenate([disk_polar_rule(3.0, 20, 30).nodes, np.zeros((1, 2))]),
    "asymmetric": lambda: np.concatenate([np.random.default_rng(9).uniform(-3.0, 3.0, (400, 2)),
                                          np.zeros((1, 2))]),
    # fewer targets than Chebyshev points: the profiles are taken at the targets
    "few": lambda: np.random.default_rng(10).uniform(-3.0, 3.0, (7, 2)),
}


class TestRingSums:
    """A shape's ring sums equal the folded sum over the nodes of its polar rule."""

    @pytest.mark.parametrize("kappa", [0.4, 5.0, 50.0, 200.0])
    @pytest.mark.parametrize("resolution", [8, 24, 40])
    @pytest.mark.parametrize("targets", sorted(RING_TARGETS))
    def test_matches_folded_sum(self, kappa, resolution, targets):
        pts = RING_TARGETS[targets]()
        q = ContrastField.from_shapes(RING_SHAPES, resolution)
        got = synthesize_born(q, kappa, pts).values
        want = _born_sum(_folded_shapes(RING_SHAPES, resolution), kappa, pts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kappa", [0.4, 5.0])
    @pytest.mark.parametrize("n_r,branch", [(6, "direct"), (82, "interpolated")])
    def test_disk_rule_targets(self, kappa, n_r, branch, monkeypatch):
        # a polar rule's nodes share few radii, so each piece takes its profiles
        # once per distinct |x|: at those radii when there are at most P of them,
        # else at the P Chebyshev points
        pts = disk_polar_rule(3.0, n_r, 42).nodes
        q = ContrastField.from_shapes(RING_SHAPES, 24)
        x = kappa * pts
        distinct = len(np.unique(np.hypot(x[:, 0], x[:, 1])))
        calls = []
        real = RingPiece.profiles

        def profiles(piece, rho, orders):
            calls.append(len(rho))
            return real(piece, rho, orders)

        monkeypatch.setattr(RingPiece, "profiles", profiles)
        got = synthesize_born(q, kappa, pts).values
        cheb = [math.ceil(np.hypot(x[:, 0], x[:, 1]).max() * piece.radii.max()) + 30
                for piece in q.pieces]
        assert distinct < len(pts) // 10
        assert calls == ([distinct] * len(q.pieces) if branch == "direct" else cheb)
        assert all((distinct <= p) == (branch == "direct") for p in cheb)
        want = _born_sum(_folded_shapes(RING_SHAPES, 24), kappa, pts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_aliased_orders(self):
        # the largest |x| r of the kappa = 200 and 0.4 cases above: on 8 angles
        # the first aliases orders up to 600, on 24 angles the second keeps J_0
        span = 3.0 * np.sqrt(2.0) * ContrastField.from_shapes(OFF_CENTRE, 8).pieces[0].radii.max()
        assert _aliased_orders(200.0 * span, 8) == 75
        assert _aliased_orders(0.4 * span, 8) == 1 and _aliased_orders(0.4 * span, 24) == 0

    @pytest.mark.parametrize("kappa", [0.4, 5.0, 200.0])
    def test_far_field_single_target(self, kappa):
        q = ContrastField.from_shapes(RING_SHAPES, 12)
        x_hat, t_hat = np.array([0.6, 0.8]), np.array([-1.0, 0.0])
        want = kappa**2 * _born_sum(_folded_shapes(RING_SHAPES, 12), kappa,
                                    (t_hat - x_hat)[None, :])[0]
        assert abs(far_field(q, x_hat, t_hat, kappa) - want) <= 1e-13 * abs(want)
        assert far_field(q, x_hat, x_hat, kappa) == pytest.approx(
            kappa**2 * sum(sh["value"] * ContrastField.from_shapes([sh], 12).quad.total_weight
                           for sh in RING_SHAPES), rel=1e-14)

    def test_shapes_skip_the_target_maps(self, monkeypatch):
        calls = []
        real = numerics.mirror_map
        monkeypatch.setattr(numerics, "mirror_map", lambda pts: calls.append(len(pts)) or real(pts))
        pts = RING_TARGETS["symmetric"]()
        synthesize_born(ContrastField.from_shapes(RING_SHAPES, 24), 1.0, pts)
        assert calls == []
        synthesize_born(_grid_support()[0], 1.0, pts)
        assert calls == [len(pts)]


class TestFarField:
    def test_equals_scaled_born_datum(self):
        q = ContrastField.from_shapes(DISK, resolution=120)
        k = 1.7
        x_hat = np.array([math.cos(0.3), math.sin(0.3)])
        t_hat = np.array([math.cos(2.1), math.sin(2.1)])
        ff = far_field(q, x_hat, t_hat, k)
        born = synthesize_born(q, k, (t_hat - x_hat)[None, :]).values[0]
        assert ff == pytest.approx(k * k * born, rel=1e-12)

    def test_forward_scattering_is_mass(self):
        q = ContrastField.from_shapes(DISK, resolution=120)
        d = np.array([0.0, 1.0])
        assert far_field(q, d, d, 2.0) == pytest.approx(4.0 * math.pi * 0.64, rel=1e-12)

    def test_reciprocity(self):
        q = ContrastField.from_shapes(DISK, resolution=100)
        x_hat = np.array([1.0, 0.0])
        t_hat = np.array([math.cos(1.0), math.sin(1.0)])
        a = far_field(q, x_hat, t_hat, 1.3)
        b = far_field(q, -t_hat, -x_hat, 1.3)
        assert a == pytest.approx(b, rel=1e-13)


class TestIngest:
    def test_dense_direction_grid_reproduces_born(self):
        q = ContrastField.from_shapes([{"type": "disk", "radius": 0.5, "value": 1.0}],
                                      resolution=100)
        k = 1.0
        n = 128
        ang = 2 * math.pi * np.arange(n) / n
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        samples = []
        for xh in dirs:
            born = synthesize_born(q, k, dirs - xh).values
            for th, v in zip(dirs, born):
                samples.append((xh, th, k * k * v))
        target = disk_polar_rule(2.0, 24, 32)
        data = ingest_farfield(*map(np.array, zip(*samples)), k, k, target)
        want = synthesize_born(q, k, target).values
        assert not data.flags.any()
        err = np.abs(data.values - want).max() / np.abs(want).max()
        assert err < 1e-3

    def test_empty_samples_refused(self):
        target = disk_polar_rule(1.0, 6, 8)
        with pytest.raises(ParameterError, match="^no far-field rows$"):
            ingest_farfield([], [], [], 1.0, 1.0, target)

    @pytest.mark.parametrize("n,spread", [(1, 1), (2, 1), (50, 2), (3000, 4), (3000, 10**15)])
    def test_grouping_is_the_unique_rows(self, n, spread):
        keys = np.random.default_rng(n).integers(-spread, spread, (n, 2), endpoint=True)
        _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        got_inverse, got_counts = _group_rows(keys)
        assert np.array_equal(got_inverse, inverse.ravel())
        assert np.array_equal(got_counts, counts)


def benchmark_directions(kind, param, n=96):
    """Direction pairs laid out as the benchmark's far-field files lay them
    out: L(Theta), every pair of n midpoint angles in (-Theta, Theta); M(x*),
    x_hat = -+s x* at n / 2 square-root-spaced fractions s, each with theta_hat
    = s e(t) at n angles round the circle."""
    if kind == "L":
        t = param * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
        e = np.stack([np.cos(t), np.sin(t)], axis=1)
        return np.repeat(e, n, axis=0), np.tile(e, (n, 1))
    s = np.sqrt((np.arange(n // 2) + 0.5) / (n // 2))
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    e = np.stack([np.cos(t), np.sin(t)], axis=1)
    x_hat = np.concatenate([np.repeat(-sign * s[:, None] * np.asarray(param), n, axis=0)
                            for sign in (1.0, -1.0)])
    return x_hat, np.tile((s[:, None, None] * e).reshape(-1, 2), (2, 1))


# x* at a generic angle; a two-disk phantom whose support reaches 0.8 from the origin
X_STAR = (math.cos(1.971), math.sin(1.971))
PHANTOM = ContrastField.from_shapes([
    {"type": "disk", "center": [0.5, 0.2], "radius": 0.25, "value": 1.0},
    {"type": "disk", "center": [-0.3, 0.6], "radius": 0.2, "value": 0.7}], resolution=16)


def _angle_ingest(geometry, kind, param, rule, resolution, k=5.0, q=PHANTOM, n=96, digits=None):
    """The data ingested from far-field samples of q on the direction grid of
    (kind, param) at wavenumber k onto the rule of the geometry, the rule, and
    the weighted relative error on the covered nodes against the Born data
    of the geometry's kernel scale kappa = k / h.  With `digits`, every
    sample number is first rounded to that many significant digits, as a
    text file written with "%.{digits}g" holds it."""
    x_hat, theta_hat = benchmark_directions(kind, param, n)
    kappa = k / geometry.h
    values = k * k * synthesize_born(q, k, theta_hat - x_hat).values
    if digits is not None:
        x_hat, theta_hat, re, im = (np.char.mod(f"%.{digits}g", a).astype(float)
                                    for a in (x_hat, theta_hat, values.real, values.imag))
        values = re + 1j * im
    rule_ = P.build_quadrature(geometry, resolution, rule)
    data = ingest_farfield(x_hat, theta_hat, values, k, kappa, rule_, geometry=geometry)
    want = synthesize_born(q, kappa, rule_.nodes).values
    ok, w = data.valid, rule_.weights
    err = math.sqrt(np.sum(w[ok] * np.abs(data.values[ok] - want[ok]) ** 2)
                    / np.sum(w[ok] * np.abs(want[ok]) ** 2))
    return data, rule_, err


class TestIngestAngle:
    """Far fields on a direction grid are interpolated in the grid's two angle
    parameters: spectral accuracy, and coverage of the data domain up to half
    a grid step."""

    # resolutions that put 1,250 and 1,550 nodes on each set (the benchmark's
    # extreme node levels); 51, 57 and 45 are odd midpoint grids, with a node at p = 0
    CELLS = [(kind, param, rule, res)
             for kind, param, resolutions in [
                 ("L", 0.55 * math.pi, {"polar": (102, 112), "midpoint": (51, 57)}),
                 ("L", 0.7 * math.pi, {"polar": (102, 112), "midpoint": (43, 48)}),
                 ("L", 0.85 * math.pi, {"polar": (102, 112), "midpoint": (40, 45)}),
                 ("M", X_STAR, {"polar": (144, 160), "midpoint": (56, 63)})]
             for rule, pair in resolutions.items() for res in pair]

    @pytest.mark.parametrize("kind,param,rule,res", CELLS)
    def test_matches_closed_form(self, kind, param, rule, res):
        geometry = (P.Geometry.limited_aperture(param) if kind == "L"
                    else P.Geometry.multi_freq(param))
        data, rule_, err = _angle_ingest(geometry, kind, param, rule, res)
        assert data.meta["interp"] == "angle"
        assert err <= 1e-6, err
        assert rule_.weights[data.valid].sum() >= 0.99 * rule_.weights.sum()
        origin = np.flatnonzero(np.all(rule_.nodes == 0.0, axis=1))
        assert len(origin) == (kind == "L" and rule == "midpoint" and res % 2)
        assert data.valid[origin].all()  # p = 0, taken on the diagonal x_hat = theta_hat

    def test_full_circle_disk_grid(self):
        # both rings close the circle: every node of a disk of radius < 2 is covered
        n = 64
        t = 2.0 * math.pi * np.arange(n) / n
        e = np.stack([np.cos(t), np.sin(t)], axis=1)
        x_hat, theta_hat = np.repeat(e, n, axis=0), np.tile(e, (n, 1))
        values = 4.0 * synthesize_born(PHANTOM, 2.0, theta_hat - x_hat).values
        target = disk_polar_rule(1.9, 24, 48)
        data = ingest_farfield(x_hat, theta_hat, values, 2.0, 2.0, target)
        want = synthesize_born(PHANTOM, 2.0, target.nodes).values
        assert data.meta["interp"] == "angle" and data.valid.all()
        assert np.abs(data.values - want).max() <= 1e-7 * np.abs(want).max()

    @pytest.mark.parametrize("h", [0.5, 2.0])
    @pytest.mark.parametrize("kind,param", [("L", 0.7 * math.pi), ("M", X_STAR)])
    def test_scaled_directions(self, kind, param, h):
        # k / kappa = h: node p has its preimage at p / h in direction space
        geometry = (P.Geometry.limited_aperture(param, h=h) if kind == "L"
                    else P.Geometry.multi_freq(param, h=h))
        data, rule_, err = _angle_ingest(geometry, kind, param, "polar", 102)
        assert data.meta["kappa"] == 5.0 / h
        assert err <= 1e-6, err
        assert rule_.weights[data.valid].sum() >= 0.99 * rule_.weights.sum()

    @pytest.mark.parametrize("digits", [6, 10])
    @pytest.mark.parametrize("kind,param", [("L", 2.2), ("M", (0.6, 0.8))])
    def test_text_precision_grids(self, kind, param, digits):
        # a grid written at 6 or 10 significant digits is still recognised
        # (to GRID_TOL) and interpolated in its angles
        geometry = (P.Geometry.limited_aperture(param) if kind == "L"
                    else P.Geometry.multi_freq(param))
        data, rule_, err = _angle_ingest(geometry, kind, param, "polar", 102, n=64, digits=digits)
        assert data.meta["interp"] == "angle"
        assert err <= 1e-5, err
        assert rule_.weights[data.valid].sum() >= 0.99 * rule_.weights.sum()

    def test_innermost_rings_limit_m_accuracy(self):
        # a phantom at the benchmark's reach (support to 1.9 from the origin):
        # the square-root-spaced fractions leave the innermost rings of M data
        # 0.075 apart in s (0.15 in p along x*, 1.4 radians of phase), and the
        # error collects at s < 0.3, a hundred times that further out
        q = ContrastField.from_shapes([
            {"type": "disk", "center": (1.6 * np.asarray(X_STAR)).tolist(), "radius": 0.3,
             "value": 1.0},
            {"type": "disk", "center": [-0.9, 0.3], "radius": 0.25, "value": 0.8}], resolution=16)
        geometry = P.Geometry.multi_freq(X_STAR)
        data, rule_, err = _angle_ingest(geometry, "M", X_STAR, "polar", 160, q=q)
        p = rule_.nodes
        s = np.sum(p * p, axis=1) / (2.0 * np.abs(p @ np.asarray(X_STAR)))
        outer = data.valid & (s >= 0.3)
        want = synthesize_born(q, 5.0, p[outer]).values
        w = rule_.weights[outer]
        outer_err = math.sqrt(np.sum(w * np.abs(data.values[outer] - want) ** 2)
                              / np.sum(w * np.abs(want) ** 2))
        assert 100.0 * outer_err <= err <= 1e-3, (outer_err, err)


class TestNoise:
    def _data(self):
        rng = np.random.default_rng(5)
        nodes = rng.uniform(-1, 1, (64, 2))
        return DataGrid(nodes=nodes, weights=np.full(64, 0.1),
                        values=rng.standard_normal(64) + 1j * rng.standard_normal(64),
                        flags=np.zeros(64, dtype=np.uint8), meta={"kappa": 1.0})

    def test_zero_noise_identical(self):
        data = self._data()
        noisy = add_noise(data, 0.0, 42)
        assert np.array_equal(noisy.values, data.values)

    def test_exact_relative_level(self):
        data = self._data()
        noisy = add_noise(data, 0.037, 11)
        ratio = DataGrid(nodes=data.nodes, weights=data.weights,
                         values=noisy.values - data.values, flags=data.flags).weighted_norm() \
            / data.weighted_norm()
        assert ratio == pytest.approx(0.037, abs=1e-12)
        assert noisy.meta["delta_abs"] == pytest.approx(0.037 * data.weighted_norm(), rel=1e-12)

    def test_seed_reproducible(self):
        data = self._data()
        a = add_noise(data, 0.1, 7)
        b = add_noise(data, 0.1, 7)
        assert np.array_equal(a.values, b.values)
        c = add_noise(data, 0.1, 8)
        assert not np.array_equal(a.values, c.values)

    def test_negative_level_rejected(self):
        with pytest.raises(ParameterError):
            add_noise(self._data(), -0.1, 0)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_negative_seed_rejected(self, delta):
        with pytest.raises(ParameterError, match="seed"):
            add_noise(self._data(), delta, -1)

    def test_all_missing_rejected(self):
        data = replace(self._data(), flags=np.ones(64, dtype=np.uint8))
        with pytest.raises(DataCoverageError):
            add_noise(data, 0.1, 0)


class TestDataGridIO:
    def test_round_trip(self, tmp_path):
        data = TestNoise()._data()
        data = add_noise(data, 0.05, 3)
        geo = P.Geometry.disk(radius=1.0, h=2.0)
        data = DataGrid(nodes=data.nodes, weights=data.weights, values=data.values,
                        flags=data.flags, meta=data.meta, geometry=geo)
        path = tmp_path / "grid.csv"
        write_datagrid(path, data)
        back = read_datagrid(path)
        assert np.array_equal(back.nodes, data.nodes)
        assert np.array_equal(back.weights, data.weights)
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.flags, data.flags)
        assert back.geometry.kind == "disk" and back.geometry.h == 2.0
        assert back.meta["seed"] == 3

    @pytest.mark.parametrize("key,value", [("cutoff", math.inf), ("delta_abs", math.nan),
                                           ("kappa", -math.inf)])
    def test_non_finite_header_not_written(self, tmp_path, key, value):
        # strict JSON has no Infinity or NaN: the header is refused, not written
        data = replace(TestNoise()._data(), meta={"kappa": 1.0, "delta": 0.0, "seed": None,
                                                 key: value})
        path = tmp_path / "grid.csv"
        with pytest.raises(ParameterError, match="finite"):
            write_datagrid(path, data)
        assert not path.exists()

    def test_flag_other_than_0_or_1_refused(self):
        # a grid write_datagrid would write and read_datagrid refuse
        data = TestNoise()._data()
        flags = data.flags.copy()
        flags[3] = 2
        with pytest.raises(ParameterError, match="flags must be 0"):
            DataGrid(nodes=data.nodes, weights=data.weights, values=data.values, flags=flags)
        with pytest.raises(ParameterError, match="flags must be 0"):
            replace(data, flags=flags)

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "grid.csv"
        write_datagrid(path, TestNoise()._data())
        lines = path.read_text().splitlines()
        row = lines[4].split(",")
        row[4] = bad
        lines[4] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="non-finite"):
            read_datagrid(path)

    @pytest.mark.parametrize("edit", ["abc", "short", "flag"])
    def test_malformed_row_rejected(self, tmp_path, edit):
        path = tmp_path / "grid.csv"
        write_datagrid(path, TestNoise()._data())
        lines = path.read_text().splitlines()
        row = lines[4].split(",")
        lines[4] = {"abc": ",".join(row[:2] + ["abc"] + row[3:]), "short": ",".join(row[:5]),
                    "flag": ",".join(row[:5] + ["1.5"])}[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="line 5: malformed data row"):
            read_datagrid(path)

    def test_rows_are_the_per_row_format(self, tmp_path):
        # the vectorized writers emit the bytes of the row-by-row f"{float(x)!r}" format
        rng = np.random.default_rng(8)
        edge = np.array([-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, -2.5, 1e16, 3.0])
        nodes = np.column_stack([rng.standard_normal(8) * 10.0 ** rng.integers(-12, 12, 8), edge])
        values = edge[::-1] * rng.uniform(-0.9, 0.9, 8) + 1j * edge
        data = DataGrid(nodes=nodes, weights=np.abs(edge) + 0.5, values=values,
                        flags=np.array([0, 1, 0, 0, 1, 0, 0, 1], dtype=np.uint8),
                        meta={"kappa": 2.0})
        path = tmp_path / "grid.csv"
        write_datagrid(path, data)
        rows = "".join(f"{float(x)!r},{float(y)!r},{float(w)!r},{float(v.real)!r},"
                       f"{float(v.imag)!r},{int(f)}\n"
                       for (x, y), w, v, f in zip(data.nodes, data.weights, data.values, data.flags))
        body = path.read_text().split("\n", 2)[2]
        assert body == rows
        back = read_datagrid(path)
        write_datagrid(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
        for field in (values, values.real):
            write_field_csv(tmp_path / "field.csv", nodes, field)
            rows = "".join(f"{float(x)!r},{float(y)!r},{float(np.real(v))!r}\n"
                           for (x, y), v in zip(nodes, field))
            assert (tmp_path / "field.csv").read_text() == "x,y,q\n" + rows

    ROW = "0.5,-0.25,0.125,1.5,-2.0,0"
    # data bodies (as bytes, after the two header lines) and whether the
    # loadtxt parse takes them; the rest go through the line-by-line pass
    CORPUS = {
        "plain": ("\n".join([ROW, "1e-300,-0.0,5e-324,1.7976931348623157e308,nan,1"] * 3) + "\n",
                  True),
        "no final newline": (ROW + "\n" + ROW, True),
        "blank lines": ("\n" + ROW + "\n\n" + ROW + "\n\n", True),
        "line of spaces": (ROW + "\n   \n" + ROW + "\n", False),
        "crlf": (ROW + "\r\n" + ROW + "\r\n", True),
        "padded fields": (" 0.5 , -0.25,\t0.125 ,1.5,-2.0, 0 \n" + ROW + "\n", True),
        "plus flag": (ROW[:-1] + "+1\n", True),
        "underscore float": ("1_0" + ROW[3:] + "\n", False),
        "underscore flag": (ROW[:-1] + "0_1\n", False),
        "float flag": (ROW + "\n" + ROW[:-1] + "1.0\n", False),
        "wide flag": (ROW[:-1] + "300\n", False),
        "negative flag": (ROW[:-1] + "-1\n", False),
        "short row": (ROW + "\n" + ROW[:-2] + "\n", False),
        "long row": (ROW + ",0\n" + ROW + "\n", False),
        "empty field": (",-0.25,0.125,1.5,-2.0,0\n", False),
        "unit separator": (ROW + "\x1f\n", False),
        "file separator after a row": (ROW + "\n" + ROW + "\x1c\n", False),
        "non-ascii digit": ("\u0661" + ROW[3:] + "\n", False),
        "no rows": ("", False),
    }
    # the errors of bodies whose last field ends in padding that `float` and
    # `int` refuse and `str.strip` removes: the pass names the line
    MESSAGES = {"unit separator": f"line 3: malformed data row {ROW!r}",
                "file separator after a row": f"line 4: malformed data row {ROW!r}"}

    @staticmethod
    def _write(path, body: str) -> None:
        """A data file with `body` under a valid header."""
        reference = [line for line in body.replace("\r\n", "\n").split("\n") if line.strip()]
        header = {"kappa": 1.0, "delta": 0.0, "seed": None, "geometry": None,
                  "count": len(reference), "meta": {}}
        path.write_bytes((json.dumps(header) + "\npx,py,weight,re,im,flag\n" + body).encode())

    @pytest.mark.parametrize("case", list(CORPUS))
    def test_loadtxt_path_is_the_row_parse(self, tmp_path, monkeypatch, case):
        body, fast = self.CORPUS[case]
        path = tmp_path / "grid.csv"
        self._write(path, body)
        columns = _loadtxt_columns(path)
        assert (columns is not None) == fast
        try:
            want, error = _row_pass_columns(path, monkeypatch), None
        except ParameterError as exc:
            want, error = None, exc
        if columns is not None:  # whatever the reader takes, the row parse takes the same way
            assert want is not None
            for got, ref in zip(columns, want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                                      np.ascontiguousarray(ref).view(np.uint8))
        if want is None:
            with pytest.raises(ParameterError) as err:
                read_datagrid(path)
            assert str(err.value) == str(error)
            if case in self.MESSAGES:
                assert str(err.value) == f"{path} {self.MESSAGES[case]}"
            return
        if not all(np.isfinite(a).all() for a in want[:3]):
            with pytest.raises(ParameterError, match="non-finite"):
                read_datagrid(path)
            return
        back = read_datagrid(path)
        for got, ref in zip((back.nodes, back.weights, back.values, back.flags), want):
            assert np.array_equal(got, ref)

    def test_written_files_take_the_loadtxt_path(self, tmp_path):
        path = tmp_path / "grid.csv"
        data = add_noise(TestNoise()._data(), 0.05, 3)
        write_datagrid(path, data)
        assert _loadtxt_columns(path) is not None

    def test_row_with_extra_field_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_datagrid(path, TestNoise()._data())
        lines = path.read_text().splitlines()
        lines[6] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="line 7: malformed data row"):
            read_datagrid(path)

    @staticmethod
    def _with_header(path, **fields):
        """Write TestNoise's grid to `path` with `fields` set in its JSON header."""
        write_datagrid(path, TestNoise()._data())
        header, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(header), **fields}) + "\n" + rest)

    @pytest.mark.parametrize("fields,name", [
        ({"kappa": "abc"}, "kappa"), ({"kappa": 0.0}, "kappa"), ({"kappa": -2.0}, "kappa"),
        ({"kappa": math.inf}, "kappa"), ({"kappa": True}, "kappa"),
        ({"delta": "x"}, "delta"), ({"delta": None}, "delta"), ({"delta": -0.1}, "delta"),
        ({"delta": math.nan}, "delta"), ({"meta": {"delta_abs": "x"}}, "delta_abs"),
        ({"meta": {"delta_abs": -1e-3}}, "delta_abs"), ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"), ({"seed": "3"}, "seed"), ({"seed": True}, "seed"),
    ])
    def test_header_field_refused(self, tmp_path, fields, name):
        path = tmp_path / "grid.csv"
        self._with_header(path, **fields)
        with pytest.raises(ParameterError, match=f"header '{name}'"):
            read_datagrid(path)

    @pytest.mark.parametrize("fields", [{"kappa": None}, {"kappa": 2.5}, {"seed": None},
                                        {"seed": 0}, {"seed": 7}, {"delta": 0},
                                        {"meta": {"delta_abs": 0.0}}])
    def test_header_field_accepted(self, tmp_path, fields):
        path = tmp_path / "grid.csv"
        self._with_header(path, **fields)
        read_datagrid(path)

    @pytest.mark.parametrize("flag", ["2", "7", "255"])
    def test_flag_other_than_0_or_1_refused(self, tmp_path, flag):
        path = tmp_path / "grid.csv"
        write_datagrid(path, TestNoise()._data())
        lines = path.read_text().split("\n")
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + flag
        path.write_text("\n".join(lines))
        with pytest.raises(ParameterError, match=f"data row 4 flag must be 0 .* got {flag}"):
            read_datagrid(path)

    def test_header_is_json_line(self, tmp_path):
        import json
        data = TestNoise()._data()
        path = tmp_path / "grid.csv"
        write_datagrid(path, data)
        with open(path) as f:
            header = json.loads(f.readline())
        assert header["count"] == 64
