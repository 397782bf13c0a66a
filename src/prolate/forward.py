"""Born data synthesis, far-field ingestion, and calibrated noise.

The forward map is the Fourier-type integral u(p) = int_Omega exp(i kappa
p.p') q(p') dp' evaluated by quadrature over the contrast support; the
scattering amplitude at wavenumber k factors through it as
k^2 u(theta_hat - x_hat).
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataCoverageError, ParameterError, check_keys, numeric
from .numerics import (AnnulusPiece, GridPiece, QuadratureRule, SupportPiece, _annulus_rings,
                       _born_sum, _disk_rings, _polar_layout)
from .symset_basis import Geometry

__all__ = [
    "ContrastField",
    "DataGrid",
    "synthesize_born",
    "far_field",
    "ingest_farfield",
    "add_noise",
    "write_datagrid",
    "read_datagrid",
    "read_columns",
    "write_csv",
]


# Points sampled on the support boundary for the containment check.
BOUNDARY_SAMPLES = 1024


@dataclass(frozen=True)
class ContrastField:
    """The unknown medium contrast: point oracle, quadrature, and support extent.

    `evaluate` returns q at (N, 2) points and vanishes off the support;
    overlapping shape values add.  `pieces` holds one closed-form
    `AnnulusPiece` per disk or annulus (so an overlap counts once per shape),
    or q times the quadrature weight on the support nodes as one `GridPiece`
    per pixel grid (centred at the grid centre) or one `SupportPiece` at the
    origin for an explicit rule; `quad` holds the support nodes (for shapes,
    their polar rules, which synthesis does not read).  `radius` is that of
    the smallest origin-centred disk containing the support, and `boundary`
    holds points sampling the support boundary.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    quad: QuadratureRule
    pieces: tuple[AnnulusPiece | GridPiece | SupportPiece, ...]
    radius: float
    boundary: np.ndarray

    @staticmethod
    def from_shapes(shapes: list[dict], resolution: int = 160) -> "ContrastField":
        """Disks {type, center, radius, value} and annuli (r_inner, r_outer in place of radius);
        `quad` holds each on the polar rule of `resolution` radii and as many angles, rounded
        up to even."""
        if not shapes:
            raise ParameterError("contrast needs at least one shape")
        shapes = [_check_shape(sh) for sh in shapes]
        rules = [_polar_layout(*(_disk_rings(sh.outer, resolution) if sh.disk
                                 else _annulus_rings(sh.inner, sh.outer, resolution)),
                               resolution + resolution % 2) for sh in shapes]
        quad = QuadratureRule(np.concatenate([r.nodes + sh.center for r, sh in zip(rules, shapes)]),
                              np.concatenate([r.weights for r in rules]))

        def evaluate(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.zeros(len(pts))
            for sh in shapes:  # a disk holds its centre, an annulus never does
                d2 = (pts[:, 0] - sh.center[0]) ** 2 + (pts[:, 1] - sh.center[1]) ** 2
                out += np.where((d2 < sh.outer**2) & (sh.disk | (d2 > sh.inner**2)), sh.value, 0.0)
            return out

        radius = float(max(np.hypot(*sh.center) + sh.outer for sh in shapes))
        boundary = _circles([(sh.center, r) for sh in shapes
                             for r in ((sh.outer,) if sh.disk else (sh.inner, sh.outer))],
                            max(64, BOUNDARY_SAMPLES // len(shapes)))
        pieces = tuple(AnnulusPiece(sh.center, sh.inner, sh.outer, sh.value) for sh in shapes)
        return ContrastField(evaluate=evaluate, quad=quad, pieces=pieces,
                             radius=radius, boundary=boundary)

    @staticmethod
    def from_grid(origin, dx: float, dy: float, values) -> "ContrastField":
        """Pixel values[i, j] on [origin + (i, j) * (dx, dy), origin + (i+1, j+1) * (dx, dy))."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2:
            raise ParameterError("grid values must be a 2D array")
        for key, step in (("dx", dx), ("dy", dy)):
            if not (np.isfinite(step) and step > 0.0):
                raise ParameterError(f"contrast grid {key!r} must be a positive number, "
                                     f"got {step!r}")
        ox, oy = float(origin[0]), float(origin[1])
        ii, jj = np.nonzero(vals)
        if len(ii) == 0:
            raise ParameterError("grid contrast is identically zero")
        centers = np.stack([ox + (ii + 0.5) * dx, oy + (jj + 0.5) * dy], axis=1)
        quad = QuadratureRule(centers, np.full(len(ii), dx * dy))
        # the piece spans the grid's nonzero rows and columns, about the grid centre
        nx, ny = vals.shape
        rows, cols = np.flatnonzero(vals.any(axis=1)), np.flatnonzero(vals.any(axis=0))
        piece = GridPiece(np.array([ox + nx * dx / 2.0, oy + ny * dy / 2.0]),
                          (rows + 0.5 - nx / 2.0) * dx, (cols + 0.5 - ny / 2.0) * dy,
                          vals[np.ix_(rows, cols)] * (dx * dy))

        def evaluate(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            i = np.floor((pts[:, 0] - ox) / dx).astype(int)
            j = np.floor((pts[:, 1] - oy) / dy).astype(int)
            ok = (i >= 0) & (i < vals.shape[0]) & (j >= 0) & (j < vals.shape[1])
            out = np.zeros(len(pts))
            out[ok] = vals[i[ok], j[ok]]
            return out

        corners = [np.stack([ox + (ii + di) * dx, oy + (jj + dj) * dy], axis=1)
                   for di in (0, 1) for dj in (0, 1)]
        return ContrastField(evaluate=evaluate, quad=quad, pieces=(piece,),
                             radius=_node_radius(quad), boundary=np.concatenate(corners))

    @staticmethod
    def from_config(cfg: dict, resolution: int = 160) -> "ContrastField":
        check_keys(cfg, (), "contrast")
        if "grid" in cfg:
            g = cfg["grid"]
            what = "contrast grid"
            check_keys(g, ("origin", "dx", "dy", "values"), what)
            return ContrastField.from_grid(
                numeric(g, "origin", what, (2,)), numeric(g, "dx", what), numeric(g, "dy", what),
                numeric(g, "values", what, (None, None)))
        check_keys(cfg, ("shapes",), "contrast")
        return ContrastField.from_shapes(cfg["shapes"], resolution=resolution)


def _node_radius(quad: QuadratureRule) -> float:
    return float(np.hypot(quad.nodes[:, 0], quad.nodes[:, 1]).max())


def _circles(circles, per: int) -> np.ndarray:
    """`per` equally spaced points on each (centre, radius) circle."""
    t = 2.0 * np.pi * np.arange(per) / per
    return np.concatenate([np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)
                           for (cx, cy), r in circles])


class _Shape(NamedTuple):
    disk: bool
    center: np.ndarray
    inner: float  # 0 for a disk
    outer: float
    value: float


_SHAPE_KEYS = {"disk": ("radius", "value"), "annulus": ("r_inner", "r_outer", "value")}


def _check_shape(sh) -> _Shape:
    """The shape record with its numbers as floats; ParameterError unless it is
    a shape dict with every key its type needs, each holding a finite number."""
    check_keys(sh, ("type",), "shape")
    if sh["type"] not in _SHAPE_KEYS:
        raise ParameterError(f"unknown shape type {sh['type']!r}")
    what = f"{sh['type']} shape"
    check_keys(sh, _SHAPE_KEYS[sh["type"]], what)
    center = numeric(sh, "center", what, (2,)) if "center" in sh else np.zeros(2)
    x = {key: numeric(sh, key, what) for key in _SHAPE_KEYS[sh["type"]]}
    if sh["type"] == "disk":
        return _Shape(True, center, 0.0, x["radius"], x["value"])
    return _Shape(False, center, x["r_inner"], x["r_outer"], x["value"])


@dataclass(frozen=True)
class DataGrid:
    """Complex Born data sampled on quadrature nodes of the data domain."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    flags: np.ndarray  # 0 valid, 1 missing
    meta: dict = field(default_factory=dict)
    geometry: Geometry | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=np.uint8))
        if np.any(self.flags > 1):
            raise ParameterError(f"data grid flags must be 0 (valid) or 1 (missing), "
                                 f"got {self.flags.max()}")

    @property
    def valid(self) -> np.ndarray:
        return self.flags == 0

    @property
    def bandwidth(self) -> float | None:
        """kappa h^2, the bandwidth of the data's basis; None without kappa or domain."""
        kappa = self.meta.get("kappa")
        return None if kappa is None or self.geometry is None else kappa * self.geometry.h**2

    def weighted_norm(self) -> float:
        ok = self.valid
        return float(np.sqrt(np.sum(self.weights[ok] * np.abs(self.values[ok]) ** 2)))


def _oscillation_resolved(q: ContrastField, kappa: float, targets: np.ndarray) -> bool:
    """Heuristic: at least ~10 support nodes per oscillation period of the kernel.
    A contrast of closed-form shape pieces only is resolved at every kappa."""
    if all(isinstance(piece, AnnulusPiece) for piece in q.pieces):
        return True
    support = q.quad.nodes
    diam = float(np.ptp(support[:, 0]) + np.ptp(support[:, 1]))
    if diam == 0.0:
        return True
    spacing = np.sqrt(q.quad.total_weight / len(q.quad))
    pmax = float(np.hypot(targets[:, 0], targets[:, 1]).max()) if len(targets) else 0.0
    return kappa * pmax * spacing <= 2.0 * np.pi / 10.0


def synthesize_born(q: ContrastField, kernel_scale: float, targets,
                    geometry: Geometry | None = None) -> DataGrid:
    """u(p) = int_Omega exp(i kappa p.p') q(p') dp' on the target nodes.

    `targets` is a QuadratureRule (its nodes and weights are carried into the
    DataGrid) or a bare (N, 2) array (unit weights).  Sets meta flag
    "underresolved" when the support quadrature of a pixel grid or an explicit
    rule looks too coarse for the kernel oscillation; disks and annuli are
    exact at every kappa.
    """
    if kernel_scale <= 0.0:
        raise ParameterError("kernel_scale must be positive")
    if isinstance(targets, QuadratureRule):
        nodes, weights = targets.nodes, targets.weights
    else:
        nodes = np.atleast_2d(np.asarray(targets, dtype=float))
        weights = np.ones(len(nodes))
    values = _born_sum(q.pieces, kernel_scale, nodes)
    meta = {"kappa": float(kernel_scale), "delta": 0.0, "seed": None,
            "underresolved": not _oscillation_resolved(q, kernel_scale, nodes)}
    return DataGrid(nodes=nodes, weights=weights, values=values,
                    flags=np.zeros(len(nodes), dtype=np.uint8), meta=meta, geometry=geometry)


def far_field(q: ContrastField, x_hat, theta_hat, k: float) -> complex:
    """Scattering amplitude k^2 int_Omega exp(-i k x_hat.p') q(p') exp(i k p'.theta_hat) dp'."""
    if k <= 0.0:
        raise ParameterError("far_field requires k > 0")
    p = np.asarray(theta_hat, dtype=float) - np.asarray(x_hat, dtype=float)
    return complex(k * k * _born_sum(q.pieces, k, p[None, :])[0])


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The group of each row of the (n, d) keys and each group's size, the
    groups being the distinct rows in lexicographic order, as from
    np.unique(keys, axis=0, return_inverse=True, return_counts=True).

    One lexsort of the columns; a group starts wherever a sorted row differs
    from the one before it.
    """
    order = np.lexsort(keys.T[::-1])
    start = np.ones(len(order), dtype=bool)
    start[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return inverse, np.diff(np.append(np.flatnonzero(start), len(order)))


# Points per axis of the Lagrange stencils that interpolate far fields on a
# direction grid, and the tolerance (relative) of the layout tests that
# recognise such a grid: unit lengths, ring radii, the line through the
# origin, and ring angles shared by every group.  The tolerance is that of
# text input: it admits grids written at 6 significant digits.
GRID_ORDER = 8
GRID_TOL = 1e-5


class _Arc(NamedTuple):
    """Increasing sample positions along one axis of a direction grid;
    `closed` where they are angles that close the circle (period 2 pi)."""

    x: np.ndarray
    closed: bool

    def wrap(self, t: np.ndarray) -> np.ndarray:
        """Angles t in the frame of the arc: in [x_0, x_0 + 2 pi) if it is
        closed, else cut in the middle of the gap it leaves open."""
        start = self.x[0] - (0.0 if self.closed else (self.x[0] + 2.0 * np.pi - self.x[-1]) / 2.0)
        return start + np.mod(t - start, 2.0 * np.pi)

    def depth(self, t: np.ndarray) -> np.ndarray:
        """Distance from t to the nearer end of the sampled range (inf if closed)."""
        if self.closed:
            return np.full(len(t), np.inf)
        return np.minimum(t - self.x[0], self.x[-1] - t)

    def covered(self, t: np.ndarray) -> np.ndarray:
        """Whether t lies within half a step of the sampled range."""
        if self.closed:
            return np.ones(len(t), dtype=bool)
        x = self.x
        return (t >= x[0] - (x[1] - x[0]) / 2.0) & (t <= x[-1] + (x[-1] - x[-2]) / 2.0)

    def stencil(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the GRID_ORDER samples about each t (all of them if
        the arc has fewer), one-sided at the ends of an open arc and wrapped
        on a closed one, and their Lagrange coefficients at t."""
        x, n = self.x, len(self.x)
        q = min(GRID_ORDER, n)
        start = np.searchsorted(x, t) - q // 2
        if self.closed:
            turns, start = np.divmod(start, n)
            raw = np.arange(n)[:, None] + np.arange(q)
            table = x[raw % n] + 2.0 * np.pi * (raw // n)
            t = t - 2.0 * np.pi * turns
        else:
            start = np.clip(start, 0, n - q)
            table = x[np.arange(n - q + 1)[:, None] + np.arange(q)]
        return (start[:, None] + np.arange(q)) % n, _lagrange(table, start, t)


def _lagrange(table: np.ndarray, start: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (m, q) coefficients, at the m points t, of the Lagrange
    interpolants through the stencils table[start] (rows of q increasing
    points), in barycentric form (Berrut & Trefethen, SIAM Review 46, 2004);
    a t on a node takes that node's value."""
    lo, span = table[:, :1], table[:, -1:] - table[:, :1]
    x = (table - lo) / span  # on [0, 1], so the weights neither overflow nor vanish
    diff = x[:, :, None] - x[:, None, :]
    q = x.shape[1]
    diff[:, np.arange(q), np.arange(q)] = 1.0
    w = 1.0 / diff.prod(axis=2)
    d = (t[:, None] - lo[start]) / span[start] - x[start]
    hit = d == 0.0
    c = w[start] / np.where(hit, 1.0, d)
    c /= c.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return c


def _arc(angles: np.ndarray) -> tuple[_Arc, int]:
    """Increasing angles in (-pi, pi] as an arc, and the shift that rolls them
    into its order: they close the circle if no gap between neighbours (the
    wrap-around one included) exceeds 1.5 median gaps; otherwise the arc
    starts after the widest gap, unwrapped to increase."""
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    if gaps.max() <= 1.5 * np.median(gaps):
        return _Arc(angles, True), 0
    start = (int(np.argmax(gaps)) + 1) % len(angles)
    x = np.roll(angles, -start)
    x[len(x) - start:] += 2.0 * np.pi
    return _Arc(x, False), start


class _DirectionGrid(NamedTuple):
    """Far-field rows on a direction grid: row order[g, i] pairs x_hat group g
    with the i-th angle of the ring of theta_hat shared by every group.  The
    groups run in `sides`, each the (first group, arc of the group parameter)
    of a run of groups one stencil may span: for unit pairs the x_hat angle,
    one run; on rings (x_star set) the fraction s, one run on each side of
    x*, sigma = +1 (x_hat = -s x*) then sigma = -1, None where a side is
    empty."""

    order: np.ndarray
    ring: _Arc
    sides: tuple
    x_star: np.ndarray | None


def _direction_grid(x_hat: np.ndarray, theta_hat: np.ndarray) -> _DirectionGrid:
    """The direction grid the rows lie on; ParameterError naming the first
    condition of the layout they break.  Rows sharing an exact x_hat form a
    group; every group must hold the same ring of theta_hat angles, at least
    2, strictly increasing.  Either every x_hat and theta_hat is a unit
    vector, or the x_hat lie on one line through the origin, x_hat = -+s x*,
    and each group's theta_hat has length s, with at least 2 groups on each
    side of x* that holds any.  Lengths, the line and the shared angles are
    tested to GRID_TOL."""
    group, counts = _group_rows(x_hat)
    m = int(counts[0])
    if len(counts) < 2 or m < 2 or np.any(counts != m):
        lo, hi = int(counts.min()), int(counts.max())
        rows = f"{lo} row{'s' * (hi > 1)}" if lo == hi else f"{lo} to {hi} rows"
        raise ParameterError(f"not a direction grid: {len(counts)} distinct x_hat with {rows} "
                             f"each; a grid needs at least 2, each with the same number of "
                             f"rows, at least 2")
    head = np.empty(len(counts), dtype=np.intp)
    head[group] = np.arange(len(group))
    gx = x_hat[head]
    rx, rt = np.hypot(x_hat[:, 0], x_hat[:, 1]), np.hypot(theta_hat[:, 0], theta_hat[:, 1])
    if np.all(np.abs(rx - 1.0) <= GRID_TOL) and np.all(np.abs(rt - 1.0) <= GRID_TOL):
        x_star = None
        a = np.arctan2(gx[:, 1], gx[:, 0])
        rank = np.argsort(a)
        if not np.all(np.diff(a[rank]) > 0.0):
            raise ParameterError("not a direction grid: two distinct x_hat at one angle")
        arc, shift = _arc(a[rank])
        rank = np.roll(rank, -shift)
        sides = ((0, arc),)
    else:
        r = np.hypot(gx[:, 0], gx[:, 1])
        x_star = gx[np.argmax(r)] / r.max()
        if not (np.all(r > 0.0) and np.all(np.abs(rt - rx) <= GRID_TOL * rx)
                and np.all(np.abs(gx[:, 0] * x_star[1] - gx[:, 1] * x_star[0]) <= GRID_TOL * r)):
            raise ParameterError(f"not a direction grid: the directions are neither unit "
                                 f"vectors nor x_hat on one line through the origin with "
                                 f"|theta_hat| = |x_hat| (to {GRID_TOL:g})")
        a = gx @ x_star
        rank = np.lexsort((r, a > 0.0))
        s = r[rank]
        split = int(np.count_nonzero(a < 0.0))
        sides = []
        for lo, hi in ((0, split), (split, len(s))):
            if hi - lo == 1 or not np.all(np.diff(s[lo:hi]) > 0.0):
                raise ParameterError(f"not a direction grid: {hi - lo} x_hat on one side of "
                                     f"x* with {len(np.unique(s[lo:hi]))} distinct lengths; a "
                                     f"side that holds any needs at least 2, all distinct")
            sides.append((lo, _Arc(s[lo:hi], False)) if hi > lo else None)
        sides = tuple(sides)
    position = np.empty(len(counts), dtype=np.intp)
    position[rank] = np.arange(len(counts))
    b = np.arctan2(theta_hat[:, 1], theta_hat[:, 0])
    order = np.lexsort((b, position[group])).reshape(len(counts), m)
    angles = b[order]
    if not np.all(np.diff(angles, axis=1) > 0.0):
        raise ParameterError("not a direction grid: an x_hat repeats a theta_hat angle")
    if not np.all(np.abs(angles - angles[0]) <= GRID_TOL):
        raise ParameterError(f"not a direction grid: the theta_hat angles differ between "
                             f"x_hat (to {GRID_TOL:g})")
    ring, shift = _arc(angles[0])
    return _DirectionGrid(np.roll(order, -shift, axis=1), ring, sides, x_star)


def _preimages(grid: _DirectionGrid, p: np.ndarray):
    """Each node p's grid parameters (a, b) and run in `grid.sides`, and
    whether it is covered: its preimage lies within half a step of the
    sampled range on both axes.

    Unit pairs: x_hat = -p/2 + sigma r p_perp/|p|, theta_hat = p/2 + sigma r
    p_perp/|p| with r = sqrt(1 - |p|^2/4), of the two signs the covered one
    farther from the ends of the ranges (the + sign on a tie); p = 0 is taken
    on the diagonal x_hat = theta_hat, in the middle of the x_hat range.
    Rings: s = |p|^2 / (2 |p.x*|) and e(t) = p/s - sigma x* on the side sigma
    = sign(p.x*).
    """
    n = len(p)
    ring = grid.ring
    rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
    if grid.x_star is None:
        (_, arc), = grid.sides
        rho = np.sqrt(rho2)
        origin = rho == 0.0
        mid = arc.x[0] if arc.closed else (arc.x[0] + arc.x[-1]) / 2.0
        u = p / np.where(origin, 1.0, rho)[:, None]
        lift = np.sqrt(np.maximum(0.0, 1.0 - rho2 / 4.0))[:, None] * np.stack([-u[:, 1], u[:, 0]], 1)
        a, b, covered = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
        depth = np.full(n, -np.inf)
        for sign in (1.0, -1.0):
            xh, th = sign * lift - p / 2.0, sign * lift + p / 2.0
            ta = arc.wrap(np.where(origin, mid, np.arctan2(xh[:, 1], xh[:, 0])))
            tb = ring.wrap(np.where(origin, mid, np.arctan2(th[:, 1], th[:, 0])))
            ok = (rho <= 2.0) & arc.covered(ta) & ring.covered(tb)
            d = np.minimum(arc.depth(ta), ring.depth(tb))
            take = ok & (~covered | (d > depth))
            a[take], b[take], depth[take] = ta[take], tb[take], d[take]
            covered |= ok
        return a, b, np.zeros(n, dtype=np.intp), covered
    d = p @ grid.x_star
    side = (d < 0.0).astype(np.intp)  # sigma = +1 is run 0
    reach = max(arc.x[-1] + (arc.x[-1] - arc.x[-2]) / 2.0 for _, arc in filter(None, grid.sides))
    ok = (d != 0.0) & (rho2 <= 2.0 * np.abs(d) * reach)
    s = np.divide(rho2, 2.0 * np.abs(d), out=np.ones(n), where=ok)
    e = p / s[:, None] - np.where(side == 0, 1.0, -1.0)[:, None] * grid.x_star
    b = ring.wrap(np.arctan2(e[:, 1], e[:, 0]))
    covered = ok & ring.covered(b)
    for j, run in enumerate(grid.sides):
        on = side == j
        covered[on] &= run is not None and run[1].covered(s[on])
    return s, b, side, covered


def _grid_spacing(grid: _DirectionGrid, x_hat: np.ndarray, theta_hat: np.ndarray) -> float:
    """Median over the rows of the distance in (x_hat, theta_hat) to the
    nearer of the nearest other sample of its group and the sample at the
    same ring angle in the nearest other group: on unit pairs, the distance
    to the nearest other pair."""
    X, T = x_hat[grid.order], theta_hat[grid.order]
    dt = T - np.roll(T, 1, axis=1)
    step = np.sqrt(dt[..., 0] ** 2 + dt[..., 1] ** 2)
    own = np.minimum(step, np.roll(step, -1, axis=1))
    # the groups' x_hat lie on the unit circle, in angle order, or on the line
    # through x*: the nearest other group is a neighbour along it
    g = X[:, 0]
    chain = np.arange(len(g)) if grid.x_star is None else np.argsort(g @ grid.x_star)
    before, after = np.roll(chain, 1), np.roll(chain, -1)
    if grid.x_star is not None:
        before[0], after[-1] = chain[1], chain[-2]
    gap = [np.sum((g[chain] - g[nb]) ** 2, axis=1) for nb in (before, after)]
    other = np.empty(len(g), dtype=np.intp)
    other[chain] = np.where(gap[1] < gap[0], after, before)
    dx, dt = X - X[other], T - T[other]
    across = np.sqrt(dx[..., 0] ** 2 + dx[..., 1] ** 2 + dt[..., 0] ** 2 + dt[..., 1] ** 2)
    return float(np.median(np.minimum(own, across)))


def ingest_farfield(x_hat, theta_hat, values, k: float, kappa: float, target: QuadratureRule,
                    geometry: Geometry | None = None) -> DataGrid:
    """Map far-field samples (x_hat[j], theta_hat[j], values[j]) at wavenumber k
    onto p = (k / kappa)(theta_hat - x_hat), where the data of kernel scale
    kappa (the target basis's c / h^2) is u(p) = values / k^2, and resample
    onto the target rule.

    x_hat and theta_hat are (n, 2) arrays of directions on a direction grid
    (`_direction_grid`: rows grouped by exact x_hat, each group the same ring
    of theta_hat angles; unit pairs, or x_hat = -+s x* on a line with
    |theta_hat| = s); other samples, and none, raise ParameterError.  Each
    node p is mapped to its preimage (kappa / k) p in the two grid
    parameters (`_preimages`) and its value interpolated there with
    GRID_ORDER-point barycentric Lagrange stencils, along the ring angle on
    the nearest groups, then across them.  A node is covered if its preimage
    lies within half a step of the sampled range; the others are flagged
    missing.  The meta records kappa, "interp": "angle" and, as "cutoff",
    3x the median distance from each scaled (x_hat, theta_hat) row to the
    nearer of its group's nearest other sample and the sample at its ring
    angle in the nearest other group; the cutoff is recorded, not applied.
    """
    if not (k > 0.0 and kappa > 0.0 and math.isfinite(k * k) and k * k >= sys.float_info.min):
        raise ParameterError(f"ingest_farfield requires kappa > 0 and k > 0 with k^2 a finite "
                             f"normal float, got {k!r}, {kappa!r}")
    scale = k / kappa
    directions = np.asarray(x_hat, dtype=float).reshape(-1, 2)
    incident = np.asarray(theta_hat, dtype=float).reshape(-1, 2)
    values = np.asarray(values).reshape(-1)
    if not len(directions) == len(incident) == len(values):
        raise ParameterError(f"ingest_farfield needs as many directions as values, got "
                             f"{len(directions)} x_hat, {len(incident)} theta_hat, "
                             f"{len(values)} values")
    if len(values) == 0:
        raise ParameterError("no far-field rows")
    k2 = k**2
    vals = np.empty(len(values), dtype=complex)
    with np.errstate(over="ignore"):
        vals.real = values.real / k2  # the parts divided separately, as a complex by a real
        vals.imag = values.imag / k2
    if np.any(np.isfinite(values) & ~np.isfinite(vals)):
        raise ParameterError(f"far-field values / k^2 overflow at k = {k!r}")
    grid = _direction_grid(directions, incident)
    a, b, side, covered = _preimages(grid, target.nodes / scale)
    table = vals[grid.order]
    out = np.zeros(len(target), dtype=complex)
    for j, run in enumerate(grid.sides):
        sel = covered & (side == j)
        if run is None or not sel.any():
            continue
        ia, ca = run[1].stencil(a[sel])
        ib, cb = grid.ring.stencil(b[sel])
        # along the ring angle on each stencil group, then across the groups
        rows = np.einsum("nab,nb->na", table[run[0] + ia[:, :, None], ib[:, None, :]], cb)
        out[sel] = np.einsum("na,na->n", rows, ca)
    cutoff = 3.0 * _grid_spacing(grid, scale * directions, scale * incident)
    return DataGrid(nodes=target.nodes, weights=target.weights, values=out,
                    flags=(~covered).astype(np.uint8),
                    meta={"kappa": float(kappa), "delta": 0.0, "seed": None, "cutoff": cutoff,
                          "interp": "angle"},
                    geometry=geometry)


def add_noise(data: DataGrid, delta: float, seed: int) -> DataGrid:
    """Add complex Gaussian noise with weighted norm exactly delta * ||u||.

    delta is relative; the achieved absolute level delta * ||u|| is recorded in
    meta["delta_abs"].  delta = 0 returns bitwise-identical values.
    """
    if delta < 0.0:
        raise ParameterError("noise level must be nonnegative")
    if seed < 0:
        raise ParameterError(f"noise seed must be nonnegative, got {seed}")
    meta = dict(data.meta)
    if delta == 0.0:
        meta.update({"delta": 0.0, "delta_abs": 0.0, "seed": seed})
        return replace(data, values=data.values.copy(), meta=meta)
    ok = data.valid
    if not ok.any():
        raise DataCoverageError("every node is flagged missing; noise has no level to match")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(len(data.values)) + 1j * rng.standard_normal(len(data.values))
    raw_norm = np.sqrt(np.sum(data.weights[ok] * np.abs(raw[ok]) ** 2))
    target = delta * data.weighted_norm()
    noise = raw * (target / raw_norm)
    meta.update({"delta": float(delta), "delta_abs": float(target), "seed": int(seed)})
    return replace(data, values=data.values + noise, meta=meta)


def write_datagrid(path, data: DataGrid) -> None:
    """One JSON header line {kappa, delta, seed, geometry, count, meta}, then
    CSV rows px,py,weight,re,im,flag; ParameterError, and no file, where a
    header number is not finite (strict JSON has no NaN or Infinity)."""
    header = {
        "kappa": data.meta.get("kappa"),
        "delta": data.meta.get("delta", 0.0),
        "seed": data.meta.get("seed"),
        "geometry": data.geometry.to_dict() if data.geometry is not None else None,
        "count": len(data.values),
    }
    header["meta"] = {k: v for k, v in data.meta.items()
                      if k not in header and isinstance(v, (int, float, str, bool, type(None)))}
    try:
        text = json.dumps(header, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ParameterError(f"data header must hold finite numbers, got "
                             f"{json.dumps(header, sort_keys=True)}") from None
    write_csv(path, text + "\npx,py,weight,re,im,flag",
              data.nodes[:, 0], data.nodes[:, 1], data.weights, data.values.real,
              data.values.imag, data.flags)


# Rows per block of `write_csv`, which holds one block's strings, not every row's.
_CSV_BLOCK = 1 << 16


def write_csv(path, header: str, *columns) -> None:
    """The text file `path`: the header lines, then one CSV row per entry of the
    columns of real numbers, each field the repr of the entry as a Python
    number (a float's shortest round-trip digits); ParameterError, and no
    file, where an entry is not finite.

    The rows are written _CSV_BLOCK at a time.  In a block, each column's
    distinct values are formatted once: they are keyed by their bits (an
    unsigned view), so 0.0 and -0.0 stay apart, and the rows gather the strings.
    """
    columns = [np.asarray(c) for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise ParameterError(f"{path}: refusing to write a number that is not finite")
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            fields = []
            for c in columns:
                block = c[lo:lo + _CSV_BLOCK]
                keys, inverse = np.unique(block.view(f"u{block.itemsize}"), return_inverse=True)
                text = np.array(list(map(repr, keys.view(block.dtype).tolist())), dtype=object)
                fields.append(text[inverse].tolist())
            f.writelines(map(row.__mod__, zip(*fields)))


_ROW_DTYPE = np.dtype([("numbers", "<f8", (5,)), ("flag", "u1")])
# Field padding that numpy's reader strips and `float` and `int` refuse.
_READER_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt(path, f, dtype, usecols=None) -> np.ndarray | None:
    """The rest of the text file `f`, opened from `path`, as one `np.loadtxt`
    table (rows of `dtype`, or of the fields `usecols`), read straight from
    the file; None where the reader refuses it, warns, or would strip field
    padding that `float` and `int` refuse.  Where it accepts the rows, it
    reads each field as `float` or `int` does, so the line-by-line pass of
    `_read_table` gives the same numbers; that pass takes the rows it refuses
    (a line of spaces, `1_0`, a flag of 1.0 or 300, a row of the wrong
    length), or names a bad line."""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 16), b""):
            if any(ch in chunk for ch in _READER_ONLY_SPACE):
                return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 2 only warns where it reads an int as a float
        try:
            return np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, usecols=usecols,
                              ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None


def _read_table(path, f, first: int, dtype, parse, usecols=None) -> np.ndarray:
    """The rest of the text file `f`, opened from `path`, as a table of `dtype`:
    numpy's reader (`_loadtxt`) where it takes the file and reads only finite
    numbers (in a record table, its `numbers`), else one pass that parses each
    non-blank line as `parse(line, "PATH line N")` (numbered from `first`),
    which raises on the first bad one."""
    body = f.tell()
    table = _loadtxt(path, f, dtype, usecols)
    if table is not None and np.isfinite(table["numbers"] if table.dtype.names else table).all():
        return table
    f.seek(body)
    return np.array([parse(line, f"{path} line {lineno}")
                     for lineno, line in enumerate(f, first) if line.strip()], dtype=dtype)


def _split_columns(table: np.ndarray):
    """Nodes, weights, values and flags of a table of `_ROW_DTYPE` data rows."""
    numbers = np.ascontiguousarray(table["numbers"])
    values = np.ascontiguousarray(numbers[:, 3:]).view(complex)[:, 0]  # re, im bit for bit
    return numbers[:, :2], numbers[:, 2], values, np.ascontiguousarray(table["flag"])


def _data_row(line: str, where: str) -> tuple[list[float], int]:
    """The five floats and the uint8 flag of a data row.  Its fields are parsed
    unstripped, so padding that `float` and `int` refuse (a trailing 0x1f)
    makes the row malformed."""
    fields = line.split(",")
    try:
        if len(fields) == 6 and 0 <= (flag := int(fields[5])) <= 255:
            return [float(v) for v in fields[:5]], flag
    except ValueError:
        pass
    raise ParameterError(f"{where}: malformed data row {line.strip()!r}")


def read_columns(path, columns: list[str], what: str) -> np.ndarray:
    """The non-blank rows of a CSV file whose header starts with `columns`, as a
    (rows, len(columns)) array of finite floats; fields past len(columns) are
    ignored.  A bad row raises ParameterError naming its line."""
    count = len(columns)
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[:count] != columns:
            raise ParameterError(f"unexpected {what} columns {header}")
        return _read_table(path, f, 2, float, lambda line, where: _floats(line, count, where),
                           range(count)).reshape(-1, count)


def _floats(line: str, count: int, where: str) -> list[float]:
    """The first `count` comma-separated fields of a CSV row as finite floats.
    The fields are parsed unstripped, as `float` takes them with the line
    terminator, so padding that `float` refuses (a trailing 0x1f) makes the
    row malformed wherever it stands."""
    try:
        values = [float(v) for v in line.split(",")[:count]]
    except ValueError:
        raise ParameterError(f"{where}: malformed row {line.strip()!r}") from None
    if len(values) < count:
        raise ParameterError(f"{where}: expected {count} fields, got {line.strip()!r}")
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{where}: non-finite number in row {line.strip()!r}")
    return values


def _check_meta(meta: dict, what: str) -> None:
    """ParameterError naming the field unless kappa is a finite number > 0 or
    null, delta and delta_abs (where present) finite numbers >= 0, and seed a
    nonnegative integer or null."""
    if meta["kappa"] is not None and not numeric(meta, "kappa", what) > 0.0:
        raise ParameterError(f"{what} 'kappa' must be > 0 or null, got {meta['kappa']!r}")
    for key in ("delta", "delta_abs"):
        if key in meta and not numeric(meta, key, what) >= 0.0:
            raise ParameterError(f"{what} {key!r} must be >= 0, got {meta[key]!r}")
    seed = meta["seed"]
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ParameterError(f"{what} 'seed' must be a nonnegative integer or null, got {seed!r}")


def read_datagrid(path) -> DataGrid:
    with open(path, "r", encoding="utf-8") as f:
        header = json.loads(f.readline())
        cols = f.readline().strip().split(",")
        if cols != ["px", "py", "weight", "re", "im", "flag"]:
            raise ParameterError(f"unexpected data columns {cols}")
        nodes, weights, values, flags = _split_columns(_read_table(path, f, 3, _ROW_DTYPE,
                                                                   _data_row))
    check_keys(header, ("count",), f"{path} header")
    if len(values) != header["count"]:
        raise ParameterError("row count does not match header")
    if not all(np.isfinite(a).all() for a in (nodes, weights, values)):
        raise ParameterError(f"{path}: non-finite number in data rows")
    if np.any(flags > 1):
        row = int(np.argmax(flags > 1))
        raise ParameterError(f"{path}: data row {row + 1} flag must be 0 (valid) or 1 (missing), "
                             f"got {flags[row]}")
    meta = {"kappa": header.get("kappa"), "delta": header.get("delta", 0.0),
            "seed": header.get("seed")}
    check_keys(header.get("meta", {}), (), f"{path} header meta")
    meta.update(header.get("meta", {}))
    _check_meta(meta, f"{path} header")
    geometry = Geometry.from_dict(header["geometry"]) if header.get("geometry") else None
    return DataGrid(nodes=nodes, weights=weights, values=values, flags=flags,
                    meta=meta, geometry=geometry)
