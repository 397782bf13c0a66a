"""Born data synthesis, far-field ingestion, and calibrated noise.

The forward map is the Fourier-type integral u(p) = int_Omega exp(i kappa
p.p') q(p') dp' evaluated by quadrature over the contrast support; the
scattering amplitude at wavenumber k factors through it as
k^2 u(theta_hat - x_hat).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataCoverageError, ParameterError, check_keys, numeric
from .numerics import (GridPiece, QuadratureRule, SupportPiece, _born_sum, _piece,
                       annulus_polar_rule, disk_polar_rule, nearest)
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
    overlapping shape values add.  `pieces` holds q times the quadrature
    weight on the support nodes, as one `SupportPiece` per shape (centred at
    the shape centre, so an overlap is counted once per shape, each with its
    own value), one `GridPiece` per pixel grid (centred at the grid centre)
    or one at the origin for an explicit rule; `quad` holds the same nodes,
    centre + offset.  `radius` is that of the smallest origin-centred disk
    containing the support, and `boundary` holds points sampling the support
    boundary.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    quad: QuadratureRule
    pieces: tuple[SupportPiece | GridPiece, ...]
    radius: float
    boundary: np.ndarray

    @staticmethod
    def from_shapes(shapes: list[dict], resolution: int = 160, method: str = "polar") -> "ContrastField":
        """Disks {type, center, radius, value} and annuli (r_inner, r_outer in place of radius)."""
        if not shapes:
            raise ParameterError("contrast needs at least one shape")
        shapes = [_check_shape(sh) for sh in shapes]
        nodes, weights, pieces = [], [], []
        for sh in shapes:
            n_t = resolution + resolution % 2
            if method != "polar":
                rule = _midpoint_disk(sh.inner, sh.outer, resolution)
            elif sh.disk:
                rule = disk_polar_rule(sh.outer, resolution, n_t)
            else:
                rule = annulus_polar_rule(sh.inner, sh.outer, resolution, n_t)
            nodes.append(rule.nodes + sh.center)
            weights.append(rule.weights)
            pieces.append(_piece(sh.center, rule.nodes, sh.value * rule.weights))
        quad = QuadratureRule(np.concatenate(nodes), np.concatenate(weights))

        def evaluate(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.zeros(len(pts))
            for sh in shapes:
                cx, cy = sh.center
                d2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
                if sh.disk:
                    out += np.where(d2 < sh.outer**2, sh.value, 0.0)
                else:
                    inside = (d2 > sh.inner**2) & (d2 < sh.outer**2)
                    out += np.where(inside, sh.value, 0.0)
            return out

        radius = float(max(np.hypot(*sh.center) + sh.outer for sh in shapes))
        boundary = _circles([(sh.center, r) for sh in shapes
                             for r in ((sh.outer,) if sh.disk else (sh.inner, sh.outer))],
                            max(64, BOUNDARY_SAMPLES // len(shapes)))
        return ContrastField(evaluate=evaluate, quad=quad, pieces=tuple(pieces),
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
    def from_callable(evaluate: Callable, quad: QuadratureRule,
                      circumradius: float | None = None) -> "ContrastField":
        """Arbitrary oracle backed by an explicit support quadrature (tests, band-limited fields).

        The support is taken to be the origin-centred disk of radius
        `circumradius` (default: the farthest node).
        """
        radius = _node_radius(quad) if circumradius is None else float(circumradius)
        piece = _piece((0.0, 0.0), quad.nodes, evaluate(quad.nodes) * quad.weights)
        return ContrastField(evaluate=evaluate, quad=quad, pieces=(piece,), radius=radius,
                             boundary=_circles([((0.0, 0.0), radius)], BOUNDARY_SAMPLES))

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


def _midpoint_disk(r_inner: float, r_outer: float, resolution: int) -> QuadratureRule:
    """Midpoint rule on the origin-centred disk or annulus; symmetric under p -> -p."""
    step = 2.0 * r_outer / resolution
    g = step * (np.arange(resolution) - (resolution - 1) / 2.0)
    X, Y = np.meshgrid(g, g, indexing="ij")
    d2 = X**2 + Y**2
    keep = (d2 < r_outer**2) & (d2 > r_inner**2) if r_inner > 0 else d2 < r_outer**2
    pts = np.stack([X[keep], Y[keep]], axis=1)
    return QuadratureRule(pts, np.full(len(pts), step * step))


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

    def weighted_norm(self) -> float:
        ok = self.valid
        return float(np.sqrt(np.sum(self.weights[ok] * np.abs(self.values[ok]) ** 2)))


def _oscillation_resolved(q: ContrastField, kappa: float, targets: np.ndarray) -> bool:
    """Heuristic: at least ~10 support nodes per oscillation period of the kernel."""
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
    "underresolved" when the support quadrature looks too coarse for the
    kernel oscillation.
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


def _median_spacing(rows: np.ndarray) -> float:
    """Median distance from each distinct row (to 1e-12) to the nearest other
    one; 0 if there are fewer than two."""
    inverse, counts = _group_rows(np.round(rows / 1e-12).astype(np.int64))
    if len(counts) < 2:
        return 0.0
    distinct = np.empty((len(counts), rows.shape[1]))
    distinct[inverse] = rows
    return float(np.median(nearest(distinct, distinct, 2)[0][:, 1]))


def ingest_farfield(x_hat, theta_hat, values, k: float, kappa: float, target: QuadratureRule,
                    cutoff: float | None = None, geometry: Geometry | None = None) -> DataGrid:
    """Map far-field samples (x_hat[j], theta_hat[j], values[j]) at wavenumber k
    onto p = (k / kappa)(theta_hat - x_hat), where the data of kernel scale
    kappa (the target basis's c / h^2) is u(p) = values / k^2, and resample
    onto the target rule; kappa is recorded in the meta.

    x_hat and theta_hat are (n, 2) arrays of directions, both scaled by
    k / kappa first.  Duplicate p points (to 1e-12) are averaged; target
    values come from inverse-distance weighting of the 4 nearest samples
    (`numerics.nearest`: of samples at equal distance, the one whose p comes
    first in lexicographic order); nodes farther than `cutoff` (in node units)
    from every sample are flagged missing.  The cutoff defaults to 3x the
    sampling step of the scaled directions: the median distance from each
    distinct (x_hat, theta_hat) pair to its nearest neighbour, which on a
    tensor grid of directions is the step of the grid.  (The merged p points
    are no measure of it: where distinct pairs nearly repeat a p, their
    spacing collapses far below the step.)
    """
    if not (k > 0.0 and kappa > 0.0):
        raise ParameterError(f"ingest_farfield requires k, kappa > 0, got {k!r}, {kappa!r}")
    scale = k / kappa
    x_hat = scale * np.asarray(x_hat, dtype=float).reshape(-1, 2)
    theta_hat = scale * np.asarray(theta_hat, dtype=float).reshape(-1, 2)
    values = np.asarray(values).reshape(-1)
    meta = {"kappa": float(kappa), "delta": 0.0, "seed": None}
    if not len(x_hat) == len(theta_hat) == len(values):
        raise ParameterError(f"ingest_farfield needs as many directions as values, got "
                             f"{len(x_hat)} x_hat, {len(theta_hat)} theta_hat, {len(values)} values")
    n_t = len(target)
    if len(values) == 0:
        return DataGrid(nodes=target.nodes, weights=target.weights,
                        values=np.zeros(n_t, dtype=complex),
                        flags=np.ones(n_t, dtype=np.uint8),
                        meta=meta, geometry=geometry)
    pts = theta_hat - x_hat
    k2 = k**2
    vals = np.empty(len(values), dtype=complex)
    vals.real = values.real / k2  # the parts divided separately, as a complex by a real
    vals.imag = values.imag / k2
    inverse, counts = _group_rows(np.round(pts / 1e-12).astype(np.int64))
    # group sums in sample order, as sequential adds
    merged_pts = np.stack([np.bincount(inverse, pts[:, j], len(counts)) for j in (0, 1)], axis=1)
    merged_vals = np.empty(len(counts), dtype=complex)
    merged_vals.real = np.bincount(inverse, vals.real, len(counts))
    merged_vals.imag = np.bincount(inverse, vals.imag, len(counts))
    merged_pts /= counts[:, None]
    merged_vals /= counts
    if cutoff is None:
        spacing = _median_spacing(np.concatenate([x_hat, theta_hat], axis=1))
        cutoff = 3.0 * spacing if spacing > 0.0 else np.inf
    dist, idx = nearest(merged_pts, target.nodes, 4)
    flags = (dist[:, 0] > cutoff).astype(np.uint8)
    values = np.zeros(n_t, dtype=complex)
    exact = dist[:, 0] < 1e-13
    values[exact] = merged_vals[idx[exact, 0]]
    rest = ~exact
    if rest.any():
        wgt = 1.0 / dist[rest]
        values[rest] = np.sum(wgt * merged_vals[idx[rest]], axis=1) / np.sum(wgt, axis=1)
    values[flags == 1] = 0.0
    return DataGrid(nodes=target.nodes, weights=target.weights, values=values, flags=flags,
                    meta={**meta, "cutoff": float(cutoff)}, geometry=geometry)


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
    """One JSON header line {kappa, delta, seed, geometry, count}, then CSV rows
    px,py,weight,re,im,flag."""
    header = {
        "kappa": data.meta.get("kappa"),
        "delta": data.meta.get("delta", 0.0),
        "seed": data.meta.get("seed"),
        "geometry": data.geometry.to_dict() if data.geometry is not None else None,
        "count": len(data.values),
    }
    header["meta"] = {k: v for k, v in data.meta.items()
                      if k not in header and isinstance(v, (int, float, str, bool, type(None)))}
    write_csv(path, json.dumps(header, sort_keys=True) + "\npx,py,weight,re,im,flag",
              data.nodes[:, 0], data.nodes[:, 1], data.weights, data.values.real,
              data.values.imag, data.flags)


def write_csv(path, header: str, *columns) -> None:
    """The text file `path`: the header lines, then one CSV row per entry of the
    columns, each field the repr of the entry as a Python number (a float's
    shortest round-trip digits)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(map((",".join(["{!r}"] * len(columns)) + "\n").format,
                         *(np.asarray(c).tolist() for c in columns)))


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
    """The first `count` comma-separated fields of a CSV row as finite floats."""
    try:
        values = [float(v) for v in line.strip().split(",")[:count]]
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
