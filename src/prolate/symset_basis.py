"""Symmetric data domains and their Nystrom eigensystems.

Covers the three data geometries of the Born problem: a disk, the
limited-aperture difference set

    L(Theta) = interior of { theta_hat - x_hat : |arg| < Theta on both },

and the multi-frequency set M = B(x*, 1) u B(-x*, 1).  All three are symmetric
under p -> -p and star-shaped about the origin; `radial_profile` gives the
exact radial boundary, used for analytic areas and polar quadratures.

On the dilated set A_h = h A the Fourier kernel has effective frequency
c / h^2, and it splits into a cosine part acting on even functions (real
eigenvalues) and a sine part acting on odd functions (imaginary eigenvalues).
The kernel depends on p.q only, so the Nystrom matrix commutes with every
symmetry of the quadrature rule.  Every rule here is symmetric under p -> -p
and under the reflection R in the set's axis (the x-axis for the disk and L,
x* for M), and so under the Klein four-group {1, -1, R, -R}.
The solve is folded over that group: one block per character, on one node
per orbit, sqrt(m_i w_i) K(p_i, p_j) sqrt(m_j w_j) with m the orbit size.  In
frame coordinates (u, v) of the axis the four kernels are the separable
products cos cos, -sin sin (even modes) and sin cos, cos sin (odd modes) of
c/h^2 u_i u_j and c/h^2 v_i v_j.  Each class costs one (N/4)^3 eigensolve on
(N/4)^2 memory instead of N^3 on N^2.  A rule that records no reflection
has no such fold and is refused.
Each block is solved for its leading eigenpairs only (`numerics.top_eigenpairs`),
and each kept mode records its residual.  Merged eigenpairs are ordered by
|alpha| and normalized to unit plane energy, i.e. weighted node-norm squared
equal to (c / 2 pi)^2 |alpha_n|^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EmptyCutoffError, EmptyQuadratureError, ParameterError, check_keys,
                     finite_number, numeric)
from .numerics import (BLOCK_ENTRIES, QuadratureRule, _born_sum, _frozen, _piece,
                       axis_reflection, disk_polar_rule, gauss_legendre_01, half_circle,
                       mirror_map, real_matmul, top_eigenpairs)

__all__ = [
    "Geometry",
    "MODE_DTYPE",
    "SymSetBasis",
    "membership",
    "radial_profile",
    "analytic_area",
    "bounding_box",
    "build_quadrature",
    "check_bandwidth",
    "compute_symset_basis",
]

ALPHA_FLOOR = 1e-14
# One record per symmetric-set mode: its parity under p -> -p, its eigenvalue
# alpha on the unit-scale set A (real if even, imaginary if odd) and the
# residual ||B u - lambda u|| / h^2 of its unit eigenvector u in its class block,
# in the units of alpha.
MODE_DTYPE = np.dtype([("even", bool), ("alpha", complex), ("residual", float)], align=True)
# Direction of the sign probe in `compute_symset_basis`: irrational components,
# so it lies on no symmetry axis of any geometry.
SIGN_DIRECTION = (0.6180339887498949, 0.4142135623730950)


# Relative tolerance to which a cached basis's bandwidth c and domain pair with a setup's.
PAIRING_TOL = 1e-9
# The field that shapes each kind of data domain, besides its scale h.
_SHAPE_FIELD = {"disk": "radius", "limited_aperture": "theta", "multi_freq": "x_star"}


@dataclass(frozen=True)
class Geometry:
    """A symmetric data domain A dilated by h: membership tests run on p / h.

    Setups, flags, data-file headers and cache metadata all build their domain
    here, so each field is checked once: a finite number (x_star a pair of
    them), then its range.
    """

    kind: str  # a key of _SHAPE_FIELD
    h: float = 1.0
    radius: float = 1.0
    theta: float = math.pi
    x_star: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SHAPE_FIELD:
            raise ParameterError(f"unknown geometry kind {self.kind!r}")
        for name in ("h", "radius", "theta"):
            object.__setattr__(self, name, numeric(vars(self), name, "geometry"))
        x_star = numeric(vars(self), "x_star", "geometry", (2,))
        if self.h <= 0.0:
            raise ParameterError(f"geometry 'h' must be positive, got {self.h!r}")
        if self.kind == "disk" and self.radius <= 0.0:
            raise ParameterError(f"geometry 'radius' must be positive, got {self.radius!r}")
        if self.kind == "limited_aperture" and not 0.0 < self.theta <= math.pi:
            raise ParameterError(f"geometry 'theta' must lie in (0, pi], got {self.theta!r}")
        if self.kind == "multi_freq":
            norm = math.hypot(*x_star)
            if abs(norm - 1.0) > 1e-9:
                raise ParameterError(f"geometry 'x_star' must be a unit vector, got {x_star}")
            x_star = x_star / norm
        object.__setattr__(self, "x_star", (float(x_star[0]), float(x_star[1])))

    @staticmethod
    def disk(radius: float = 1.0, h: float = 1.0) -> "Geometry":
        return Geometry(kind="disk", h=h, radius=radius)

    @staticmethod
    def limited_aperture(theta: float, h: float = 1.0) -> "Geometry":
        return Geometry(kind="limited_aperture", h=h, theta=theta)

    @staticmethod
    def multi_freq(x_star, h: float = 1.0) -> "Geometry":
        return Geometry(kind="multi_freq", h=h, x_star=x_star)

    def to_dict(self) -> dict:
        shape = _SHAPE_FIELD[self.kind]
        value = getattr(self, shape)
        return {"kind": self.kind, "h": self.h, shape: list(value) if shape == "x_star" else value}

    def matches(self, other: "Geometry") -> bool:
        """True iff `other` is this domain up to rounding: the same kind, and h and
        the shape field (radius, theta or x_star) equal to PAIRING_TOL."""
        shape = _SHAPE_FIELD[self.kind]
        return (self.kind == other.kind and abs(self.h - other.h) <= PAIRING_TOL * other.h
                and math.dist(np.ravel(getattr(self, shape)),
                              np.ravel(getattr(other, shape))) <= PAIRING_TOL)

    @staticmethod
    def from_dict(d: dict) -> "Geometry":
        check_keys(d, ("kind",), "geometry record")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in _SHAPE_FIELD:
            raise ParameterError(f"unknown geometry kind {kind!r}")
        shape = _SHAPE_FIELD[kind]
        if kind != "disk":  # only a disk's shape field, its radius, has a default (1)
            check_keys(d, (shape,), f"{kind} geometry record")
        return Geometry(kind=kind, h=d.get("h", 1.0), **{shape: d.get(shape, 1.0)})


def check_bandwidth(basis_c: float, c: float | None) -> None:
    """ParameterError unless `c`, the bandwidth of a setup or data file, is the basis
    bandwidth `basis_c` to PAIRING_TOL; None (data that records no kappa) is refused."""
    if c is None:
        raise ParameterError("the data records no kappa to check the basis bandwidth against")
    if abs(basis_c - c) > PAIRING_TOL * max(1.0, c):
        raise ParameterError(f"basis bandwidth {basis_c!r} does not match the bandwidth {c!r}")


def membership(geometry: Geometry, p) -> bool | np.ndarray:
    """True iff p / h lies in the open set A.

    The disk and M test their disks in closed form; L(Theta), star-shaped about
    the origin, tests |p| / h < radial_profile(arg p), its one definition.
    """
    pts = np.atleast_2d(np.asarray(p, dtype=float)) / geometry.h
    x, y = pts[:, 0], pts[:, 1]
    if geometry.kind == "disk":
        out = x * x + y * y < geometry.radius**2
    elif geometry.kind == "multi_freq":
        ax, ay = geometry.x_star
        out = ((x - ax) ** 2 + (y - ay) ** 2 < 1.0) | ((x + ax) ** 2 + (y + ay) ** 2 < 1.0)
    else:
        out = np.hypot(x, y) < radial_profile(geometry, np.arctan2(y, x))
    return bool(out[0]) if np.asarray(p).ndim == 1 else out


def _wrap(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def radial_profile(geometry: Geometry, phi) -> np.ndarray:
    """Radial extent of A along direction phi (unit scale, multiply by h).

    All three geometries are star-shaped about the origin, so membership is
    equivalent to |p| / h < radial_profile(phi); `membership` tests L(Theta)
    this way.  The disk and M keep their closed-form disk tests, which round
    exact-boundary points (cell centres of M midpoint grids) differently.  For
    the limited-aperture set the profile follows from the parametrization
    p = 2 sin(u) e(v + pi/2) with the constraint u + |v| < Theta.
    """
    phi = np.asarray(phi, dtype=float)
    if geometry.kind == "disk":
        return np.full(phi.shape, geometry.radius)
    if geometry.kind == "multi_freq":
        phi_star = math.atan2(geometry.x_star[1], geometry.x_star[0])
        return 2.0 * np.abs(np.cos(phi - phi_star))
    cap = geometry.theta
    rho = np.zeros(phi.shape)
    for shift in (-math.pi / 2.0, math.pi / 2.0):
        q = cap - np.abs(_wrap(phi + shift))
        branch = np.where(q >= math.pi / 2.0, 2.0, np.where(q > 0.0, 2.0 * np.sin(np.maximum(q, 0.0)), 0.0))
        rho = np.maximum(rho, branch)
    return rho


def analytic_area(geometry: Geometry) -> float:
    """Measure of A_h in closed form.  For L(Theta) the integral of rho^2 / 2
    over the angle is 2 h^2 [F(Theta) - F(Theta - min(Theta, pi/2))], with
    F(q) = 2 (q - sin q cos q) for q <= pi/2 and 4 q - pi beyond."""
    if geometry.kind == "disk":
        return math.pi * (geometry.radius * geometry.h) ** 2
    if geometry.kind == "multi_freq":
        return 2.0 * math.pi * geometry.h**2  # two tangent unit disks

    def F(q: float) -> float:
        return 2.0 * (q - math.sin(q) * math.cos(q)) if q <= math.pi / 2 else 4.0 * q - math.pi

    theta = geometry.theta
    return 2.0 * geometry.h**2 * (F(theta) - F(theta - min(theta, math.pi / 2)))


def bounding_box(geometry: Geometry) -> float:
    """Half-width b of the symmetric bounding box [-b, b]^2 of A_h."""
    if geometry.kind == "disk":
        return geometry.radius * geometry.h
    return 2.0 * geometry.h


def build_quadrature(geometry: Geometry, resolution: int, method: str = "auto") -> QuadratureRule:
    """Quadrature over A_h.

    method "midpoint": tensor midpoint grid over the bounding box, laid out
    in the frame of the set's axis and filtered by membership of p, -p and
    their mirror images in the axis, weight equal to the cell area (default
    for the aperture and multi-frequency sets; first-order boundary accuracy).
    method "polar": analytic rules built from the radial profile (default for
    disks; also available for L and M when spectral accuracy of the total
    weight matters).

    Every rule is exactly symmetric under p -> -p and records its reflection
    in the set's axis (`QuadratureRule.reflection`): the x-axis for the disk
    and L, x* for M, whose rules are laid out in the x* frame.
    """
    if resolution < 8:
        raise ParameterError("resolution must be at least 8")
    if method == "auto":
        method = "polar" if geometry.kind == "disk" else "midpoint"
    if method == "midpoint":
        # tensor grid in frame coordinates (u, v) of the set's axis e; reversed
        # flat order is the negated grid and reversed columns (v -> -v) the
        # reflection in the axis: keep only cells whose images all test inside
        e = np.array(geometry.x_star if geometry.kind == "multi_freq" else (1.0, 0.0))
        step = 2.0 * bounding_box(geometry) / resolution
        centers = step * (np.arange(resolution) - (resolution - 1) / 2.0)
        U, V = np.meshgrid(centers, centers, indexing="ij")
        pts = np.outer(U.ravel(), e) + np.outer(V.ravel(), (-e[1], e[0]))
        keep = membership(geometry, pts)
        keep &= keep[::-1]
        flip = np.arange(resolution**2).reshape(resolution, resolution)[:, ::-1].ravel()
        keep &= keep[flip]
        if not keep.any():
            raise EmptyQuadratureError("no quadrature nodes inside the set")
        index = np.cumsum(keep) - 1  # node index of each kept cell
        return QuadratureRule(pts[keep], np.full(int(keep.sum()), step * step),
                              reflection=index[flip[keep]], axis=tuple(e))
    if method != "polar":
        raise ParameterError(f"unknown quadrature method {method!r}")

    n_r = max(12, resolution // 8)
    n_t = max(24, 2 * (resolution // 8))
    n_t += n_t % 2
    if geometry.kind == "disk":
        return disk_polar_rule(geometry.radius * geometry.h, n_r, n_t)
    if geometry.kind == "multi_freq":
        # B(h x*, h) in frame coordinates u = h + x, v = y of the axis e = x*;
        # its reflection (u, v) -> (u, -v) is the local rule's x-axis reflection
        local = disk_polar_rule(geometry.h, n_r, n_t)
        e = np.array(geometry.x_star)
        u = geometry.h + local.nodes[:, 0]
        v = local.nodes[:, 1]
        plus = u[:, None] * e + v[:, None] * np.array([-e[1], e[0]])
        return QuadratureRule(np.concatenate([plus, -plus]), np.tile(local.weights, 2),
                              reflection=np.concatenate([local.reflection,
                                                         local.reflection + len(plus)]),
                              axis=geometry.x_star)
    # star-shaped rule for L: uniform angles, Gauss in radius up to the profile
    n_phi = max(64, resolution)
    n_phi += n_phi % 2
    phi, cos, sin = half_circle(n_phi // 2)
    wphi = 2.0 * np.pi / n_phi
    rad = gauss_legendre_01(n_r)
    rho = radial_profile(geometry, phi)
    rho = geometry.h * (0.5 * (rho + rho[::-1]))  # the profile is even about pi/2
    live = rho > 0.0
    if not live.any():
        raise EmptyQuadratureError("no quadrature nodes inside the set")
    r = np.outer(rad.nodes, rho[live])                    # (n_r, n_live)
    w = np.outer(rad.weights, rho[live]) * r * wphi       # r dr dphi
    x = (r * cos[live]).ravel()
    y = (r * sin[live]).ravel()
    pts = np.concatenate([np.stack([x, y], axis=1), np.stack([-x, -y], axis=1)])
    return QuadratureRule(pts, np.tile(w.ravel(), 2),
                          reflection=axis_reflection(n_r, int(live.sum())))


@dataclass(frozen=True)
class SymSetBasis:
    """Retained eigenpairs of the Fourier operator on A_h, |alpha| descending.

    `modes` is a read-only MODE_DTYPE array with one record per mode, and
    `node_values` the read-only (modes, N) table of their samples on `quad`.
    `hs_norm2` is sum_chi ||B_chi||_F^2 over the class blocks of the solve
    (operator scale, i.e. of h^2 beta).  For symmetric blocks it equals the sum
    of the squared eigenvalues, the nonzero part of the N x N Nystrom spectra,
    which the Hilbert-Schmidt sum rule checks against the squared domain measure.
    """

    c: float
    geometry: Geometry
    quad: QuadratureRule
    modes: np.ndarray
    node_values: np.ndarray
    hs_norm2: float

    @property
    def kernel_scale(self) -> float:
        return self.c / self.geometry.h**2

    @property
    def extent(self) -> float:
        """Half-width of the field square that holds A_h: `bounding_box`, the square the
        midpoint grid covers (R h for a disk of radius R, 2h for L(Theta) and M)."""
        return bounding_box(self.geometry)

    @cached_property
    def keys(self) -> np.ndarray:
        """The index of each mode, which identifies it."""
        return _frozen(np.arange(len(self.modes)))

    @property
    def alphas(self) -> np.ndarray:
        """Eigenvalues alpha_n on the unit-scale set A, the `alpha` field of `modes`."""
        return self.modes["alpha"]

    @cached_property
    def mu(self) -> np.ndarray:
        """Eigenvalues h^2 alpha_n of the operator on the dilated set A_h."""
        return _frozen(self.geometry.h**2 * self.alphas)

    @cached_property
    def mode_norms(self) -> np.ndarray:
        """L2(A_h) norms, equal to (c / 2 pi) |alpha_n| per mode."""
        return _frozen((self.c / (2.0 * np.pi)) * np.abs(self.alphas))

    def cutoff(self, alpha: float) -> tuple[np.ndarray, None]:
        """The spectral-cutoff mask {|mu_n| > alpha} and no beta; raises if it is empty."""
        keep = np.abs(self.mu) > finite_number("alpha", alpha, positive=True)
        if not keep.any():
            raise EmptyCutoffError(f"no modes with |mu| > {alpha:.6g}")
        return keep, None

    def paired(self, domain: Geometry | None, c: float | None) -> "SymSetBasis":
        """The basis itself, once a setup's or data file's `domain` and bandwidth `c` match."""
        if domain is None or not self.geometry.matches(domain):
            raise ParameterError(f"basis geometry {self.geometry.to_dict()} does not match the "
                                 f"data domain {domain and domain.to_dict()}")
        check_bandwidth(self.c, c)
        return self

    def checks(self) -> tuple[float, list]:
        """The Gram tolerance of `analysis.validate_basis` and the set's own identities,
        (name, residual, threshold): alpha real/imaginary by parity, the Hilbert-Schmidt
        sum against the squared total weight and area, parity on mirrored nodes, and
        the largest eigenpair residual against |alpha_0|."""
        alphas, even, vals = self.alphas, self.modes["even"], self.node_values
        wrong = np.where(even, np.abs(alphas.imag), np.abs(alphas.real))
        sq = self.quad.total_weight**2
        area2 = analytic_area(self.geometry) ** 2
        sgn = np.where(even, 1.0, -1.0)[:, None]
        dev = np.abs(vals[:, mirror_indices(self.quad)] - sgn * vals).max(axis=1)
        worst = float((dev / np.abs(vals).max(axis=1)).max(initial=0.0))
        return 1e-6, [("parity_eigenvalue_type", (wrong / np.abs(alphas)).max(), 1e-12),
                      ("hilbert_schmidt_discrete", abs(self.hs_norm2 - sq) / sq, 1e-10),
                      ("hilbert_schmidt_area", abs(self.hs_norm2 - area2) / area2, 1e-3),
                      ("parity_node_symmetry", worst, 1e-8),
                      ("eigen_residual", self.modes["residual"].max() / abs(alphas[0]), 1e-12)]

    def inner(self, weighted) -> np.ndarray:
        """node_values @ weighted for node samples, (N,) or (N, k), real or complex."""
        return real_matmul(self.node_values, weighted)

    def on_nodes(self, weights) -> np.ndarray:
        """node_values.T @ weights for per-mode weights, (modes,) or (modes, k)."""
        return real_matmul(self.node_values.T, weights)

    def combine(self, weights, pts) -> np.ndarray:
        """sum_n weights[n] psi_n(pts) by Nystrom interpolation; a scalar for one point.

        psi_n(p) = mu_n^-1 sum_j exp(i c/h^2 p.p_j) w_j psi_n(p_j): the node
        values inside A_h, the analytic extension outside.  The sum over n is
        therefore one Born sum (`numerics._born_sum`) of the node field
        w_j sum_n weights[n] psi_n(p_j) / mu_n, folded over the mirror pairs
        and the x-axis reflection of the nodes and of the points, where they
        have them.  Real weights give the real part.
        """
        weights = np.asarray(weights)
        field = self.quad.weights * self.on_nodes(weights / self.mu)
        out = _born_sum((_piece((0.0, 0.0), self.quad.nodes, field),),
                        self.kernel_scale, np.atleast_2d(np.asarray(pts, dtype=float)))
        out = out if np.iscomplexobj(weights) else out.real.copy()
        return out[0] if np.ndim(pts) == 1 else out

    def combine_grid(self, weights, axis) -> np.ndarray:
        """`combine` at `grid_points(axis)`, for an axis symmetric about 0 (axis ==
        -axis[::-1]): the (len(axis)^2,) values, x-major.

        The node field of `combine`, folded by mirror pairs (`_piece`: one node
        d_j of each pair, even part E_j and odd part O_j), sums to A + iB at
        (a_k, a_l) with A = C_1 E C_2^T - S_1 E S_2^T and B = S_1 O C_2^T +
        C_1 O S_2^T, where C_i and S_i are cos and sin of kappa a d_ji: so it
        is C_1 P + S_1 Q with P = E C_2^T + i O S_2^T and Q = i O C_2^T - E S_2^T,
        two real products per block of nodes.  The tables are evaluated on the
        nonnegative half of the axis and mirrored (cos is even, sin odd), in
        node blocks of at most BLOCK_ENTRIES entries per table.  E and O are
        complex even for real weights (mu is imaginary on odd modes).
        """
        weights = np.asarray(weights)
        axis = np.asarray(axis, dtype=float)
        if not np.array_equal(axis, -axis[::-1]):
            raise ParameterError("a field grid's axis must be symmetric about 0")
        field = self.quad.weights * self.on_nodes(weights / self.mu)
        piece = _piece((0.0, 0.0), self.quad.nodes, field)
        n, half = len(axis), len(axis) // 2
        kappa_axis = self.kernel_scale * axis[half:]
        out = np.zeros((n, n), dtype=complex)
        step = max(1, BLOCK_ENTRIES // max(n, 1))
        for lo in range(0, len(piece.offsets), step):
            nodes = piece.offsets[lo:lo + step]
            tables = np.empty((2, 2, len(nodes), n))  # (coordinate, cos/sin, node, axis point)
            for (cos, sin), d in zip(tables, nodes.T):
                phase = np.multiply.outer(d, kappa_axis, out=cos[:, half:])
                np.sin(phase, out=sin[:, half:])
                np.cos(phase, out=phase)
                cos[:, :half] = cos[:, n - 1:n - 1 - half:-1]
                np.negative(sin[:, n - 1:n - 1 - half:-1], out=sin[:, :half])
            (c1, s1), (c2, s2) = tables
            even, odd = piece.even[lo:lo + step, None], 1j * piece.odd[lo:lo + step, None]
            out += real_matmul(c1.T, even * c2 + odd * s2)
            out += real_matmul(s1.T, odd * c2 - even * s2)
        out = out.ravel()
        return out if np.iscomplexobj(weights) else out.real.copy()


def _symmetry_maps(quad: QuadratureRule) -> np.ndarray:
    """Index maps of the rule's symmetry group, shape (4, N): the identity,
    p -> -p, the reflection R in the rule's axis, and -R.

    Raises ParameterError unless the rule records R, every map is an
    involution that preserves the weights, R commutes with p -> -p, and R
    moves each node to its mirror image in the axis.
    """
    idx = np.arange(len(quad))
    mirror = mirror_indices(quad)
    refl = quad.reflection
    if refl is None:
        raise ParameterError("quadrature rule records no reflection in an axis")
    if refl.min(initial=0) < 0 or refl.max(initial=0) >= len(quad):
        raise ParameterError("quadrature rule's reflection map is out of range")
    e = np.array(quad.axis)
    image = 2.0 * (quad.nodes @ e)[:, None] * e - quad.nodes
    scale = np.abs(quad.nodes).max(initial=1.0)
    if not (np.array_equal(mirror[refl], refl[mirror])
            and np.abs(quad.nodes[refl] - image).max(initial=0.0) <= 1e-12 * scale):
        raise ParameterError("quadrature rule's reflection map is not a reflection in its axis")
    maps = [idx, mirror, refl, mirror[refl]]
    for g in maps[1:]:
        if not (np.array_equal(g[g], idx) and np.array_equal(quad.weights[g], quad.weights)):
            raise ParameterError("quadrature rule is not symmetric under its reflections")
    return np.array(maps)


# Entries of one row chunk of a class kernel's tables.  A chunk evaluates its
# whole diagonal square, so a larger chunk adds trigonometry and a smaller one
# adds calls; 8,192-16,384 were fastest on blocks of order 280-360 (2-core x86).
KERNEL_CHUNK = 16_384
# Characters of the symmetry group, one row per symmetry class, on the rows
# (identity, p -> -p, R, -R) of `_symmetry_maps`.  The second entry is the parity.
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


def _class_kernel(pts: np.ndarray, axis, scale: float, mw: np.ndarray,
                  chars: np.ndarray) -> np.ndarray:
    """sqrt(mw_i) K(p_i, p_j) sqrt(mw_j), assembled in one array, for one symmetry class.

    In frame coordinates (u, v) of the axis, K is the separable product
    f(scale u_i u_j) g(scale v_i v_j): cos cos, -sin sin, sin cos or cos sin,
    with g = cos for classes even under the reflection and f = cos for classes
    even under -R.  u_i u_j == u_j u_i in floating point, so K is evaluated on
    the upper triangle only, in chunks of rows whose g table holds at most
    KERNEL_CHUNK entries, and each chunk is copied to its mirror; the sign and
    the scaling (row factor first) then run on the whole block.
    """
    e = np.asarray(axis)
    u, v = pts @ e, pts @ np.array([-e[1], e[0]])
    f = np.cos if chars[3] > 0 else np.sin
    g = np.cos if chars[2] > 0 else np.sin
    n = len(u)
    a = np.empty((n, n))
    step = max(1, KERNEL_CHUNK // max(n, 1))
    table = np.empty(min(step, n) * n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = np.multiply.outer(u[lo:hi], u[lo:], out=a[lo:hi, lo:])
        rows *= scale
        f(rows, out=rows)
        b = np.multiply.outer(v[lo:hi], v[lo:], out=table[:rows.size].reshape(rows.shape))
        b *= scale
        g(b, out=b)
        rows *= b
        a[hi:, lo:hi] = rows[:, hi - lo:].T
    if chars[1] > 0 > chars[2]:
        np.negative(a, out=a)  # -sin sin
    s = np.sqrt(mw)
    a *= s[:, None]
    a *= s[None, :]
    return a


def _class_blocks(scale: float, quad: QuadratureRule, maps: np.ndarray):
    """Each symmetry class of the rule's group `maps` (`_symmetry_maps`) in turn:
    (characters, orbit representatives, m w, its block sqrt(m w) K_chi sqrt(m w))
    at kernel scale `scale`, as `compute_symset_basis` describes.  Each block is
    assembled when the next one is asked for, so one is held at a time."""
    rep = np.flatnonzero(maps.min(axis=0) == np.arange(len(quad)))  # lowest index of each orbit
    fixes = maps[:, rep] == rep  # (4, representatives): the stabilizers
    orbit = len(maps) / fixes.sum(axis=0)
    for chars in _CHARACTERS:
        live = ~np.any(fixes & (chars[:, None] < 0), axis=0)
        sub = rep[live]
        mw = orbit[live] * quad.weights[sub]
        yield chars, sub, mw, _class_kernel(quad.nodes[sub], quad.axis, scale, mw, chars)


# Peak bytes of the folded solve per entry of the largest class block, on the
# path that bounds it, the dense fallback of `top_eigenpairs`: the kernel, the
# eigensolver's copy, its eigenvectors and divide-and-conquer workspace, plus
# the interpreter and libraries.  The CLI-default L(3 pi/4), h = 5 basis
# (midpoint rule, N = 10,276, four class blocks of 2,569) peaked at 294 MiB RSS
# with 2 BLAS threads when every block was solved dense, 47 B per entry;
# rounded up.  On the block Krylov path the same basis peaks at 109 MiB, set
# by one block: `_class_kernel` assembles it in place and `top_eigenpairs`
# checks its symmetry by row blocks, so no second array of its size is made.
PEAK_BYTES_PER_ENTRY = 48.0


def _check_memory(n_nodes: int) -> None:
    """Raise ParameterError before allocating if the folded solve cannot fit in RAM."""
    block = -(-n_nodes // 4)  # orbit representatives of the largest symmetry class
    need = PEAK_BYTES_PER_ENTRY * block * block
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ParameterError(f"symset basis with {n_nodes} nodes needs ~{need / 2**30:.1f} GiB, "
                             f"this machine has {have / 2**30:.1f} GiB; lower --resolution")


def compute_symset_basis(c: float, geometry: Geometry, quad: QuadratureRule,
                         n_modes: int) -> SymSetBasis:
    """Nystrom eigensystem of the Fourier operator on A_h, folded over the rule's symmetry group.

    The group G = {1, -1, R, -R} holds p -> -p and the reflection R in the
    axis the rule records (every `build_quadrature` rule does; a rule that
    records none raises ParameterError).  The kernel depends on p.q only, so
    the N x N Nystrom matrix splits into one block per character chi of G.
    A mode of class chi is fixed by its values on one representative per
    node orbit, v(g p) = chi(g) v(p), and vanishes on orbits whose
    stabilizer chi does not fix.  Each class is solved as B = sqrt(m w)
    K_chi sqrt(m w) over those representatives (m the orbit size, K_chi as
    in `_class_kernel`) for its top n_modes eigenpairs by |lambda|
    (`top_eigenpairs`); its eigenvalues are nonzero eigenvalues of the full
    Nystrom matrix, and an eigenvector u lifts to v = u / sqrt(m w) on the
    representatives.  Classes even under p -> -p give even modes (alpha =
    beta, the cos kernel), the others odd modes (alpha = i beta, the sin
    kernel).  Eigenpairs are merged, sorted by |alpha| descending, and the
    top n_modes above the floor 1e-14 |alpha_0| are kept, each with its
    residual.  The blocks' squared Frobenius norms are summed as `hs_norm2`.
    """
    if c <= 0.0:
        raise ParameterError("compute_symset_basis requires c > 0")
    if n_modes < 1:
        raise ParameterError("n_modes must be positive")
    if n_modes > len(quad) // 2:
        raise ParameterError("n_modes must be much smaller than the node count")
    _check_memory(len(quad))
    maps = _symmetry_maps(quad)
    h2 = geometry.h**2
    candidates: list[tuple[float, int, int]] = []
    hs_norm2 = 0.0
    classes = []  # (characters, representatives, m w, top eigenvectors, eigenvalues, residuals)
    # no enumerate(): its reused result tuple would keep each block alive
    # while the next one is assembled
    for chars, sub, mw, block in _class_blocks(c / h2, quad, maps):
        hs_norm2 += float(np.vdot(block, block))
        vals, vecs, res = top_eigenpairs(block, n_modes)
        del block  # free before the next class's kernel is assembled
        # the matrix eigenvalue lambda approximates h^2 beta
        candidates += [(-abs(float(lam) / h2), len(classes), rank)
                       for rank, lam in enumerate(vals)]
        classes.append((chars, sub, mw, vecs, vals, res))
    candidates.sort()
    floor = ALPHA_FLOOR * -candidates[0][0] if candidates else 0.0
    # Each mode is signed by its weighted inner product with the generic
    # function exp(t) cos((c/h) t + pi/4), t = a.p/h.  It has no parity and no
    # mirror symmetry, so the sign is never a rounding-level tie between
    # mirror nodes and does not depend on the eigensolver.
    pts, w = quad.nodes, quad.weights
    t = pts @ np.array(SIGN_DIRECTION) / geometry.h
    probe = w * np.exp(t) * np.cos((c / geometry.h) * t + 0.25 * np.pi)
    rows, table = [], []
    for negabs, k, rank in candidates:
        if len(table) >= n_modes:
            break
        if -negabs < floor:
            continue
        chars, sub, mw, vecs, lams, res = classes[k]
        even = chars[1] > 0
        lam = float(lams[rank])
        alpha = complex(lam / h2) if even else complex(0.0, lam / h2)
        scale = (c / (2.0 * np.pi)) * abs(alpha)  # weighted node-norm = (c/2pi)|alpha|
        x = vecs[:, rank] / np.sqrt(mw) * scale
        v = np.zeros(len(quad))
        for g, chi in zip(maps, chars):
            v[g[sub]] = chi * x
        if np.dot(probe, v) < 0.0:
            v = -v
        rows.append((even, alpha, float(res[rank]) / h2))
        table.append(v)
    return SymSetBasis(c=float(c), geometry=geometry, quad=quad,
                       modes=_frozen(np.array(rows, dtype=MODE_DTYPE)),
                       node_values=_frozen(np.reshape(table, (len(table), len(quad)))),
                       hs_norm2=hs_norm2)


def mirror_indices(quad: QuadratureRule) -> np.ndarray:
    """Index map i -> j with nodes[j] == -nodes[i] (exact for built-in rules)."""
    mirror = mirror_map(quad.nodes)
    if mirror is None:
        raise ParameterError("quadrature nodes are not symmetric under negation")
    return mirror
