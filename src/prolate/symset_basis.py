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
Every quadrature rule here is symmetric under p -> -p, so each part is
discretized on the half-node set (one node of each mirror pair, plus p = 0 for
the even part) as the symmetrically scaled Nystrom matrix
sqrt(m_i w_i) k(c/h^2 p_i.p_j) sqrt(m_j w_j), with multiplicity m = 2 on pairs.
Each parity costs one (N/2)^3 eigensolve on (N/2)^2 memory instead of N^3 on
N^2.  Merged eigenpairs are ordered by |alpha| and normalized to unit plane
energy, i.e. weighted node-norm squared equal to (c / 2 pi)^2 |alpha_n|^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyQuadratureError, ParameterError, check_keys
from .numerics import (QuadratureRule, _frozen, disk_polar_rule, gauss_legendre_01, mirror_map,
                       real_matmul, sym_eig)

__all__ = [
    "Geometry",
    "SymSetMode",
    "SymSetBasis",
    "membership",
    "radial_profile",
    "analytic_area",
    "bounding_box",
    "build_quadrature",
    "compute_symset_basis",
    "eval_symset_psi",
]

ALPHA_FLOOR = 1e-14
# Entries per kernel block in `SymSetBasis.combine` (2 MiB of float64).
_KERNEL_BLOCK = 1 << 18
# Direction of the sign probe in `compute_symset_basis`: irrational components,
# so it lies on no symmetry axis of any geometry.
SIGN_DIRECTION = (0.6180339887498949, 0.4142135623730950)


@dataclass(frozen=True)
class Geometry:
    """A symmetric data domain A dilated by h: membership tests run on p / h."""

    kind: str  # "disk" | "limited_aperture" | "multi_freq"
    h: float = 1.0
    radius: float = 1.0
    theta: float = math.pi
    x_star: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("disk", "limited_aperture", "multi_freq"):
            raise ParameterError(f"unknown geometry kind {self.kind!r}")
        if self.h <= 0.0:
            raise ParameterError("geometry scale h must be positive")
        if self.kind == "disk" and self.radius <= 0.0:
            raise ParameterError("disk radius must be positive")
        if self.kind == "limited_aperture" and not 0.0 < self.theta <= math.pi:
            raise ParameterError("aperture half-angle must lie in (0, pi]")
        if self.kind == "multi_freq":
            norm = math.hypot(*self.x_star)
            if abs(norm - 1.0) > 1e-9:
                raise ParameterError("x_star must be a unit vector")
            object.__setattr__(self, "x_star", (self.x_star[0] / norm, self.x_star[1] / norm))

    @staticmethod
    def disk(radius: float = 1.0, h: float = 1.0) -> "Geometry":
        return Geometry(kind="disk", h=h, radius=radius)

    @staticmethod
    def limited_aperture(theta: float, h: float = 1.0) -> "Geometry":
        return Geometry(kind="limited_aperture", h=h, theta=theta)

    @staticmethod
    def multi_freq(x_star, h: float = 1.0) -> "Geometry":
        return Geometry(kind="multi_freq", h=h, x_star=(float(x_star[0]), float(x_star[1])))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "h": self.h}
        if self.kind == "disk":
            out["radius"] = self.radius
        elif self.kind == "limited_aperture":
            out["theta"] = self.theta
        else:
            out["x_star"] = [self.x_star[0], self.x_star[1]]
        return out

    @staticmethod
    def from_dict(d: dict) -> "Geometry":
        check_keys(d, ("kind",), "geometry record")
        kind = d["kind"]
        if kind == "disk":
            return Geometry.disk(radius=d.get("radius", 1.0), h=d.get("h", 1.0))
        if kind == "limited_aperture":
            check_keys(d, ("theta",), "limited-aperture geometry record")
            return Geometry.limited_aperture(theta=d["theta"], h=d.get("h", 1.0))
        if kind == "multi_freq":
            check_keys(d, ("x_star",), "multi-frequency geometry record")
            return Geometry.multi_freq(d["x_star"], h=d.get("h", 1.0))
        raise ParameterError(f"unknown geometry kind {kind!r}")


def _limited_membership(theta_cap: float, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """p in L(Theta) iff some unit pair (x_hat, theta_hat = x_hat + p) exists
    with both arguments strictly inside (-Theta, Theta).

    Unit solutions of |x_hat + p| = 1 satisfy x_hat.p = -|p|^2 / 2, giving at
    most two candidates; p = 0 lies in the interior iff Theta > pi / 2.
    """
    rho2 = px * px + py * py
    rho = np.sqrt(rho2)
    out = np.zeros(rho.shape, dtype=bool)
    origin = rho < 1e-14
    out[origin] = theta_cap > math.pi / 2.0
    ok = (~origin) & (rho < 2.0)
    if ok.any():
        ux, uy = px[ok] / rho[ok], py[ok] / rho[ok]
        t = -rho[ok] / 2.0
        s = np.sqrt(np.maximum(0.0, 1.0 - rho2[ok] / 4.0))
        hit = np.zeros(t.shape, dtype=bool)
        for sgn in (1.0, -1.0):
            xh = t * ux - sgn * s * uy
            yh = t * uy + sgn * s * ux
            good = (np.abs(np.arctan2(yh, xh)) < theta_cap) & (
                np.abs(np.arctan2(yh + py[ok], xh + px[ok])) < theta_cap
            )
            hit |= good
        out[ok] = hit
    return out


def membership(geometry: Geometry, p) -> bool | np.ndarray:
    """True iff p / h lies in the open set A."""
    pts = np.atleast_2d(np.asarray(p, dtype=float)) / geometry.h
    x, y = pts[:, 0], pts[:, 1]
    if geometry.kind == "disk":
        out = x * x + y * y < geometry.radius**2
    elif geometry.kind == "multi_freq":
        ax, ay = geometry.x_star
        out = ((x - ax) ** 2 + (y - ay) ** 2 < 1.0) | ((x + ax) ** 2 + (y + ay) ** 2 < 1.0)
    else:
        out = _limited_membership(geometry.theta, x, y)
    return bool(out[0]) if np.asarray(p).ndim == 1 else out


def _wrap(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def radial_profile(geometry: Geometry, phi) -> np.ndarray:
    """Radial extent of A along direction phi (unit scale, multiply by h).

    All three geometries are star-shaped about the origin, so membership is
    equivalent to |p| / h < radial_profile(phi).  For the limited-aperture set
    the profile follows from the parametrization p = 2 sin(u) e(v + pi/2) with
    the constraint u + |v| < Theta.
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

    method "midpoint": tensor midpoint grid over the bounding box filtered by
    membership of both p and -p, weight equal to the cell area (default for
    the aperture and multi-frequency sets; first-order boundary accuracy).
    method "polar": analytic rules built from the radial profile (default for
    disks; also available for L and M when spectral accuracy of the total
    weight matters).
    """
    if resolution < 8:
        raise ParameterError("resolution must be at least 8")
    if method == "auto":
        method = "polar" if geometry.kind == "disk" else "midpoint"
    if method == "midpoint":
        b = bounding_box(geometry)
        step = 2.0 * b / resolution
        centers = step * (np.arange(resolution) - (resolution - 1) / 2.0)
        X, Y = np.meshgrid(centers, centers, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        keep = membership(geometry, pts)
        keep &= keep[::-1]  # reversed flat order is the negated grid: keep mirror pairs
        if not keep.any():
            raise EmptyQuadratureError("no quadrature nodes inside the set")
        pts = pts[keep]
        return QuadratureRule(pts, np.full(len(pts), step * step))
    if method != "polar":
        raise ParameterError(f"unknown quadrature method {method!r}")

    n_r = max(12, resolution // 8)
    n_t = max(24, 2 * (resolution // 8))
    n_t += n_t % 2
    if geometry.kind == "disk":
        return disk_polar_rule(geometry.radius * geometry.h, n_r, n_t)
    if geometry.kind == "multi_freq":
        cx, cy = geometry.h * geometry.x_star[0], geometry.h * geometry.x_star[1]
        plus = disk_polar_rule(geometry.h, n_r, n_t, center=(cx, cy))
        nodes = np.concatenate([plus.nodes, -plus.nodes])
        weights = np.concatenate([plus.weights, plus.weights])
        return QuadratureRule(nodes, weights)
    # star-shaped rule for L: uniform angles, Gauss in radius up to the profile
    n_phi = max(64, resolution)
    n_phi += n_phi % 2
    half = n_phi // 2
    phi = np.pi * (np.arange(half) + 0.5) / half
    wphi = 2.0 * np.pi / n_phi
    rad = gauss_legendre_01(n_r)
    rho = geometry.h * radial_profile(geometry, phi)
    live = rho > 0.0
    if not live.any():
        raise EmptyQuadratureError("no quadrature nodes inside the set")
    r = np.outer(rad.nodes, rho[live])                    # (n_r, n_live)
    w = np.outer(rad.weights, rho[live]) * r * wphi       # r dr dphi
    cosq, sinq = np.cos(phi[live]), np.sin(phi[live])
    x = (r * cosq).ravel()
    y = (r * sinq).ravel()
    pts = np.concatenate([np.stack([x, y], axis=1), np.stack([-x, -y], axis=1)])
    return QuadratureRule(pts, np.tile(w.ravel(), 2))


@dataclass(frozen=True)
class SymSetMode:
    """One Nystrom eigenpair: parity, operator eigenvalue, node samples."""

    parity: str  # "even" | "odd"
    alpha: complex  # eigenvalue of the unit-scale set A (real if even, imaginary if odd)
    node_values: np.ndarray

    @property
    def beta(self) -> float:
        """Signed real eigenvalue of the cos (even) or sin (odd) kernel on A."""
        return self.alpha.real if self.parity == "even" else self.alpha.imag


@dataclass(frozen=True)
class SymSetBasis:
    """Retained eigenpairs of the Fourier operator on A_h, |alpha| descending.

    `spectrum_even` / `spectrum_odd` keep the complete folded eigenvalue lists
    (operator scale, i.e. h^2 beta; about N/2 entries each, the nonzero part
    of the N x N Nystrom spectra), which the Hilbert-Schmidt sum rule checks
    against the squared domain measure.
    """

    c: float
    geometry: Geometry
    quad: QuadratureRule
    modes: tuple[SymSetMode, ...]
    spectrum_even: np.ndarray = None
    spectrum_odd: np.ndarray = None
    complete: bool = True  # False if fewer than requested survived the floor

    @property
    def kernel_scale(self) -> float:
        return self.c / self.geometry.h**2

    @cached_property
    def alphas(self) -> np.ndarray:
        return _frozen([mo.alpha for mo in self.modes])

    @cached_property
    def mu(self) -> np.ndarray:
        """Eigenvalues h^2 alpha_n of the operator on the dilated set A_h."""
        return _frozen(self.geometry.h**2 * self.alphas)

    @cached_property
    def mode_norms(self) -> np.ndarray:
        """L2(A_h) norms, equal to (c / 2 pi) |alpha_n| per mode."""
        return _frozen((self.c / (2.0 * np.pi)) * np.abs(self.alphas))

    @cached_property
    def node_values(self) -> np.ndarray:
        """(modes, N) node values; a basis built by `from_table` returns its table, uncopied."""
        return _frozen([mo.node_values for mo in self.modes])

    @classmethod
    def from_table(cls, table, parities, alphas, **fields) -> "SymSetBasis":
        """A basis whose modes are row views of one read-only (modes, N) node-value table.

        `node_values` then returns the table itself, so the values are held once.
        The remaining fields (c, geometry, quad, spectra, complete) pass through.
        """
        table = _frozen(table)
        if table.shape != (len(parities), len(fields["quad"])) or len(alphas) != len(parities):
            raise ParameterError(f"node-value table of shape {table.shape} does not match "
                                 f"{len(parities)} parities, {len(alphas)} eigenvalues and "
                                 f"{len(fields['quad'])} nodes")
        modes = tuple(SymSetMode(parity=parity, alpha=alpha, node_values=row)
                      for parity, alpha, row in zip(parities, alphas, table))
        basis = cls(modes=modes, **fields)
        basis.__dict__["node_values"] = table  # the cached property's value
        return basis

    @cached_property
    def _fold(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(rep, mirror[rep], number of pairs): the pair representatives, then the self-mirror nodes."""
        mirror, pairs, fixed = _mirror_pairs(self.quad)
        rep = np.concatenate([pairs, fixed])
        return rep, mirror[rep], len(pairs)

    def keep(self, alpha: float) -> np.ndarray:
        """Spectral-cutoff mask {|mu_n| > alpha}."""
        return np.abs(self.mu) > alpha

    def inner(self, weighted) -> np.ndarray:
        """node_values @ weighted for node samples, (N,) or (N, k), real or complex."""
        return real_matmul(self.node_values, weighted)

    def on_nodes(self, weights) -> np.ndarray:
        """node_values.T @ weights for per-mode weights, (modes,) or (modes, k)."""
        return real_matmul(self.node_values.T, weights)

    def combine(self, weights, pts) -> np.ndarray:
        """sum_n weights[n] psi_n(pts) by Nystrom interpolation; a scalar for one point.

        psi_n(p) = sum_j k(c/h^2 p.p_j) w_j psi_n(p_j) / (h^2 beta_n) with k = cos
        for even and sin for odd modes: the node values inside A_h, the analytic
        extension outside.  The node values are summed per parity first (one
        real product, g), so each kernel is applied once.  The kernels are even
        and odd in p_j and the weights are mirror-symmetric, so each kernel runs
        over the pair representatives r only, with folded values
        w_r (g_r + g_-r) for cos and w_r (g_r - g_-r) for sin; a self-mirror
        node (p = 0) adds w g once to the cos sum and nothing to the sin sum.
        Kernels are built in blocks of points of at most _KERNEL_BLOCK entries.
        """
        weights = np.asarray(weights)
        xy = np.atleast_2d(np.asarray(pts, dtype=float))
        lam = self.geometry.h**2 * np.array([mo.beta for mo in self.modes])
        even = np.array([mo.parity == "even" for mo in self.modes])
        live = weights != 0
        rep, mirrored, n_pairs = self._fold
        scaled = weights / lam
        g = self.on_nodes(np.stack([np.where(even, scaled, 0.0), np.where(even, 0.0, scaled)],
                                   axis=1))
        w = self.quad.weights[rep]
        folded = []  # (kernel, folded values on the representatives)
        if (even & live).any():
            f = w * (g[rep, 0] + g[mirrored, 0])
            f[n_pairs:] *= 0.5  # a self-mirror node counts once
            folded.append((np.cos, f))
        if (~even & live).any():
            folded.append((np.sin, w * (g[rep, 1] - g[mirrored, 1])))
        out = np.zeros(len(xy), dtype=np.result_type(weights, float))
        nodes = self.quad.nodes[rep]
        block = max(1, _KERNEL_BLOCK // len(rep))
        for lo in range(0, len(xy), block):
            gram = self.kernel_scale * (xy[lo:lo + block] @ nodes.T)
            for i, (kernel, f) in enumerate(folded):
                # the last kernel overwrites the gram in place
                table = kernel(gram, out=gram) if i == len(folded) - 1 else kernel(gram)
                out[lo:lo + block] += real_matmul(table, f)
        return out[0] if np.ndim(pts) == 1 else out


def _mirror_pairs(quad: QuadratureRule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the nodes of a rule symmetric under p -> -p.

    Returns (mirror, pairs, fixed): the mirror index map, the pair
    representatives i < mirror[i], and the self-mirror nodes (the p = 0 node
    of an odd midpoint grid).  Raises ParameterError unless the map is an
    involution that preserves the weights.
    """
    mirror = mirror_indices(quad)
    idx = np.arange(len(quad))
    if not (np.array_equal(mirror[mirror], idx)
            and np.array_equal(quad.weights[mirror], quad.weights)):
        raise ParameterError("quadrature rule is not symmetric under negation")
    return mirror, idx[mirror > idx], idx[mirror == idx]


def _folded_kernel(pts: np.ndarray, scale: float, mw: np.ndarray, kernel) -> np.ndarray:
    """sqrt(mw_i) kernel(scale p_i.p_j) sqrt(mw_j), assembled in one array."""
    a = pts @ pts.T
    a *= scale
    kernel(a, out=a)
    s = np.sqrt(mw)
    a *= s[:, None]
    a *= s[None, :]
    return a


# Peak bytes of the folded solve per entry of the (N/2)^2 even kernel: the
# kernel, the eigensolver's copy, its eigenvectors and divide-and-conquer
# workspace, plus the interpreter and libraries.  The N = 10,276 L(3 pi/4)
# basis peaks at 1,107 MiB RSS, 44 B per entry; rounded up.
PEAK_BYTES_PER_ENTRY = 48.0


def _check_memory(n_nodes: int) -> None:
    """Raise ParameterError before allocating if the folded solve cannot fit in RAM."""
    half = (n_nodes + 1) // 2  # pair representatives plus the p = 0 node, if any
    need = PEAK_BYTES_PER_ENTRY * half * half
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ParameterError(f"symset basis with {n_nodes} nodes needs ~{need / 2**30:.1f} GiB, "
                             f"this machine has {have / 2**30:.1f} GiB; lower --resolution")


def compute_symset_basis(c: float, geometry: Geometry, quad: QuadratureRule,
                         n_modes: int) -> SymSetBasis:
    """Nystrom eigensystem of the Fourier operator on A_h, folded by parity.

    The rule is symmetric under p -> -p, so even modes are fixed by their
    values on the pair representatives and the p = 0 node, and odd modes by
    their values on the representatives (they vanish at p = 0).  Each parity
    is solved as B = sqrt(m w) k(c/h^2 p_i.p_j) sqrt(m w) on those nodes, with
    multiplicity m = 2 on representatives and 1 at p = 0; its eigenvalues are
    the nonzero eigenvalues of the full N x N Nystrom matrix, and an
    eigenvector u lifts to v = u / sqrt(m w), v[mirror] = +-v.  Even modes
    (alpha = beta_e) and odd modes (alpha = i beta_o) are merged, sorted by
    |alpha| descending, and the top n_modes above the floor 1e-14 |alpha_0|
    are kept.
    """
    if c <= 0.0:
        raise ParameterError("compute_symset_basis requires c > 0")
    if n_modes < 1:
        raise ParameterError("n_modes must be positive")
    if n_modes > len(quad) // 2:
        raise ParameterError("n_modes must be much smaller than the node count")
    _check_memory(len(quad))
    mirror, pairs, fixed = _mirror_pairs(quad)
    pts, w = quad.nodes, quad.weights
    h2 = geometry.h**2
    candidates: list[tuple[float, int, int, str, float, np.ndarray]] = []
    spectra = {}
    folds = (("even", np.concatenate([pairs, fixed]), np.cos, 1.0),
             ("odd", pairs, np.sin, -1.0))
    for parity, sub, kernel, sign in folds:
        mw = np.where(mirror[sub] == sub, 1.0, 2.0) * w[sub]  # multiplicity times weight
        vals, vecs = sym_eig(_folded_kernel(pts[sub], c / h2, mw, kernel))
        spectra[parity] = vals
        keep = np.argsort(-np.abs(vals))[: min(2 * n_modes + 8, len(vals))]
        for rank, idx in enumerate(keep):
            lam = float(vals[idx])  # matrix eigenvalue approximates h^2 beta
            alpha = complex(lam / h2) if parity == "even" else complex(0.0, lam / h2)
            v = np.zeros(len(quad))
            v[sub] = vecs[:, idx] / np.sqrt(mw)
            v[mirror[sub]] = sign * v[sub]
            candidates.append((-abs(alpha), 0 if parity == "even" else 1, rank, parity, lam, v))
        del vecs  # free before the next parity's kernel is assembled
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    floor = ALPHA_FLOOR * abs(candidates[0][0]) if candidates else 0.0
    # Each mode is signed by its weighted inner product with the generic
    # function exp(t) cos((c/h) t + pi/4), t = a.p/h.  It has no parity and no
    # mirror symmetry, so the sign is never a rounding-level tie between
    # mirror nodes and does not depend on the eigensolver.
    t = pts @ np.array(SIGN_DIRECTION) / geometry.h
    probe = w * np.exp(t) * np.cos((c / geometry.h) * t + 0.25 * np.pi)
    parities, alphas, table = [], [], []
    for negabs, _, _, parity, lam, v in candidates:
        if len(table) >= n_modes:
            break
        if -negabs < floor:
            continue
        alpha = complex(lam / h2) if parity == "even" else complex(0.0, lam / h2)
        scale = (c / (2.0 * np.pi)) * abs(alpha)  # weighted node-norm = (c/2pi)|alpha|
        vv = scale * v
        if np.dot(probe, vv) < 0.0:
            vv = -vv
        parities.append(parity)
        alphas.append(alpha)
        table.append(vv)
    return SymSetBasis.from_table(np.reshape(table, (len(table), len(quad))), parities, alphas,
                                  c=float(c), geometry=geometry, quad=quad,
                                  spectrum_even=spectra["even"], spectrum_odd=spectra["odd"],
                                  complete=len(table) >= n_modes)


def eval_symset_psi(basis: SymSetBasis, n: int, p) -> float | np.ndarray:
    """Evaluate mode n at arbitrary points; values are real (see `SymSetBasis.combine`)."""
    weights = np.zeros(len(basis.modes))
    weights[n] = 1.0
    return basis.combine(weights, p)


def mirror_indices(quad: QuadratureRule) -> np.ndarray:
    """Index map i -> j with nodes[j] == -nodes[i] (exact for built-in rules)."""
    mirror = mirror_map(quad.nodes)
    if mirror is None:
        raise ParameterError("quadrature nodes are not symmetric under negation")
    return mirror
