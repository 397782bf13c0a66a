"""Generalized prolate spheroidal eigensystem on the unit disk.

The basis psi_{m,n,l}(x; c) diagonalizes the finite Fourier operator

    (F_c psi)(p) = int_{B(0,1)} exp(i c p.p') psi(p') dp' = alpha psi(p)

and simultaneously the Sturm-Liouville operator

    D_{c,x} = -(1-r^2) d_r^2 + (3r - 1/r) d_r - r^{-2} d_theta^2 + c^2 r^2

with eigenvalue chi_{m,n}(c).  Separating variables, psi = R(r) Y_{m,l}(theta)
with Y = {1, cos(m theta), sin(m theta)}; the radial factor is expanded in the
orthonormal disk-polynomial basis of `zernike_radial`, in which D_{c,x}
restricted to azimuthal order m is exactly tridiagonal:

    diag_j = (m+2j)(m+2j+2) + c^2 <r^2 Z_j, Z_j>,   off_j = c^2 <r^2 Z_j, Z_{j+1}>.

The Fourier eigenvalue comes from the radial kernel relation

    sqrt(c) int_0^1 J_m(c r s) R(s) s ds = gamma R(r),    alpha = 2 pi i^m gamma / sqrt(c),

with gamma real.  For r > 1 the left side extends psi analytically to the
plane, and the Zernike-Bessel identity

    int_0^1 J_m(a s) Z_j(s) s ds = (-1)^j sqrt(2(m+2j+1)) J_{m+2j+1}(a) / a

gives that extension in closed form from the radial coefficients.  Each mode
is normalized to unit energy on the whole plane, equivalently
||psi||_{L2(B(0,1))} = (c / 2 pi) |alpha|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyCutoffError, ParameterError, finite_number
from .numerics import (
    BLOCK_ENTRIES,
    QuadratureRule,
    _from_real_columns,
    _frozen,
    _real_columns,
    bessel_table,
    disk_polar_rule,
    gauss_legendre_01,
    grid_points,
    real_matmul,
    sym_eig,
    zernike_radial_table,
)
from .symset_basis import check_bandwidth

__all__ = [
    "MODE_DTYPE",
    "DiskBasis",
    "assemble_sl_matrix",
    "compute_disk_basis",
    "default_truncation",
    "disk_basis_from_modes",
    "disk_basis_from_radial",
    "eval_psi",
]

GAMMA_FLOOR = 1e-300
# Entries per Zernike or Bessel table block in `DiskBasis.combine` (2 MiB of float64).
_BESSEL_BLOCK = 1 << 18


# One record per disk mode: indices, Sturm-Liouville eigenvalue chi, radial
# kernel eigenvalue gamma, Fourier eigenvalue alpha, and whether |gamma| is
# above GAMMA_FLOOR.
MODE_DTYPE = np.dtype([("m", np.int64), ("n", np.int64), ("ell", np.int64), ("chi", float),
                       ("gamma", float), ("alpha", complex), ("usable", bool)], align=True)


@dataclass(frozen=True)
class DiskBasis:
    """The disk mode table plus the quadrature of the disk used for inner products.

    `modes` is a read-only MODE_DTYPE array with one record per mode, ordered
    by (m + 2n, m, ell), and `coeffs[i]` expands the radial factor of mode i
    in the orthonormal disk polynomials of order m, scaled so the plane energy
    of the mode is 1 and signed so the first significant coefficient is
    positive; the modes ell = 1 and 2 of an order m > 0 have equal rows.

    The modes live on the disk of radius `radius`: 1 for the unit-disk system,
    h once `dilated` has put it on the data disk of radius h = c / (2k).
    There psi_r(x) = psi(x / r) / r satisfies the Fourier eigenrelation with
    kernel exp(i (c / r^2) p.p') and eigenvalue r^2 alpha, and keeps unit plane
    energy and squared norm (c / 2 pi)^2 |alpha|^2 on the disk.

    `quad` is the n_r x n_t polar rule: n_r rings, each with the n_t / 2
    angles `angles` of a half circle and their mirrors theta + pi, where mode
    (m, ell) takes (-1)^m its value.  A mode is R(r) Y(theta) on the rule,
    so the basis holds `radial[i]`, R_i at the rule's radii on the unit
    disk, and no (modes, N) table: `inner` and `on_nodes` give the products
    with the node values ring by ring, and `node_values` builds the table on
    first use.
    """

    c: float
    truncation: int
    modes: np.ndarray
    coeffs: np.ndarray
    quad: QuadratureRule
    radial: np.ndarray
    angles: np.ndarray
    radius: float = 1.0

    @property
    def kernel_scale(self) -> float:
        return self.c / self.radius**2

    @property
    def extent(self) -> float:
        """Half-width r of the field square [-r, r]^2 around the disk of radius r."""
        return self.radius

    @property
    def quad_size(self) -> tuple[int, int]:
        """(n_r, n_t) of the polar rule."""
        return self.radial.shape[1], 2 * len(self.angles)

    @cached_property
    def keys(self) -> np.ndarray:
        """(modes, 3) array of the (m, n, ell) of each mode."""
        return _frozen(np.stack([self.modes["m"], self.modes["n"], self.modes["ell"]], axis=1))

    @cached_property
    def mu(self) -> np.ndarray:
        """Fourier eigenvalues r^2 alpha of the operator on the disk of radius r."""
        return _frozen((self.radius**2) * self.modes["alpha"])

    @cached_property
    def mode_norms(self) -> np.ndarray:
        """L2 norms on the disk, equal to (c / 2 pi) |alpha| per mode."""
        return _frozen((self.c / (2.0 * np.pi)) * np.abs(self.modes["alpha"]))

    @property
    def chis(self) -> np.ndarray:
        """Sturm-Liouville eigenvalues chi per mode."""
        return self.modes["chi"]

    def cutoff(self, alpha: float) -> tuple[np.ndarray, float]:
        """The mask of the index set J(alpha) = {chi < 1/alpha} and beta(alpha), the
        smallest retained |mu|; raises if J(alpha) is empty."""
        keep = self.chis < 1.0 / finite_number("alpha", alpha, positive=True)
        if not keep.any():
            raise EmptyCutoffError(f"no modes with chi < {1.0 / alpha:.6g}")
        return keep, float(np.min(np.abs(self.mu[keep])))

    @cached_property
    def node_values(self) -> np.ndarray:
        """(modes, N) samples of the modes on `quad.nodes`: `on_nodes` of the identity."""
        return _frozen(self.on_nodes(np.eye(len(self.modes))).T)

    @cached_property
    def _rings(self) -> tuple[np.ndarray, list]:
        """The angular table and the radial blocks that `inner` and `on_nodes` apply.

        The table is (2 half, 2 (m_max + 1)): column m holds cos(m theta) and
        column m_max + 1 + m sin(m theta), in the first half of the rows for
        even m and the second half for odd m, zero elsewhere.  The blocks are
        (column, mode indices, their radial factors) per (m, ell).
        """
        orders = self.modes["m"]
        top = int(orders.max(initial=0))
        half = len(self.angles)
        phase = np.outer(self.angles, np.arange(top + 1))
        trig = np.zeros((2, half, 2 * (top + 1)))
        for parity in (0, 1):
            trig[parity, :, parity:top + 1:2] = np.cos(phase[:, parity::2])
            trig[parity, :, top + 1 + parity::2] = np.sin(phase[:, parity::2])
        cols = np.where(self.modes["ell"] == 1, orders, top + 1 + orders)
        blocks = []
        for col in np.unique(cols):
            idx = np.flatnonzero(cols == col)
            blocks.append((col, idx, self.radial[idx]))
        return trig.reshape(2 * half, -1), blocks

    def inner(self, weighted) -> np.ndarray:
        """node_values @ weighted for node samples, (N,) or (N, k), real or complex.

        The sum over the mirrored half of the rule folds onto the first half
        as f(p) + f(-p) for even m and f(p) - f(-p) for odd m.  One real
        product with the angular table sums every ring of both folds, and one
        product with the radial factors per (m, ell) sums the rings.  Costs
        O(N m_max + modes n_r) per column.
        """
        trig, blocks = self._rings
        f = _real_columns(weighted)
        n_r, half, k = self.radial.shape[1], len(self.angles), f.shape[1]
        f = f.reshape(2, n_r, half, k).transpose(0, 2, 1, 3)  # (mirror half, angle, ring, column)
        folded = np.empty((2, half, n_r, k))
        np.add(f[0], f[1], out=folded[0])
        np.subtract(f[0], f[1], out=folded[1])
        rings = (trig.T @ folded.reshape(2 * half, n_r * k)).reshape(-1, n_r, k)
        out = np.empty((len(self.modes), k))
        for col, idx, radial in blocks:
            out[idx] = radial @ rings[col]
        out /= self.radius
        return _from_real_columns(out, weighted)

    def on_nodes(self, weights) -> np.ndarray:
        """node_values.T @ weights for per-mode weights, (modes,) or (modes, k): the
        steps of `inner` transposed, so the same cost."""
        trig, blocks = self._rings
        g = _real_columns(weights)
        n_r, half, k = self.radial.shape[1], len(self.angles), g.shape[1]
        rings = np.zeros((trig.shape[1], n_r, k))
        for col, idx, radial in blocks:
            rings[col] = radial.T @ g[idx]
        halves = (trig @ rings.reshape(-1, n_r * k)).reshape(2, half, n_r, k).transpose(0, 2, 1, 3)
        out = np.empty((2, n_r, half, k))  # (mirror half, ring, angle, column)
        np.add(halves[0], halves[1], out=out[0])
        np.subtract(halves[0], halves[1], out=out[1])
        out /= self.radius
        return _from_real_columns(out.reshape(2 * n_r * half, k), weights)

    def combine(self, weights, pts) -> np.ndarray:
        """sum_i weights[i] psi_i(pts) anywhere in the plane; a scalar for one point.

        The sum is taken for the unit-disk modes at pts / radius and divided
        by radius (exact no-ops for the unit disk).  Inside the unit disk a
        mode is its coefficient expansion R = sum_j a_j Z_j times Y(theta),
        finite at the origin for every m.  Outside it is the analytic extension
        psi(x) = alpha^{-1} int_{B} exp(i c x.p') psi(p') dp', which the radial
        reduction and the Zernike-Bessel identity (module docstring) make
        sqrt(c)/gamma Y(theta) sum_j a_j (-1)^j sqrt(2(m+2j+1)) J_{m+2j+1}(c|x|) / (c|x|).
        Both are linear in the a_j, so the weights (over gamma outside) are
        folded into one coefficient vector per (m, ell).  The radial sums are
        tabulated once per distinct |x|: inside, one Zernike table of every live
        order; outside, one Bessel table J_0..J_{m+2J-1}(c|x|) that serves every
        order; each in blocks of radii of at most _BESSEL_BLOCK entries.  They
        are gathered to the points, and the angular sums taken, in blocks of
        BLOCK_ENTRIES points, so memory beyond the radius tables stays bounded.
        """
        weights = np.asarray(weights)
        xy = np.atleast_2d(np.asarray(pts, dtype=float))
        # the unit-disk coordinates xy / radius are formed per use, never held whole
        radii, at = np.unique(np.hypot(xy[:, 0] / self.radius, xy[:, 1] / self.radius),
                              return_inverse=True)
        split = int(np.searchsorted(radii, 1.0, side="right"))  # radii[:split] <= 1
        out = np.zeros(len(xy), dtype=np.result_type(weights, float))
        live = np.nonzero(weights)[0]
        live_orders = self.modes["m"][live]
        orders = np.unique(live_orders)
        J = self.truncation
        j = np.arange(J)
        # per live order, the (J, 2) coefficients inside and outside; columns cos, sin
        interior = np.empty((len(orders), J, 2), dtype=out.dtype)
        exterior = np.empty_like(interior)
        for i, m in enumerate(orders):
            idx = live[live_orders == m]
            fold = np.zeros((len(idx), 2), dtype=out.dtype)  # columns: ell = 1, 2
            fold[np.arange(len(idx)), self.modes["ell"][idx] - 1] = weights[idx]
            coeffs = self.coeffs[idx].T
            interior[i] = coeffs @ fold
            if split < len(radii):
                identity = math.sqrt(self.c) * (-1.0) ** j * np.sqrt(2.0 * (m + 2 * j + 1))
                exterior[i] = identity[:, None] * (coeffs @ (fold / self.modes["gamma"][idx, None]))
        # the radial sums per order, distinct radius and column
        profile = np.empty((len(orders), len(radii), 2), dtype=out.dtype)
        top = int(orders.max(initial=0)) + 2 * J - 1
        block = max(1, _BESSEL_BLOCK // max(len(orders) * J, top + 1))
        for lo in range(0, split, block):
            rows = slice(lo, min(lo + block, split))
            table = zernike_radial_table(orders, J, radii[rows])
            for i, f in enumerate(interior):
                profile[i, rows] = real_matmul(table[i].T, f)
        for lo in range(split, len(radii), block):
            rows = slice(lo, lo + block)
            cr = self.c * radii[rows]
            table = bessel_table(top, cr)
            table /= cr
            for i, m in enumerate(orders):
                # J_{m+2j+1}(c|x|) / (c|x|)
                profile[i, rows] = real_matmul(table[m + 1:m + 2 * J:2].T, exterior[i])
        for lo in range(0, len(xy), BLOCK_ENTRIES):
            rows = slice(lo, lo + BLOCK_ENTRIES)
            unit = xy[rows] / self.radius
            theta = np.arctan2(unit[:, 1], unit[:, 0])
            for i, m in enumerate(orders):
                out[rows] += _angular_sum(m, profile[i, at[rows]], theta)
        out /= self.radius
        return out[0] if np.ndim(pts) == 1 else out

    def combine_grid(self, weights, axis) -> np.ndarray:
        """`combine` at `grid_points(axis)`: the (len(axis)^2,) values, x-major."""
        return self.combine(weights, grid_points(axis))

    def mode_index(self, key: tuple[int, int, int]) -> int:
        """Index of the mode with (m, n, ell) == key."""
        hit = np.flatnonzero((self.keys == tuple(key)).all(axis=1))
        if not len(hit):
            raise KeyError(f"mode {key} not present in basis")
        return int(hit[0])

    def dilated(self, radius: float) -> "DiskBasis":
        """The basis dilated onto the disk of `radius`, from any radius."""
        s = finite_number("dilation radius", radius, positive=True) / self.radius
        quad = QuadratureRule(s * self.quad.nodes, s**2 * self.quad.weights)
        return replace(self, radius=radius, quad=quad)

    def paired(self, domain, c: float | None) -> "DiskBasis":
        """The basis dilated onto a setup's or data file's disk `domain` of bandwidth `c`."""
        kind = domain and domain.kind
        if kind != "disk":
            raise ParameterError(f"a disk basis pairs only with a disk domain, got {kind!r}")
        check_bandwidth(self.c, c)
        return self.dilated(domain.h)

    def checks(self) -> tuple[float, list]:
        """The Gram tolerance of `analysis.validate_basis` and the disk's own identities,
        (name, residual, threshold): chi in [d(d + 2), d(d + 2) + c^2], d = m + 2n, alpha
        of phase i^m, and |alpha| not rising along n on each order m (usable, ell = 1)."""
        modes, chis = self.modes, self.chis
        degree = modes["m"] + 2 * modes["n"]
        lo = degree * (degree + 2)
        slack = np.maximum(lo - chis, chis - (lo + self.c * self.c))
        phases = modes["alpha"] * np.array([1, -1j, -1, 1j])[modes["m"] % 4]  # alpha (-i)^m
        chain = modes[(modes["ell"] == 1) & modes["usable"]]
        chain = chain[np.lexsort((chain["n"], chain["m"]))]
        mags = np.abs(chain["alpha"])
        rise = ((mags[1:] - mags[:-1]) / mags[:-1])[chain["m"][1:] == chain["m"][:-1]]
        return 1e-8, [("eigenvalue_bracketing", slack.max(), -1e-12),
                      ("alpha_parity", (np.abs(phases.imag) / np.abs(phases)).max(), 1e-10),
                      ("alpha_monotone_chains", float(rise.max(initial=0.0)), 1e-10)]


def default_truncation(c: float, n_max: int) -> int:
    """Disk-polynomial count resolving the c^2 r^2 coupling for n <= n_max."""
    return 2 * n_max + math.ceil(c) + 10


def assemble_sl_matrix(c: float, m: int, J: int) -> np.ndarray:
    """Dense tridiagonal matrix of D_{c,x} at azimuthal order m in the disk polynomials.

    The radial inner products <r^2 Z_j, Z_k> (weight r) are computed with a
    Gauss rule exact for the integrand degree, so the matrix is exact to
    rounding.  c = 0 is allowed and gives the decoupled diagonal
    (m+2j)(m+2j+2).  At J ~ 40 a dense eigensolve is as fast as a banded one.
    """
    if c < 0.0:
        raise ParameterError("assemble_sl_matrix requires c >= 0")
    if m < 0 or J < 1:
        raise ParameterError("assemble_sl_matrix requires m >= 0 and J >= 1")
    rule = gauss_legendre_01(m + 2 * J + 4)
    x, w = rule.nodes, rule.weights
    Z = zernike_radial_table(m, J, x)
    wr3 = w * x**3  # weight r times r^2
    diag = np.array(
        [(m + 2 * j) * (m + 2 * j + 2) + c * c * np.dot(Z[j] * wr3, Z[j]) for j in range(J)]
    )
    off = np.array([c * c * np.dot(Z[j] * wr3, Z[j + 1]) for j in range(J - 1)])
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _angular_sum(m: int, radial: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """radial[:, 0] cos(m theta) + radial[:, 1] sin(m theta)."""
    return radial[:, 0] * np.cos(m * theta) + radial[:, 1] * np.sin(m * theta)


def compute_disk_basis(c: float, m_max: int, n_max: int,
                       truncation: int | None = None) -> DiskBasis:
    """Compute the disk eigensystem for m <= m_max, n <= n_max at bandwidth c.

    For each azimuthal order the tridiagonal Galerkin matrix is diagonalized
    (chi ascending, n-th eigenvalue), gamma is the Rayleigh quotient of the
    radial kernel operator on the eigenfunction, and alpha = 2 pi i^m gamma /
    sqrt(c).  Every order shares one radial rule, sized for m_max, one Bessel
    table J_0..J_m_max(c s s') and one pass of Zernike tables.  Modes whose
    |gamma| underflows are flagged unusable.
    """
    if c <= 0.0:
        raise ParameterError("compute_disk_basis requires c > 0")
    if m_max < 0 or n_max < 0:
        raise ParameterError("compute_disk_basis requires m_max >= 0 and n_max >= 0")
    J = default_truncation(c, n_max) if truncation is None else int(truncation)
    if J < n_max + 1:
        raise ParameterError("truncation must exceed n_max")

    rows, coeffs = [], []
    # resolves both the disk-polynomial degree and the kernel oscillation c s s'
    rule = gauss_legendre_01(m_max + 2 * J + math.ceil(c / 2.0) + 16)
    s, w = rule.nodes, rule.weights
    wr = w * s
    kernels = bessel_table(m_max, c * np.outer(s, s))
    tables = zernike_radial_table(np.arange(m_max + 1), J, s)
    for m in range(m_max + 1):
        chis, vecs = sym_eig(assemble_sl_matrix(c, m, J))  # EigensolverError on failure
        Z = tables[m]
        amp = 2.0 * np.pi if m == 0 else np.pi  # angular factor squared integral
        for n in range(n_max + 1):
            v = vecs[:, n].copy()
            significant = np.abs(v) > 1e-8 * np.abs(v).max()
            lead = int(np.argmax(significant))
            if v[lead] < 0.0:
                v = -v
            R = v @ Z
            KR = math.sqrt(c) * (kernels[m] @ (wr * R))
            gamma = float(np.dot(wr * R, KR) / np.dot(wr * R, R))
            alpha = complex(2.0 * np.pi * (1j) ** m / math.sqrt(c) * gamma)
            usable = abs(gamma) >= GAMMA_FLOOR
            # unit plane energy: squared norm on B(0,1) equals (c/2pi)^2 |alpha|^2
            scale = (c / (2.0 * np.pi)) * abs(alpha) / math.sqrt(amp) if usable else 1.0
            for ell in ((1,) if m == 0 else (1, 2)):
                rows.append((m, n, ell, chis[n], gamma, alpha, usable))
                coeffs.append(scale * v)
    modes = np.array(rows, dtype=MODE_DTYPE)
    order = np.lexsort((modes["ell"], modes["m"], modes["m"] + 2 * modes["n"]))

    n_r = m_max + 2 * J + 2
    n_t = max(32, 4 * m_max + 10)
    return disk_basis_from_modes(c, J, modes[order], np.array(coeffs)[order], n_r, n_t + n_t % 2)


def disk_basis_from_modes(c: float, J: int, modes: np.ndarray, coeffs: np.ndarray,
                          n_r: int, n_t: int) -> DiskBasis:
    """The unit-disk basis of the sorted mode table and its (modes, J) radial
    coefficients on the n_r x n_t polar rule.

    One pass gives the Zernike tables of all orders at the rule's radii; per
    order, one product gives the radial factors of its modes.
    """
    r = _unit_rule(n_r, n_t)[1]
    orders = modes["m"]
    tables = zernike_radial_table(np.arange(orders.max(initial=0) + 1), J, r)
    radial = np.empty((len(modes), n_r))
    for m in np.unique(orders):
        idx = np.flatnonzero(orders == m)
        radial[idx] = coeffs[idx] @ tables[m]
    return disk_basis_from_radial(c, J, modes, coeffs, radial, n_t)


def disk_basis_from_radial(c: float, J: int, modes: np.ndarray, coeffs: np.ndarray,
                           radial: np.ndarray, n_t: int) -> DiskBasis:
    """The unit-disk basis of the sorted mode table, its (modes, J) radial
    coefficients and its (modes, n_r) radial factors at the radii of the
    n_r x n_t polar rule; builds no table."""
    quad, _, theta = _unit_rule(radial.shape[1], n_t)
    return DiskBasis(c=float(c), truncation=int(J), modes=_frozen(modes), coeffs=_frozen(coeffs),
                     quad=quad, radial=_frozen(radial), angles=theta)


@lru_cache(maxsize=16)
def _unit_rule(n_r: int, n_t: int) -> tuple[QuadratureRule, np.ndarray, np.ndarray]:
    """The n_r x n_t polar rule on the unit disk, built once per size and shared,
    with its radii and half-circle angles read off its first rings and first angles."""
    quad = disk_polar_rule(1.0, n_r, n_t)
    block = n_r * (n_t // 2)
    x, y = quad.nodes[:block, 0], quad.nodes[:block, 1]
    r = np.hypot(x, y).reshape(n_r, -1)[:, 0]
    theta = np.arctan2(y, x).reshape(n_r, -1)[0]
    return quad, _frozen(r), _frozen(theta)


def eval_psi(basis, mode, x) -> float | np.ndarray:
    """Evaluate one mode of either basis (its index, or a disk mode's (m, n, ell) key)
    anywhere in the plane."""
    weights = np.zeros(len(basis.modes))
    weights[mode if np.ndim(mode) == 0 else basis.mode_index(mode)] = 1.0
    return basis.combine(weights, x)
