"""Quadrature, special functions, and symmetric eigensolver kernel.

Everything here is pure and deterministic and needs numpy only: rules are
plain immutable containers, Gauss-Legendre rules are built once per size and
shared, the Bessel functions J_0..J_M and the disk polynomials of one
azimuthal order come as whole tables from three-term recurrences (one pass for
all orders or degrees, never one special-function call per order), and dense
eigensolves go to LAPACK through numpy behind a small contract-checked wrapper.
One evaluator of the Fourier operator, `_born_sum`, synthesizes Born data
and far fields and extends symmetric-set modes off their nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, ParameterError

__all__ = [
    "QuadratureRule",
    "bessel_j",
    "bessel_table",
    "gauss_legendre",
    "gauss_legendre_01",
    "zernike_radial",
    "zernike_radial_table",
    "real_matmul",
    "mirror_map",
    "SupportPiece",
    "GridPiece",
    "RingPiece",
    "sym_eig",
    "disk_polar_rule",
    "annulus_polar_rule",
    "half_circle",
    "axis_reflection",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights; nodes are (N,) for 1D rules, (N,2) for 2D.

    A 2D rule may record `reflection`, the index map i -> j with nodes[j] the
    mirror image of nodes[i] in the line through the origin along the unit
    vector `axis`.  The rules built here record it by construction, so it is
    exact even where the mirrored coordinates are not bitwise reflections.
    """

    nodes: np.ndarray
    weights: np.ndarray
    reflection: np.ndarray | None = None
    axis: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        if len(self.weights) != len(self.nodes):
            raise ParameterError("nodes and weights length mismatch")
        if np.any(self.weights <= 0.0):
            raise ParameterError("quadrature weights must be positive")
        if self.reflection is not None:
            refl = _frozen(np.asarray(self.reflection, dtype=np.intp))
            if refl.shape != self.weights.shape:
                raise ParameterError("reflection map must have one entry per node")
            object.__setattr__(self, "reflection", refl)
            object.__setattr__(self, "axis", (float(self.axis[0]), float(self.axis[1])))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def bessel_j(order: int, x):
    """Bessel function of the first kind J_m(x) for integer order m >= 0, x >= 0."""
    if order < 0 or int(order) != order:
        raise ParameterError(f"order must be a nonnegative integer, got {order}")
    out = bessel_table(int(order), x)[-1]
    return float(out) if out.ndim == 0 else out


# Miller's recurrence checks its values once a bound on them passes _CHECK
# and divides every column above _CHECK / _RESCALE by _RESCALE.  A step grows
# a value by at most 2n / x + 1 <= 2n / _SERIES_BELOW + 1, far below the gap
# between _CHECK and the float64 limit, so no value overflows.
_CHECK = 1e250
_RESCALE = 1e150
# Below this argument J_m(x) = (x/2)^m / m! to rounding (the next series term
# is x^2 / (4 (m+1)) < 1e-16 relative) and is taken from that term directly.
_SERIES_BELOW = 1e-8


def bessel_table(m_max: int, x) -> np.ndarray:
    """J_0(x) .. J_{m_max}(x) for x >= 0, shape (m_max + 1, *x.shape).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started past
    both m_max and the turning point k = x from J_{n+1} = 0, J_n = 1, and
    normalized by J_0 + 2 sum_k J_{2k} = 1 (Gautschi, SIAM Rev. 9, 1967).
    The recurrence is stable in this direction, gives every order in one pass
    over the arguments, and is accurate to about 1e-16 absolute (and relative,
    away from the zeros of J_m and from values below about 1e-280, which may
    flush to 0).  A column is rescaled before it can overflow, together with
    the rows it has already produced.  Arguments below 1e-8 take the leading
    series term, so x = 0 gives exactly J_0 = 1 and J_m = 0.
    """
    if m_max < 0 or int(m_max) != m_max:
        raise ParameterError(f"m_max must be a nonnegative integer, got {m_max}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ParameterError("bessel functions require finite x >= 0")
    m_max = int(m_max)
    table = np.empty((m_max + 1, flat.size))
    small = flat < _SERIES_BELOW
    xs = np.where(small, 1.0, flat)  # series columns run a dummy recurrence
    top = float(xs.max(initial=1.0))
    n = max(m_max, math.ceil(top)) + 16 + math.ceil(10.0 * np.cbrt(0.5 * top))
    n += n % 2
    two_over_x = 2.0 / xs
    nxt, cur, new = np.zeros_like(xs), np.ones_like(xs), np.empty_like(xs)
    even_sum = np.zeros_like(xs)
    # log of a bound on max(|cur|, |nxt|), which a step grows by at most 2k/x + 1
    limit, grow, x_min = math.log(_CHECK), 0.0, float(xs.min(initial=1.0))
    for k in range(n, 0, -1):
        if k <= m_max:
            table[k] = cur
        if k % 2 == 0:
            even_sum += cur
        np.multiply(two_over_x, k, out=new)
        new *= cur
        new -= nxt
        nxt, cur, new = cur, new, nxt
        grow += math.log1p(2.0 * k / x_min)
        if grow > limit:
            size = np.maximum(np.abs(cur), np.abs(nxt))
            cols = size > _CHECK / _RESCALE
            for arr in (cur, nxt, even_sum):
                arr[cols] /= _RESCALE
            table[k:, cols] /= _RESCALE
            grow = math.log(max(float(size.max()) / _RESCALE, float(size[~cols].max(initial=1.0))))
    table[0] = cur
    table /= 2.0 * even_sum + cur
    if small.any():
        half = 0.5 * flat[small]
        term = np.ones_like(half)  # (x/2)^k / k!, exactly 1 and 0.. at x = 0
        for k in range(m_max + 1):
            table[k, small] = term
            term = term * half / (k + 1)
    return table.reshape((m_max + 1,) + x.shape)


@lru_cache(maxsize=64)
def _gauss_legendre_rule(n: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(x, w)


@lru_cache(maxsize=64)
def _gauss_legendre_01_rule(n: int) -> QuadratureRule:
    base = _gauss_legendre_rule(n)
    return QuadratureRule(0.5 * (base.nodes + 1.0), 0.5 * base.weights)


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for polynomials of degree <= 2n - 1.

    Rules are built once per size and shared; their arrays are read-only.
    """
    if n < 1:
        raise ParameterError("gauss_legendre requires n >= 1")
    return _gauss_legendre_rule(int(n))


def gauss_legendre_01(n: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped to [0, 1], shared like `gauss_legendre`."""
    if n < 1:
        raise ParameterError("gauss_legendre requires n >= 1")
    return _gauss_legendre_01_rule(int(n))


def zernike_radial(m: int, j: int, r):
    """Orthonormal radial disk-polynomial factor of degree m + 2j.

    Normalized so that int_0^1 Z_j(r) Z_k(r) r dr = delta_jk, with the sign
    convention Z_j(1) = sqrt(2(m+2j+1)) > 0.  In this normalization the disk
    polynomials Z_j(r) cos(m theta) diagonalize the c = 0 prolate
    Sturm-Liouville operator with eigenvalues (m+2j)(m+2j+2).
    """
    if m < 0 or j < 0:
        raise ParameterError("zernike_radial requires m >= 0 and j >= 0")
    val = zernike_radial_table(m, j + 1, r)[j]
    return float(val) if val.ndim == 0 else val


def zernike_radial_table(m, count: int, r) -> np.ndarray:
    """zernike_radial(m, j, r) for j = 0 .. count-1, shape (count, *r.shape).

    Z_j(r) = sqrt(2(m+2j+1)) r^m P_j(y) with P_j = P_j^{(0,m)} and y = 2r^2 - 1,
    from the three-term recurrence of the Jacobi polynomials in j, one vector
    operation per degree.  With s = 2j + m it reads
        P_j = (a_j y - b_j) P_{j-1} - g_j P_{j-2},
        a_j = (s-1) s / (2j(j+m)),   b_j = (s-1) m^2 / (2j(j+m)(s-2)),
        g_j = (j-1)(j+m-1) s / (j(j+m)(s-2)),
    with P_0 = 1 and P_1 = 1 - (m+2) u / 2, u = 1 - y = 2(1 - r^2).  Since
    a_j - b_j = 1 + g_j, the differences D_j = P_j - P_{j-1} obey
    D_j = g_j D_{j-1} - a_j u P_{j-1}; that form is used for y >= 0, where it
    is exact at r = 1 (every P_j(1) = 1) and the plain form accumulates
    rounding, and the plain form near y = -1, where the roles reverse.

    The coefficients of every degree come from one vector step, and a_j u is
    written into row j of the table until the recurrence reaches it.

    A 1-D sequence `m` of orders runs them all in one pass, shape (len(m),
    count, *r.shape), each order's table bitwise equal to a single-order call.
    """
    orders = np.asarray(m)
    if orders.ndim > 1 or np.any(orders < 0) or count < 0:
        raise ParameterError("zernike_radial_table requires m >= 0 and count >= 0")
    r = np.asarray(r, dtype=float)
    m = orders.reshape(orders.shape + (1,) * r.ndim)  # orders along a leading axis
    y = 2.0 * r * r - 1.0
    u = 2.0 * (1.0 - r) * (1.0 + r)
    outer = y >= 0.0
    table = np.empty((count,) + orders.shape + r.shape)
    if count:
        table[0] = 1.0
    if count > 1:
        d = -0.5 * (m + 2) * u
        table[1] = 1.0 + d
    j = np.arange(2, max(count, 2)).reshape((-1,) + (1,) * m.ndim)  # degrees on a leading axis
    s = 2 * j + m
    a = (s - 1) * s / (2.0 * j * (j + m))
    b = (s - 1) * m * m / (2.0 * j * (j + m) * (s - 2))
    g = (j - 1) * (j + m - 1) * s / (j * (j + m) * (s - 2))
    np.multiply(a, u, out=table[2:])
    for k in range(count - 2):
        d = g[k] * d - table[k + 2] * table[k + 1]
        plain = (a[k] * y - b[k]) * table[k + 1] - g[k] * table[k]
        table[k + 2] = np.where(outer, table[k + 1] + d, plain)
    j = np.arange(count).reshape((count,) + (1,) * (orders.ndim + r.ndim))
    table *= np.sqrt(2.0 * (m + 2 * j + 1))
    table *= np.reshape([r ** int(k) for k in orders.ravel()], orders.shape + r.shape)
    return np.ascontiguousarray(np.moveaxis(table, 0, orders.ndim))


def _real_columns(b) -> np.ndarray:
    """A 1-D or 2-D real or complex array as 2-D real columns; a complex column
    becomes its real and imaginary parts, interleaved, with no copy when contiguous."""
    b = np.asarray(b)
    if np.iscomplexobj(b):
        return np.ascontiguousarray(b, dtype=complex).view(np.float64).reshape(len(b), -1)
    return np.asarray(b, dtype=float).reshape(len(b), -1)


def _from_real_columns(a: np.ndarray, like) -> np.ndarray:
    """A 2-D product of `_real_columns(like)` as a (len(a),) + like.shape[1:]
    array, complex where `like` is."""
    shape = (len(a),) + np.shape(like)[1:]
    return (a.view(np.complex128) if np.iscomplexobj(like) else a).reshape(shape)


def real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix a and a real or complex b (1-D or 2-D).

    A complex b is multiplied as interleaved real and imaginary columns, so a
    is never copied to complex.
    """
    if not np.iscomplexobj(b):
        return a @ b
    return _from_real_columns(a @ _real_columns(b), b)


def _point_map(points, signs) -> np.ndarray | None:
    """Index map i -> j with points[j] == signs * points[i] exactly, or None if
    some image is not a point of the set; `signs` is a pair of +-1.

    Both the points and their images are sorted lexicographically; the set
    is symmetric under the map iff the two sorted lists are equal, and then
    the k-th entries of the two orders are images of each other.  Signed
    zeros compare equal, so a point on the map's fixed line is its own image.
    """
    pts = np.asarray(points, dtype=float)
    image = pts * np.asarray(signs, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    moved = np.lexsort((image[:, 1], image[:, 0]))
    if not np.array_equal(pts[order], image[moved]):
        return None
    out = np.empty(len(pts), dtype=np.intp)
    out[order] = moved
    return out


def mirror_map(points) -> np.ndarray | None:
    """Index map i -> j with points[j] == -points[i] exactly, or None if some point has no mirror.

    A point at the origin is its own mirror.
    """
    return _point_map(points, (-1.0, -1.0))


# Entries of one real table block (cos, sin, Bessel or interpolation
# weights): 512 kB of float64, so a block stays in cache between the
# products that fill it and the matvec that reads it.
BLOCK_ENTRIES = 65_536


def _cos_sin_sums(x: np.ndarray, offsets: np.ndarray, even: np.ndarray,
                  odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = sum_k even_k cos(x.d_k) and B = sum_k odd_k sin(x.d_k) at each row x,
    for weights of shape (K,) or (K, columns).

    The tables are built in row blocks of at most BLOCK_ENTRIES; the sin table
    is skipped when `odd` is all zero, as it is for a real symmetric support.
    """
    a = np.empty((len(x),) + even.shape[1:], dtype=np.result_type(even, float))
    b = np.zeros((len(x),) + odd.shape[1:], dtype=np.result_type(odd, float))
    with_sin = bool(np.any(odd))
    block = max(1, BLOCK_ENTRIES // max(len(offsets), 1))
    table = np.empty((min(block, len(x)), len(offsets)))
    sines = np.empty_like(table) if with_sin else None
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        phase = np.matmul(x[rows], offsets.T, out=table[:len(x[rows])])
        if with_sin:
            b[rows] = real_matmul(np.sin(phase, out=sines[:len(phase)]), odd)
        a[rows] = real_matmul(np.cos(phase, out=phase), even)
    return a, b


class SupportPiece(NamedTuple):
    """Support nodes centre + offsets and the values a there, folded by mirror pairs.

    `offsets` keeps one offset d of each pair (d, -d) with even = a(d) + a(-d)
    and odd = a(d) - a(-d); an offset 0 has even = a and odd = 0, and a node
    without a mirror has even = odd = a.  In every case
    sum_j a_j exp(i x.d_j) = sum_k even_k cos(x.d_k) + i odd_k sin(x.d_k).
    Where the offsets are also symmetric under the x-axis reflection R,
    R d_k = sign_k d_perm[k], and the sums at R x take the same tables with
    the weights even[perm] and sign odd[perm]; otherwise `perm` is None.
    """

    center: np.ndarray
    offsets: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    perm: np.ndarray | None
    sign: np.ndarray | None

    folds = True  # its sums take one target of each orbit of `_born_sum`

    def sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cos and sin sums (A, B) at the (g, n, 2) points x, each (g, n),
        where g = 2 means x[1] is the reflection R x[0]."""
        if len(x) == 2 and self.perm is not None:
            even = np.stack([self.even, self.even[self.perm]], axis=1)
            odd = np.stack([self.odd, self.sign * self.odd[self.perm]], axis=1)
            a, b = _cos_sin_sums(x[0], self.offsets, even, odd)
            return a.T, b.T
        a, b = _cos_sin_sums(x.reshape(-1, 2), self.offsets, self.even, self.odd)
        return a.reshape(x.shape[:2]), b.reshape(x.shape[:2])


def _piece(center, offsets: np.ndarray, values: np.ndarray) -> SupportPiece:
    """Fold the support values at centre + offsets by the mirror pairs of the
    offsets, and record the map that the x-axis reflection induces on them."""
    offsets = np.asarray(offsets, dtype=float)
    idx = np.arange(len(offsets))
    mirror = mirror_map(offsets)
    if mirror is None:
        keep, mirror = idx, idx
        even = odd = values
    else:
        keep = idx[mirror >= idx]
        partner = mirror[keep]
        even = values[keep] + values[partner]
        odd = values[keep] - values[partner]
        even[partner == keep] /= 2.0
    refl = _point_map(offsets, (1.0, -1.0))
    perm = sign = None
    if refl is not None:
        # R d_k is a kept offset (sign +1) or the mirror of one (sign -1); an
        # unpaired set keeps every offset and stands as its own mirror here
        pos = np.empty(len(offsets), dtype=np.intp)
        pos[keep] = np.arange(len(keep))
        image = refl[keep]
        flipped = mirror[image] < image
        perm = pos[np.where(flipped, mirror[image], image)]
        sign = np.where(flipped, -1.0, 1.0)
    return SupportPiece(np.asarray(center, dtype=float), offsets[keep], even, odd, perm, sign)


class GridPiece(NamedTuple):
    """Pixel-grid support: nodes centre + (xs_a, ys_b) with values V[a, b] (node
    value times weight), over the grid's nonzero rows and columns.

    The sum separates by axis, sum_ab V_ab exp(i x.(xs_a, ys_b)) =
    sum_a exp(i x_0 xs_a) (V exp(i x_1 ys))_a, so it takes cos and sin tables
    of x_0 xs and x_1 ys and two real products with V, not one table over
    every pixel.
    """

    center: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    folds = True  # its sums take one target of each orbit of `_born_sum`

    def sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cos and sin sums (A, B) at the (g, n, 2) points x, each (g, n),
        where g = 2 means x[1] is the reflection R x[0].

        With c, s the cos and sin tables, sum_a of p = c_x (V c_y), q = s_x (V s_y),
        u = s_x (V c_y) and w = c_x (V s_y) gives A = p - q, B = u + w at x; R
        flips the sign of s_y, so A = p + q, B = u - w at R x.
        """
        nx, ny = self.values.shape
        n = x.shape[1]
        sums = np.empty((4, n), dtype=np.result_type(self.values, float))
        # the tables of one row block hold at most BLOCK_ENTRIES entries together
        block = max(1, BLOCK_ENTRIES // (2 * (nx + ny)))
        ty, tx = np.empty((2, min(block, n), ny)), np.empty((2, min(block, n), nx))
        for start in range(0, n, block):
            rows = slice(start, start + block)
            m = len(x[0, rows])
            for table, coord, offsets in ((ty, 1, self.ys), (tx, 0, self.xs)):
                phase = np.multiply.outer(x[0, rows, coord], offsets, out=table[0, :m])
                np.sin(phase, out=table[1, :m])
                np.cos(phase, out=phase)
            cy, sy = ty[:, :m] @ self.values.T
            cx, sx = tx[:, :m]
            for k, (left, right) in enumerate(((cx, cy), (sx, sy), (sx, cy), (cx, sy))):
                sums[k, rows] = np.einsum("ij,ij->i", left, right)
        p, q, u, w = sums
        return np.stack([p - q, p + q])[:len(x)], np.stack([u + w, u - w])[:len(x)]


# Aliased orders k n_t are kept while the bound (X/2)^m / m! on J_m over
# [0, X] exceeds this; the rest add less than it times the ring weights.
RING_ORDER_TOL = 1e-18
# Chebyshev points of a radial profile beyond the largest argument X.
RING_EXTRA_POINTS = 30


def _aliased_orders(top: float, n_t: int) -> int:
    """The number of orders k n_t, k >= 1, whose bound (top/2)^m / m! exceeds
    RING_ORDER_TOL; the bound rises up to m = top/2 and falls after it."""
    if top <= 0.0:
        return 0
    log_half, log_tol, k = math.log(0.5 * top), math.log(RING_ORDER_TOL), 0
    while (k + 1) * n_t * log_half - math.lgamma((k + 1) * n_t + 1) > log_tol:
        k += 1
    return k


class RingPiece(NamedTuple):
    """Polar-rule support: rings of radii r_a about `center`, each with n_t
    nodes at the angles (2b+1) pi / n_t, and ring weights W_a (value times
    radial weight times 2 pi, so each node of ring a carries W_a / n_t).

    By Jacobi-Anger the sum over the n_t angles of a ring keeps only the
    Bessel orders m = k n_t that they alias together:
    A(x) = sum_a W_a [J_0(|x| r_a) + 2 sum_k>=1 (-1)^(k n_t/2) J_(k n_t)(|x| r_a)
    cos(k n_t (arg x - pi/n_t))], exact to rounding, and B = 0.  An order is
    kept while its bound (X/2)^m / m! exceeds RING_ORDER_TOL, X = max|x| max r_a.
    """

    center: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    n_t: int

    folds = False  # A is even and B = 0: no target fold saves work

    def profiles(self, rho: np.ndarray, orders: int) -> np.ndarray:
        """The radial profiles c_k sum_a W_a J_(k n_t)(rho r_a), k = 0..orders,
        with c_0 = 1 and c_k = 2 (-1)^(k n_t/2), at each rho: (len(rho), orders + 1).

        `bessel_table` runs over blocks of rho whose tables hold at most
        4 BLOCK_ENTRIES entries, of which every n_t-th order is kept: its
        recurrence makes a few numpy calls per order and block, and at 600
        orders blocks of BLOCK_ENTRIES took 5 times as long."""
        m_max = orders * self.n_t
        sign = (-1.0) ** (np.arange(orders + 1) * (self.n_t // 2))
        coef = np.where(np.arange(orders + 1) > 0, 2.0 * sign, 1.0)
        out = np.empty((len(rho), orders + 1))
        block = max(1, 4 * BLOCK_ENTRIES // ((m_max + 1) * len(self.radii)))
        for start in range(0, len(rho), block):
            rows = slice(start, start + block)
            table = bessel_table(m_max, np.multiply.outer(rho[rows], self.radii))
            out[rows] = (table[::self.n_t] @ self.weights).T
        return out * coef

    def sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cos and sin sums (A, B) at the (g, n, 2) points x, each (g, n).

        The profiles are taken once per distinct |x| and gathered to the
        targets, whose cos(k n_t arg x) factors stay per target (in row blocks
        of at most BLOCK_ENTRIES).  With at most P = ceil(X) +
        RING_EXTRA_POINTS distinct |x| (or X below the series range of
        `bessel_table`) they are taken at those radii themselves; otherwise at
        P Chebyshev points in |x| on [0, max|x|], interpolated barycentrically
        to the distinct radii in row blocks of at most BLOCK_ENTRIES weights.
        """
        pts = x.reshape(-1, 2)
        rho, at = np.unique(np.hypot(pts[:, 0], pts[:, 1]), return_inverse=True)
        top = float(rho.max(initial=0.0))
        span = top * float(self.radii.max())
        orders = _aliased_orders(span, self.n_t)
        n_cheb = math.ceil(span) + RING_EXTRA_POINTS
        if len(rho) <= n_cheb or span < _SERIES_BELOW:
            prof = self.profiles(rho, orders)
        else:
            j = np.arange(n_cheb)
            nodes = 0.5 * top * (1.0 + np.cos(np.pi * j / (n_cheb - 1)))
            bary = np.where(j % 2, -1.0, 1.0)
            bary[[0, -1]] *= 0.5
            at_nodes = self.profiles(nodes, orders)
            prof = np.empty((len(rho), orders + 1))
            block = max(1, BLOCK_ENTRIES // n_cheb)
            table = np.empty((min(block, len(rho)), n_cheb))
            for start in range(0, len(rho), block):
                rows = slice(start, start + block)
                diff = np.subtract.outer(rho[rows], nodes, out=table[:len(rho[rows])])
                hit = diff == 0.0
                diff[hit] = 1.0
                weight = np.divide(bary, diff, out=diff)
                exact = hit.any(axis=1)
                weight[exact] = hit[exact]
                weight /= weight.sum(axis=1, keepdims=True)
                prof[rows] = weight @ at_nodes
        angle = self.n_t * np.arctan2(pts[:, 1], pts[:, 0]) - np.pi
        k = np.arange(orders + 1)
        a = np.empty(len(pts))
        block = max(1, BLOCK_ENTRIES // (orders + 1))
        for start in range(0, len(pts), block):
            rows = slice(start, start + block)
            a[rows] = np.einsum("ij,ij->i", prof[at[rows]], np.cos(np.outer(angle[rows], k)))
        a = a.reshape(x.shape[:2])
        return a, np.zeros_like(a)


def _born_sum(pieces, kappa: float, targets: np.ndarray) -> np.ndarray:
    """sum_j a_j exp(i kappa p.q_j) over the support nodes q_j of every piece, at each target p.

    A piece centred at c adds exp(i kappa p.c) (A + iB), with A even and B
    odd in p (`SupportPiece`, `GridPiece`, `RingPiece`), so when the targets
    are symmetric under p -> -p only one target of each mirror pair is
    computed, and its mirror gets exp(-i kappa p.c) (A - iB).  When they are
    also symmetric under the x-axis reflection R, one target of each orbit
    {p, -p, Rp, -Rp} is computed, and a piece gives its sums at p and Rp from
    one table.  The targets' symmetry maps are looked up only when some piece
    `folds`; a `RingPiece` costs O(n) per target either way, and takes all of
    them.
    """
    idx = np.arange(len(targets))
    mirror = mirror_map(targets) if any(piece.folds for piece in pieces) else None
    refl = None if mirror is None else _point_map(targets, (1.0, -1.0))
    if mirror is None:
        rows = idx[None]
    elif refl is None:
        rows = idx[mirror >= idx][None]
    else:
        rep = idx[(mirror >= idx) & (refl >= idx) & (mirror[refl] >= idx)]
        rows = np.stack([rep, refl[rep]])
    x = kappa * targets[rows]
    plus = np.zeros(rows.shape, dtype=complex)
    minus = np.zeros(rows.shape, dtype=complex)
    for piece in pieces:
        a, b = piece.sums(x)
        shift = np.exp(1j * (x @ piece.center))
        plus += shift * (a + 1j * b)
        minus += np.conj(shift) * (a - 1j * b)
    values = np.empty(len(targets), dtype=complex)
    for g in reversed(range(len(rows))):  # a point on an axis keeps its own sum
        if mirror is not None:
            values[mirror[rows[g]]] = minus[g]
        values[rows[g]] = plus[g]
    return values


def sym_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors as orthonormal columns) of a dense real
    symmetric matrix; EigensolverError if LAPACK fails to converge."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("sym_eig requires a square matrix")
    # |a - a^T| <= 1e-12 max(1, max|a|) in one temporary; a NaN entry fails the test
    asym = np.subtract(a, a.T)
    np.abs(asym, out=asym)
    if not asym.max(initial=0.0) <= 1e-12 * max(1.0, a.max(initial=0.0), -a.min(initial=0.0)):
        raise ParameterError("sym_eig requires a symmetric matrix")
    del asym
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    return vals, vecs


def half_circle(half: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angles t_k = pi (k + 1/2) / half in (0, pi) with their cosines and sines.

    The tables are symmetrized about pi/2, so that cos(pi - t) = -cos t and
    sin(pi - t) = sin t hold bitwise (and cos pi/2 = 0 for odd half): node
    sets laid out on these angles and negated are then exactly symmetric under
    both axis reflections, not only under p -> -p.
    """
    t = np.pi * (np.arange(half) + 0.5) / half
    c, s = np.cos(t), np.sin(t)
    return t, 0.5 * (c - c[::-1]), 0.5 * (s + s[::-1])


def axis_reflection(rows: int, cols: int) -> np.ndarray:
    """Reflection map in the x-axis of a `half_circle` layout: rows x cols
    nodes (radius-major) at angles mirrored about pi/2, then their negations.
    Node (i, k) reflects to the negation of node (i, cols - 1 - k)."""
    idx = np.arange(rows * cols).reshape(rows, cols)[:, ::-1].ravel()
    return np.concatenate([idx + rows * cols, idx])


def _polar_layout(r: np.ndarray, wr: np.ndarray, n_theta: int) -> QuadratureRule:
    """Radii r (radial weights wr, including the Jacobian r) times n_theta uniform angles.

    n_theta must be even.  The angles come from `half_circle`, and the second
    half of the nodes is the bitwise negation of the first, so the rule
    records its exact reflection in the x-axis.
    """
    half = n_theta // 2
    _, cos, sin = half_circle(half)
    wt = 2.0 * np.pi / n_theta
    x = np.outer(r, cos).ravel()
    y = np.outer(r, sin).ravel()
    pts = np.concatenate([np.stack([x, y], axis=1), np.stack([-x, -y], axis=1)])
    w = np.tile(np.outer(wr, np.full(half, wt)).ravel(), 2)
    return QuadratureRule(pts, w, reflection=axis_reflection(len(r), half))


def _disk_rings(radius: float, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and radial weights (Jacobian r included) of the polar disk rule."""
    if radius <= 0.0:
        raise ParameterError("disk radius must be positive")
    rad = gauss_legendre_01(n_r)
    r = radius * rad.nodes
    return r, radius * rad.weights * r


def _annulus_rings(r_inner: float, r_outer: float, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and radial weights (Jacobian r included) of the polar annulus rule."""
    if not 0.0 <= r_inner < r_outer:
        raise ParameterError("annulus requires 0 <= r_inner < r_outer")
    rad = gauss_legendre(n_r)
    r = 0.5 * (r_outer - r_inner) * rad.nodes + 0.5 * (r_outer + r_inner)
    return r, 0.5 * (r_outer - r_inner) * rad.weights * r


def disk_polar_rule(radius: float, n_r: int, n_theta: int, center=(0.0, 0.0)) -> QuadratureRule:
    """Polar Gauss-Legendre x uniform-angle quadrature on a disk; spectrally accurate for
    smooth integrands.

    Total weight equals pi * radius**2 to rounding.  An origin-centred rule
    records its reflection in the x-axis.
    """
    if n_r < 1 or n_theta < 2 or n_theta % 2:
        raise ParameterError("disk rule requires n_r >= 1 and even n_theta >= 2")
    rule = _polar_layout(*_disk_rings(radius, n_r), n_theta)
    if not np.any(center):
        return rule
    return QuadratureRule(rule.nodes + np.asarray(center, dtype=float), rule.weights)


def annulus_polar_rule(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> QuadratureRule:
    """Quadrature on the origin-centred annulus r_inner < |p| < r_outer."""
    if n_theta % 2:
        raise ParameterError("annulus rule requires even n_theta")
    return _polar_layout(*_annulus_rings(r_inner, r_outer, n_r), n_theta)
