"""Quadrature, special functions, and symmetric eigensolver kernel.

Everything here is pure and deterministic and needs numpy only: rules are
plain immutable containers, Gauss-Legendre rules are built once per size and
shared, the Bessel functions J_0..J_M and the disk polynomials of one
azimuthal order come as whole tables from three-term recurrences (one pass for
all orders or degrees, never one special-function call per order), and dense
eigensolves go to LAPACK through numpy behind contract-checked wrappers:
`sym_eig` for a whole spectrum, and `top_eigenpairs` for the leading
eigenpairs, by a block Krylov solve or, where that would be slower, a dense one.
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
    "bessel_table",
    "gauss_legendre",
    "gauss_legendre_01",
    "zernike_radial",
    "zernike_radial_table",
    "real_matmul",
    "mirror_map",
    "grid_points",
    "SupportPiece",
    "GridPiece",
    "AnnulusPiece",
    "sym_eig",
    "top_eigenpairs",
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


# Miller's recurrence checks its values once a bound on them passes _CHECK
# and divides every column above _CHECK / _RESCALE by _RESCALE.  A step grows
# a value by at most 2n / x + 1 <= 2n / _SERIES_BELOW + 1, far below the gap
# between _CHECK and the float64 limit, so no value overflows.
_CHECK = 1e250
_RESCALE = 1e150
# Below this argument J_m(x) = (x/2)^m / m! to rounding (the next series term
# is x^2 / (4 (m+1)) < 1e-16 relative) and is taken from that term directly.
_SERIES_BELOW = 1e-8
# Above this argument, and above the largest order, J_0 and J_1 come from the
# first HANKEL_TERMS terms of Hankel's expansion, whose first omitted term is
# below 1e-20 there and falls as the argument grows.
HANKEL_ABOVE = 40.0
HANKEL_TERMS = 18


def _hankel_coefficients(nu: int) -> np.ndarray:
    """(-1)^floor(k/2) a_k(nu) of DLMF 10.17.1, k < HANKEL_TERMS, a_k(nu) =
    prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k)."""
    a = [1.0]
    for k in range(1, HANKEL_TERMS):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    return np.array(a) * (-1.0) ** (np.arange(HANKEL_TERMS) // 2)


_HANKEL = (_hankel_coefficients(0), _hankel_coefficients(1))


def _hankel_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """J_0(x) .. J_{m_max}(x) for x > max(m_max, HANKEL_ABOVE), shape (m_max + 1, len(x)).

    J_nu = (2 / (pi x))^(1/2) (P cos w - Q sin w), w = x - nu pi/2 - pi/4, with
    P and Q the even and odd terms of Hankel's expansion (DLMF 10.17.3) in
    powers of 1/x.  The phase is reduced by libm's cos x and sin x, which are
    exact to rounding at any x, and then rotated by the multiple of pi/4; the
    higher orders follow by the forward recurrence J_{k+1} = (2k/x) J_k -
    J_{k-1}, stable for orders below x.  The cost does not grow with x.
    """
    c, s = np.cos(x), np.sin(x)
    scale = np.sqrt(1.0 / np.pi) / np.sqrt(x)
    table = np.empty((m_max + 1, len(x)))
    with np.errstate(under="ignore"):  # powers of 1/x and tiny J_k flush to 0 at huge x
        t = 1.0 / x
        t2 = t * t
        pq = []
        for coef in _HANKEL:
            even, odd = np.zeros_like(x), np.zeros_like(x)
            for k in range(HANKEL_TERMS - 2, -1, -2):  # Horner in 1/x^2
                even = even * t2 + coef[k]
                odd = odd * t2 + coef[k + 1]
            pq.append((even, odd * t))
        (p0, q0), (p1, q1) = pq
        # cos, sin of x - pi/4 are (c + s, s - c) / sqrt 2; of x - 3 pi/4, (s - c, -c - s) / sqrt 2
        table[0] = scale * (p0 * (c + s) + q0 * (c - s))
        if m_max >= 1:
            table[1] = scale * (p1 * (s - c) + q1 * (c + s))
        for k in range(1, m_max):
            table[k + 1] = 2.0 * k * t * table[k] - table[k - 1]
    return table


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
    series term, so x = 0 gives exactly J_0 = 1 and J_m = 0.  Arguments above
    both m_max and HANKEL_ABOVE come from `_hankel_table` instead, so the
    recurrence starts past the turning point of the other arguments only, and
    no argument, however large, lengthens it.
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
    far = flat > max(m_max, HANKEL_ABOVE)
    xs = np.where(small | far, 1.0, flat)  # series and Hankel columns run a dummy recurrence
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
    if far.any():
        table[:, far] = _hankel_table(m_max, flat[far])
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


def grid_points(axis) -> np.ndarray:
    """The (n^2, 2) points (axis[k], axis[l]) of the square grid on an n-point axis, x-major."""
    axis = np.asarray(axis, dtype=float)
    return np.stack([np.repeat(axis, len(axis)), np.tile(axis, len(axis))], axis=1)


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


class AnnulusPiece(NamedTuple):
    """A disk (inner = 0) or annulus inner < |d| < outer about `center` of
    constant `value`, in closed form: at |x| = rho, B = 0 and A(x) = value 2 pi
    [outer J_1(rho outer) - inner J_1(rho inner)] / rho, or value pi (outer^2
    - inner^2) where rho outer is below the series range of `bessel_table`."""

    center: np.ndarray
    inner: float
    outer: float
    value: float

    folds = False  # A depends on |x| only and B = 0: no target fold saves work

    def sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cos and sin sums (A, B) at the (g, n, 2) points x, each (g, n).
        A is taken once per distinct |x| (a polar rule's targets share few)."""
        rho, at = np.unique(np.hypot(x[..., 0], x[..., 1]).ravel(), return_inverse=True)
        a = np.full(rho.shape, self.value * np.pi * (self.outer**2 - self.inner**2))
        far = rho * self.outer >= _SERIES_BELOW
        radii = np.array([self.outer, self.inner])
        j1 = bessel_table(1, np.multiply.outer(rho[far], radii))[1]
        a[far] = (j1 @ (2.0 * np.pi * self.value * radii * [1.0, -1.0])) / rho[far]
        a = a[at].reshape(x.shape[:-1])
        return a, np.zeros_like(a)


def _born_sum(pieces, kappa: float, targets: np.ndarray) -> np.ndarray:
    """sum_j a_j exp(i kappa p.q_j) over the support nodes q_j of every piece, at each target p.

    A piece centred at c adds exp(i kappa p.c) (A + iB), with A even and B
    odd in p (`SupportPiece`, `GridPiece`, `AnnulusPiece`), so when the targets
    are symmetric under p -> -p only one target of each mirror pair is
    computed, and its mirror gets exp(-i kappa p.c) (A - iB).  When they are
    also symmetric under the x-axis reflection R, one target of each orbit
    {p, -p, Rp, -Rp} is computed, and a piece gives its sums at p and Rp from
    one table.  The targets' symmetry maps are looked up only when some piece
    `folds`; an `AnnulusPiece` costs O(1) per target either way, and takes all
    of them.
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


def _symmetric(matrix, who: str) -> np.ndarray:
    """`matrix` as a float array once it is square and symmetric; else ParameterError."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"{who} requires a square matrix")
    # |a - a^T| <= 1e-12 max(1, max|a|), over row blocks of at most BLOCK_ENTRIES
    # entries; a NaN entry fails the test
    tol = 1e-12 * max(1.0, a.max(initial=0.0), -a.min(initial=0.0))
    step = max(1, BLOCK_ENTRIES // max(len(a), 1))
    for lo in range(0, len(a), step):
        asym = np.subtract(a[lo:lo + step], a[:, lo:lo + step].T)
        np.abs(asym, out=asym)
        if not asym.max(initial=0.0) <= tol:
            raise ParameterError(f"{who} requires a symmetric matrix")
    return a


def sym_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors as orthonormal columns) of a dense real
    symmetric matrix; EigensolverError if LAPACK fails to converge."""
    a = _symmetric(matrix, "sym_eig")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    return vals, vecs


# Constants of `top_eigenpairs`, measured on the symmetry-class blocks of
# `symset_basis` (orders 158-902, c = 2-20, k = 30-40; 2 BLAS threads on a
# 2-core x86 host).  Columns added to the Krylov space per product with B: 8
# beat 16 and 24 on the blocks of order 290-390 that c = 5 sets give.
KRYLOV_BLOCK = 8
# A new direction is dropped once its norm falls below this fraction of ||B||_F.
KRYLOV_DROP = 1e-13
# A Ritz pair is converged once ||B v - theta v|| <= KRYLOV_TOL |theta_0|.
KRYLOV_TOL = 1e-13
# At the first Rayleigh-Ritz step, |theta_{k-1}| / |theta_0| predicts the solve:
# a k-th pair still near the plateau of the spectrum needs a space of about half
# the order.  A ratio at or above the switch goes dense.  On 254 blocks (the
# c = 2-20 grid of the tests at k = 30 and 40, and the c = 5 sets of 20 ops of
# two benchmark seeds at k = 30), Krylov beat the dense solve 1.2-4.4x on every
# block below 0.345 and lost 0.4-0.6x on every block of order <= 380 from 0.375
# up.  Between them it won four blocks (0.354-0.363) and lost one (0.348, order
# 288).  A lower switch would send the benchmark's blocks of 0.30-0.35 dense,
# which Krylov solves 1.6-2.7x faster.  Above the switch, blocks of order 902
# at c = 10 still win on Krylov; the order is not part of the test.  The Ritz
# ratio |theta_{k+P-1}| / |theta_{k-1}| did not separate winners from losers.
KRYLOV_SWITCH = 0.35
# Rayleigh-Ritz steps run once the space has k + P + 1 columns, then each time
# it has grown by this factor.
KRYLOV_GROWTH = 1.25


def _top_dense(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k largest-|lambda| eigenpairs of the checked block `a` from a dense
    `eigh`, with their residuals."""
    vals, vecs = np.linalg.eigh(a)
    top = np.argsort(-np.abs(vals))[:k]
    vals, vecs = vals[top], vecs[:, top]
    return vals, vecs, np.linalg.norm(a @ vecs - vecs * vals, axis=0)


def _krylov_top(a: np.ndarray, k: int):
    """The solve of `top_eigenpairs` in its block Krylov space, or None where the
    dense solve takes over."""
    n, p = len(a), KRYLOV_BLOCK
    if 2 * (k + p + 1) > n:
        return None
    drop = KRYLOV_DROP * float(np.linalg.norm(a))
    q = bq = np.empty((n, 0))  # orthonormal basis of the space and B times it
    x = a[:, np.linspace(0, n - 1, p).round().astype(np.intp)]
    checkpoint, first = k + p + 1, True
    while True:
        for _ in range(2):
            x -= q @ (q.T @ x)
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        u = u[:, s > drop]
        u -= q @ (q.T @ u)
        u = np.linalg.qr(u)[0]
        grew = u.shape[1] > 0
        if grew:
            x = a @ u
            q, bq = np.hstack([q, u]), np.hstack([bq, x])
        m = q.shape[1]
        if grew and m < checkpoint:
            continue
        t = q.T @ bq
        theta, y = np.linalg.eigh(0.5 * (t + t.T))
        order = np.argsort(-np.abs(theta))
        if m < k or (first and grew and abs(theta[order[k - 1]])
                     >= KRYLOV_SWITCH * abs(theta[order[0]])):
            return None
        first = False
        top = order[:k]
        vecs = q @ y[:, top]
        res = np.linalg.norm(bq @ y[:, top] - vecs * theta[top], axis=0)
        if np.all(res <= KRYLOV_TOL * abs(theta[order[0]])):
            return theta[top], vecs, res
        checkpoint = math.ceil(KRYLOV_GROWTH * m)
        if not grew or checkpoint > n // 2:
            return None


def top_eigenpairs(matrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors as orthonormal columns, residuals ||B v - lambda v||) of
    the k largest-|lambda| eigenpairs of a real symmetric B, |lambda| descending.

    A block Krylov space (Musco & Musco, NeurIPS 2015) grows from KRYLOV_BLOCK
    evenly spaced columns of B, so the result is deterministic.  Each new block
    is projected off the space twice, its directions below KRYLOV_DROP ||B||_F
    are dropped, and the kept ones are projected once more and re-orthonormalized.
    Rayleigh-Ritz steps at growing checkpoints stop the solve once every one of
    the k Ritz pairs has a residual <= KRYLOV_TOL |theta_0|.  A dense `eigh`
    of the whole block takes over where the space cannot hold k pairs, where
    the first step finds |theta_{k-1}| >= KRYLOV_SWITCH |theta_0|, or where the
    space would grow past half the order of B.  EigensolverError if LAPACK
    fails to converge.
    """
    a = _symmetric(matrix, "top_eigenpairs")
    k = min(int(k), len(a))
    try:
        found = _krylov_top(a, k)
        return _top_dense(a, k) if found is None else found
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc


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
