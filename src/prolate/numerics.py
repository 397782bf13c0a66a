"""Quadrature, special functions, and symmetric eigensolver kernel.

Everything here is pure and deterministic: rules and matrices are plain
immutable containers, and the heavy lifting is delegated to LAPACK via
numpy/scipy behind small contract-checked wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi, jv

from .errors import EigensolverError, ParameterError

__all__ = [
    "QuadratureRule",
    "SymmetricTridiagonal",
    "bessel_j",
    "gauss_legendre",
    "gauss_legendre_01",
    "zernike_radial",
    "zernike_radial_table",
    "real_matmul",
    "mirror_map",
    "sym_eig",
    "disk_polar_rule",
    "annulus_polar_rule",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights; nodes are (N,) for 1D rules, (N,2) for 2D."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        if len(self.weights) != len(self.nodes):
            raise ParameterError("nodes and weights length mismatch")
        if np.any(self.weights <= 0.0):
            raise ParameterError("quadrature weights must be positive")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Real symmetric tridiagonal matrix stored as diagonal + off-diagonal."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diagonal", _frozen(np.asarray(self.diagonal, dtype=float)))
        object.__setattr__(self, "off_diagonal", _frozen(np.asarray(self.off_diagonal, dtype=float)))
        if len(self.off_diagonal) != max(len(self.diagonal) - 1, 0):
            raise ParameterError("off_diagonal must have length len(diagonal) - 1")

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diagonal)
        if len(self.off_diagonal):
            a += np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)
        return a


def bessel_j(order: int, x):
    """Bessel function of the first kind J_m(x) for integer order m >= 0, x >= 0."""
    if order < 0 or int(order) != order:
        raise ParameterError(f"order must be a nonnegative integer, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ParameterError("bessel_j requires x >= 0")
    out = jv(int(order), x)
    return float(out) if out.ndim == 0 else out


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for polynomials of degree <= 2n - 1."""
    if n < 1:
        raise ParameterError("gauss_legendre requires n >= 1")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(x, w)


def gauss_legendre_01(n: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped to [0, 1]."""
    base = gauss_legendre(n)
    return QuadratureRule(0.5 * (base.nodes + 1.0), 0.5 * base.weights)


def zernike_radial(m: int, j: int, r):
    """Orthonormal radial disk-polynomial factor of degree m + 2j.

    Normalized so that int_0^1 Z_j(r) Z_k(r) r dr = delta_jk, with the sign
    convention Z_j(1) = sqrt(2(m+2j+1)) > 0.  In this normalization the disk
    polynomials Z_j(r) cos(m theta) diagonalize the c = 0 prolate
    Sturm-Liouville operator with eigenvalues (m+2j)(m+2j+2).
    """
    if m < 0 or j < 0:
        raise ParameterError("zernike_radial requires m >= 0 and j >= 0")
    r = np.asarray(r, dtype=float)
    val = np.sqrt(2.0 * (m + 2 * j + 1)) * (-1.0) ** j * r**m * eval_jacobi(j, m, 0, 1.0 - 2.0 * r * r)
    return float(val) if val.ndim == 0 else val


def zernike_radial_table(m: int, count: int, r: np.ndarray) -> np.ndarray:
    """Stack of zernike_radial(m, j, r) for j = 0 .. count-1, shape (count, len(r))."""
    r = np.asarray(r, dtype=float)
    return np.array([zernike_radial(m, j, r) for j in range(count)])


def real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix a and a real or complex b (1-D or 2-D).

    A complex b is multiplied as interleaved real and imaginary columns, so a
    is never copied to complex.
    """
    if not np.iscomplexobj(b):
        return a @ b
    pairs = np.ascontiguousarray(b, dtype=complex).view(np.float64).reshape(len(b), -1)
    return (a @ pairs).view(np.complex128).reshape(a.shape[:-1] + b.shape[1:])


def mirror_map(points) -> np.ndarray | None:
    """Index map i -> j with points[j] == -points[i] exactly, or None if some point has no mirror.

    Both the points and their negations are sorted lexicographically; the set
    is symmetric under p -> -p iff the two sorted lists are equal, and then
    the k-th entries of the two orders are mirrors.  Signed zeros compare
    equal, so a point at the origin is its own mirror.
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    negated = np.lexsort((-pts[:, 1], -pts[:, 0]))
    if not np.array_equal(pts[order], -pts[negated]):
        return None
    mirror = np.empty(len(pts), dtype=np.intp)
    mirror[order] = negated
    return mirror


def sym_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Accepts a SymmetricTridiagonal or a dense symmetric ndarray.  Returns
    (eigenvalues ascending, eigenvectors as orthonormal columns).  Raises
    EigensolverError if LAPACK fails to converge.
    """
    try:
        if isinstance(matrix, SymmetricTridiagonal):
            if len(matrix.diagonal) == 1:
                return matrix.diagonal.copy(), np.ones((1, 1))
            vals, vecs = eigh_tridiagonal(matrix.diagonal, matrix.off_diagonal)
        else:
            a = np.asarray(matrix, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ParameterError("sym_eig requires a square matrix")
            if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
                raise ParameterError("sym_eig requires a symmetric matrix")
            vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    return vals, vecs


def _polar_layout(r: np.ndarray, wr: np.ndarray, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r (radial weights wr, including the Jacobian r) times n_theta uniform angles.

    n_theta must be even; angles are laid out so that the node set is exactly
    symmetric under p -> -p (the second half is the bitwise negation of the
    first half).
    """
    half = n_theta // 2
    theta = np.pi * (np.arange(half) + 0.5) / half
    wt = 2.0 * np.pi / n_theta
    x = np.outer(r, np.cos(theta)).ravel()
    y = np.outer(r, np.sin(theta)).ravel()
    pts = np.concatenate([np.stack([x, y], axis=1), np.stack([-x, -y], axis=1)])
    w = np.tile(np.outer(wr, np.full(half, wt)).ravel(), 2)
    return pts, w


def disk_polar_rule(radius: float, n_r: int, n_theta: int, center=(0.0, 0.0)) -> QuadratureRule:
    """Polar Gauss-Legendre x uniform-angle quadrature on a disk; spectrally accurate for
    smooth integrands.

    Total weight equals pi * radius**2 to rounding.
    """
    if radius <= 0.0:
        raise ParameterError("disk radius must be positive")
    if n_r < 1 or n_theta < 2 or n_theta % 2:
        raise ParameterError("disk rule requires n_r >= 1 and even n_theta >= 2")
    rad = gauss_legendre_01(n_r)
    r = radius * rad.nodes
    pts, w = _polar_layout(r, radius * rad.weights * r, n_theta)
    return QuadratureRule(pts + np.asarray(center, dtype=float), w)


def annulus_polar_rule(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> QuadratureRule:
    """Quadrature on the origin-centred annulus r_inner < |p| < r_outer."""
    if not 0.0 <= r_inner < r_outer:
        raise ParameterError("annulus requires 0 <= r_inner < r_outer")
    if n_theta % 2:
        raise ParameterError("annulus rule requires even n_theta")
    rad = gauss_legendre(n_r)
    r = 0.5 * (r_outer - r_inner) * rad.nodes + 0.5 * (r_outer + r_inner)
    return QuadratureRule(*_polar_layout(r, 0.5 * (r_outer - r_inner) * rad.weights * r, n_theta))
