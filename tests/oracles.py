"""Reference values that only the tests need: Bessel functions of one order,
a symmetric-set class kernel assembled from two whole tables, the complete
dense spectra of a symmetric-set solve's class blocks, and a contrast given by
a point oracle on an explicit rule."""

import numpy as np

from prolate.errors import ParameterError
from prolate.forward import BOUNDARY_SAMPLES, ContrastField, _circles, _node_radius
from prolate.numerics import _piece, bessel_table
from prolate.symset_basis import _class_blocks, _symmetry_maps


def bessel_j(order: int, x):
    """Bessel function of the first kind J_m(x) for integer order m >= 0, x >= 0."""
    if order < 0 or int(order) != order:
        raise ParameterError(f"order must be a nonnegative integer, got {order}")
    out = bessel_table(int(order), x)[-1]
    return float(out) if out.ndim == 0 else out


def class_kernel(pts, axis, scale, mw, chars) -> np.ndarray:
    """sqrt(mw_i) K(p_i, p_j) sqrt(mw_j) of one symmetry class, as `_class_kernel`
    defines it, from the two whole tables f(scale u_i u_j) and g(scale v_i v_j)."""
    e = np.asarray(axis)
    u, v = pts @ e, pts @ np.array([-e[1], e[0]])
    a = np.multiply.outer(u, u)
    a *= scale
    (np.cos if chars[3] > 0 else np.sin)(a, out=a)
    b = np.multiply.outer(v, v)
    b *= scale
    (np.cos if chars[2] > 0 else np.sin)(b, out=b)
    a *= b
    if chars[1] > 0 > chars[2]:
        np.negative(a, out=a)  # -sin sin
    s = np.sqrt(mw)
    a *= s[:, None]
    a *= s[None, :]
    return a


def class_spectra(basis) -> list[np.ndarray]:
    """Every eigenvalue of each class block of `basis`'s solve (operator scale,
    h^2 beta), from a dense `eigvalsh`, one array per class, |lambda| descending."""
    maps = _symmetry_maps(basis.quad)
    out = []
    for _, _, _, block in _class_blocks(basis.kernel_scale, basis.quad, maps):
        vals = np.linalg.eigvalsh(block)
        out.append(vals[np.argsort(-np.abs(vals))])
    return out


def contrast_from_callable(evaluate, quad, circumradius=None) -> ContrastField:
    """A contrast given by the point oracle `evaluate`, backed by the support
    quadrature `quad` (one `SupportPiece` at the origin); its support is taken
    to be the origin-centred disk of radius `circumradius` (default: the
    farthest node)."""
    radius = _node_radius(quad) if circumradius is None else float(circumradius)
    piece = _piece((0.0, 0.0), quad.nodes, evaluate(quad.nodes) * quad.weights)
    return ContrastField(evaluate=evaluate, quad=quad, pieces=(piece,), radius=radius,
                         boundary=_circles([((0.0, 0.0), radius)], BOUNDARY_SAMPLES))
