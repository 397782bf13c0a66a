"""Reference values that only the tests need: Bessel functions of one order,
and the complete dense spectra of a symmetric-set solve's class blocks."""

import numpy as np

from prolate.errors import ParameterError
from prolate.numerics import bessel_table
from prolate.symset_basis import _class_blocks, _symmetry_maps


def bessel_j(order: int, x):
    """Bessel function of the first kind J_m(x) for integer order m >= 0, x >= 0."""
    if order < 0 or int(order) != order:
        raise ParameterError(f"order must be a nonnegative integer, got {order}")
    out = bessel_table(int(order), x)[-1]
    return float(out) if out.ndim == 0 else out


def class_spectra(basis) -> list[np.ndarray]:
    """Every eigenvalue of each class block of `basis`'s solve (operator scale,
    h^2 beta), from a dense `eigvalsh`, one array per class, |lambda| descending."""
    maps = _symmetry_maps(basis.quad)
    out = []
    for _, _, _, block in _class_blocks(basis.kernel_scale, basis.quad, maps):
        vals = np.linalg.eigvalsh(block)
        out.append(vals[np.argsort(-np.abs(vals))])
    return out
