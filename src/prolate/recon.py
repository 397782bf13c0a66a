"""Picard-criterion reconstruction and spectral-cutoff regularization.

Full aperture: the data expands in the scaled disk modes and each coefficient
is q_i = (2k/c)^2 <u, psi_hat_i> / alpha_i; the regularized inverse keeps the
index set J(alpha) = {chi_i < 1/alpha} and its noise amplification is
controlled by beta(alpha) = min over J(alpha) of (c/2k)^2 |alpha_i|.

Partial data (limited aperture / multi-frequency): with operator eigenvalues
mu_n = h^2 alpha_n and mode norms lambda_n = (c/2pi)|alpha_n|, the spectral
cutoff keeps |mu_n| > alpha and inverts mode by mode; the a-priori parameter
choice alpha(delta) = c0 (delta/E)^(1/(1+sigma)) balances noise against a
source condition of order sigma.

Both are one Picard series: each basis gives its own cutoff mask and
beta(alpha) (`cutoff`, beta None on a set), and `reconstruct` inverts over it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataCoverageError, ParameterError, finite_number
from .forward import DataGrid, write_csv

__all__ = [
    "ReconstructionResult",
    "project",
    "expand",
    "effective_weights",
    "picard_coefficients",
    "reconstruct",
    "choose_alpha_partial",
    "write_result",
]

MAX_MISSING_WEIGHT = 0.10


@dataclass(frozen=True)
class ReconstructionResult:
    """Retained-mode coefficients, cutoff bookkeeping, and a field evaluator."""

    coefficients: np.ndarray          # complex, aligned with cutoff_set
    cutoff_set: list                  # retained mode identifiers
    beta_alpha: float | None          # on the data disk only
    alpha: float
    node_field: np.ndarray            # reconstruction sampled on the basis quadrature
    field: Callable[[np.ndarray], np.ndarray]       # at (n, 2) points
    field_grid: Callable[[np.ndarray], np.ndarray]  # at `grid_points(axis)` of an axis
    diagnostics: dict = field(default_factory=dict)


def effective_weights(data: DataGrid, basis) -> np.ndarray:
    """The data weights with missing nodes zeroed; ParameterError unless the data's
    nodes and weights are bitwise those of the basis rule, DataCoverageError where
    missing nodes carry more than MAX_MISSING_WEIGHT of the total weight."""
    quad = basis.quad
    if not (np.array_equal(data.nodes, quad.nodes) and np.array_equal(data.weights, quad.weights)):
        raise ParameterError("data nodes and weights must match the basis quadrature bitwise")
    missing = float(data.weights[~data.valid].sum())
    if missing > MAX_MISSING_WEIGHT * float(data.weights.sum()):
        raise DataCoverageError(
            f"missing nodes carry {missing:.3g} of {data.weights.sum():.3g} total weight"
        )
    return np.where(data.valid, data.weights, 0.0)


def project(basis, weighted, divisor=1.0) -> np.ndarray:
    """<u, psi_hat_i> / divisor_i per mode i, from weighted samples w u, (N,) or (N, k).

    The basis forms the products with its real node values (`basis.inner`),
    never copied to complex or divided into psi_hat = psi / ||psi||;
    1 / ||psi_i|| scales the result.
    """
    return (basis.inner(weighted).T / (basis.mode_norms * divisor)).T


def expand(basis, coeffs, keep) -> np.ndarray:
    """sum of coeffs_i psi_hat_i over the modes in `keep` on the nodes, per column of coeffs."""
    return basis.on_nodes(np.where(keep, coeffs.T / basis.mode_norms, 0.0).T)


def _picard(basis, w, values) -> np.ndarray:
    """<u, psi_hat> / mu per mode for samples `values`, (N,) or (N, k), under the weights w."""
    if np.any(basis.mu == 0.0):
        raise ParameterError("basis contains a zero eigenvalue")
    return project(basis, values * (w if values.ndim == 1 else w[:, None]), basis.mu)


def picard_coefficients(data: DataGrid, basis, values=None) -> np.ndarray:
    """Per-mode expansion coefficients of the contrast, <u, psi_hat> / mu.

    For the scaled disk basis mu = (c/2k)^2 alpha equals (2k/c)^2 / alpha times
    the norm bookkeeping of the Picard series; for symmetric sets mu = h^2
    alpha_n.  Inner products use the basis quadrature with missing-flagged
    nodes' weight excluded.  `values`, (N, k), replaces the data values by k
    columns on the same nodes and flags and gives (modes, k) coefficients.
    """
    return _picard(basis, effective_weights(data, basis),
                   data.values if values is None else values)


def reconstruct(data: DataGrid, basis, alpha: float) -> ReconstructionResult:
    """Spectral-cutoff regularized reconstruction: the Picard series over `basis.cutoff(alpha)`.

    Returns the field q = sum coeff_i psi_hat_i over the retained modes, their
    `keys` as the cutoff set, and beta(alpha) on the data disk (None on a set).
    The field stays complex (a contrast may be); `dropped_imag_norm` is the
    weighted norm of its imaginary part on the nodes, which a real field drops.
    """
    keep, beta = basis.cutoff(alpha)  # raises on an empty cutoff
    w = effective_weights(data, basis)
    coeffs = _picard(basis, w, data.values)
    # the field sum coeff_i psi_hat_i and the data it predicts, mu_i coeff_i, in one product
    node_field, predicted = expand(basis, np.stack([coeffs, coeffs * basis.mu], axis=1), keep).T
    unorm = np.sqrt(np.sum(w * np.abs(data.values) ** 2))
    residual = float(np.sqrt(np.sum(w * np.abs(predicted - data.values) ** 2))
                     / unorm) if unorm > 0 else 0.0
    diagnostics = {
        "residual": residual,
        "mode_count": int(keep.sum()),
        "delta": data.meta.get("delta_abs", data.meta.get("delta", 0.0)),
        "dropped_imag_norm": float(np.sqrt(np.sum(w * node_field.imag**2))),
    }
    weights = np.where(keep, coeffs / basis.mode_norms, 0.0)  # q = sum coeff_i psi_i / ||psi_i||
    return ReconstructionResult(coefficients=coeffs[keep], cutoff_set=basis.keys[keep].tolist(),
                                beta_alpha=beta, alpha=float(alpha), node_field=node_field,
                                field=functools.partial(basis.combine, weights),
                                field_grid=functools.partial(basis.combine_grid, weights),
                                diagnostics=diagnostics)


def choose_alpha_partial(delta: float, E: float, sigma: float, c0: float) -> float:
    """A-priori cutoff alpha(delta) = c0 (delta / E)^(1 / (1 + sigma)), from finite
    positive arguments; the cutoff checks the result (it may round to 0 or inf).

    The arithmetic is on Python floats, whose overflow gives inf without the
    warning numpy scalars raise."""
    delta, E, sigma, c0 = (float(finite_number(name, value, positive=True)) for name, value in
                           (("delta", delta), ("E", E), ("sigma", sigma), ("c0", c0)))
    return c0 * (delta / E) ** (1.0 / (1.0 + sigma))


def write_result(path, result: ReconstructionResult) -> None:
    """The result as one line of strict JSON with sorted keys, which CPython's C encoder
    writes (an `indent` selects the Python one); ParameterError, and no file, for NaN or inf."""
    payload = {
        "alpha": result.alpha,
        "beta_alpha": result.beta_alpha,
        "delta": result.diagnostics.get("delta", 0.0),
        "diagnostics": {k: v for k, v in result.diagnostics.items() if k != "delta"},
        "modes": [{"id": mid, "coeff_re": cf.real, "coeff_im": cf.imag}
                  for mid, cf in zip(result.cutoff_set, result.coefficients.tolist())],
    }
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ParameterError(f"{path}: a reconstructed number is not finite") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def write_field_csv(path, points: np.ndarray, values: np.ndarray) -> None:
    """CSV rows x,y,q: each point and the real part of its field value."""
    points = np.asarray(points, dtype=float)
    write_csv(path, "x,y,q", points[:, 0], points[:, 1], np.real(values).astype(float))
