"""Spectral-cutoff projection, prolate Sobolev norms, band-limited
extrapolation, and basis self-validation, through the basis interface alone.

The projector pi_alpha keeps the modes of `basis.cutoff`: Sturm-Liouville
eigenvalue chi < 1/alpha on the disk, |mu| > alpha on a set.  For u in the
prolate Sobolev space of order s its disk error obeys ||pi_alpha u - u|| <=
alpha^{s/2} ||u||_{H~s}, where the H~s norm weights squared mode coefficients
by chi^s.  Validation runs two shared checks plus each basis's `checks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCutoffError, ParameterError
from .forward import DataGrid
from .recon import effective_weights, expand, project

__all__ = [
    "ProjectionReport",
    "project_pi_alpha",
    "sobolev_norm_tilde",
    "projection_error_report",
    "extrapolate",
    "validate_basis",
]


@dataclass(frozen=True)
class ProjectionReport:
    alpha: float
    retained: int
    error_l2: float
    bound: float
    passed: bool


def _retained(basis, alpha: float) -> np.ndarray:
    """The mode mask of `basis.cutoff(alpha)`, all False where the cutoff is empty."""
    try:
        return basis.cutoff(alpha)[0]
    except EmptyCutoffError:
        return np.zeros(len(basis.modes), dtype=bool)


def project_pi_alpha(u: np.ndarray, basis, alpha: float) -> np.ndarray:
    """Spectral cutoff projection of node samples onto the modes of `basis.cutoff(alpha)`.

    `u` must be sampled on the basis quadrature, of the unit or scaled disk or
    of a set.  An empty cutoff returns the zero field.
    """
    u = np.asarray(u)
    if u.shape[-1] != len(basis.quad):
        raise ParameterError("samples must live on the basis quadrature")
    return expand(basis, project(basis, basis.quad.weights * u), _retained(basis, alpha))


@dataclass(frozen=True)
class SobolevNorm:
    value: float
    tail_fraction: float


def sobolev_norm_tilde(u: np.ndarray, basis, s: float) -> SobolevNorm:
    """Spectral Sobolev norm sqrt(sum chi^s |<u, psi_hat>|^2) over computed modes.

    Also reports the relative mass of u outside the computed span, so a
    truncated mode set cannot silently understate the norm.
    """
    if s < 0.0:
        raise ParameterError("s must be nonnegative")
    if getattr(basis, "chis", None) is None:
        raise ParameterError("sobolev_norm_tilde needs a basis with Sturm-Liouville eigenvalues")
    u = np.asarray(u)
    w = basis.quad.weights
    coeffs = project(basis, w * u)
    value = float(np.sqrt(np.sum(basis.chis**s * np.abs(coeffs) ** 2)))
    unorm2 = float(np.sum(w * np.abs(u) ** 2))
    tail2 = max(unorm2 - float(np.sum(np.abs(coeffs) ** 2)), 0.0)
    tail_fraction = float(np.sqrt(tail2 / unorm2)) if unorm2 > 0 else 0.0
    return SobolevNorm(value=value, tail_fraction=tail_fraction)


def projection_error_report(u: np.ndarray, basis, alpha: float, s: float) -> ProjectionReport:
    """Check ||pi_alpha u - u|| <= alpha^{s/2} ||u||_{H~s} on node samples."""
    proj = project_pi_alpha(u, basis, alpha)
    w = basis.quad.weights
    err = float(np.sqrt(np.sum(w * np.abs(proj - u) ** 2)))
    retained = int(np.sum(_retained(basis, alpha)))
    bound = alpha ** (s / 2.0) * sobolev_norm_tilde(u, basis, s).value
    return ProjectionReport(alpha=float(alpha), retained=retained, error_l2=err,
                            bound=bound, passed=err <= bound * (1.0 + 1e-10) + 1e-14)


def extrapolate(data: DataGrid, basis, targets) -> np.ndarray:
    """Band-limited extension of data off the data domain.

    u_bar(p) = sum_i <u, psi_i>_D / lambda_i^2 * psi_i(p) with lambda_i the
    L2(D) mode norm; inside D this reproduces the band-limited part of the
    data, outside it performs the (ill-posed) analytic extrapolation (`combine`:
    the Nystrom extension on a set).  The data's nodes, weights and coverage
    are checked as for `reconstruct` (`recon.effective_weights`).
    """
    weighted = effective_weights(data, basis) * data.values
    return basis.combine(project(basis, weighted, basis.mode_norms), targets)


def validate_basis(basis) -> list[dict]:
    """Self-validation report; each entry is {check, residual, threshold, passed}.

    The basis's first check (on its eigenvalues) leads; two shared ones follow, a
    diagonal node Gram matrix to the basis's tolerance and squared node norms equal
    to mode_norms^2; then the rest of `basis.checks()`.
    """
    gram_tol, own = basis.checks()
    w = basis.quad.weights
    vals = basis.node_values
    gram = (vals * w) @ vals.T
    d = np.diag(gram)
    off = np.abs(gram - np.diag(d)) / np.sqrt(np.outer(d, d))
    first, *rest = own
    entries = [first, ("gram_diagonality", off.max(), gram_tol),
               ("norm_alpha_consistency", np.abs(d / basis.mode_norms**2 - 1.0).max(), 1e-6), *rest]
    return [{"check": name, "residual": float(residual), "threshold": float(threshold),
             "passed": bool(residual <= threshold)} for name, residual, threshold in entries]
