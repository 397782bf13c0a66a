"""Spectral-cutoff projection, prolate Sobolev norms, band-limited
extrapolation, and basis self-validation.

The projector pi_alpha keeps modes with Sturm-Liouville eigenvalue
chi < 1/alpha; for u in the prolate Sobolev space of order s its error obeys
||pi_alpha u - u|| <= alpha^{s/2} ||u||_{H~s}, where the H~s norm weights
squared mode coefficients by chi^s.  The same projector serves the scaled data
disk after the linear change of variables, so no separate implementation is
needed there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disk_basis import DiskBasis
from .errors import ParameterError
from .forward import DataGrid
from .recon import effective_weights, expand, project
from .symset_basis import SymSetBasis, analytic_area, mirror_indices

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


def project_pi_alpha(u: np.ndarray, basis, alpha: float) -> np.ndarray:
    """Spectral cutoff projection of node samples onto {chi < 1/alpha}.

    `u` must be sampled on the basis quadrature.  Works identically for the
    unit-disk basis and its scaled version (the change of variables cancels in
    the normalized projector).  An empty cutoff returns the zero field.
    """
    if alpha <= 0.0:
        raise ParameterError("alpha must be positive")
    if not isinstance(basis, DiskBasis):
        raise ParameterError("project_pi_alpha needs a DiskBasis")
    u = np.asarray(u)
    if u.shape[-1] != len(basis.quad):
        raise ParameterError("samples must live on the basis quadrature")
    keep = basis.keep(alpha)
    if not keep.any():
        return np.zeros_like(u)
    return expand(basis, project(basis, basis.quad.weights * u), keep)


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
    if not isinstance(basis, DiskBasis):
        raise ParameterError("sobolev_norm_tilde needs a DiskBasis")
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
    retained = int(np.sum(basis.keep(alpha)))
    bound = alpha ** (s / 2.0) * sobolev_norm_tilde(u, basis, s).value
    return ProjectionReport(alpha=float(alpha), retained=retained, error_l2=err,
                            bound=bound, passed=err <= bound * (1.0 + 1e-10) + 1e-14)


def extrapolate(data: DataGrid, basis, targets) -> np.ndarray:
    """Band-limited extension of data off the data domain.

    u_bar(p) = sum_i <u, psi_i>_D / lambda_i^2 * psi_i(p) with lambda_i the
    L2(D) mode norm; inside D this reproduces the band-limited part of the
    data, outside it performs the (ill-posed) analytic extrapolation.  The
    data's nodes, weights and coverage are checked as for `reconstruct`
    (`recon.effective_weights`).
    """
    weighted = effective_weights(data, basis) * data.values
    return basis.combine(project(basis, weighted, basis.mode_norms), targets)


def _check(name: str, residual: float, threshold: float) -> dict:
    return {"check": name, "residual": float(residual), "threshold": float(threshold),
            "passed": bool(residual <= threshold)}


def validate_basis(basis) -> list[dict]:
    """Self-validation report; each entry is {check, residual, threshold, passed}."""
    disk = isinstance(basis, DiskBasis)
    if not disk and not isinstance(basis, SymSetBasis):
        raise ParameterError("validate_basis accepts DiskBasis or SymSetBasis")
    w = basis.quad.weights
    vals = basis.node_values
    gram = (vals * w) @ vals.T
    d = np.diag(gram)
    off = np.abs(gram - np.diag(d)) / np.sqrt(np.outer(d, d))
    shared = [_check("gram_diagonality", off.max(), 1e-8 if disk else 1e-6),
              _check("norm_alpha_consistency", np.abs(d / basis.mode_norms**2 - 1.0).max(), 1e-6)]

    modes = basis.modes
    if disk:
        c = basis.c
        chis = basis.chis
        degree = modes["m"] + 2 * modes["n"]
        lo = degree * (degree + 2)
        slack = np.maximum(lo - chis, chis - (lo + c * c))
        phases = modes["alpha"] * np.array([1, -1j, -1, 1j])[modes["m"] % 4]  # alpha (-i)^m
        # |alpha| along each chain n = 0, 1, ... of usable ell = 1 modes of one order m
        chain = modes[(modes["ell"] == 1) & modes["usable"]]
        chain = chain[np.lexsort((chain["n"], chain["m"]))]
        mags = np.abs(chain["alpha"])
        rise = ((mags[1:] - mags[:-1]) / mags[:-1])[chain["m"][1:] == chain["m"][:-1]]
        worst = float(rise.max(initial=0.0))
        return [_check("eigenvalue_bracketing", slack.max(), -1e-12), *shared,
                _check("alpha_parity", (np.abs(phases.imag) / np.abs(phases)).max(), 1e-10),
                _check("alpha_monotone_chains", worst, 1e-10)]

    alphas = basis.alphas
    even = modes["even"]
    wrong = np.where(even, np.abs(alphas.imag), np.abs(alphas.real))
    total = float(np.sum(basis.spectrum_even**2) + np.sum(basis.spectrum_odd**2))
    sq = basis.quad.total_weight**2
    area2 = analytic_area(basis.geometry) ** 2
    mirror = mirror_indices(basis.quad)
    sgn = np.where(even, 1.0, -1.0)[:, None]
    dev = np.abs(vals[:, mirror] - sgn * vals).max(axis=1) / np.abs(vals).max(axis=1)
    worst = float(dev.max(initial=0.0))
    return [_check("parity_eigenvalue_type", (wrong / np.abs(alphas)).max(), 1e-12), *shared,
            _check("hilbert_schmidt_discrete", abs(total - sq) / sq, 1e-10),
            _check("hilbert_schmidt_area", abs(total - area2) / area2, 1e-3),
            _check("parity_node_symmetry", worst, 1e-8)]
