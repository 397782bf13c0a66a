"""Problem setup: binds the contrast, the data geometry, and the scale
parameters, and synthesizes Born data once the containment Omega in D holds.

The data domain is D = A_h with h = c_F/(2k) (full aperture disk), c_L/k
(limited aperture), or c_M/K (multi-frequency); in every regime the effective
kernel scale kappa satisfies kappa * h^2 = c, the bandwidth handed to the
basis computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check_keys, numeric
from .forward import ContrastField, DataGrid, synthesize_born
from .numerics import QuadratureRule
from .symset_basis import Geometry, membership, radial_profile

__all__ = [
    "ProblemSetup",
    "SetupReport",
    "validate_setup",
    "effective_kernel_scale",
    "synthesize_setup",
    "read_setup",
    "setup_from_dict",
]

REGIMES = ("full", "limited", "multifreq")
DEFAULT_MARGIN_FACTOR = 1.1


@dataclass(frozen=True)
class ProblemSetup:
    """One inverse-problem instance: contrast, regime, scale bookkeeping, and
    the data domain D = A_h, built once from them."""

    contrast: ContrastField
    regime: str
    k: float                      # wavenumber (K in the multi-frequency regime)
    c_param: float                # c_F, c_L, or c_M
    theta: float | None = None    # limited aperture half-angle, checked into `domain`
    x_star: tuple | None = None   # multi-frequency observation direction, likewise
    domain: Geometry = field(init=False)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ParameterError(f"regime must be one of {REGIMES}")
        if self.k <= 0.0 or self.c_param <= 0.0:
            raise ParameterError("wavenumber and c parameter must be positive")
        if self.regime == "full":
            domain = Geometry.disk(h=self.c_param / (2.0 * self.k))
        elif self.regime == "limited":
            domain = Geometry.limited_aperture(self.theta, h=self.c_param / self.k)
            if not domain.theta < math.pi:
                raise ParameterError("limited regime needs theta in (0, pi)")
        else:
            domain = Geometry.multi_freq(self.x_star, h=self.c_param / self.k)
        object.__setattr__(self, "domain", domain)

    @property
    def h(self) -> float:
        return self.domain.h


def effective_kernel_scale(setup: ProblemSetup) -> float:
    """4k^2/c_F, k^2/c_L, or K^2/c_M depending on the regime."""
    if setup.regime == "full":
        return 4.0 * setup.k**2 / setup.c_param
    return setup.k**2 / setup.c_param


@dataclass(frozen=True)
class SetupReport:
    ok: bool
    margin: float
    violations: list


def validate_setup(setup: ProblemSetup) -> SetupReport:
    """Check Omega inside D on the sampled support boundary.

    Every sampled point must pass the data-domain membership oracle; the
    reported margin is the tightest radial distance h rho(phi) - |p| over the
    samples (negative at a violation since all domains are star-shaped).
    """
    pts = setup.contrast.boundary
    geo = setup.domain
    inside = membership(geo, pts)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    margins = geo.h * radial_profile(geo, phi) - np.hypot(pts[:, 0], pts[:, 1])
    violations = [[float(x), float(y)] for (x, y) in pts[~inside]]
    return SetupReport(ok=bool(inside.all()), margin=float(margins.min()),
                       violations=violations)


def synthesize_setup(setup: ProblemSetup, rule: QuadratureRule) -> DataGrid:
    """Born data of the contrast on `rule`, a rule of the setup's domain, at its kernel
    scale; ParameterError unless `validate_setup` finds the support inside the domain."""
    report = validate_setup(setup)
    if not report.ok:
        raise ParameterError(
            f"contrast support is not contained in the data domain "
            f"(margin {report.margin:.4g}, {len(report.violations)} offending points)")
    kappa = effective_kernel_scale(setup)
    return synthesize_born(setup.contrast, kappa, rule, geometry=setup.domain)


def default_c_full(contrast: ContrastField, k: float) -> float:
    """Minimal full-aperture c with a 10 percent containment margin."""
    return 2.0 * k * DEFAULT_MARGIN_FACTOR * contrast.radius


# Keys a setup record needs in each regime, besides "regime" and "contrast".
_REGIME_KEYS = {"full": ("k",), "limited": ("k", "theta"), "multifreq": ("K", "x_star")}


def setup_from_dict(cfg: dict, contrast_resolution: int = 160) -> ProblemSetup:
    check_keys(cfg, ("regime", "contrast"), "setup")
    regime = cfg["regime"]
    if regime not in REGIMES:
        raise ParameterError(f"unknown regime {regime!r}")
    what = f"{regime} setup"
    check_keys(cfg, _REGIME_KEYS[regime], what)
    contrast = ContrastField.from_config(cfg["contrast"], resolution=contrast_resolution)
    k = numeric(cfg, "K" if regime == "multifreq" else "k", what)
    if cfg.get("c_param") is not None:
        c_param = numeric(cfg, "c_param", what)
    elif regime == "full":
        c_param = default_c_full(contrast, k)
    else:
        raise ParameterError(f"{regime} regime requires an explicit c_param")
    return ProblemSetup(contrast=contrast, regime=regime, k=k, c_param=c_param,
                        theta=cfg["theta"] if regime == "limited" else None,
                        x_star=cfg["x_star"] if regime == "multifreq" else None)


def read_setup(path, contrast_resolution: int = 160) -> ProblemSetup:
    with open(path, "r", encoding="utf-8") as f:
        return setup_from_dict(json.load(f), contrast_resolution=contrast_resolution)
