"""Reference values computed without calling the package under test.

Everything here is derived from the definitions in the README: the forward
map u(p) = int exp(i kappa p.p') q(p') dp', the phantom as a sum of shape
indicators (or a pixel grid), and the data domains as point sets.  The
benchmark compares the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j1


def _disk_transform(kappa: float, pts: np.ndarray, center, radius: float) -> np.ndarray:
    """int_{|p'-center|<radius} exp(i kappa p.p') dp' in closed form:
    exp(i kappa p.center) * 2 pi R J1(kappa |p| R) / (kappa |p|)."""
    r = np.hypot(pts[:, 0], pts[:, 1])
    x = kappa * r * radius
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    radial = np.where(small, math.pi * radius**2,
                      2.0 * math.pi * radius**2 * j1(safe) / safe)
    return np.exp(1j * kappa * (pts @ np.asarray(center, dtype=float))) * radial


def forward_reference(phantom: dict, kappa: float, pts: np.ndarray) -> np.ndarray:
    """Born data of the phantom at points `pts`.

    Disks and annuli use the closed-form transform; overlapping shape values
    add, as the README specifies.  Pixel grids use a separable sum over pixel
    centres (exp table in x times exp table in y), which is an independent
    evaluation of the same midpoint discretisation the program uses.
    """
    pts = np.asarray(pts, dtype=float)
    if "grid" in phantom:
        g = phantom["grid"]
        vals = np.asarray(g["values"], dtype=float)
        xs = g["origin"][0] + (np.arange(vals.shape[0]) + 0.5) * g["dx"]
        ys = g["origin"][1] + (np.arange(vals.shape[1]) + 0.5) * g["dy"]
        ex = np.exp(1j * kappa * np.outer(pts[:, 0], xs))
        ey = np.exp(1j * kappa * np.outer(pts[:, 1], ys))
        return g["dx"] * g["dy"] * np.sum(ex * (ey @ vals.T), axis=1)
    out = np.zeros(len(pts), dtype=complex)
    for sh in phantom["shapes"]:
        if sh["type"] == "disk":
            f = _disk_transform(kappa, pts, sh["center"], sh["radius"])
        else:
            f = (_disk_transform(kappa, pts, sh["center"], sh["r_outer"])
                 - _disk_transform(kappa, pts, sh["center"], sh["r_inner"]))
        out += sh["value"] * f
    return out


def phantom_values(phantom: dict, pts: np.ndarray) -> np.ndarray:
    """q at points: sum of value * indicator over shapes, or the pixel value."""
    pts = np.asarray(pts, dtype=float)
    if "grid" in phantom:
        g = phantom["grid"]
        vals = np.asarray(g["values"], dtype=float)
        i = np.floor((pts[:, 0] - g["origin"][0]) / g["dx"]).astype(int)
        j = np.floor((pts[:, 1] - g["origin"][1]) / g["dy"]).astype(int)
        ok = (i >= 0) & (i < vals.shape[0]) & (j >= 0) & (j < vals.shape[1])
        out = np.zeros(len(pts))
        out[ok] = vals[i[ok], j[ok]]
        return out
    out = np.zeros(len(pts))
    for sh in phantom["shapes"]:
        d = np.hypot(pts[:, 0] - sh["center"][0], pts[:, 1] - sh["center"][1])
        if sh["type"] == "disk":
            out += np.where(d < sh["radius"], sh["value"], 0.0)
        else:
            out += np.where((d > sh["r_inner"]) & (d < sh["r_outer"]), sh["value"], 0.0)
    return out


def phantom_norm(phantom: dict, half_width: float, n: int = 600) -> float:
    """L2 norm of q over [-half_width, half_width]^2 by an n x n midpoint grid."""
    step = 2.0 * half_width / n
    g = step * (np.arange(n) - (n - 1) / 2.0)
    X, Y = np.meshgrid(g, g, indexing="ij")
    q = phantom_values(phantom, np.stack([X.ravel(), Y.ravel()], axis=1))
    return float(np.sqrt(np.sum(q * q) * step * step))


def _outer_radius(sh: dict) -> float:
    return sh["radius"] if sh["type"] == "disk" else sh["r_outer"]


def _inner_radius(sh: dict) -> float:
    return 0.0 if sh["type"] == "disk" else sh["r_inner"]


def shapes_overlap(phantom: dict) -> bool:
    """True if two shapes of the phantom share a region of positive area."""
    shapes = phantom.get("shapes", [])
    for a in range(len(shapes)):
        for b in range(a + 1, len(shapes)):
            sa, sb = shapes[a], shapes[b]
            d = math.dist(sa["center"], sb["center"])
            if d >= _outer_radius(sa) + _outer_radius(sb):
                continue
            if d + _outer_radius(sb) <= _inner_radius(sa):
                continue  # b sits in the hole of a
            if d + _outer_radius(sa) <= _inner_radius(sb):
                continue
            return True
    return False


def _wrap(a):
    return (np.asarray(a) + math.pi) % (2.0 * math.pi) - math.pi


def in_domain(domain: dict, pts: np.ndarray) -> np.ndarray:
    """Membership in the data domain A_h, from its definition.

    disk: |p| < h.  M: |p/h - x*| < 1 or |p/h + x*| < 1.  L(Theta): p/h =
    e(b) - e(a) with a, b in (-Theta, Theta); writing e(b) - e(a) =
    2 sin(d) e(m +- pi/2) with m = (a+b)/2, |d| = (b-a)/2 gives the condition
    asin(|p|/2h) + min |m| < Theta over m = arg p -+ pi/2.
    """
    pts = np.asarray(pts, dtype=float) / domain["h"]
    x, y = pts[:, 0], pts[:, 1]
    if domain["kind"] == "disk":
        return x * x + y * y < 1.0
    if domain["kind"] == "multi_freq":
        ax, ay = domain["x_star"]
        return ((x - ax) ** 2 + (y - ay) ** 2 < 1.0) | ((x + ax) ** 2 + (y + ay) ** 2 < 1.0)
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    m = np.minimum(np.abs(_wrap(phi - math.pi / 2)), np.abs(_wrap(phi + math.pi / 2)))
    d = np.arcsin(np.clip(r / 2.0, 0.0, 1.0))
    return (r < 2.0) & (d + m < domain["theta"])


def shape_inside(domain: dict, sh: dict, margin: float = 0.02) -> bool:
    """True if the whole outer circle of a shape, grown by `margin`, is inside."""
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    rr = _outer_radius(sh) + margin
    circle = np.stack([sh["center"][0] + rr * np.cos(t), sh["center"][1] + rr * np.sin(t)], 1)
    return bool(in_domain(domain, circle).all())


def weighted_rel(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """||a - b||_w / ||b||_w."""
    return float(np.sqrt(np.sum(w * np.abs(a - b) ** 2) / np.sum(w * np.abs(b) ** 2)))
