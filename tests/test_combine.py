"""The shared mode-sum evaluator `basis.combine`, checked against quantities it
does not compute: the stored node values inside the domain, the discrete
Fourier eigenrelation

    combine(w, x) = sum_p exp(i kappa x.p) (sum_i w_i psi_i(p) / mu_i) w_p

outside it, and the per-mode sum, for the scaled disk basis and three
symmetric-set bases.
"""

import math

import numpy as np
import pytest

import prolate as P
from prolate.recon import reconstruct


@pytest.fixture(scope="module")
def symset_L():
    geo = P.Geometry.limited_aperture(0.75 * math.pi, h=1.0)
    quad = P.build_quadrature(geo, 64, method="polar")
    return P.compute_symset_basis(3.0, geo, quad, 16)


@pytest.fixture(scope="module")
def symset_M_midpoint():
    """A midpoint grid at a generic x*, laid out in the x* frame."""
    geo = P.Geometry.multi_freq((math.cos(1.1), math.sin(1.1)), h=1.5)
    quad = P.build_quadrature(geo, 40, method="midpoint")
    return P.compute_symset_basis(3.0, geo, quad, 16)


@pytest.fixture(params=["scaled_c6", "symset_disk_c5", "symset_L", "symset_M_midpoint"])
def basis(request):
    return request.getfixturevalue(request.param)


def mode_weights(basis, kind, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(len(basis.mu))
    return w + 1j * rng.standard_normal(len(w)) if kind == "complex" else w


def quadrature_extension(basis, node_field_over_mu, pts):
    """sum_p exp(i kappa x.p) g(p) w_p with g sampled on the basis nodes."""
    kernel = np.exp(1j * basis.kernel_scale * (pts @ basis.quad.nodes.T))
    return kernel @ (basis.quad.weights * node_field_over_mu)


def exterior_points(basis, n=6):
    """Points just outside the data domain (at most 1.3x its outer radius)."""
    reach = np.hypot(basis.quad.nodes[:, 0], basis.quad.nodes[:, 1]).max()
    t = 2 * math.pi * (np.arange(n) + 0.25) / n
    r = reach * np.linspace(1.05, 1.3, n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_interior_nodes_match_node_values(basis, kind):
    w = mode_weights(basis, kind)
    got = basis.combine(w, basis.quad.nodes)
    want = w @ basis.node_values
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exterior_eigenrelation(basis, kind):
    w = mode_weights(basis, kind, seed=1)
    pts = exterior_points(basis)
    got = basis.combine(w, pts)
    want = quadrature_extension(basis, (w / basis.mu) @ basis.node_values, pts)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    if kind == "real":
        assert not np.iscomplexobj(got)


def test_single_point_gives_scalar(basis):
    w = mode_weights(basis, "complex")
    pts = exterior_points(basis, 3)
    assert basis.combine(w, pts[1]) == pytest.approx(basis.combine(w, pts)[1], rel=1e-14)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_matches_per_mode_loop(basis, kind):
    # the folded sum against the sum of one-mode evaluations; only the
    # summation order differs, so the tolerance is a few ulps of the terms
    w = mode_weights(basis, kind, seed=2)
    pts = np.concatenate([basis.quad.nodes[::37], exterior_points(basis)])
    terms = [w[i] * P.eval_psi(basis, i, pts) for i in range(len(basis.modes))]
    want = np.sum(terms, axis=0)
    assert np.abs(basis.combine(w, pts) - want).max() <= 1e-12 * np.abs(terms).max()


def test_disk_reconstruction_field_off_nodes(scaled_c6):
    q = P.ContrastField.from_shapes(
        [{"type": "disk", "center": (0.4, -0.3), "radius": 1.2, "value": 1.0}], resolution=80)
    data = P.synthesize_born(q, scaled_c6.kernel_scale, scaled_c6.quad)
    rec = reconstruct(data, scaled_c6, alpha=1.0 / 60.0)
    keep = scaled_c6.cutoff(1.0 / 60.0)[0]
    assert 1 < keep.sum() < len(keep)
    # at the nodes the field is the node-sampled Picard series
    assert np.abs(rec.field(scaled_c6.quad.nodes) - rec.node_field).max() \
        <= 1e-10 * np.abs(rec.node_field).max()
    # off the nodes, inside and outside the data disk, it is the eigenrelation
    # applied to the retained modes
    rng = np.random.default_rng(4)
    rho = scaled_c6.radius
    r = rho * np.concatenate([rng.uniform(0.0, 0.95, 8), rng.uniform(1.05, 1.3, 4)])
    t = rng.uniform(0.0, 2 * math.pi, len(r))
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    g = (rec.coefficients / (scaled_c6.mode_norms[keep] * scaled_c6.mu[keep])) \
        @ scaled_c6.node_values[keep]
    want = quadrature_extension(scaled_c6, g, pts)
    assert np.abs(rec.field(pts) - want).max() <= 1e-9 * np.abs(want).max()


@pytest.fixture(scope="module")
def symset_M():
    geo = P.Geometry.multi_freq((0.6, 0.8), h=1.0)
    quad = P.build_quadrature(geo, 64, method="polar")
    return P.compute_symset_basis(3.0, geo, quad, 16)


@pytest.fixture(scope="module")
def symset_L_odd_midpoint():
    """An odd midpoint grid: its centre node p = 0 is its own mirror."""
    geo = P.Geometry.limited_aperture(0.75 * math.pi, h=1.0)
    quad = P.build_quadrature(geo, 33, method="midpoint")
    assert np.count_nonzero(np.all(quad.nodes == 0.0, axis=1)) == 1
    return P.compute_symset_basis(3.0, geo, quad, 16)


def unfolded_sum(basis, w, pts):
    """sum_n w_n psi_n(pts) as a kernel sum over every node, per parity."""
    even = basis.modes["even"]
    lam = basis.geometry.h**2 * np.where(even, basis.alphas.real, basis.alphas.imag)
    gram = basis.kernel_scale * (pts @ basis.quad.nodes.T)
    out = np.zeros(len(pts), dtype=np.result_type(w, float))
    for sel, kernel in ((even, np.cos), (~even, np.sin)):
        g = (w[sel] / lam[sel]) @ basis.node_values[sel]
        out += kernel(gram) @ (basis.quad.weights * g)
    return out


@pytest.mark.parametrize("name", ["symset_L", "symset_M", "symset_L_odd_midpoint"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_folded_matches_all_node_sum(request, name, kind):
    # the fold runs each kernel over one node of each mirror pair
    basis = request.getfixturevalue(name)
    w = mode_weights(basis, kind, seed=5)
    pts = np.concatenate([basis.quad.nodes[::11], exterior_points(basis),
                          np.zeros((1, 2))])
    want = unfolded_sum(basis, w, pts)
    got = basis.combine(w, pts)
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # one parity only: the other kernel is skipped
    for parity in ("even", "odd"):
        sel = basis.modes["even"] == (parity == "even")
        one = np.where(sel, w, 0.0)
        want = unfolded_sum(basis, one, pts)
        assert np.abs(basis.combine(one, pts) - want).max() <= 1e-13 * np.abs(want).max()
