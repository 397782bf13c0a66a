"""The grid neighbour search `numerics.nearest` against scipy's cKDTree (test
oracle only) and against a brute-force search over every distance."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from prolate.errors import ParameterError
from prolate.forward import _group_rows
from prolate.numerics import nearest
from prolate.symset_basis import Geometry, build_quadrature

ANGLES = 96  # far-field directions per axis, as in the benchmark's limited-aperture op


def brute(points, queries, k):
    """The k nearest points by the documented rule, from every distance: squared
    differences summed in coordinate order, ordered by sum, then index."""
    points, queries = np.asarray(points, float), np.asarray(queries, float)
    k = min(k, len(points))
    dist, idx = np.empty((len(queries), k)), np.empty((len(queries), k), dtype=np.intp)
    for r, q in enumerate(queries):
        d2 = (points[:, 0] - q[0]) ** 2
        for a in range(1, points.shape[1]):
            d2 += (points[:, a] - q[a]) ** 2
        order = np.lexsort((np.arange(len(points)), d2))[:k]
        dist[r], idx[r] = np.sqrt(d2[order]), order
    return dist, idx


def check(points, queries, k, rows=None):
    """Distances bitwise those of cKDTree; indices those of the brute-force rule
    on `rows` (every row if None) and on every row where they differ from the
    tree's, which may order tied points otherwise."""
    points, queries = np.asarray(points, float), np.asarray(queries, float)
    dist, idx = nearest(points, queries, k)
    kk = min(k, len(points))
    assert dist.shape == idx.shape == (len(queries), kk)
    tree_d, tree_i = cKDTree(points).query(queries, k=k)
    tree_d = np.asarray(tree_d).reshape(len(queries), -1)[:, :kk]
    tree_i = np.asarray(tree_i).reshape(len(queries), -1)[:, :kk]
    assert np.array_equal(dist.view(np.uint64), tree_d.view(np.uint64))
    rows = np.arange(len(queries)) if rows is None else np.asarray(rows)
    rows = np.union1d(rows, np.flatnonzero(np.any(idx != tree_i, axis=1)))
    ref_d, ref_i = brute(points, queries[rows], k)
    assert np.array_equal(dist[rows], ref_d) and np.array_equal(idx[rows], ref_i)
    return dist, idx


def far_field_directions(geo: str, theta: float = 2.2, x_star=(0.6, -0.8)):
    """(x_hat, theta_hat) rows laid out as the benchmark's far-field files lay them out."""
    n = ANGLES
    if geo == "L":
        t = theta * ((np.arange(n) + 0.5) / n * 2.0 - 1.0)
        e = np.stack([np.cos(t), np.sin(t)], 1)
        return np.repeat(e, n, axis=0), np.tile(e, (n, 1))
    s = np.sqrt((np.arange(n // 2) + 0.5) / (n // 2))
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    e = np.stack([np.cos(t), np.sin(t)], 1)
    xs = np.asarray(x_star)
    xh = [np.repeat(-sign * s[:, None] * xs[None, :], n, axis=0) for sign in (1.0, -1.0)]
    th = [(s[:, None, None] * e[None, :, :]).reshape(-1, 2)] * 2
    return np.concatenate(xh), np.concatenate(th)


def distinct_rows(rows):
    inverse, counts = _group_rows(np.round(rows / 1e-12).astype(np.int64))
    out = np.empty((len(counts), rows.shape[1]))
    out[inverse] = rows
    return out


GEOMETRIES = {"L": Geometry.limited_aperture(2.2, 1.0),
              "M": Geometry.multi_freq((0.6, -0.8), 1.0)}


@pytest.mark.parametrize("geo", ["L", "M"])
class TestBenchmarkFarFields:
    def test_direction_pairs_4d(self, geo):
        # the default cutoff's spacing: each distinct (x_hat, theta_hat) pair's nearest other
        rows = distinct_rows(np.concatenate(far_field_directions(geo), axis=1))
        assert rows.shape == (ANGLES * ANGLES, 4)
        dist, _ = check(rows, rows, 2, rows=np.arange(0, len(rows), 37))
        assert np.all(dist[:, 0] == 0.0) and np.all(dist[:, 1] > 0.0)

    def test_merged_p_points_2d(self, geo):
        # the resampling: the 4 merged p = theta_hat - x_hat points nearest each node
        x_hat, theta_hat = far_field_directions(geo)
        pts = distinct_rows(theta_hat - x_hat)
        nodes = build_quadrature(GEOMETRIES[geo], 48, method="polar").nodes
        check(pts, nodes, 4, rows=np.arange(0, len(nodes), 5))


@pytest.mark.parametrize("d", [1, 2, 4, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_clouds(d, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((3000, d)) * np.linspace(1.0, 0.05, d)  # anisotropic
    points[:500] = 0.01 * rng.standard_normal((500, d))  # and a dense clump
    queries = np.concatenate([rng.standard_normal((400, d)), points[::11]])
    check(points, queries, 5, rows=np.arange(0, len(queries), 3))


def test_random_cloud_self_query():
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (4000, 3))
    dist, idx = check(points, points, 2, rows=np.arange(0, 4000, 7))
    assert np.array_equal(idx[:, 0], np.arange(4000))


def test_duplicate_and_equidistant_points():
    # an integer lattice (every distance ties many others) with some points
    # repeated: ties go to the lower index, in order and in which make the k
    g = np.arange(-20, 21, dtype=float)
    lattice = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    points = np.concatenate([lattice, lattice[::17], lattice[5:6]])
    queries = np.concatenate([lattice[::3], lattice[::7] + 0.5, [[0.25, 0.0], [40.0, 40.0]]])
    check(points, queries, 6)
    dist, idx = nearest(points, points, 3)
    for i in range(0, len(lattice), 17):  # a repeated point finds itself and its copy first
        assert dist[i, 1] == 0.0 and idx[i, 0] == i and idx[i, 1] == len(lattice) + i // 17


def test_single_point():
    queries = np.array([[0.0, 0.0], [3.0, -4.0], [1e6, 1e6]])
    dist, idx = check([[3.0, 0.0]], queries, 4)
    assert dist.shape == (3, 1) and np.array_equal(idx, np.zeros((3, 1), dtype=np.intp))
    assert dist[1, 0] == 4.0


def test_k_larger_than_point_count():
    points = np.random.default_rng(2).standard_normal((7, 3))
    dist, idx = check(points, np.random.default_rng(3).standard_normal((20, 3)), 10)
    assert dist.shape == (20, 7) and all(sorted(r) == list(range(7)) for r in idx.tolist())


def test_queries_far_outside_the_cloud():
    rng = np.random.default_rng(4)
    points = rng.uniform(0.0, 1.0, (20000, 2))
    queries = np.concatenate([rng.uniform(0.0, 1.0, (300, 2)),
                              [[1e3, 0.5], [-1e6, -1e6], [0.5, 2.0], [1e9, -3.0]]])
    check(points, queries, 3, rows=np.arange(0, len(queries), 4))


def test_empty_inputs():
    dist, idx = nearest(np.zeros((0, 2)), np.ones((3, 2)), 4)
    assert dist.shape == idx.shape == (3, 0)
    dist, idx = nearest(np.ones((5, 2)), np.zeros((0, 2)), 4)
    assert dist.shape == idx.shape == (0, 4)


@pytest.mark.parametrize("points,queries,k", [
    ([[0.0, np.nan]], [[0.0, 0.0]], 1),
    ([[0.0, 0.0]], [[np.inf, 0.0]], 1),
    ([[0.0, 0.0]], [[0.0, 0.0, 0.0]], 1),
    ([[0.0, 0.0]], [[0.0, 0.0]], 0),
])
def test_rejects_bad_input(points, queries, k):
    with pytest.raises(ParameterError):
        nearest(points, queries, k)


def test_memory_stays_small():
    # the benchmark's 9,216 distinct direction pairs, each against the rest
    # (1.8 MB beyond input and outputs): a transposed copy of the points, the
    # grid (order, cell starts, sorted coordinates, 0.6 MB), and the run
    # tables of one chunk of queries and the tables of one block of candidates
    rows = distinct_rows(np.concatenate(far_field_directions("L"), axis=1))
    nearest(rows, rows, 2)
    tracemalloc.start()
    try:
        dist, idx = nearest(rows, rows, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - rows.nbytes - dist.nbytes - idx.nbytes < 2_000_000, peak
