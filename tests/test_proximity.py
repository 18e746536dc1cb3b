"""Differential and property tests of the proximity kernel and everything
built on it, against brute-force O(n^2) references kept in this file."""

import itertools

import numpy as np
import pytest

from q8sculpt import symmetry
from q8sculpt.hypercube import hyperoctahedral_candidates, sixteen_cell
from q8sculpt.mesh_pipeline import Mesh, orbit_cloud
from q8sculpt.quat import matrix_key
from q8sculpt.symmetry import (
    PointCloud4,
    _dedup,
    _pairs_within,
    classify_chirality,
    surviving_candidates,
    symmetry_group,
)


def brute_pairs(source, target, r):
    dist = np.linalg.norm(source[:, None, :] - target[None, :, :], axis=-1)
    return sorted(zip(*np.nonzero(dist <= r)))


def kernel_pairs(source, target, r):
    i, j = _pairs_within(source, target, r)
    assert np.all(np.diff(i) >= 0)  # grouped by source
    return sorted(zip(i, j))


def brute_dedup(points, tol):
    kept = []
    for idx, p in enumerate(points):
        if not any(np.linalg.norm(p - points[k]) <= tol for k in kept):
            kept.append(idx)
    return kept


def brute_bijection(source, target, tol):
    """Exhaustive augmenting-path matching on the dense adjacency."""
    if len(source) != len(target):
        return False
    adj = np.linalg.norm(source[:, None, :] - target[None, :, :], axis=-1) <= tol
    owner = {}

    def assign(s, seen):
        for t in np.nonzero(adj[s])[0]:
            if t not in seen:
                seen.add(t)
                if t not in owner or assign(owner[t], seen):
                    owner[t] = s
                    return True
        return False

    return all(assign(s, set()) for s in range(len(source)))


def brute_survivors(points, tol):
    return [c.key() for c in hyperoctahedral_candidates() if brute_bijection(points @ c.m, points, tol)]


def unit(points):
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def planted_cloud(seed, n):
    """Random points closed under the cyclic group of a random candidate."""
    gen = np.random.default_rng(seed)
    g = hyperoctahedral_candidates()[int(gen.integers(384))].m
    orbit = [unit(gen.normal(size=(n, 4)))]
    while True:
        nxt = orbit[-1] @ g
        if np.allclose(nxt, orbit[0]):
            return np.concatenate(orbit)
        orbit.append(nxt)


def q8_cloud(seed, n=12):
    points = np.random.default_rng(seed).uniform(-0.85, 0.85, size=(n, 3))
    return orbit_cloud(Mesh(points, np.array([[0, 1, 2]])))


def cube_orbit_cloud(seed):
    """The 48-point orbit of a point (a, b, 0, 0) under the 384 candidates."""
    a, b = np.random.default_rng(seed).uniform(0.2, 0.9, size=2)
    point = unit(np.array([[a, b, 0.0, 0.0]]))[0]
    return np.unique(np.stack([point @ c.m for c in hyperoctahedral_candidates()]), axis=0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim", [3, 4])
def test_pairs_within_matches_brute_force(seed, dim):
    gen = np.random.default_rng(seed)
    source = gen.uniform(-3.0, 3.0, size=(120, dim))
    target = np.concatenate([gen.uniform(-3.0, 3.0, size=(90, dim)), source[:30] + 0.01])
    for r in (0.02, 0.4, 1.5):
        assert kernel_pairs(source, target, r) == brute_pairs(source, target, r)


@pytest.mark.parametrize("dim", [3, 4])
def test_pairs_within_on_cell_boundaries(dim):
    # a lattice of spacing r: every coordinate sits on a cell boundary (cell
    # side 2r) or halfway between two, and axis neighbours are exactly r apart
    r = 0.25
    lattice = np.array(list(itertools.product(np.arange(-2, 3) * r, repeat=dim)))
    got = kernel_pairs(lattice, lattice, r)
    assert got == brute_pairs(lattice, lattice, r)
    assert len(got) > len(lattice)  # the exact-distance neighbours are there


def test_pairs_within_aliased_cells():
    # points 2**15 cells apart share a folded key; only true pairs survive
    r = 1e-3
    far = 2**15 * 2 * r
    base = np.array([[0.0, 0.0, 0.0, 0.0], [0.5 * r, 0.0, 0.0, 0.0]])
    target = np.concatenate([base, base + [far, 0, 0, 0], base + [0, far, far, -far]])
    assert kernel_pairs(base, target, r) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert kernel_pairs(target, target, r) == brute_pairs(target, target, r)


def test_pairs_within_in_small_blocks(monkeypatch):
    monkeypatch.setattr(symmetry, "_BLOCK", 7)
    gen = np.random.default_rng(5)
    points = gen.uniform(-1.0, 1.0, size=(60, 4))
    assert kernel_pairs(points, points, 0.9) == brute_pairs(points, points, 0.9)
    assert symmetry.min_pairwise_distance(points, 0.9) == pytest.approx(
        min(np.linalg.norm(points[a] - points[b]) for a, b in itertools.combinations(range(60), 2))
    )


def test_pairs_within_empty_inputs():
    assert kernel_pairs(np.zeros((0, 3)), np.ones((4, 3)), 0.1) == []
    assert kernel_pairs(np.ones((4, 3)), np.zeros((0, 3)), 0.1) == []


def test_pairs_within_refuses_float_resolution():
    points = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="float resolution"):
        _pairs_within(points, points, 1e-300)
    with pytest.raises(ValueError, match="float resolution"):
        _pairs_within(points * 1e6, points * 1e6, 1e-12)
    assert kernel_pairs(points * 1e6, points * 1e6, 1e-6) == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="finite"):
        _pairs_within(points, points * np.nan, 0.1)
    with pytest.raises(ValueError, match="finite"):
        _pairs_within(points, points, np.inf)


def test_dedup_keeps_first_of_a_chain():
    tol = 1e-3
    line = np.array([[0.0, 0.0, 0.0], [0.6 * tol, 0.0, 0.0], [1.2 * tol, 0.0, 0.0]])
    assert _dedup(line, tol).tolist() == [0, 2]


@pytest.mark.parametrize("seed", range(5))
def test_dedup_matches_brute_force(seed):
    gen = np.random.default_rng(seed)
    centers = gen.uniform(-1.0, 1.0, size=(25, 3))
    points = centers[gen.integers(25, size=150)] + gen.normal(scale=0.03, size=(150, 3))
    for tol in (0.01, 0.05, 0.2):
        assert _dedup(points, tol).tolist() == brute_dedup(points, tol)


@pytest.mark.parametrize(
    "points, tol",
    [
        (unit(np.random.default_rng(3).normal(size=(30, 4))), 1e-6),
        (planted_cloud(11, 10), 1e-6),
        (planted_cloud(12, 6), 1e-4),
        (q8_cloud(7), 1e-6),
        (cube_orbit_cloud(4), 1e-6),
        (sixteen_cell().vertices.astype(float), 0.5),
    ],
    ids=["random", "planted-a", "planted-b", "q8", "cube-orbit", "16-cell"],
)
def test_survivors_match_reference_filter(points, tol):
    survivors = [c.key() for c in surviving_candidates(PointCloud4(points), tol)]
    assert survivors == brute_survivors(points, tol)


@pytest.mark.parametrize("seed", range(4))
def test_survivors_form_a_group(seed):
    for points in (planted_cloud(seed, 8), q8_cloud(seed)):
        mats = [np.rint(s.m).astype(np.int64) for s in surviving_candidates(PointCloud4(points))]
        keys = {matrix_key(m) for m in mats}
        assert matrix_key(np.eye(4)) in keys
        for a in mats:
            assert matrix_key(a.T) in keys
            for b in mats:
                assert matrix_key(a @ b) in keys


@pytest.mark.parametrize("seed", range(4))
def test_noise_below_half_tol_keeps_the_verdict(seed):
    tol = 1e-3
    gen = np.random.default_rng(seed)
    points = q8_cloud(100 + seed)
    clean = symmetry_group(PointCloud4(points), tol)
    noise = gen.normal(size=points.shape)
    noise *= gen.uniform(0.0, 0.45 * tol, size=(len(points), 1)) / np.linalg.norm(noise, axis=1, keepdims=True)
    noisy = symmetry_group(PointCloud4(unit(points + noise)), tol)
    assert [s.key() for s in noisy.symmetries] == [s.key() for s in clean.symmetries]
    assert noisy.is_exactly_q8 and noisy.chirality == clean.chirality == "metachiral"


@pytest.mark.parametrize("seed", range(4))
def test_one_point_moved_past_tol_breaks_the_symmetry(seed):
    tol = 1e-6
    gen = np.random.default_rng(seed)
    points = q8_cloud(200 + seed).copy()
    k = int(gen.integers(len(points)))
    p = points[k]
    u = gen.normal(size=4)
    u -= (u @ p) * p
    u /= np.linalg.norm(u)
    theta = 2 * np.arcsin(1.01 * tol / 2)  # chord of 1.01 tol along the sphere
    points[k] = np.cos(theta) * p + np.sin(theta) * u
    cloud = PointCloud4(points)
    assert [s.key() for s in surviving_candidates(cloud, tol)] == [matrix_key(np.eye(4))]
    assert classify_chirality(cloud, tol) == "chiral"
