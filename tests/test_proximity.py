"""Differential and property tests of the proximity kernel and everything
built on it, against brute-force O(n^2) references kept in this file."""

import itertools
import math

import numpy as np
import pytest

from q8sculpt import symmetry
from q8sculpt.hypercube import hyperoctahedral_candidates, sixteen_cell
from q8sculpt.mesh_pipeline import Mesh, orbit_cloud
from q8sculpt.quat import matrix_key
from q8sculpt.symmetry import (
    MIRROR_W,
    PointCloud4,
    _dedup,
    classify_chirality,
    surviving_candidates,
    symmetry_group,
)


def brute_pairs(source, target, r):
    dist = np.linalg.norm(source[:, None, :] - target[None, :, :], axis=-1)
    return sorted(zip(*np.nonzero(dist <= r)))


def kernel_pairs(source, target, r):
    i, j, _ = symmetry._Index(target, r).pairs(source, r)
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


def cluster(n, spread, seed=0):
    """n distinct unit vectors scattered within about ``spread`` of (1, 0, 0, 0)."""
    return unit(np.array([1.0, 0.0, 0.0, 0.0]) + np.random.default_rng(seed).normal(scale=spread / 2, size=(n, 4)))


def height_field(grid):
    """The noise-free grid x grid height field z = 0.5 sin 3x cos 2y."""
    axis = np.linspace(-0.9, 0.9, grid)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    a = (np.arange(grid - 1)[:, None] * grid + np.arange(grid - 1)).ravel()
    triangles = np.concatenate([np.stack([a, a + grid, a + 1], 1), np.stack([a + 1, a + grid, a + grid + 1], 1)])
    return Mesh(np.stack([x.ravel(), y.ravel(), 0.5 * np.sin(3 * x).ravel() * np.cos(2 * y).ravel()], 1), triangles)


class PairCounter:
    """numpy, as the symmetry module sees it, counting the pair distances the
    proximity kernel computes (the rows of its one "ij,ij->i" einsum); past
    ``cap`` it raises, so a quadratic scan fails fast instead of running on."""

    def __init__(self, cap):
        self.count, self.cap = 0, cap

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, spec, *operands):
        if spec == "ij,ij->i":
            self.count += len(operands[0])
            assert self.count <= self.cap, f"more than {self.cap} pair distances computed"
        return np.einsum(spec, *operands)


@pytest.fixture
def tested_pairs(monkeypatch):
    """Call with a cap to install a :class:`PairCounter` counter."""

    def install(cap):
        counter = PairCounter(cap)
        monkeypatch.setattr(symmetry, "np", counter)
        return counter

    return install


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
    # cells (2**15, -1, 0, 0) and (0, 0, 0, 0) share a key; only true pairs survive
    keys = symmetry._cell_keys(np.array([[2.0**15, -1, 0, 0], [0, 2.0**15, -1, 0], [0, 0, 0, 0]]))
    assert len(set(keys.tolist())) == 1
    r = 1e-3
    base = np.array([[0.3 * r, 0.3 * r, 0.3 * r, 0.3 * r], [0.8 * r, 0.3 * r, 0.3 * r, 0.3 * r]])
    far, back = 2**15 * 2 * r, -2 * r  # 2**15 cells on, one cell back
    target = np.concatenate([base, base + [far, back, 0, 0], base + [0, far, back, 0]])
    probes = symmetry._cell_keys(np.floor(target / symmetry._Index(target, r).cell))
    assert probes[0] == probes[2] == probes[4]  # far points probe the near cell
    assert kernel_pairs(base, target, r) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert kernel_pairs(target, target, r) == brute_pairs(target, target, r)


@pytest.mark.parametrize("dim", [3, 4])
def test_one_index_serves_many_sources(dim):
    gen = np.random.default_rng(dim)
    target = gen.uniform(-2.0, 2.0, size=(150, dim))
    r = 0.3
    index = symmetry._Index(target, r)
    sources = [
        target,
        target[::-1] + gen.normal(scale=0.2, size=(150, dim)),
        gen.uniform(-2.5, 2.5, size=(200, dim)),
        target[:1],
        np.zeros((0, dim)),
    ]
    for source in sources:
        i, j, _ = index.pairs(source, r)
        assert np.all(np.diff(i) >= 0)
        assert sorted(zip(i, j)) == brute_pairs(source, target, r)
    # the misses of one stacked query, against the brute-force matcher
    spread = gen.uniform(-2.0, 2.0, size=(40, dim)) * 3.0
    images = np.stack(
        [spread[gen.permutation(40)] + gen.normal(scale=s, size=(40, dim)) for s in (0, 0.01, 0.05, 0.5, 2)]
    )
    images[0, 0] = images[0, 1]  # a duplicated source point
    miss, stray = symmetry._Index(spread, r).misses(images, r)
    assert np.isfinite(miss).tolist() == [brute_bijection(im, spread, r) for im in images] == [0, 1, 1, 0, 0]
    dist = np.linalg.norm(images[:, :, None, :] - spread[None, None, :, :], axis=-1)
    assert stray.tolist() == np.any(np.all(dist > r, axis=2), axis=1).tolist() == [0, 0, 0, 1, 1]
    assert miss[1:3] == pytest.approx(np.max(np.min(dist[1:3], axis=2), axis=1), rel=1e-15)


@pytest.mark.parametrize("dim", [3, 4])
def test_an_index_answers_every_radius_up_to_its_own(dim):
    gen = np.random.default_rng(10 + dim)
    target = gen.uniform(-2.0, 2.0, size=(150, dim))
    source = target[gen.permutation(150)] + gen.normal(scale=0.3, size=(150, dim))
    index = symmetry._Index(target, 0.6)
    for r in (0.6, 0.3, 0.05, 1e-3):
        i, j, _ = index.pairs(source, r)
        assert np.all(np.diff(i) >= 0)
        assert sorted(zip(i, j)) == brute_pairs(source, target, r)
        # one nearest-distance query decides the pair test at every radius
        assert np.flatnonzero(index.nearest(source) <= r).tolist() == sorted(set(i.tolist()))
    dist = np.min(np.linalg.norm(source[:, None, :] - target[None, :, :], axis=-1), axis=1)
    nearest = index.nearest(source)
    assert np.isinf(nearest).tolist() == (dist > 0.6).tolist()
    assert nearest[dist <= 0.6] == pytest.approx(dist[dist <= 0.6], rel=1e-15)
    # the exactness proof covers radii up to the build radius only
    for r in (np.nextafter(0.6, 1.0), 1.2, np.nan):
        with pytest.raises(ValueError, match="exceeds the index's build radius"):
            index.pairs(source, r)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("r", [0.25, 0.1, 1 / 3, 1e-3 * np.pi])
def test_pairs_within_at_cell_multiples_plus_or_minus_an_ulp(dim, r):
    # coordinates on multiples of r (the even ones are where floor(q / 2r)
    # changes, the odd ones where floor(t / 2r - 1/2) does), on multiples of
    # the index's own cell side, and one ulp either side of each: many pairs
    # are r apart to within an ulp
    gen = np.random.default_rng(int(1e6 * r) + dim)
    cell = symmetry._Index(np.zeros((1, dim)), r).cell
    grid = np.concatenate([np.arange(-4, 5) * r, np.arange(-2, 3) * cell])
    values = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
    points = values[gen.integers(len(values), size=(400, dim))]
    got = kernel_pairs(points, points, r)
    assert got == brute_pairs(points, points, r)
    assert sum(a != b for a, b in got) > 100


def test_pairs_within_in_small_blocks(monkeypatch):
    monkeypatch.setattr(symmetry, "_BLOCK", 7)
    gen = np.random.default_rng(5)
    points = gen.uniform(-1.0, 1.0, size=(60, 4))
    assert kernel_pairs(points, points, 0.9) == brute_pairs(points, points, 0.9)
    assert symmetry.min_pairwise_distance(symmetry._Index(points, 0.9)) == pytest.approx(
        min(np.linalg.norm(points[a] - points[b]) for a, b in itertools.combinations(range(60), 2))
    )
    # one index, reused across sources, block by block
    index = symmetry._Index(points, 0.9)
    for source in (points[::-1], points[:5] + 0.1, gen.uniform(-1.0, 1.0, size=(30, 4))):
        assert sorted(zip(*index.pairs(source, 0.9)[:2])) == brute_pairs(source, points, 0.9)
    # the candidate filter matches one candidate per chunk
    cloud = cube_orbit_cloud(2)
    survivors = [c.key() for c in surviving_candidates(PointCloud4(cloud), 1e-6)]
    assert survivors == brute_survivors(cloud, 1e-6)


def test_the_guard_stops_at_the_first_block_with_coincident_points(monkeypatch):
    """n copies of one point cost the guard one block of pairs, not the
    n**2 / _BLOCK blocks of every pair, and are refused as before."""
    consumed = []
    blocks = symmetry._Index.blocks

    def counted(self, source, r):
        for block in blocks(self, source, r):
            consumed.append(len(block[0]))
            yield block

    monkeypatch.setattr(symmetry._Index, "blocks", counted)
    copies = np.tile([1.0, 0.0, 0.0, 0.0], (2000, 1))
    assert symmetry.min_pairwise_distance(symmetry._Index(copies, 2e-6)) == 0.0
    assert len(consumed) == 1
    with pytest.raises(ValueError, match=r"minimum pairwise distance \(0\)"):
        symmetry_group(PointCloud4(copies))
    assert len(consumed) == 2
    # distinct points still get every block scanned
    consumed.clear()
    points = np.random.default_rng(2).normal(size=(2000, 4))
    index = symmetry._Index(points / np.linalg.norm(points, axis=1, keepdims=True), 0.2)
    assert 0.0 < symmetry.min_pairwise_distance(index) < 0.2
    assert len(consumed) > 1


def test_blocks_of_a_crowded_source_are_never_empty():
    """Six sources, each with all 9 000 points of a cluster as candidates:
    one block each.  Cutting at every multiple of _BLOCK would give 14 blocks,
    8 of them empty."""
    points = cluster(9000, 1e-7)
    index = symmetry._Index(points, 2e-6)
    blocks = list(index.blocks(points[:6], 2e-6))
    assert [len(set(i.tolist())) for i, _, _ in blocks] == [1] * 6
    assert sorted(zip(*index.pairs(points[:6], 2e-6)[:2])) == [(a, b) for a in range(6) for b in range(9000)]


@pytest.mark.parametrize("block", [symmetry._BLOCK, 7])
def test_blocks_skip_the_sources_cleared_during_the_walk(block, monkeypatch):
    """A consumer clears live sources as it walks, some ahead of the walk and
    some behind it: a source cleared before its block is never yielded, and
    every pair of the other sources is yielded exactly once."""
    monkeypatch.setattr(symmetry, "_BLOCK", block)
    gen = np.random.default_rng(8)
    points = np.concatenate([cluster(40, 1e-3), unit(gen.normal(size=(160, 4)))])[gen.permutation(200)]
    index, live, skipped, got = symmetry._Index(points, 0.5), np.ones(200, dtype=bool), set(), []
    for i, j, _ in index.blocks(points, 0.5, live):
        assert not skipped & set(i.tolist())
        got += zip(i.tolist(), j.tolist())
        done = max((a for a, _ in got), default=-1)  # every source pairs with itself
        for a in gen.choice(200, size=8).tolist():
            if live[a] and a > done:
                skipped.add(a)
            live[a] = False
    assert skipped and np.all(np.diff([a for a, _ in got]) >= 0)
    assert sorted(got) == [(a, b) for a, b in brute_pairs(points, points, 0.5) if a not in skipped]
    # a source of no rows yields one empty block
    empty = list(index.blocks(np.zeros((0, 4)), 0.5, np.zeros(0, dtype=bool)))
    assert len(empty) == 1 and all(len(part) == 0 for part in empty[0])


def test_the_guard_on_a_cluster_computes_few_pairs(tested_pairs):
    """8 000 distinct points within about 1e-7: every pair lies within
    2 tol, but the first close pair decides the refusal, and the minimum
    is found on an index built at that pair's distance."""
    counter = tested_pairs(100_000)
    with pytest.raises(ValueError, match=r"minimum pairwise distance \(9\.24e-11\)"):
        symmetry._well_posed_tol(cluster(8000, 1e-7), 1e-6)
    assert counter.count > 8000


@pytest.mark.parametrize("tol", [0.1, 2.0])
def test_the_guard_at_a_large_tol_computes_few_pairs(tol, tested_pairs):
    """The noise-free 60 x 60 height field's 28 800-point cloud holds every
    pair within 2 tol at tol 2: a full scan computes 8.3e8 distances."""
    cloud = orbit_cloud(height_field(60))
    counter = tested_pairs(1_000_000)
    with pytest.raises(ValueError, match=r"minimum pairwise distance \(0\.00808\)"):
        symmetry._well_posed_tol(cloud, tol)
    assert counter.count > len(cloud)


def _floor_cloud():
    """Spread points with two pairs closer than the float floor 2**-50:
    one an ulp apart among the first points, and a closer one, 1e-150
    apart, among the last."""
    points = unit(np.random.default_rng(4).normal(size=(300, 4)))
    points[1] = points[0]
    points[1, 0] = np.nextafter(points[0, 0], 2.0)
    points[-2:] = [0.6, 0.8, 0.0, 0.0]
    points[-1, 2] = 1e-150
    return points


@pytest.mark.parametrize(
    "points, r, block",
    [
        (np.concatenate([cluster(600, 1e-7), unit(np.random.default_rng(1).normal(size=(200, 4)))]), 2e-6, 1 << 12),
        (orbit_cloud(height_field(10)), 4.0, 1 << 12),
        (_floor_cloud(), 2e-6, 32),
    ],
    ids=["cluster", "height-field-at-tol-2", "below-the-float-floor"],
)
def test_the_guard_quotes_the_minimum_of_every_pair(points, r, block, monkeypatch):
    """Restarting on smaller indices finds the value a scan of every pair
    within r finds; at the float floor no smaller index can be built, so
    the scan runs on past the close pair of its first block to the closer
    one of a later block."""
    monkeypatch.setattr(symmetry, "_BLOCK", block)
    i, j, dist = symmetry._Index(points, r).pairs(points, r)
    every_pair = float(np.min(dist[i != j]))
    assert symmetry.min_pairwise_distance(symmetry._Index(points, r)) == every_pair
    brute = min(np.linalg.norm(points[k + 1 :] - points[k], axis=1).min() for k in range(len(points) - 1))
    assert every_pair == pytest.approx(brute, rel=1e-12)


def _guard_accepts(points, tol):
    try:
        symmetry._well_posed_tol(points, tol)
    except ValueError:
        return False
    return True


def test_the_guard_refuses_exactly_when_the_index_finds_a_pair_within_2tol():
    """The guard's separation is the index's own distance d of the pair, so
    it refuses tol = d / 2, where the pair lies within the radius 2 tol,
    and accepts the next float below, where it does not."""
    pairs = np.random.default_rng(17).normal(size=(1000, 2, 4))
    verdicts = []
    for pair in pairs / np.linalg.norm(pairs, axis=2, keepdims=True):
        i, j, dist = symmetry._Index(pair, 2.0).pairs(pair, 2.0)
        half = dist[(i == 0) & (j == 1)][0] / 2
        verdicts.append((_guard_accepts(pair, half), _guard_accepts(pair, math.nextafter(half, 0.0))))
    assert verdicts.count((False, True)) == len(pairs)


def test_pairs_within_empty_inputs():
    assert kernel_pairs(np.zeros((0, 3)), np.ones((4, 3)), 0.1) == []
    assert kernel_pairs(np.ones((4, 3)), np.zeros((0, 3)), 0.1) == []


def test_pairs_within_refuses_float_resolution():
    points = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="float resolution"):
        symmetry._Index(points, 1e-300).pairs(points, 1e-300)
    with pytest.raises(ValueError, match="float resolution"):
        symmetry._Index(points * 1e6, 1e-12).pairs(points * 1e6, 1e-12)
    assert kernel_pairs(points * 1e6, points * 1e6, 1e-6) == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="finite"):
        symmetry._Index(points * np.nan, 0.1).pairs(points, 0.1)
    with pytest.raises(ValueError, match="finite"):
        symmetry._Index(points, np.inf).pairs(points, np.inf)
    # a reused index still checks each source's own span
    index = symmetry._Index(points, 1e-12)
    assert sorted(zip(*index.pairs(points, 1e-12)[:2])) == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="float resolution"):
        index.pairs(points * 1e6, 1e-12)
    with pytest.raises(ValueError, match="finite"):
        index.pairs(points + np.inf, 1e-12)


def test_dedup_keeps_first_of_a_chain():
    tol = 1e-3
    line = np.array([[0.0, 0.0, 0.0], [0.6 * tol, 0.0, 0.0], [1.2 * tol, 0.0, 0.0]])
    kept, separation = _dedup(line, tol)
    assert kept.tolist() == [0, 2]
    assert separation == np.linalg.norm(line[2] - line[0])


def dedup_input(case, tol):
    """Points around 25 random centres for an integer seed; else a cluster
    of distinct points, scattered by 0.2 tol, among spread ones, a chain at
    0.6 tol spacing, or near copies interleaved with their originals, some
    before them."""
    gen = np.random.default_rng(case if isinstance(case, int) else 9)
    if case == "cluster":
        points = np.concatenate([gen.normal(scale=0.2 * tol, size=(120, 3)), gen.uniform(-1.0, 1.0, size=(60, 3))])
        return points[gen.permutation(len(points))]
    if case == "chain":
        line = np.outer(np.arange(150) * 0.6 * tol, unit(gen.normal(size=(1, 3)))[0])
        return line + gen.normal(scale=0.01 * tol, size=line.shape)
    if case == "interleaved":
        originals = gen.uniform(-1.0, 1.0, size=(75, 1, 3))
        pairs = np.concatenate([originals, originals + gen.normal(scale=0.5 * tol, size=(75, 1, 3))], axis=1)
        swapped = gen.random(75) < 0.3
        pairs[swapped] = pairs[swapped, ::-1]
        return pairs.reshape(-1, 3)
    centers = gen.uniform(-1.0, 1.0, size=(25, 3))
    return centers[gen.integers(25, size=150)] + gen.normal(scale=0.03, size=(150, 3))


def at_block_sizes(cases):
    """Each case at the default ``_BLOCK``, under its own id, and at 7, where
    the dedup's walk crosses many blocks."""
    default = [pytest.param(case, symmetry._BLOCK, id=str(case)) for case in cases]
    return default + [pytest.param(case, 7, id=f"{case}-block-7") for case in cases]


@pytest.mark.parametrize("case, block", at_block_sizes([*range(5), "cluster", "chain", "interleaved"]))
def test_dedup_matches_brute_force(case, block, monkeypatch):
    monkeypatch.setattr(symmetry, "_BLOCK", block)
    for tol in (0.01, 0.05, 0.2):
        points = dedup_input(case, tol)
        kept, separation = _dedup(points, tol)
        assert kept.tolist() == brute_dedup(points, tol)
        # the guard's separation, as an index of its own over the kept points measures it
        assert separation == symmetry.min_pairwise_distance(symmetry._Index(points[kept], 2 * tol))


@pytest.mark.parametrize("seed, block", at_block_sizes(range(5)))
def test_dedup_of_copies_matches_brute_force(seed, block, monkeypatch):
    """Multisets with bit-equal rows and rows that differ only in the sign of
    a zero: collapsing the copies first changes no verdict."""
    monkeypatch.setattr(symmetry, "_BLOCK", block)
    gen = np.random.default_rng(seed)
    centers = gen.uniform(-1.0, 1.0, size=(6, 3))
    centers[gen.random(centers.shape) < 0.3] = 0.0
    points = centers[gen.integers(6, size=60)]
    points[gen.random(60) < 0.3] += gen.normal(scale=0.03, size=(1, 3))
    points = np.where(gen.random(points.shape) < 0.5, -1.0, 1.0) * points  # signs of the zeros
    assert np.any(np.signbit(points[points == 0.0])) and not np.all(np.signbit(points[points == 0.0]))
    for tol in (0.01, 0.05, 0.2):
        kept, separation = _dedup(points, tol)
        assert kept.tolist() == brute_dedup(points, tol)
        assert separation == symmetry.min_pairwise_distance(symmetry._Index(points[kept], 2 * tol))


def test_dedup_of_copies_computes_few_pairs(tested_pairs):
    """A seed with 2 000 copies of one vertex: each of the eight images'
    copies is dropped by its first, and only the 24 kept points and a few
    dropped ones are queried, not all 16 016 rows against each other."""
    counter = tested_pairs(100_000)
    vertices = np.array([[0.1, 0.2, 0.3]] * 2000 + [[0.4, -0.1, 0.2], [-0.3, 0.25, 0.1]])
    cloud = orbit_cloud(Mesh(vertices, np.array([[0, 2000, 2001]])))
    assert len(cloud) == 24
    assert counter.count > 0


def test_dedup_of_a_cluster_computes_few_pairs(tested_pairs):
    """2 000 distinct points within 2e-7 at tol 1e-6: the first is kept and
    drops the rest before they are queried; querying every point computes
    all 4e6 pairs."""
    counter = tested_pairs(20_000)
    kept, separation = _dedup(cluster(2000, 2e-7), 1e-6)
    assert kept.tolist() == [0] and separation == np.inf
    assert counter.count >= 2000


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


def noisy_q8_cloud(seed, tol=1e-3):
    """q8_cloud(100 + seed), each point moved by less than 0.45 tol."""
    gen = np.random.default_rng(seed)
    points = q8_cloud(100 + seed)
    noise = gen.normal(size=points.shape)
    noise *= gen.uniform(0.0, 0.45 * tol, size=(len(points), 1)) / np.linalg.norm(noise, axis=1, keepdims=True)
    return unit(points + noise)


def moved_q8_cloud(seed, tol=1e-6):
    """q8_cloud(200 + seed) with one point moved by a chord of 1.01 tol."""
    gen = np.random.default_rng(seed)
    points = q8_cloud(200 + seed).copy()
    k = int(gen.integers(len(points)))
    p = points[k]
    u = gen.normal(size=4)
    u -= (u @ p) * p
    u /= np.linalg.norm(u)
    theta = 2 * np.arcsin(1.01 * tol / 2)  # chord of 1.01 tol along the sphere
    points[k] = np.cos(theta) * p + np.sin(theta) * u
    return points


@pytest.mark.parametrize("seed", range(4))
def test_noise_below_half_tol_keeps_the_verdict(seed):
    tol = 1e-3
    clean = symmetry_group(PointCloud4(q8_cloud(100 + seed)), tol)
    noisy = symmetry_group(PointCloud4(noisy_q8_cloud(seed, tol)), tol)
    assert [s.key() for s in noisy.symmetries] == [s.key() for s in clean.symmetries]
    assert noisy.is_exactly_q8 and noisy.chirality == clean.chirality == "metachiral"


@pytest.mark.parametrize("seed", range(4))
def test_one_point_moved_past_tol_breaks_the_symmetry(seed):
    tol = 1e-6
    cloud = PointCloud4(moved_q8_cloud(seed, tol))
    assert [s.key() for s in surviving_candidates(cloud, tol)] == [matrix_key(np.eye(4))]
    assert classify_chirality(cloud, tol) == "chiral"


def reference_chirality(points, tol):
    """The former classify_chirality, kept as the reference: search the 192
    orientation-preserving candidates for one carrying the cloud onto its
    mirror image, then try every one of them as a conjugator of the
    symmetry group, one float matmul and rint key at a time."""
    preserving = [c for c in hyperoctahedral_candidates() if c.is_orientation_preserving]
    mirrored = points @ MIRROR_W
    if any(brute_bijection(points @ c.m, mirrored, tol) for c in preserving):
        return "achiral"
    group = [np.array(key).reshape(4, 4) for key in brute_survivors(points, tol)]
    mirror_keys = {matrix_key(MIRROR_W @ s @ MIRROR_W) for s in group}
    for candidate in preserving:
        g = np.rint(candidate.m).astype(np.int64)
        if {matrix_key(g @ s @ g.T) for s in group} == mirror_keys:
            return "chiral"
    return "metachiral"


def rotation_orbit_cloud(seed):
    """The 192 images of a generic point under the orientation-preserving
    candidates: chiral, with all 192 of them as its group."""
    point = unit(np.random.default_rng(seed).normal(size=(1, 4)))[0]
    return np.stack([point @ c.m for c in hyperoctahedral_candidates() if c.is_orientation_preserving])


# each cloud, and its verdict at tol 1e-6
CHIRALITY_CLOUDS = {
    "cube-orbit": (lambda: cube_orbit_cloud(4), "achiral"),
    "16-cell": (lambda: sixteen_cell().vertices.astype(float), "achiral"),
    "generic": (lambda: unit(np.random.default_rng(3).normal(size=(30, 4))), "chiral"),
    "q8": (lambda: q8_cloud(7), "metachiral"),
    "noisy-q8": (lambda: noisy_q8_cloud(1), "chiral"),
    "moved-q8": (lambda: moved_q8_cloud(2), "chiral"),
    "planted-a": (lambda: planted_cloud(11, 10), "chiral"),
    "planted-b": (lambda: planted_cloud(12, 6), "chiral"),
    "rotations": (lambda: rotation_orbit_cloud(5), "chiral"),
}


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("name", CHIRALITY_CLOUDS)
def test_chirality_matches_reference(name, tol):
    build, verdict = CHIRALITY_CLOUDS[name]
    points = build()
    cloud = PointCloud4(points)
    separation = min(np.linalg.norm(a - b) for a, b in itertools.combinations(points, 2))
    if tol >= separation / 2:
        with pytest.raises(ValueError, match="ill-posed"):
            classify_chirality(cloud, tol)
        return
    expected = reference_chirality(points, tol)
    assert tol != 1e-6 or expected == verdict
    assert classify_chirality(cloud, tol) == expected
    assert classify_chirality(cloud, tol, survivors=surviving_candidates(cloud, tol)) == expected
    assert symmetry_group(cloud, tol).chirality == expected


@pytest.mark.parametrize("seed", range(6))
def test_conjugating_the_cloud_conjugates_its_group(seed):
    # s maps the cloud onto itself exactly when g^T s g maps cloud @ g onto itself
    gen = np.random.default_rng(seed)
    g = hyperoctahedral_candidates()[int(gen.integers(384))].m
    for points in (q8_cloud(seed), planted_cloud(seed, 8), cube_orbit_cloud(seed), noisy_q8_cloud(seed)):
        survivors = surviving_candidates(PointCloud4(points), 1e-3)
        expected = sorted(matrix_key(g.T @ s.m @ g) for s in survivors)
        assert sorted(s.key() for s in surviving_candidates(PointCloud4(points @ g), 1e-3)) == expected
