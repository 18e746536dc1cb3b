import json
import math

import numpy as np
import pytest

from q8sculpt import symmetry
from q8sculpt.blocks import block_seed, standard_block
from q8sculpt.hypercube import (
    candidate_stack,
    hyperoctahedral_candidates,
    q8_double_cosets,
    q8_right_isometries,
    signed_permutation_matrices,
    sixteen_cell,
)
from q8sculpt.mesh_pipeline import Mesh, demo_seed, face_contact_check, orbit_cloud
from q8sculpt.projection import radial_to_s3
from q8sculpt.quat import (
    I,
    Isometry4,
    J,
    Q8_ELEMENTS,
    UnitQuaternion,
    left_mul_matrix,
    matrix_key,
    q8_right_matrix_int,
    right_mul_matrix,
)
from q8sculpt.symmetry import (
    MIRROR_W,
    PointCloud4,
    SymmetryReport,
    _Index,
    classify_chirality,
    invariant_under,
    match_point_sets,
    min_pairwise_distance,
    seed_asymmetry_check,
    surviving_candidates,
    symmetry_group,
)


def unit_cloud(n, seed):
    gen = np.random.default_rng(seed)
    pts = gen.normal(size=(n, 4))
    return PointCloud4(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def test_identity_is_always_a_symmetry():
    cloud = unit_cloud(25, seed=1)
    assert invariant_under(cloud, Isometry4(np.eye(4)))


def test_sixteen_cell_admits_all_candidates():
    cloud = PointCloud4(sixteen_cell().vertices.astype(float))
    for candidate in hyperoctahedral_candidates():
        assert invariant_under(cloud, candidate)
    report = symmetry_group(cloud)
    assert len(report.symmetries) == 384
    assert not report.is_exactly_q8


def test_generic_cloud_has_trivial_symmetry():
    cloud = unit_cloud(5, seed=9)
    survivors = surviving_candidates(cloud)
    assert len(survivors) == 1
    assert survivors[0].key() == matrix_key(np.eye(4))


def test_tolerance_guard_rejects_ill_posed():
    cloud = PointCloud4(sixteen_cell().vertices.astype(float))
    # min pairwise distance is sqrt(2); anything above half of that is refused
    with pytest.raises(ValueError, match="ill-posed"):
        invariant_under(cloud, Isometry4(np.eye(4)), tol=0.8)
    # the guard is strict: at exactly half, two points could share a match
    with pytest.raises(ValueError, match="ill-posed"):
        invariant_under(cloud, Isometry4(np.eye(4)), tol=np.sqrt(2) / 2)
    with pytest.raises(ValueError, match="ill-posed"):
        symmetry_group(cloud, tol=np.sqrt(2) / 2)
    assert len(surviving_candidates(cloud, tol=0.7)) == 384
    with pytest.raises(ValueError):
        invariant_under(cloud, Isometry4(np.eye(4)), tol=-1.0)


def test_invariance_is_monotone_in_tolerance(sculpture_cloud):
    iso = q8_right_isometries()[3]
    held = False
    for tol in (1e-9, 1e-6, 1e-4):
        now = invariant_under(sculpture_cloud, iso, tol)
        assert now or not held  # once true, stays true
        held = now
    assert held


def test_survivors_form_a_group(sculpture_cloud):
    survivors = surviving_candidates(sculpture_cloud)
    keys = {s.key() for s in survivors}
    mats = [np.rint(s.m).astype(np.int64) for s in survivors]
    for a in mats:
        assert matrix_key(a.T) in keys  # inverses
        for b in mats:
            assert matrix_key(a @ b) in keys  # closure


@pytest.mark.parametrize("seed_value", [7, 1234, 987654])
def test_any_asymmetric_seed_yields_exactly_eight(seed_value):
    """The pipeline promise holds across seeds, not just one lucky draw."""
    from q8sculpt.mesh_pipeline import Mesh, orbit_cloud

    gen = np.random.default_rng(seed_value)
    points = gen.uniform(-0.85, 0.85, size=(12, 3))
    assert seed_asymmetry_check(points)
    cloud = PointCloud4(orbit_cloud(Mesh(points, np.array([[0, 1, 2]]))))
    assert len(surviving_candidates(cloud)) == 8


def test_sculpture_cloud_is_exactly_q8(sculpture_report):
    assert sculpture_report.candidates_tested == 384
    assert sculpture_report.is_exactly_q8
    assert len(sculpture_report.symmetries) == 8
    expected = {iso.key() for iso in q8_right_isometries()}
    assert {s.key() for s in sculpture_report.symmetries} == expected


def test_origin_seed_degenerates_to_sixteen_cell():
    from q8sculpt.mesh_pipeline import Mesh, orbit_cloud

    seed = Mesh(np.zeros((1, 3)), np.zeros((0, 3), dtype=np.int64))
    cloud = PointCloud4(orbit_cloud(seed))
    assert sorted(map(tuple, np.rint(cloud.points).astype(int))) == sorted(
        map(tuple, sixteen_cell().vertices)
    )
    assert len(surviving_candidates(cloud)) == 384


def test_seed_asymmetry_check_examples(rng):
    assert seed_asymmetry_check(rng.uniform(-1, 1, size=(3, 3)))
    mirrored_pair = np.array([[0.3, 0.4, 0.5], [-0.3, 0.4, 0.5], [0.0, -0.2, 0.8]])
    assert not seed_asymmetry_check(mirrored_pair)  # x-mirror preserves it
    assert not seed_asymmetry_check(np.zeros((1, 3)))  # all 48 fix the origin


def test_seed_asymmetry_scale_invariance(rng):
    pts = rng.uniform(-1, 1, size=(6, 3))
    tol = 1e-6
    assert seed_asymmetry_check(pts, tol) == seed_asymmetry_check(pts * 0.25, tol * 0.25)


def test_detection_tolerates_bounded_noise():
    """The eight symmetries survive noise below tol and vanish below it."""
    gen = np.random.default_rng(99)
    from q8sculpt.mesh_pipeline import Mesh, orbit_cloud

    seed = Mesh(gen.uniform(-0.9, 0.9, size=(20, 3)), np.array([[0, 1, 2]]))
    points = orbit_cloud(seed)
    points = points + gen.normal(scale=3e-9, size=points.shape)
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    cloud = PointCloud4(points)
    assert len(surviving_candidates(cloud, 1e-6)) == 8
    assert len(surviving_candidates(cloud, 1e-10)) == 1


def test_classify_chirality_achiral():
    cloud = PointCloud4(sixteen_cell().vertices.astype(float))
    assert classify_chirality(cloud) == "achiral"


def test_classify_chirality_plain_chiral():
    # trivial symmetry group: chiral but conjugation is trivially possible
    cloud = unit_cloud(5, seed=9)
    assert classify_chirality(cloud) == "chiral"


def test_classify_chirality_metachiral(sculpture_cloud, sculpture_report):
    assert sculpture_report.chirality == "metachiral"
    assert classify_chirality(sculpture_cloud) == "metachiral"


def test_metachirality_ingredients(sculpture_cloud, sculpture_report):
    """The mirror sculpture is unreachable by any rotation candidate, and no
    rotation candidate conjugates the group onto its mirror, but the mirror
    itself conjugates it onto the left-multiplication copy."""
    mirrored = sculpture_cloud.points @ MIRROR_W
    preserving = [c for c in hyperoctahedral_candidates() if c.is_orientation_preserving]
    assert len(preserving) == 192
    for candidate in preserving:
        assert not match_point_sets(sculpture_cloud.points @ candidate.m, mirrored, 1e-6)
    group = [np.rint(s.m).astype(np.int64) for s in sculpture_report.symmetries]
    mirror_group = {matrix_key(MIRROR_W @ s @ MIRROR_W) for s in group}
    for candidate in preserving:
        g = np.rint(candidate.m).astype(np.int64)
        assert {matrix_key(g @ s @ g.T) for s in group} != mirror_group
    left_copy = {matrix_key(left_mul_matrix(e).m) for e in Q8_ELEMENTS}
    assert mirror_group == left_copy


def test_cloud_json_round_trip(sculpture_cloud):
    text = sculpture_cloud.to_json()
    again = PointCloud4.from_json(text)
    assert np.array_equal(again.points, sculpture_cloud.points)
    with pytest.raises(ValueError):
        PointCloud4.from_json(json.dumps({"nope": []}))


@pytest.mark.parametrize(
    "points, bad",
    [
        ([{"x": 1}], 0),
        ([["1", "0", "0", "0"]], 0),
        ([[1, 0, 0, 0], [True, 0, 0, 0]], 1),
        ([[1, 0, 0, 0], [0, 1, 0, None]], 1),
        ([1, 0, 0, 0], 0),
        ([[1, 0, 0, 0], [1, 0, 0]], 1),
    ],
)
def test_cloud_json_coordinates_are_json_numbers(points, bad):
    with pytest.raises(ValueError, match=f"^cloud point {bad} is not an array of JSON numbers$"):
        PointCloud4.from_json(json.dumps({"points": points}))
    assert PointCloud4.from_json('{"points": [[1, 0, 0, 0], [0.0, -1, 0, 0]]}').points.tolist() == [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]


def test_report_json_shape(sculpture_report):
    payload = json.loads(sculpture_report.to_json())
    assert payload["candidates_tested"] == 384
    assert payload["symmetry_count"] == 8
    assert payload["is_exactly_q8"] is True
    assert payload["chirality"] == "metachiral"
    assert len(payload["symmetries"]) == 8
    for matrix in payload["symmetries"]:
        flat = [v for row in matrix for v in row]
        assert all(isinstance(v, int) for v in flat)
        assert sorted(map(abs, flat)).count(1) == 4


def _reference_report_json(report):
    """The report as it was printed from float ``Isometry4.key`` tuples."""
    matrices = sorted(list(s.key()) for s in report.symmetries)
    payload = {
        "candidates_tested": report.candidates_tested,
        "symmetry_count": len(report.symmetries),
        "symmetries": [[m[0:4], m[4:8], m[8:12], m[12:16]] for m in matrices],
        "is_exactly_q8": report.is_exactly_q8,
        "chirality": report.chirality,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def test_report_json_matches_the_key_reference(sculpture_cloud):
    corner = np.array([0.3, -0.55, 0.8])
    cube_orbit = np.stack([corner @ m for m in signed_permutation_matrices(3)])
    clouds = {
        1: unit_cloud(30, seed=5),
        8: sculpture_cloud,
        48: PointCloud4(radial_to_s3(cube_orbit)),
        384: PointCloud4(sixteen_cell().vertices.astype(float)),
    }
    for count, cloud in clouds.items():
        report = symmetry_group(cloud)
        assert len(report.symmetries) == count
        assert report.is_exactly_q8 == (count == 8)
        assert report.to_json() == _reference_report_json(report)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud4(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud4(np.zeros((0, 4)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit sphere"):
            PointCloud4(np.array([[bad, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: PointCloud4(np.eye(3)), r"expected an \(n, 4\) array"),
        (lambda: PointCloud4(np.eye(4)[0]), r"expected an \(n, 4\) array"),
        (lambda: seed_asymmetry_check(np.eye(4)), r"expected an \(n, 3\) array"),
        (lambda: seed_asymmetry_check(np.eye(3)[0]), r"expected an \(n, 3\) array"),
    ],
    ids=["cloud-of-3-vectors", "cloud-of-one-vector", "seed-of-4-vectors", "seed-of-one-vector"],
)
def test_shape_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_the_guard_and_the_search_share_one_index(monkeypatch, sculpture_cloud, demo_mesh):
    """Each entry point builds one index, the guard's at 2 tol, and matches on it."""
    built = []

    class Counting(symmetry._Index):
        def __init__(self, target, r):
            built.append((len(target), r))
            super().__init__(target, r)

    monkeypatch.setattr(symmetry, "_Index", Counting)
    tol = 1e-6
    assert symmetry_group(sculpture_cloud, tol).is_exactly_q8
    assert built == [(len(sculpture_cloud), 2 * tol)]
    built.clear()
    assert seed_asymmetry_check(demo_mesh.vertices, tol)
    assert built == [(demo_mesh.n_vertices, 2 * tol)]
    built.clear()
    assert match_point_sets(demo_mesh.vertices[::-1], demo_mesh.vertices, tol)
    assert built == [(demo_mesh.n_vertices, 2 * tol)]


def test_min_pairwise_distance():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    assert min_pairwise_distance(_Index(pts, 2.0)) == pytest.approx(1.0)
    assert min_pairwise_distance(_Index(pts[:1], 2.0)) == np.inf
    # the closest pair lies beyond the search radius
    assert min_pairwise_distance(_Index(pts, 0.5)) == np.inf


def test_match_point_sets_requires_bijection():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert match_point_sets(src, src[::-1], 1e-9)
    assert not match_point_sets(src, np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0]]), 1e-9)
    assert not match_point_sets(src[:1], src, 1e-9)
    # both sources hit the first target: two hits, but not a bijection
    assert not match_point_sets(np.zeros((2, 3)), src, 1e-9)


def test_match_point_sets_guards_its_target():
    tol = 1e-6
    target = np.array([[0.0, 0.0, 0.0], [1.5 * tol, 0.0, 0.0]])
    with pytest.raises(ValueError, match="ill-posed"):
        match_point_sets(target, target, tol)


def _generated(gens):
    """Every product of the integer matrices in ``gens``, the identity first."""
    group = {np.eye(4, dtype=np.int64).tobytes(): np.eye(4, dtype=np.int64)}
    frontier = list(group.values())
    while frontier:
        products = [a @ g for a in frontier for g in gens]
        frontier = [p for p in products if p.tobytes() not in group]
        group.update((p.tobytes(), p) for p in frontier)
    return np.stack(list(group.values()))


def _mirror_conjugator_rule(survivors):
    """Reference: chiral when some orientation-preserving candidate g
    conjugates the group onto the mirror image's group, {g s g^T} =
    {MIRROR_W s MIRROR_W}."""
    if not all(s.is_orientation_preserving for s in survivors):
        return "achiral"
    group = [np.rint(s.m).astype(np.int64) for s in survivors]
    mirror_group = {matrix_key(MIRROR_W @ s @ MIRROR_W) for s in group}
    for candidate in hyperoctahedral_candidates():
        g = np.rint(candidate.m).astype(np.int64)
        if not candidate.is_orientation_preserving:
            continue
        if {matrix_key(g @ s @ g.T) for s in group} == mirror_group:
            return "chiral"
    return "metachiral"


def test_normalizer_rule_agrees_with_the_mirror_conjugator_rule():
    """Each cloud is the orbit of one or two random unit points under the
    subgroup generated by one or two random candidates."""
    gen = np.random.default_rng(12)
    matrices, _ = candidate_stack()
    verdicts = []
    for _ in range(60):
        group = _generated(matrices[gen.choice(384, size=gen.integers(1, 3))].astype(np.int64))
        points = gen.normal(size=(gen.integers(1, 3), 4))
        cloud = PointCloud4(np.concatenate(points / np.linalg.norm(points, axis=1, keepdims=True) @ group))
        survivors = surviving_candidates(cloud)
        verdicts.append(classify_chirality(cloud, survivors=survivors))
        assert verdicts[-1] == _mirror_conjugator_rule(survivors)
    assert set(verdicts) == {"achiral", "chiral", "metachiral"}, sorted(verdicts)


@pytest.fixture(
    scope="module",
    params=[
        ((math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0), 1, 24, 144),
        ((0.5, 0.5, 0.5, 0.5), 2, 33, 216),
    ],
    ids=["eighth-turn", "sixth-turn"],
)
def turned_seed(request):
    """The demo seed joined with its images under right multiplication by
    a, ..., a^n, each moved back into cell 1: a union of orbits of a unit
    quaternion a that normalizes Q8 but is not in it.  Cases: a = e^(i pi/4)
    with n = 1, and a = (1+i+j+k)/2 with n = 2.  Also yields the expected
    seed and cloud sizes."""
    coords, powers, n_vertices, n_cloud = request.param
    demo = demo_seed()
    a = right_mul_matrix(UnitQuaternion(*coords))
    q8 = np.stack([q8_right_matrix_int(g) for g in Q8_ELEMENTS])
    vertices, triangles, turned = list(demo.vertices), [demo.triangles], radial_to_s3(demo.vertices)
    for _ in range(powers):
        turned = turned @ a.m
        moved = np.einsum("nb,gbc->ngc", turned, q8)
        in_cell_1 = moved[np.arange(len(turned)), np.argmax(moved[:, :, 0], axis=1)]
        index = []
        for p in in_cell_1[:, 1:] / in_cell_1[:, :1]:
            gaps = np.linalg.norm(np.array(vertices) - p, axis=1)
            if gaps.min() <= 1e-9:
                index.append(int(np.argmin(gaps)))
            else:
                index.append(len(vertices))
                vertices.append(p)
        triangles.append(np.array(index)[demo.triangles])
    return Mesh(np.array(vertices), np.concatenate(triangles)), a, n_vertices, n_cloud


def test_a_symmetry_outside_the_candidates_goes_unseen(turned_seed):
    """The 384 candidates are not all of O(4): this seed passes both seed
    audits, yet right multiplication by a, which is no candidate, also
    preserves its cloud, so the cloud's group is larger than Q8."""
    seed, a, n_vertices, n_cloud = turned_seed
    assert seed.n_vertices == n_vertices
    assert seed_asymmetry_check(seed.vertices)
    assert face_contact_check(seed)["passed"]
    cloud = PointCloud4(orbit_cloud(seed))
    assert len(cloud) == n_cloud
    assert invariant_under(cloud, a)
    matrices, _ = candidate_stack()
    assert not np.any(np.all(matrices == a.m, axis=(1, 2)))


#: The ten orientation-reversing cube maps of order 2.
_CUBE_REFLECTIONS = [
    r for r in signed_permutation_matrices(3) if np.linalg.det(r) < 0 and np.array_equal(r @ r, np.eye(3))
]


@pytest.mark.parametrize("r", _CUBE_REFLECTIONS)
def test_a_mirror_symmetric_seed_can_still_give_exactly_q8(r):
    """The 48-map seed audit is not necessary for the certificate: a seed
    A u A r with a cube reflection r of order 2 fails it, yet the orbit
    cloud's survivors are exactly the eight right multiplications."""
    points = np.random.default_rng(5).uniform(-0.9, 0.9, (10, 3))
    seed = Mesh(np.concatenate([points, points @ r]), np.array([[0, 1, 2]]))
    assert not seed_asymmetry_check(seed.vertices)
    report = symmetry_group(PointCloud4(orbit_cloud(seed)))
    assert len(report.symmetries) == 8
    assert report.is_exactly_q8
    assert report.chirality == "metachiral"


def test_the_double_cosets_of_the_right_multiplications():
    """30 double cosets, 24 of 8 and 6 of 32; each candidate's label is the
    least index of its double coset, computed here from all 64 products."""
    matrices = candidate_stack()[0].astype(np.int64)
    first, generators = q8_double_cosets()
    q8 = np.stack([q8_right_matrix_int(g) for g in Q8_ELEMENTS])
    index = {m.tobytes(): k for k, m in enumerate(matrices)}
    for c, m in enumerate(matrices):
        coset = {index[(r1 @ m @ r2).tobytes()] for r1 in q8 for r2 in q8}
        assert first[c] == min(coset)
    reps = np.flatnonzero(first == np.arange(384))
    assert len(reps) == 30
    assert sorted(np.bincount(first)[reps].tolist()) == [8] * 24 + [32] * 6
    assert sorted(matrices[first == 0].tolist()) == sorted(q8.tolist())
    assert matrices[generators].tolist() == [q8_right_matrix_int(I).tolist(), q8_right_matrix_int(J).tolist()]
    assert not first.flags.writeable and not generators.flags.writeable


def _one_match_per_candidate(points, tol):
    """Reference: the indices of the candidates that match_point_sets
    accepts, each matched on its own."""
    return [k for k, m in enumerate(candidate_stack()[0]) if match_point_sets(points @ m, points, tol)]


def _search(points, tol):
    return [c.key() for c in surviving_candidates(PointCloud4(points), tol)]


def _agrees_with_the_reference(points, tol=1e-6):
    candidates = hyperoctahedral_candidates()
    assert _search(points, tol) == [candidates[k].key() for k in _one_match_per_candidate(points, tol)]


def _jittered_q8_orbits(seed):
    """The Q8-orbits of one to five random unit points, each point then
    moved by about tol / 24 at the default tolerance: i and j miss by
    0.07 to 0.11 tol, so the search runs modulo Q8 with a miss above 0."""
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(gen.integers(1, 6), 4))
    q8 = np.stack([q8_right_matrix_int(g) for g in Q8_ELEMENTS])
    points = np.concatenate(base / np.linalg.norm(base, axis=1, keepdims=True) @ q8)
    points += gen.normal(scale=1e-6 / 48, size=points.shape)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _noisy_cloud():
    """The cloud of test_detection_tolerates_bounded_noise."""
    gen = np.random.default_rng(99)
    points = orbit_cloud(Mesh(gen.uniform(-0.9, 0.9, size=(20, 3)), np.array([[0, 1, 2]])))
    points = points + gen.normal(scale=3e-9, size=points.shape)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _undecided_cloud(tol=1e-6):
    """The 384 images of a random unit point p, with the Q8-orbit of p moved
    by 0.97 tol and every point by about tol / 50.  R(Q8) misses by about
    tol / 20, and every candidate outside it by about tol: inside the band
    where a representative decides nothing, so each is matched on its own,
    and some survive while others in their double coset do not."""
    gen = np.random.default_rng(3)
    matrices = candidate_stack()[0]
    p = gen.normal(size=4)
    p /= np.linalg.norm(p)
    shift = gen.normal(size=4)
    shift -= (shift @ p) * p
    moved = p + 0.97 * tol * shift / np.linalg.norm(shift)
    in_q8 = q8_double_cosets()[0] == 0
    points = np.concatenate([p @ matrices[~in_q8], moved / np.linalg.norm(moved) @ matrices[in_q8]])
    points += gen.normal(scale=tol / 100, size=points.shape)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _cloud(vertices):
    """The orbit cloud of a seed with these vertices."""
    return orbit_cloud(Mesh(vertices, np.array([[0, 1, 2]])))


def _cube_orbit(seed):
    """The orbit cloud of the 48 images of one point, 0.1 <= a < b < c <= 0.8
    apart by at least 0.1, under the cube's signed permutations: all 384
    candidates survive."""
    gen = np.random.default_rng(seed)
    point = np.array([gen.uniform(0.10, 0.25), gen.uniform(0.35, 0.50), gen.uniform(0.60, 0.80)])
    return _cloud(point @ signed_permutation_matrices(3))


def _random_seed_cloud(seed):
    """The orbit cloud of 24 random points: exactly Q8."""
    return _cloud(np.random.default_rng(seed).uniform(-0.9, 0.9, size=(24, 3)))


def _height_field_cloud(seed):
    """The orbit cloud of a 5 x 5 sampled height field with seeded noise:
    exactly Q8."""
    x, y = np.meshgrid(np.linspace(-0.9, 0.9, 5), np.linspace(-0.9, 0.9, 5), indexing="ij")
    z = 0.5 * np.sin(3 * x) * np.cos(2 * y) + np.random.default_rng(seed).uniform(-0.05, 0.05, size=x.shape)
    return _cloud(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1))


_MIRROR_POINTS = np.random.default_rng(5).uniform(-0.9, 0.9, (10, 3))

_CLOUDS = {
    "demo": lambda: orbit_cloud(demo_seed()),
    **{f"cube-orbit-{seed}": (lambda seed=seed: _cube_orbit(seed)) for seed in (1, 2, 3)},
    **{f"random-seed-{seed}": (lambda seed=seed: _random_seed_cloud(seed)) for seed in (1, 2, 3)},
    **{f"height-field-{seed}": (lambda seed=seed: _height_field_cloud(seed)) for seed in (1, 2, 3)},
    "sixteen-cell": lambda: sixteen_cell().vertices.astype(float),
    "block": lambda: orbit_cloud(block_seed(standard_block())),
    **{
        f"mirror-{k}": (
            lambda r=r: orbit_cloud(Mesh(np.concatenate([_MIRROR_POINTS, _MIRROR_POINTS @ r]), np.array([[0, 1, 2]])))
        )
        for k, r in enumerate(_CUBE_REFLECTIONS)
    },
    "noisy": lambda: _noisy_cloud(),
    **{f"jittered-orbits-{seed}": (lambda seed=seed: _jittered_q8_orbits(seed)) for seed in range(8)},
    "undecided": lambda: _undecided_cloud(),
}


@pytest.mark.parametrize(
    "name, tol",
    [(name, 1e-6) for name in _CLOUDS]
    # where i and j miss by more than tol / 4: each candidate is its own coset
    + [(name, 1e-10) for name in _CLOUDS if name.startswith(("noisy", "jittered", "undecided"))],
)
def test_the_search_modulo_q8_agrees_with_one_match_per_candidate(name, tol):
    _agrees_with_the_reference(_CLOUDS[name](), tol)


def test_the_search_modulo_q8_agrees_on_the_turned_seeds(turned_seed):
    _agrees_with_the_reference(orbit_cloud(turned_seed[0]))


def _count_full_matches(monkeypatch):
    """A list that gets, per call of ``_Index.misses``, the number of point
    sets it matches in full."""
    counted = []
    misses = symmetry._Index.misses

    def counting(index, images, r):
        counted.append(len(images))
        return misses(index, images, r)

    monkeypatch.setattr(symmetry._Index, "misses", counting)
    return counted


@pytest.mark.parametrize(
    "name, survivors, full_matches, one_per_candidate",
    [("cube-orbit-1", 384, 31, 384), ("random-seed-1", 8, 2, 8), ("height-field-1", 8, 3, 16), ("demo", 8, 2, 8)],
)
def test_one_full_match_per_double_coset(name, survivors, full_matches, one_per_candidate, monkeypatch):
    """Two full matches certify R(Q8); then each of the 29 other double
    cosets needs at most one, where matching each candidate that passes the
    point-0 test on its own needs one per such candidate."""
    points = _CLOUDS[name]()
    counted = _count_full_matches(monkeypatch)
    assert len(surviving_candidates(PointCloud4(points))) == survivors
    assert sum(counted) == full_matches
    counted.clear()
    assert len(symmetry._carrying(points, candidate_stack()[0], 1e-6)) == survivors
    assert sum(counted) == one_per_candidate


def _turned_off_q8(seed):
    """The random-seed cloud under a random rotation of R^4: only the
    identity and -1 among the candidates keep it."""
    turn = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
    return _random_seed_cloud(seed) @ turn


def _orbit_and_strays(seed):
    """The Q8-orbit of a random unit point, first, then 20 random unit
    points: i and j carry point 0 onto a point, but the cloud not onto
    itself."""
    gen = np.random.default_rng(seed)
    points = gen.normal(size=(21, 4))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    q8 = np.stack([q8_right_matrix_int(g) for g in Q8_ELEMENTS])
    return np.concatenate([points[0] @ q8, points[1:]])


@pytest.mark.parametrize("points", [_turned_off_q8(1), _turned_off_q8(2), _orbit_and_strays(1), _orbit_and_strays(2)])
def test_a_cloud_without_the_right_multiplications_costs_no_extra_full_match(points, monkeypatch):
    """Where i or j is no symmetry, the search with the double cosets makes
    exactly the full matches of the search without them."""
    counted = _count_full_matches(monkeypatch)
    plain = symmetry._carrying(points, candidate_stack()[0], 1e-6)
    without = sum(counted)
    counted.clear()
    modulo = symmetry._carrying(points, candidate_stack()[0], 1e-6, q8_double_cosets())
    assert sum(counted) == without
    assert modulo.tolist() == plain.tolist() == _one_match_per_candidate(points, 1e-6)
    assert not set(q8_double_cosets()[1]) & set(plain)


def test_a_representative_in_the_undecided_band_is_matched_member_by_member(monkeypatch):
    points = _undecided_cloud()
    counted = _count_full_matches(monkeypatch)
    survivors = symmetry._carrying(points, candidate_stack()[0], 1e-6, q8_double_cosets())
    assert sum(counted) == 2 + 29 + 376  # the generators, the representatives, then every member but R(Q8)
    first = q8_double_cosets()[0]
    kept = np.zeros(384, dtype=bool)
    kept[survivors] = True
    mixed = [c for c in np.unique(first) if 0 < np.count_nonzero(kept[first == c]) < np.count_nonzero(first == c)]
    assert mixed  # some double coset is split: no representative could have decided it
    assert survivors.tolist() == _one_match_per_candidate(points, 1e-6)
