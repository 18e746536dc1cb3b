import json

import numpy as np
import pytest

from q8sculpt.hypercube import hyperoctahedral_candidates, q8_right_isometries, sixteen_cell
from q8sculpt.quat import Isometry4, Q8_ELEMENTS, left_mul_matrix, matrix_key
from q8sculpt.symmetry import (
    MIRROR_W,
    PointCloud4,
    SymmetryReport,
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
    assert invariant_under(cloud, Isometry4.from_matrix(np.eye(4)))


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
        invariant_under(cloud, Isometry4.from_matrix(np.eye(4)), tol=0.8)
    # the guard is strict: at exactly half, two points could share a match
    with pytest.raises(ValueError, match="ill-posed"):
        invariant_under(cloud, Isometry4.from_matrix(np.eye(4)), tol=np.sqrt(2) / 2)
    with pytest.raises(ValueError, match="ill-posed"):
        symmetry_group(cloud, tol=np.sqrt(2) / 2)
    assert len(surviving_candidates(cloud, tol=0.7)) == 384
    with pytest.raises(ValueError):
        invariant_under(cloud, Isometry4.from_matrix(np.eye(4)), tol=-1.0)


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


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud4(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud4(np.zeros((0, 4)))


def test_min_pairwise_distance():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    assert min_pairwise_distance(pts, 2.0) == pytest.approx(1.0)
    assert min_pairwise_distance(pts[:1], 2.0) == np.inf
    # the closest pair lies beyond the search radius
    assert min_pairwise_distance(pts, 0.5) == np.inf


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

