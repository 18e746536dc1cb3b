import json
import struct

import numpy as np
import pytest

from q8sculpt.hypercube import cells_of_points, contact_transfer_matrix
from q8sculpt.mesh_pipeline import (
    FLOAT32_MAX,
    AxisContact,
    ContactReport,
    Mesh,
    MeshFormatError,
    demo_seed,
    face_contact_check,
    feature_stats,
    generate_sculpture,
    load_obj,
    merge_meshes,
    orbit_cloud,
    scale_for_min_feature,
    transform_mesh,
    unprojected_part_points,
    write_obj,
    write_stl,
)
from q8sculpt.projection import PoleProximityError, default_pole, radial_to_s3, stereo_project, stereo_unproject
from q8sculpt.quat import I, ONE, Q8_ELEMENTS, q8_mul, right_mul_matrix
from q8sculpt.symmetry import PointCloud4, _dedup, _pairs_within, _well_posed_tol, seed_asymmetry_check

TETRA_OBJ = """\
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
f 1 2 3
f 1 2 4
f 1 3 4
f 2 3 4
"""


def random_mesh(seed, n=30):
    gen = np.random.default_rng(seed)
    verts = gen.uniform(-0.95, 0.95, size=(n, 3))
    tris = []
    while len(tris) < n:
        tri = tuple(gen.choice(n, size=3, replace=False))
        tris.append(tri)
    return Mesh(verts, np.array(tris))


def test_load_tetrahedron():
    mesh = load_obj(TETRA_OBJ)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 4


def test_quad_is_fan_triangulated():
    mesh = load_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    assert mesh.n_triangles == 2
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_load_ignores_other_records():
    mesh = load_obj("# comment\no thing\nvn 0 0 1\nvt 0 0\n" + TETRA_OBJ)
    assert mesh.n_vertices == 4


def test_load_errors_carry_line_numbers():
    with pytest.raises(MeshFormatError, match="line 2"):
        load_obj("v 0 0 0\nv 1 nope 0\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        load_obj("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_obj("f 1 2\nv 0 0 0\n")
    with pytest.raises(MeshFormatError, match="positive"):
        load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 2 3\n")


def test_obj_round_trip():
    for seed in (1, 2, 3):
        mesh = random_mesh(seed)
        again = load_obj(write_obj(mesh))
        assert np.max(np.abs(again.vertices - mesh.vertices)) <= 1e-7
        assert np.array_equal(again.triangles, mesh.triangles)


def test_writers_reject_empty():
    empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        write_obj(empty)
    with pytest.raises(ValueError):
        write_stl(empty)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(np.array([[0.0, 0.0, np.nan]]), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))


def test_stl_layout():
    mesh = load_obj(TETRA_OBJ)
    data = write_stl(mesh)
    assert len(data) == 84 + 50 * mesh.n_triangles
    count = struct.unpack_from("<I", data, 80)[0]
    assert count == mesh.n_triangles
    # normals are unit for non-degenerate triangles
    for t in range(count):
        normal = struct.unpack_from("<3f", data, 84 + 50 * t)
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-6


def reference_write_obj(mesh, comments=()):
    """Row-by-row OBJ writer, kept as the byte-level reference."""
    lines = [f"# {c}" for c in comments]
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x):.9g} {float(y):.9g} {float(z):.9g}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_write_stl(mesh):
    """Triangle-by-triangle STL writer, kept as the byte-level reference."""
    out = bytearray(b"q8sculpt binary STL".ljust(80, b"\0"))
    out += struct.pack("<I", mesh.n_triangles)
    for a, b, c in mesh.triangles:
        va, vb, vc = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
        normal = np.cross(vb - va, vc - va)
        length = float(np.linalg.norm(normal))
        if length > 0.0:
            normal = normal / length
        out += struct.pack("<3f", *normal)
        out += struct.pack("<3f", *va)
        out += struct.pack("<3f", *vb)
        out += struct.pack("<3f", *vc)
        out += struct.pack("<H", 0)
    return bytes(out)


def wide_range_mesh(seed, n):
    """n triangles over n vertices with magnitudes from 1e-6 to 1e30; an
    eighth have coincident vertices and an eighth collinear ones."""
    gen = np.random.default_rng(seed)
    verts = gen.uniform(-1, 1, size=(n, 3)) * 10.0 ** gen.uniform(-6, 30, size=(n, 1))
    verts[gen.integers(n, size=n // 10)] = 0.0
    tris = np.stack([gen.permutation(n)[:3] for _ in range(n)])
    k = n // 8
    verts[tris[:k, 1]] = verts[tris[:k, 0]]
    verts[tris[k : 2 * k, 2]] = 2 * verts[tris[k : 2 * k, 1]] - verts[tris[k : 2 * k, 0]]
    return Mesh(verts, tris)


def test_writers_match_reference_on_random_meshes():
    for seed, n in ((1, 5000), (2, 9000)):  # both span more than one STL block
        mesh = wide_range_mesh(seed, n)
        assert write_stl(mesh) == reference_write_stl(mesh)
        assert write_obj(mesh, ["a", "b"]) == reference_write_obj(mesh, ["a", "b"])


def test_zero_area_triangles_keep_the_raw_cross_product():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    )
    # collinear one way, collinear both ways (a -0 component), coincident
    mesh = Mesh(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    data = write_stl(mesh)
    assert data == reference_write_stl(mesh)
    for t, (a, b, c) in enumerate(mesh.triangles):
        normal = np.array(struct.unpack_from("<3f", data, 84 + 50 * t))
        raw = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        assert np.array_equal(normal, np.zeros(3))
        assert np.array_equal(np.signbit(normal), np.signbit(raw))
    assert np.signbit(struct.unpack_from("<3f", data, 84 + 50)).any()


def test_writers_match_reference_on_the_demo_sculpture(demo_mesh):
    bundle = generate_sculpture(demo_mesh, default_pole(), 7.25)
    for mesh in [*bundle.parts.values(), bundle.merged]:
        assert write_stl(mesh) == reference_write_stl(mesh)
        assert write_obj(mesh, ["demo"]) == reference_write_obj(mesh, ["demo"])


def test_stl_refuses_coordinates_beyond_float32():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = Mesh(verts * FLOAT32_MAX, np.array([[0, 1, 2]]))
    assert write_stl(mesh) == reference_write_stl(mesh)  # the largest float32 still fits
    with pytest.raises(ValueError, match="float32"):
        write_stl(Mesh(verts * 1e39, np.array([[0, 1, 2]])))


def test_generate_refuses_scale_beyond_float32(demo_mesh):
    for scale in (1e39, 1e300, float("inf")):
        with pytest.raises(ValueError, match="float32"):
            generate_sculpture(demo_mesh, default_pole(), scale)


def test_cloud_json_matches_per_coordinate_form(rng):
    points = rng.normal(size=(500, 4))
    cloud = PointCloud4(points / np.linalg.norm(points, axis=1, keepdims=True))
    old = json.dumps({"points": [[float(c) for c in p] for p in cloud.points]})
    assert cloud.to_json() == old


def test_transform_mesh_composition():
    pole = default_pole()
    seed = Mesh(np.zeros((1, 3)), np.zeros((0, 3), dtype=np.int64))
    out_one = transform_mesh(seed, ONE, pole)
    assert np.allclose(out_one.vertices[0], stereo_project(np.array([1.0, 0, 0, 0]), pole))
    out_i = transform_mesh(seed, I, pole)
    assert np.allclose(out_i.vertices[0], stereo_project(np.array([0.0, 1, 0, 0]), pole))


def test_transform_preserves_triangles(random_seed_mesh):
    pole = default_pole()
    for g in Q8_ELEMENTS:
        out = transform_mesh(random_seed_mesh, g, pole)
        assert np.array_equal(out.triangles, random_seed_mesh.triangles)


def test_transform_rejects_out_of_domain():
    pole = default_pole()
    bad = Mesh(np.array([[1.5, 0.0, 0.0]]), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="outside the cube"):
        transform_mesh(bad, ONE, pole)


def test_vertex_at_pole_is_reported():
    pole = default_pole()
    corner = Mesh(np.array([[1.0, 1.0, 1.0]]), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(PoleProximityError, match="vertex 0.*element 1"):
        transform_mesh(corner, ONE, pole)


def test_generate_sculpture_structure(random_seed_mesh):
    bundle = generate_sculpture(random_seed_mesh, default_pole(), 2.0)
    assert list(bundle.parts) == list(Q8_ELEMENTS)
    assert bundle.merged.n_vertices == 8 * random_seed_mesh.n_vertices
    assert bundle.merged.n_triangles == 8 * random_seed_mesh.n_triangles
    with pytest.raises(ValueError):
        generate_sculpture(random_seed_mesh, default_pole(), 0.0)


def test_generate_is_deterministic(random_seed_mesh):
    pole = default_pole()
    first = generate_sculpture(random_seed_mesh, pole, 1.5)
    second = generate_sculpture(random_seed_mesh, pole, 1.5)
    assert write_obj(first.merged) == write_obj(second.merged)
    for g in Q8_ELEMENTS:
        assert write_obj(first.parts[g]) == write_obj(second.parts[g])


def test_pipeline_equivariance(random_seed_mesh):
    """Transforming by g then moving the sphere image by h equals the single
    transform by g*h."""
    pole = default_pole()
    verts = random_seed_mesh.vertices[:100]
    seed = Mesh(verts, np.zeros((0, 3), dtype=np.int64))
    for g in Q8_ELEMENTS:
        projected = transform_mesh(seed, g, pole).vertices
        on_sphere = stereo_unproject(projected, pole)
        for h in Q8_ELEMENTS:
            moved = on_sphere @ right_mul_matrix(h).m
            direct = unprojected_part_points(seed, q8_mul(g, h))
            assert np.max(np.linalg.norm(moved - direct, axis=1)) <= 1e-9


def test_parts_live_in_their_own_cells(random_seed_mesh):
    for g in Q8_ELEMENTS:
        labels = cells_of_points(unprojected_part_points(random_seed_mesh, g))
        assert all(label == g for label in labels)


def test_feature_stats_tetrahedron():
    side = np.sqrt(2.0)
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / side
    mesh = Mesh(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]))
    stats = feature_stats(mesh)
    assert stats["min_edge"] == pytest.approx(stats["max_edge"])
    assert stats["ratio"] == pytest.approx(1.0)


def test_feature_stats_refuses_zero_length_edges(demo_mesh):
    coincident = Mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="triangle 0 has a zero-length edge"):
        feature_stats(coincident)
    with pytest.raises(ValueError, match="zero-length edge"):
        feature_stats(generate_sculpture(demo_mesh, default_pole(), 1e-300).merged)  # underflows


def test_feature_stats_scale_linearity(random_seed_mesh):
    stats = feature_stats(random_seed_mesh)
    scaled = feature_stats(random_seed_mesh.scaled(3.5))
    assert scaled["min_edge"] == pytest.approx(3.5 * stats["min_edge"], rel=1e-12)
    assert scaled["max_edge"] == pytest.approx(3.5 * stats["max_edge"], rel=1e-12)


def test_parts_near_pole_have_larger_features(random_seed_mesh):
    """The four cells touching the pole vertex project larger than their
    antipodes."""
    bundle = generate_sculpture(random_seed_mesh, default_pole(), 1.0)
    for g in Q8_ELEMENTS:
        if g.sign > 0:
            near = feature_stats(bundle.parts[g])["min_edge"]
            far = feature_stats(bundle.parts[-g])["min_edge"]
            assert near > far


def test_scale_for_min_feature(random_seed_mesh):
    pole = default_pole()
    scale = scale_for_min_feature(generate_sculpture(random_seed_mesh, pole, 1.0).merged, 0.8)
    merged = generate_sculpture(random_seed_mesh, pole, scale).merged
    assert feature_stats(merged)["min_edge"] >= 0.8 - 1e-9


def test_demo_seed_is_printable_seed(demo_mesh):
    assert demo_mesh.n_vertices == 15
    assert np.max(np.abs(demo_mesh.vertices)) <= 1.0
    assert seed_asymmetry_check(demo_mesh.vertices)
    report = face_contact_check(demo_mesh)
    assert report.passed


def test_face_contact_fixture_from_gluing_maps(rng):
    """One marker pair per face, placed via the transfer maps, passes; moving
    a marker or dropping a face's contact fails."""
    anchors = rng.uniform(-0.5, 0.5, size=(3, 3))
    verts = [anchors]
    for axis in range(3):
        plus = rng.uniform(-0.8, 0.8, size=(2, 3))
        plus[:, axis] = 1.0
        verts.append(plus)
        verts.append(plus @ contact_transfer_matrix(axis))
    verts = np.concatenate(verts)
    tris = [(0, 1, 2)] + [(0, 3 + 2 * k, 4 + 2 * k) for k in range(6)]
    good = Mesh(verts, np.array(tris))
    assert face_contact_check(good).passed

    # rotate one minus-face marker a quarter turn too few: mirrored-only placement
    bad_verts = verts.copy()
    reflect = np.eye(3)
    reflect[0, 0] = -1.0
    bad_verts[5] = verts[3] @ reflect
    bad_verts[6] = verts[4] @ reflect
    report = face_contact_check(Mesh(bad_verts, np.array(tris)))
    assert not report.axes[0].passed
    assert report.axes[0].unmatched_plus or report.axes[0].unmatched_minus
    assert report.axes[1].passed and report.axes[2].passed

    # empty contact on one face pair
    shrunk = verts.copy()
    shrunk[3:7, 0] *= 0.5  # pull the x-axis markers off the faces
    report = face_contact_check(Mesh(shrunk, np.array(tris)))
    assert not report.axes[0].passed
    assert report.axes[0].plus_count == 0


def test_ambiguous_minus_face_raises_whatever_the_counts():
    """One +X contact against two -X contacts 1.5 tol apart: the -face set is
    guarded even though the counts already differ."""
    verts = np.array([[1.0, 0.2, 0.1], [-1.0, 0.3, 0.3], [-1.0, 0.3, 0.3 + 1.5e-6], [0.0, 0.0, 0.0]])
    seed = Mesh(verts, np.array([(0, 1, 3), (0, 2, 3)]))
    with pytest.raises(ValueError, match="ill-posed"):
        face_contact_check(seed, 1e-6)



def per_axis_face_contact_check(seed, tol):
    """Reference: the contact audit as it was before the seed-wide guard,
    with a greedy dedup of each contact set, a guard on each -face set and a
    count of distinct -face hits."""
    axes = []
    for axis, letter in enumerate("xyz"):
        coords = seed.vertices[:, axis]
        plus = seed.vertices[np.abs(coords - 1.0) <= tol]
        minus = seed.vertices[np.abs(coords + 1.0) <= tol]
        plus, minus = plus[_dedup(plus, tol)], minus[_dedup(minus, tol)]
        if len(plus) == 0 or len(minus) == 0:
            axes.append(AxisContact(letter, False, len(plus), len(minus), (), ()))
            continue
        _well_posed_tol(minus, tol)
        i, j = _pairs_within(plus @ contact_transfer_matrix(axis), minus, tol)
        axes.append(
            AxisContact(
                letter,
                len(plus) == len(minus) == len(i) == len(set(j.tolist())),
                len(plus),
                len(minus),
                tuple(map(tuple, np.delete(plus, i, axis=0).tolist())),
                tuple(map(tuple, np.delete(minus, j, axis=0).tolist())),
            )
        )
    return ContactReport(tuple(axes))


def contact_seed(seed, case, tol):
    """A face-connectable seed (two markers per face, placed by the transfer
    maps), then altered by ``case``: "pass" leaves it, "moved" shifts one
    X marker inwards by a multiple of tol, "extra" adds a third +X marker with
    no -X partner, "empty" pulls the X markers off their faces."""
    gen = np.random.default_rng(seed)
    verts = [gen.uniform(-0.5, 0.5, size=(3, 3))]
    for axis in range(3):
        plus = gen.uniform(-0.8, 0.8, size=(2, 3))
        plus[:, axis] = 1.0
        verts += [plus, plus @ contact_transfer_matrix(axis)]
    verts = np.concatenate(verts)
    tris = [(0, 1, 2)] + [(k % 3, 3 + 2 * k, 4 + 2 * k) for k in range(6)]
    if case == "moved":
        k = int(gen.integers(3, 7))
        step = gen.normal(size=3)
        step[0] = -np.sign(verts[k, 0]) * abs(step[0])
        verts[k] += gen.choice([0.25, 0.75, 1.25, 4.0, 40.0]) * tol * step / np.linalg.norm(step)
    elif case == "extra":
        extra = np.append(1.0, gen.uniform(-0.8, 0.8, size=2))
        verts = np.concatenate([verts, [extra]])
        tris.append((0, 1, len(verts) - 1))
    elif case == "empty":
        verts[3:7, 0] *= 0.5
    return Mesh(verts, np.array(tris))


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("case", ["pass", "moved", "extra", "empty"])
def test_contact_audit_matches_the_per_axis_reference(case, tol):
    """Wherever the seed guard passes, the seed-wide guard gives the same
    report as per-axis dedup, guard and distinct-hit count; elsewhere it
    refuses the seed."""
    x_verdicts = set()
    for s in range(12):
        seed = contact_seed(s, case, tol)
        try:
            _well_posed_tol(seed.vertices, tol)
        except ValueError:
            with pytest.raises(ValueError, match="ill-posed"):
                face_contact_check(seed, tol)
            continue
        report = face_contact_check(seed, tol).to_dict()
        assert report == per_axis_face_contact_check(seed, tol).to_dict()
        x = report["axes"]["x"]
        x_verdicts.add(x["passed"])
        assert report["axes"]["y"]["passed"] and report["axes"]["z"]["passed"]
        if case == "extra":
            assert (x["plus_count"], x["minus_count"], len(x["unmatched_plus"])) == (3, 2, 1)
        elif case == "empty":
            assert (x["plus_count"], x["minus_count"]) == (0, 0)
    assert x_verdicts == {"pass": {True}, "moved": {True, False}}.get(case, {False})


def test_contact_within_tol_of_another_is_ill_posed(demo_mesh):
    """A second +X contact 5e-7 from the first, with its -X image: greedy
    dedup merged each pair and passed the axis with counts 2/2; the seed
    guard refuses the seed instead."""
    extra = demo_mesh.vertices[3] + np.array([0.0, 5e-7, 0.0])
    verts = np.concatenate([demo_mesh.vertices, [extra, extra @ contact_transfer_matrix(0)]])
    seed = Mesh(verts, demo_mesh.triangles)
    x = per_axis_face_contact_check(seed, 1e-6).to_dict()["axes"]["x"]
    assert (x["passed"], x["plus_count"], x["minus_count"]) == (True, 2, 2)
    with pytest.raises(ValueError, match="ill-posed"):
        face_contact_check(seed, 1e-6)

def test_orbit_cloud_counts(random_seed_mesh, demo_mesh):
    # interior seed: nothing coincides
    assert len(orbit_cloud(random_seed_mesh)) == 8 * random_seed_mesh.n_vertices
    # the demo seed's twelve contact points are each shared by two parts
    assert len(orbit_cloud(demo_mesh)) == 8 * demo_mesh.n_vertices - 48


def test_merge_meshes_offsets():
    a = load_obj(TETRA_OBJ)
    merged = merge_meshes([a, a])
    assert merged.n_vertices == 8
    assert merged.triangles[4:].min() == 4
