import json
import subprocess
import sys

import numpy as np
import pytest

from q8sculpt.blocks import contact_transfer_matrix
from q8sculpt.cli import main
from q8sculpt.hypercube import sixteen_cell
from q8sculpt.mesh_pipeline import load_obj, write_obj, Mesh, demo_seed, face_contact_check
from q8sculpt.symmetry import PointCloud4


def run(args):
    return main(args)


def test_generate_and_verify_demo(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run(["generate", "--seed", "demo", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "merged.obj" in names
    assert "cloud.json" in names
    assert "manifest.json" in names
    assert sum(1 for n in names if n.startswith("part_")) == 8

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scale"] >= 1.0
    assert [p["element"] for p in manifest["parts"]] == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    assert manifest["merged"]["feature_stats"]["min_edge"] >= 0.8 - 1e-9

    report_path = tmp_path / "report.json"
    assert run(["verify", "--cloud", str(out / "cloud.json"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["is_exactly_q8"] is True
    assert report["chirality"] == "metachiral"


def test_generate_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--seed", "demo", "--out", str(a)]) == 0
    assert run(["generate", "--seed", "demo", "--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_generate_stl_format(tmp_path):
    out = tmp_path / "stl"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--format", "stl"]) == 0
    merged = (out / "merged.stl").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(merged) == 84 + 50 * manifest["merged"]["triangles"]


def test_verify_sixteen_cell_fails_with_384(tmp_path, capsys):
    cloud_path = tmp_path / "cells.json"
    cloud_path.write_text(PointCloud4(sixteen_cell().vertices.astype(float)).to_json())
    report_path = tmp_path / "report.json"
    assert run(["verify", "--cloud", str(cloud_path), "--out", str(report_path)]) == 1
    assert json.loads(report_path.read_text())["symmetry_count"] == 384
    err = capsys.readouterr().err
    assert err.startswith("q8sculpt: error: verification-failure:")
    assert err.count("\n") == 1


def test_verify_near_miss_cloud_fails(tmp_path, sculpture_cloud, capsys):
    # dropping one point breaks every nontrivial symmetry
    broken = PointCloud4(sculpture_cloud.points[1:])
    cloud_path = tmp_path / "broken.json"
    cloud_path.write_text(broken.to_json())
    report_path = tmp_path / "report.json"
    assert run(["verify", "--cloud", str(cloud_path), "--out", str(report_path)]) == 1
    assert json.loads(report_path.read_text())["symmetry_count"] == 1
    capsys.readouterr()


def test_check_seed_demo_passes(tmp_path):
    report_path = tmp_path / "seed.json"
    assert run(["check-seed", "--seed", "demo", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["asymmetric"] is True
    assert report["passed"] is True
    assert all(a["passed"] for a in report["contact"]["axes"].values())


def test_check_seed_rejects_mirror_symmetric(tmp_path, capsys):
    verts = np.array(
        [[0.4, 0.2, 0.1], [-0.4, 0.2, 0.1], [0.0, -0.5, 0.3], [0.0, 0.1, -0.6]]
    )
    mesh = Mesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(mesh))
    assert run(["check-seed", "--seed", str(seed_path)]) == 1
    assert "seed has nontrivial symmetry" in capsys.readouterr().err


def test_cayley_dot_output(tmp_path):
    out = tmp_path / "graph.dot"
    assert run(["cayley", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 24


def test_stats_output(tmp_path, capsys):
    assert run(["stats", "--seed", "demo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"min_edge", "max_edge", "ratio"}


def test_missing_file_is_exit_2(capsys):
    assert run(["verify", "--cloud", "/nonexistent/cloud.json"]) == 2
    assert "q8sculpt: error: input-error:" in capsys.readouterr().err


def test_tolerance_at_float_resolution_is_exit_2(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run(["generate", "--seed", "demo", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--cloud", str(out / "cloud.json"), "--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("q8sculpt: error: input-error:") and "float resolution" in err
    assert run(["check-seed", "--seed", "demo", "--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("q8sculpt: error: input-error:") and "float resolution" in err


def test_close_contact_points_are_exit_2(tmp_path, capsys):
    """Two +x contacts 1.5 tol apart (and their -x images) leave the contact
    matching ambiguous: an input error, not a verdict."""
    demo = demo_seed()
    extra = demo.vertices[3] + np.array([0.0, 1.5e-6, 0.0])
    verts = np.concatenate([demo.vertices, [extra, extra @ contact_transfer_matrix(0)]])
    seed = Mesh(verts, demo.triangles)
    with pytest.raises(ValueError, match="ill-posed"):
        face_contact_check(seed, 1e-6)
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(seed))
    assert run(["check-seed", "--seed", str(seed_path), "--tol", "1e-6"]) == 2
    assert "input-error" in capsys.readouterr().err


def test_malformed_obj_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nf 1 2 9\n")
    assert run(["stats", "--seed", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_vertex_at_pole_is_exit_3(tmp_path, capsys):
    corner = Mesh(
        np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
        np.array([[0, 1, 2]]),
    )
    seed_path = tmp_path / "corner.obj"
    seed_path.write_bytes(write_obj(corner))
    assert run(["generate", "--seed", str(seed_path), "--out", str(tmp_path / "o")]) == 3
    assert "pipeline-error" in capsys.readouterr().err


def test_pole_flag_parsing(tmp_path, capsys):
    out = tmp_path / "p"
    rc = run(
        ["generate", "--seed", "demo", "--out", str(out), "--pole", "2,2,2,2"]
    )
    assert rc == 0
    assert "pole normalized" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pole"] == [0.5, 0.5, 0.5, 0.5]
    assert run(["generate", "--seed", "demo", "--out", str(out), "--pole", "1,0,0"]) == 2


def test_explicit_scale_skips_min_feature(tmp_path):
    out = tmp_path / "s"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--scale", "2.0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scale"] == 2.0
    assert manifest["min_feature"] is None


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "q8sculpt", "cayley"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("digraph")


def test_obj_seed_round_trips_through_cli(tmp_path, demo_mesh):
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(demo_mesh))
    out = tmp_path / "from_file"
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 0
    reloaded = load_obj(seed_path.read_bytes())
    assert reloaded.n_vertices == demo_mesh.n_vertices
