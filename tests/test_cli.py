import json
import subprocess
import sys

import numpy as np
import pytest

from q8sculpt import mesh_pipeline
from q8sculpt.cli import main
from q8sculpt.hypercube import contact_transfer_matrix, sixteen_cell
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


def test_ambiguous_minus_face_with_unequal_counts_is_exit_2(tmp_path, capsys):
    """One +x contact against two -x contacts 1.5 tol apart."""
    seed_path = tmp_path / "seed.obj"
    seed_path.write_text("v 1 0.2 0.1\nv -1 0.3 0.3\nv -1 0.3 0.3000015\nv 0 0 0\nf 1 2 4\nf 1 3 4\n")
    assert run(["check-seed", "--seed", str(seed_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("q8sculpt: error: input-error:") and "ill-posed" in err[0]


def test_non_finite_cloud_is_exit_2(tmp_path, capsys):
    for bad in ("NaN", "Infinity"):
        cloud_path = tmp_path / f"{bad}.json"
        cloud_path.write_text(f'{{"points": [[{bad}, 0, 0, 0], [1, 0, 0, 0]]}}')
        assert run(["verify", "--cloud", str(cloud_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("q8sculpt: error: input-error: points must lie")


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "the following arguments are required: command"),
        (["sculpt"], "argument command: invalid choice"),
        (["verify", "--cloud", "x", "--tol=-1"], "argument --tol: '-1' is not a positive number"),
        (["generate", "--out", "d"], "the following arguments are required: --seed"),
    ],
)
def test_usage_errors_are_one_line_exit_2(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"q8sculpt: error: input-error: {reason}")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


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
    capsys.readouterr()
    for pole in ("nan,0,0,0", "inf,0,0,0", "0.5,0.5,-inf,0.5"):
        refused = tmp_path / "nonfinite"
        assert run(["generate", "--seed", "demo", "--out", str(refused), "--pole", pole]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["q8sculpt: error: input-error: pole coordinates must be finite"]
        assert not refused.exists()


def test_explicit_scale_skips_min_feature(tmp_path):
    out = tmp_path / "s"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--scale", "2.0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scale"] == 2.0
    assert manifest["min_feature"] is None


@pytest.mark.parametrize("fmt, scale", [("stl", "1e39"), ("obj", "1e300"), ("stl", "1e-44")])
def test_scale_beyond_float32_is_exit_2(tmp_path, capsys, fmt, scale):
    out = tmp_path / "big"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--format", fmt, "--scale", scale]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("q8sculpt: error: input-error: scale")
    assert not out.exists()


@pytest.mark.parametrize("fmt, scale", [("stl", "1e-36"), ("obj", "1e-44")])
def test_tiny_scale_within_the_format_is_written(tmp_path, fmt, scale):
    # the demo's shortest edge at scale 1 is about 0.19: at 1e-36 it is still
    # a normal float32; OBJ keeps float64 digits, so 1e-44 is fine there
    out = tmp_path / "tiny"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--format", fmt, "--scale", scale]) == 0
    stats = json.loads((out / "manifest.json").read_text())["merged"]["feature_stats"]
    assert stats["min_edge"] > 0


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in JSON")


def test_manifest_values_are_always_finite(tmp_path):
    for fmt in ("obj", "stl"):
        for scale in ("1e-300", "1", "1e30", "1e38", "1e39", "1e300"):
            out = tmp_path / f"{fmt}-{scale}"
            rc = run(["generate", "--seed", "demo", "--out", str(out), "--format", fmt, "--scale", scale])
            if rc == 0:
                json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
            else:
                assert rc == 2 and not (out / "manifest.json").exists()


def test_zero_length_edge_is_exit_2(tmp_path, capsys):
    seed_path = tmp_path / "coincident.obj"
    seed_path.write_text("v 0 0 0\nv 0.5 0 0\nv 0.5 0 0\nf 1 2 3\n")
    for scale in ([], ["--scale", "2"]):
        out = tmp_path / f"out{len(scale)}"
        assert run(["generate", "--seed", str(seed_path), "--out", str(out), *scale]) == 2
        assert not out.exists()
    assert run(["stats", "--seed", str(seed_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["q8sculpt: error: input-error: triangle 0 has a zero-length edge"] * 3


def test_min_feature_overflow_names_the_flag(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--min-feature", "1e308"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--min-feature" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "v 0.1 0.2 0.3\n"], ids=["no-vertex", "one-vertex"])
def test_seed_without_triangles_is_exit_2(tmp_path, capsys, text):
    seed_path = tmp_path / "seed.obj"
    seed_path.write_text(text)
    for scale in ([], ["--scale", "2"]):
        out = tmp_path / f"out{len(scale)}"
        assert run(["generate", "--seed", str(seed_path), "--out", str(out), *scale]) == 2
        assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["q8sculpt: error: input-error: feature statistics need a non-empty mesh"] * 2


def test_auto_scale_runs_the_eight_legs_once(tmp_path, monkeypatch):
    calls = []
    leg = mesh_pipeline.transform_mesh

    def counted_leg(*args):
        calls.append(args)
        return leg(*args)

    monkeypatch.setattr(mesh_pipeline, "transform_mesh", counted_leg)
    assert run(["generate", "--seed", "demo", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 8


def test_auto_scale_equals_its_explicit_scale(tmp_path):
    auto, explicit = tmp_path / "auto", tmp_path / "explicit"
    assert run(["generate", "--seed", "demo", "--out", str(auto)]) == 0
    manifest = json.loads((auto / "manifest.json").read_text())
    argv = ["generate", "--seed", "demo", "--out", str(explicit), "--scale", repr(manifest["scale"])]
    assert run(argv) == 0
    names = sorted(p.name for p in auto.iterdir())
    assert names == sorted(p.name for p in explicit.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (auto / name).read_bytes() == (explicit / name).read_bytes(), name
    assert manifest.pop("min_feature") == 0.8
    rescaled = json.loads((explicit / "manifest.json").read_text())
    assert rescaled.pop("min_feature") is None
    assert manifest == rescaled


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "q8sculpt", "cayley"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("digraph")


_IMPORT_PROBE = """
import json, sys
import q8sculpt
after_import = sorted(m for m in sys.modules if m.startswith("q8sculpt."))
from q8sculpt.cli import main
out = sys.argv[1]
codes = []
for argv in (
    ["--version"],
    ["check-seed", "--seed", "demo", "--out", out + "/seed.json"],
    ["generate", "--seed", "demo", "--out", out + "/stl", "--format", "stl"],
    ["generate", "--seed", "demo", "--out", out + "/obj"],
    ["verify", "--cloud", out + "/obj/cloud.json", "--out", out + "/report.json"],
):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([after_import, codes, sorted(sys.modules)]))
"""


def test_pipeline_commands_never_load_the_block_calculus(tmp_path):
    """`import q8sculpt` loads no submodule, and only `cayley` (see
    test_console_entry_point) needs `q8sculpt.blocks`."""
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    after_import, codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert after_import == []
    assert codes == [0, 0, 0, 0, 0]
    assert "q8sculpt.symmetry" in loaded
    assert "q8sculpt.blocks" not in loaded


def test_obj_seed_round_trips_through_cli(tmp_path, demo_mesh):
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(demo_mesh))
    out = tmp_path / "from_file"
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 0
    reloaded = load_obj(seed_path.read_bytes())
    assert reloaded.n_vertices == demo_mesh.n_vertices


def test_one_matching_rule_from_seed_to_certificate(tmp_path, capsys):
    """The demo seed with its first -X contact moved 1e-7 in y: the contact
    audit and the certificate agree at the default tolerance and at 1e-8."""
    demo = demo_seed()
    verts = demo.vertices.copy()
    verts[5, 1] += 1e-7
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(Mesh(verts, demo.triangles)))
    out = tmp_path / "bundle"
    cloud = str(out / "cloud.json")
    assert run(["check-seed", "--seed", str(seed_path)]) == 0
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["cloud_points"] == 72
    assert run(["verify", "--cloud", cloud]) == 0
    assert run(["check-seed", "--seed", str(seed_path), "--tol", "1e-8"]) == 1
    assert run(["verify", "--cloud", cloud, "--tol", "1e-8"]) == 1
    assert "verification-failure" in capsys.readouterr().err
