import gc
import json
import math
import shlex
import subprocess
import sys
import warnings

import cli_cases
import numpy as np
import pytest

from q8sculpt import mesh_pipeline
from q8sculpt.cli import main
from q8sculpt.hypercube import contact_transfer_matrix, sixteen_cell
from q8sculpt.mesh_pipeline import (
    Mesh,
    demo_seed,
    face_contact_check,
    load_obj,
    merge_meshes,
    orbit_cloud,
    write_obj,
)
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
    assert manifest["merged"]["feature_stats"]["min_edge"] >= 0.8

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
    assert err.startswith("q8sculpt: error: verification-failure: 384 candidate symmetries survive")
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
    assert "tolerance 1e-300 " in err  # the value given, not the guard's radius
    assert run(["check-seed", "--seed", "demo", "--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("q8sculpt: error: input-error:") and "float resolution" in err
    assert "tolerance 1e-300 " in err


def test_check_seed_refuses_an_empty_seed(tmp_path, capsys):
    """All 48 cube maps carry the empty set onto itself: no verdict to give."""
    seed_path = tmp_path / "empty.obj"
    seed_path.write_text("# no vertices\n")
    assert run(["check-seed", "--seed", str(seed_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["q8sculpt: error: input-error: seed has no vertices"]


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


@pytest.mark.parametrize(
    "obj, argv, reason",
    [
        (
            "",
            ["generate", "--seed", "demo", "--out", "{out}", "--pole", "0,0,0,0"],
            "pole cannot be the zero vector",
        ),
        ("v 0 0 0\nv 1 2\n", ["stats", "--seed", "{seed}"], "line 2: vertex record needs three coordinates"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", ["stats", "--seed", "{seed}"], "line 4: bad face index 'x'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n", ["stats", "--seed", "{seed}"], "line 4: face repeats a vertex"),
        ("v 0 0 0\nv 1 0 0\nv 0 nan 0\n", ["stats", "--seed", "{seed}"], "line 3: non-finite vertex coordinate in 'v 0 nan 0'"),
        (
            "v 0 0 0\nv 1 0 0\nv 0 1e999 0\n",
            ["stats", "--seed", "{seed}"],
            "line 3: non-finite vertex coordinate in 'v 0 1e999 0'",
        ),
    ],
    ids=["zero-pole", "short-vertex", "bad-face-index", "repeated-face-vertex", "nan-vertex", "overflowing-vertex"],
)
def test_input_refusals_are_one_line_exit_2(tmp_path, capsys, obj, argv, reason):
    seed_path, out = tmp_path / "seed.obj", tmp_path / "o"
    seed_path.write_text(obj)
    assert run([arg.format(seed=seed_path, out=out) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"q8sculpt: error: input-error: {reason}"]
    assert not out.exists()


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


@pytest.mark.parametrize("scale, merges", [([], 2), (["--scale", "3"], 1)], ids=["min-feature", "given-scale"])
def test_generate_merges_once_per_scale(tmp_path, monkeypatch, scale, merges):
    """The sculpture at scale 1 merges only to measure its shortest edge;
    the scaled one merges once, for the merged file and the manifest."""
    calls = []

    def counting(meshes):
        calls.append(len(meshes))
        return merge_meshes(meshes)

    monkeypatch.setattr(mesh_pipeline, "merge_meshes", counting)
    assert run(["generate", "--seed", "demo", "--out", str(tmp_path / "o"), *scale]) == 0
    assert calls == [8] * merges


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


_RUN_PROBE = """
import gc, json, sys
from q8sculpt.cli import run
code = run(["generate", "--seed", "demo", "--out", sys.argv[1]])
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


def test_process_entry_runs_without_the_collector(tmp_path):
    """`run` switches the cyclic collector off and leaves the heap frozen."""
    result = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE, str(tmp_path / "out")], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    code, enabled, frozen = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert enabled is False
    assert frozen > 0


def test_main_leaves_the_collector_alone(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["generate", "--seed", "demo", "--out", str(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_module_entry_writes_what_main_writes(tmp_path):
    process, in_process = tmp_path / "process", tmp_path / "in-process"
    result = subprocess.run(
        [sys.executable, "-m", "q8sculpt", "generate", "--seed", "demo", "--out", str(process)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert main(["generate", "--seed", "demo", "--out", str(in_process)]) == 0
    names = sorted(p.name for p in process.iterdir())
    assert names == sorted(p.name for p in in_process.iterdir())
    for name in names:
        assert (process / name).read_bytes() == (in_process / name).read_bytes(), name


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


_LOADED_AFTER = """
import json, sys
from q8sculpt.cli import main
for argv in json.loads(sys.argv[1]):
    try:
        main(argv)
    except SystemExit:
        pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "q8sculpt", "dataclasses"))))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    """`--version`, `--help` and a usage error start without numpy or any
    working module; `verify` loads the symmetry search and nothing of the
    mesh pipeline or the projection.  No command loads `dataclasses`, whose
    classes compile generated source at each start."""

    def loaded(*argvs):
        result = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    assert loaded(["--version"], ["--help"], ["verify"]) == ["q8sculpt", "q8sculpt.cli"]
    cloud = tmp_path / "cloud.json"
    cloud.write_text(PointCloud4(sixteen_cell().vertices.astype(float)).to_json())
    after_verify = loaded(["verify", "--cloud", str(cloud), "--out", str(tmp_path / "report.json")])
    assert "numpy" in after_verify
    assert [m for m in after_verify if m.startswith("q8sculpt.")] == [
        "q8sculpt.cli",
        "q8sculpt.hypercube",
        "q8sculpt.quat",
        "q8sculpt.symmetry",
    ]
    assert "dataclasses" not in after_verify
    after_pipeline = loaded(
        ["check-seed", "--seed", "demo", "--out", str(tmp_path / "seed.json")],
        ["generate", "--seed", "demo", "--out", str(tmp_path / "obj")],
        ["generate", "--seed", "demo", "--out", str(tmp_path / "stl"), "--format", "stl"],
    )
    assert "q8sculpt.mesh_pipeline" in after_pipeline and "dataclasses" not in after_pipeline
    after_cayley = loaded(["cayley", "--out", str(tmp_path / "q8.dot")])
    assert "q8sculpt.blocks" in after_cayley and "dataclasses" not in after_cayley


@pytest.mark.parametrize("fmt", ["obj", "stl"])
def test_generate_encodes_the_sculpture_once(tmp_path, monkeypatch, fmt):
    """The part files are cut from the one encoding of the merged mesh."""
    calls = []

    def counting(name):
        writer = getattr(mesh_pipeline, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return writer(*args, **kwargs)

        return counted

    for name in ("write_obj", "write_stl"):
        monkeypatch.setattr(mesh_pipeline, name, counting(name))
    assert run(["generate", "--seed", "demo", "--out", str(tmp_path / "o"), "--format", fmt]) == 0
    assert calls == [f"write_{fmt}"]


@pytest.mark.parametrize("points", ['[{"x": 1}]', '[["1", "0", "0", "0"]]', "[[true, 0, 0, 0]]"])
def test_a_cloud_coordinate_that_is_not_a_number_is_exit_2(tmp_path, capsys, points):
    cloud = tmp_path / "cloud.json"
    cloud.write_text(f'{{"points": {points}}}')
    assert run(["verify", "--cloud", str(cloud)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["q8sculpt: error: input-error: cloud point 0 is not an array of JSON numbers"]


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"points": ' + "[" * 100_000 + "]" * 100_000 + "}", "cloud JSON is nested too deeply to decode"),
        ('{"points": [[1' + "0" * 400 + ", 0, 0, 0]]}", "cloud point 0 has a coordinate beyond the float range"),
        (
            '{"points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1' + "0" * 400 + ", 0]]}",
            "cloud point 2 has a coordinate beyond the float range",
        ),
        ('{"points": []}', "point cloud is empty"),
    ],
    ids=["nested-100000-deep", "401-digit-integer", "401-digit-integer-in-point-2", "no-points"],
)
def test_a_cloud_json_beyond_the_decoder_is_exit_2(tmp_path, capsys, text, reason):
    cloud = tmp_path / "cloud.json"
    cloud.write_text(text)
    assert run(["verify", "--cloud", str(cloud)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"q8sculpt: error: input-error: {reason}"]


def _far_vertex_seed(tmp_path):
    """The demo seed with vertex 0 moved to (1e308, 0, 0)."""
    demo = demo_seed()
    vertices = demo.vertices.copy()
    vertices[0] = [1e308, 0.0, 0.0]
    seed_path = tmp_path / "far.obj"
    seed_path.write_bytes(write_obj(Mesh(vertices, demo.triangles)))
    return str(seed_path)


def test_stats_on_a_vertex_at_1e308_is_exit_2_with_no_infinity(tmp_path, capsys):
    out = tmp_path / "stats.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["stats", "--seed", _far_vertex_seed(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "q8sculpt: error: input-error: triangle 0 has an edge 1e+308 long, 0.354 the shortest: "
        "their ratio lies beyond the float range"
    ]
    assert not out.exists()


def test_check_seed_names_a_vertex_outside_the_cube_before_the_tolerance(tmp_path, capsys):
    assert run(["check-seed", "--seed", _far_vertex_seed(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "q8sculpt: error: input-error: seed vertex 0 lies outside the cube [-1,1]^3 by 1e+308"
    ]


_HALF = [math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0]


@pytest.mark.parametrize(
    "pole, adjustment, direction",
    [
        ("1e308,1e308,0,0", "1.41e+308", _HALF),
        ("1.5e308,1.5e308,0,0", "inf", _HALF),  # the norm itself lies beyond the float range
        ("1e308,1e308,1e308,1e308", "inf", [0.5] * 4),
        ("1e-170,1e-170,0,0", "1", _HALF),
    ],
)
def test_a_pole_whose_square_overflows_or_underflows_is_normalized(tmp_path, capsys, pole, adjustment, direction):
    """Each pole is a valid direction: one warning line, no numpy warning,
    and the pole of the unit direction."""
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["generate", "--seed", "demo", "--out", str(out), "--pole", pole]) == 0
    assert capsys.readouterr().err.splitlines() == [f"q8sculpt: warning: pole normalized, adjustment {adjustment}"]
    normalized = json.loads((out / "manifest.json").read_text())["pole"]
    assert normalized == pytest.approx(direction, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cloud", "{demo_cloud}"],
        ["verify", "--cloud", "{cells_cloud}"],
        ["check-seed", "--seed", "demo"],
        ["check-seed", "--seed", "{mirror_seed}"],
    ],
    ids=["verify-q8", "verify-384", "check-seed-demo", "check-seed-mirror"],
)
def test_tol_defaults_to_default_tol(tmp_path, capsys, argv):
    """Without `--tol` the command resolves DEFAULT_TOL itself: the same
    exit code, report bytes and diagnostics as with `--tol 1e-6`."""
    paths = {
        "demo_cloud": tmp_path / "demo" / "cloud.json",
        "cells_cloud": tmp_path / "cells.json",
        "mirror_seed": tmp_path / "mirror.obj",
    }
    assert run(["generate", "--seed", "demo", "--out", str(tmp_path / "demo")]) == 0
    paths["cells_cloud"].write_text(PointCloud4(sixteen_cell().vertices.astype(float)).to_json())
    mirror = np.array([[0.4, 0.2, 0.1], [-0.4, 0.2, 0.1], [0.0, -0.5, 0.3], [0.0, 0.1, -0.6]])
    paths["mirror_seed"].write_bytes(write_obj(Mesh(mirror, np.array([[0, 1, 2], [0, 1, 3]]))))
    capsys.readouterr()
    argv = [arg.format(**paths) for arg in argv]
    outcomes = []
    for tol in ([], ["--tol", "1e-6"]):
        report = tmp_path / f"report{len(tol)}.json"
        code = run([*argv, *tol, "--out", str(report)])
        outcomes.append((code, report.read_bytes(), capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


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


@pytest.mark.parametrize("dy, gap", [(1.5e-6, "5.09e-07"), (2.5e-6, "8.49e-07")])
def test_generate_refuses_a_cloud_that_verify_would_refuse(tmp_path, capsys, dy, gap):
    """The demo seed with its first -X contact moved 1.5 (2.5) tol in y: the
    audit fails the contact, and its two lifted images land between tol and
    2 tol apart, so `generate` exits 2 before writing anything."""
    demo = demo_seed()
    verts = demo.vertices.copy()
    verts[5, 1] += dy
    seed_path = tmp_path / "seed.obj"
    seed_path.write_bytes(write_obj(Mesh(verts, demo.triangles)))
    assert run(["check-seed", "--seed", str(seed_path)]) == 1
    capsys.readouterr()
    out = tmp_path / "bundle"
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("q8sculpt: error: input-error:")
    assert err[0].endswith(f"({gap}); matching would be ill-posed")
    assert not out.exists()


def test_an_unwelded_seed_is_refused_by_check_seed_but_gives_exactly_q8(tmp_path, capsys):
    """The demo seed with a copy of vertex 0 used by one extra triangle, as
    OBJ exporters often write: the seed guard refuses the copy, while
    `orbit_cloud` merges it, so `generate` and `verify` still give exactly Q8."""
    demo = demo_seed()
    verts = np.concatenate([demo.vertices, demo.vertices[:1]])
    tris = np.concatenate([demo.triangles, [[demo.n_vertices, 1, 2]]])
    seed_path = tmp_path / "unwelded.obj"
    seed_path.write_bytes(write_obj(Mesh(verts, tris)))
    assert run(["check-seed", "--seed", str(seed_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "q8sculpt: error: input-error: tolerance 1e-06 is not below half the minimum "
        "pairwise distance (0); matching would be ill-posed"
    ]
    out = tmp_path / "bundle"
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["cloud_points"] == 72
    report_path = tmp_path / "report.json"
    assert run(["verify", "--cloud", str(out / "cloud.json"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["is_exactly_q8"] is True
    assert report["symmetry_count"] == 8
    assert report["chirality"] == "metachiral"


def test_decorated_block_is_a_seed(tmp_path, capsys):
    """The paper's object, the standard block written as an OBJ seed, passes
    the audit and generates a 48-point cloud certified as exactly Q8."""
    from q8sculpt.blocks import block_seed, standard_block

    seed_path = tmp_path / "block.obj"
    seed_path.write_bytes(write_obj(block_seed(standard_block())))
    out = tmp_path / "bundle"
    assert run(["check-seed", "--seed", str(seed_path)]) == 0
    assert run(["generate", "--seed", str(seed_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["cloud_points"] == 48
    report_path = tmp_path / "report.json"
    assert run(["verify", "--cloud", str(out / "cloud.json"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["is_exactly_q8"] is True
    assert report["chirality"] == "metachiral"
    assert capsys.readouterr().err == ""


def test_a_block_with_its_x_face_mirrored_fails_the_contact_audit_on_x(tmp_path, capsys):
    from q8sculpt.blocks import DecoratedBlock, block_seed, standard_block

    faces = dict(standard_block().faces)
    faces[(0, 1)] = faces[(0, 1)].mirrored()
    seed_path = tmp_path / "mirrored-block.obj"
    seed_path.write_bytes(write_obj(block_seed(DecoratedBlock(faces))))
    assert run(["check-seed", "--seed", str(seed_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "q8sculpt: error: verification-failure: seed face contact fails on axes ['x']"
    ]


def test_a_pole_with_a_negative_first_coordinate_is_passed_with_equals(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["generate", "--seed", "demo", "--out", str(out), "--pole=-0.5,0.5,0.5,0.5"]) == 0
    assert json.loads((out / "manifest.json").read_text())["pole"] == [-0.5, 0.5, 0.5, 0.5]
    assert capsys.readouterr().err == ""
    # without "=", argparse reads the value as a flag
    with pytest.raises(SystemExit, match="2"):
        run(["generate", "--seed", "demo", "--out", str(out), "--pole", "-0.5,0.5,0.5,0.5"])
    assert capsys.readouterr().err == "q8sculpt: error: input-error: argument --pole: expected one argument\n"


def test_stats_reads_a_seed_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.obj", tmp_path / "marked.obj"
    plain.write_bytes(write_obj(demo_seed()))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run(["stats", "--seed", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert run(["stats", "--seed", str(marked)]) == 0
    assert capsys.readouterr().out == expected


def test_verify_reads_a_cloud_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(PointCloud4(orbit_cloud(demo_seed())).to_json())
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for cloud in (plain, marked):
        assert run(["verify", "--cloud", str(cloud), "--out", str(tmp_path / f"{cloud.stem}-report.json")]) == 0
    assert (tmp_path / "marked-report.json").read_bytes() == (tmp_path / "plain-report.json").read_bytes()
    assert capsys.readouterr().err == ""


def test_verify_refuses_a_cloud_that_is_not_utf8(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"points": [[1, 0, 0, 0]], "note": "caf\xe9"}')
    assert run(["verify", "--cloud", str(latin1)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("q8sculpt: error: input-error:") and "utf-8" in err[0]


# --- the case table: every row, in process ------------------------------------


@pytest.fixture(scope="module")
def case_table(tmp_path_factory):
    """The directory that holds the table's ``inputs``, and its rows."""
    base = tmp_path_factory.mktemp("cases")
    return base, cli_cases.write(base / "inputs")


def _breaches(row, cwd, capsys, monkeypatch):
    """How ``row``, run through ``main`` in the fresh directory ``cwd``,
    breaks the command contract (``cli_cases.breaches``)."""
    cwd.mkdir(parents=True)
    monkeypatch.chdir(cwd)
    try:
        code = main(list(row.argv))
    except SystemExit as exc:  # --version, --help and usage errors
        code = exc.code
    return cli_cases.breaches(row, code, capsys.readouterr().err, cli_cases.written(cwd))


def test_every_row_keeps_the_command_contract(case_table, capsys, monkeypatch):
    """Every row of the case table but the threshold rows (each its own test
    below), run through ``main`` at the runner's relative paths, exits with
    the row's code; a failure prints one error line, exit 1 exactly with a
    verification failure, and every JSON file written is strict JSON."""
    base, rows = case_table
    broken = []
    for k, row in enumerate(rows):
        if not row.name:
            found = _breaches(row, base / "run" / f"{k:03d}", capsys, monkeypatch)
            broken += [f"{shlex.join(row.argv)}: {'; '.join(found)}"] if found else []
    assert broken == []


@pytest.mark.parametrize("name", list(cli_cases.THRESHOLDS))
def test_each_threshold_keeps_the_command_contract(case_table, capsys, monkeypatch, name):
    """Just inside and just outside each threshold, the table's row keeps
    the command contract, as every other row does."""
    base, rows = case_table
    (row,) = [row for row in rows if row.name == name]
    assert _breaches(row, base / "threshold" / name, capsys, monkeypatch) == []


def test_the_case_table_keeps_its_reach(case_table):
    """The rows run every command, --version, --help and a usage error, and
    give each documented exit code."""
    rows = case_table[1]
    commands = {"generate", "verify", "check-seed", "stats", "cayley"}
    assert {row.argv[0] for row in rows} == commands | {"--version", "--help"}
    assert cli_cases.Row(("verify",), 2) in rows  # no --cloud
    assert {row.code for row in rows} == {0, 1, 2, 3}


@pytest.mark.parametrize("tol", [9e307, 1e308])
@pytest.mark.parametrize("command, half", [("verify", 0.165), ("check-seed", 0.177)])
def test_a_finite_tol_is_never_reported_as_non_finite(tmp_path, capsys, command, half, tol):
    """A --tol whose guard radius 2 tol overflows is refused as ill-posed,
    as a --tol just below that is: exit 2, one stderr line, no warning."""
    source = ["--seed", "demo"]
    if command == "verify":
        cloud = tmp_path / "cloud.json"
        cloud.write_text(PointCloud4(orbit_cloud(demo_seed())).to_json())
        source = ["--cloud", str(cloud)]
    assert run([command, *source, "--tol", repr(tol)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"q8sculpt: error: input-error: tolerance {tol} is not below half the minimum pairwise distance "
        f"({half}); matching would be ill-posed"
    ]
