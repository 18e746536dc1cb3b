"""The one table of q8sculpt command-line cases: each row is an argv and the
exit code it must give.

``write(inputs)`` writes every input under ``inputs``, with the ``q8sculpt``
package that is importable and the seeds of ``bench/workloads.py``, and
returns the rows.  A row reaches the inputs as ``../../inputs/NAME``, so it
runs in a fresh directory two levels below the parent of ``inputs``.

Three things read the table: ``tests/same_outputs.py``, which compares two
source trees (or a tree and the installed console script) row by row; the
contract sweep of ``tests/test_cli.py``, which runs every row in process; and
the CI's console-script step, which runs the runner.  An intended change of
an exit code is an edit of its row here, named in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
INPUTS = "../../inputs"  # the inputs, from every case directory
VERIFY_TOLS = (None, "1e-10", "1e-4", "0.1", "2", "1e308")

# Each seed, the exit code of its check-seed, and the exit codes of verify on
# its cloud at each tolerance of VERIFY_TOLS.  stats and generate (OBJ and
# STL) exit 0 on every seed.
SEEDS = {
    "demo": (0, (0, 0, 0, 0, 2, 2)),
    "block.obj": (0, (0, 0, 0, 2, 2, 2)),
    "mirrored-block.obj": (1, (0, 0, 0, 2, 2, 2)),  # contact fails on x
    "demo-1/seed.obj": (0, (0, 0, 0, 0, 2, 2)),
    "verify-q8-1/seed.obj": (1, (0, 0, 0, 2, 2, 2)),
    "verify-q8-2/seed.obj": (1, (0, 0, 0, 2, 2, 2)),
    "verify-cubic-1/seed.obj": (1, (1, 1, 1, 2, 2, 2)),  # 384 survivors
    "verify-cubic-2/seed.obj": (1, (1, 1, 1, 1, 2, 2)),
    "mesh-heightfield-1/seed.obj": (1, (0, 0, 0, 2, 2, 2)),
    "mesh-heightfield-2/seed.obj": (1, (0, 0, 0, 2, 2, 2)),
    "copies.obj": (2, (0, 0, 0, 0, 2, 2)),  # 2 000 copies of one vertex
    "demo-x+1.5e-06.obj": (0, (0, 0, 0, 0, 2, 2)),
    "demo-x+2.5e-06.obj": (0, (0, 0, 0, 0, 2, 2)),
    "height-field.obj": (1, (1, 1, 1, 2, 2, 2)),  # noise-free: 16 survivors
}


class Row(NamedTuple):
    argv: tuple[str, ...]
    code: int
    name: str = ""  # a threshold row's key in THRESHOLDS


_HALF_SQRT2 = 0.5 * math.sqrt(2.0)  # half the 16-cell's separation

# Each threshold, from just inside to just outside: the row's name, then what
# it varies, the value or the factor on the threshold, and the exit code.
# "tol" is verify's --tol on the 16-cell; "neighbour" a vertex that factor
# times 2 tol from the demo seed's anchor 0; "contact" and "overshoot" the
# demo seed's first +x face contact that factor times tol inside, or
# SEED_DOMAIN_TOL outside, the face; "pole" the pole that factor times
# POLE_PROXIMITY_TOL from lifted vertex 0; FORMAT-max and FORMAT-tiny the
# scale that factor times puts the sculpture's extent at the float32 maximum,
# or its shortest edge at the smallest normal float32; and "min-feature" the
# --min-feature whose scale is that factor times the float32-maximum one.
THRESHOLDS = {
    "verify-tol-below-half-separation": ("tol", math.nextafter(_HALF_SQRT2, 0.0), 1),
    "verify-tol-at-half-separation": ("tol", _HALF_SQRT2, 2),
    "verify-2tol-below-float-max": ("tol", 8e307, 2),
    "verify-2tol-above-float-max": ("tol", 1e308, 2),
    "check-seed-separation-above-2tol": ("neighbour", 1 + 1e-3, 0),
    "check-seed-separation-below-2tol": ("neighbour", 1 - 1e-3, 2),
    "check-seed-contact-within-tol-of-face": ("contact", 1 - 1e-3, 0),
    "check-seed-contact-beyond-tol-of-face": ("contact", 1 + 1e-3, 1),
    "check-seed-overshoot-within-domain-tol": ("overshoot", 1 - 1e-3, 0),
    "check-seed-overshoot-beyond-domain-tol": ("overshoot", 1 + 1e-3, 2),
    "generate-pole-beyond-proximity-tol": ("pole", 1 + 1e-3, 0),
    "generate-pole-within-proximity-tol": ("pole", 1 - 1e-3, 3),
    "generate-obj-below-float32-max": ("obj-max", 1 - 1e-6, 0),
    "generate-obj-above-float32-max": ("obj-max", 1 + 1e-6, 2),
    "generate-stl-below-float32-max": ("stl-max", 1 - 1e-6, 0),
    "generate-stl-above-float32-max": ("stl-max", 1 + 1e-6, 2),
    "generate-obj-edge-below-float32-tiny": ("obj-tiny", 1 - 1e-6, 0),
    "generate-obj-edge-above-float32-tiny": ("obj-tiny", 1 + 1e-6, 0),
    "generate-stl-edge-below-float32-tiny": ("stl-tiny", 1 - 1e-6, 2),
    "generate-stl-edge-above-float32-tiny": ("stl-tiny", 1 + 1e-6, 0),
    "generate-min-feature-below-float32-max": ("min-feature", 1 - 1e-6, 0),
    "generate-min-feature-above-float32-max": ("min-feature", 1 + 1e-6, 2),
}


def _unit(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def write(inputs: Path) -> list[Row]:
    """Write every input under ``inputs`` and return the rows."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads
    from q8sculpt import blocks
    from q8sculpt.mesh_pipeline import (
        FLOAT32_MAX,
        SEED_DOMAIN_TOL,
        demo_seed,
        feature_stats,
        generate_sculpture,
        load_obj,
        orbit_cloud,
        write_obj,
    )
    from q8sculpt.projection import POLE_PROXIMITY_TOL, default_pole, radial_to_s3
    from q8sculpt.symmetry import PointCloud4

    inputs.mkdir()

    def put(name: str, data: str | bytes) -> str:
        (inputs / name).write_bytes(data.encode() if isinstance(data, str) else data)
        return f"{INPUTS}/{name}"

    demo = demo_seed()

    def demo_with(vertices: np.ndarray) -> str:
        return workloads.obj_text(vertices, demo.triangles)

    mirrored = dict(blocks.standard_block().faces)
    mirrored[(0, 1)] = mirrored[(0, 1)].mirrored()
    put("block.obj", write_obj(blocks.block_seed(blocks.standard_block())))
    put("mirrored-block.obj", write_obj(blocks.block_seed(blocks.DecoratedBlock(mirrored))))
    for name in ("demo", "verify-q8", "verify-cubic", "mesh-heightfield"):
        for seed in (1, 2) if name != "demo" else (1,):
            (inputs / f"{name}-{seed}").mkdir()
            workloads.build(name, seed, inputs / f"{name}-{seed}")
    copies = np.array([[0.1, 0.2, 0.3]] * 2000 + [[0.4, -0.1, 0.2], [-0.3, 0.25, 0.1]])
    put("copies.obj", workloads.obj_text(copies, np.array([[0, 2000, 2001]])))
    for dx in (1.5e-6, 2.5e-6):
        moved = demo.vertices.copy()
        moved[0, 0] += dx
        put(f"demo-x+{dx}.obj", demo_with(moved))
    field, triangles = workloads.heightfield(1, 60)
    field[:, 2] = 0.5 * np.sin(3 * field[:, 0]) * np.cos(2 * field[:, 1])  # without the noise
    put("height-field.obj", workloads.obj_text(field, triangles))

    rows = [Row(("--version",), 0), Row(("--help",), 0), Row(("verify",), 2), Row(("cayley",), 0)]
    for k, (name, (check_code, verify_codes)) in enumerate(SEEDS.items()):
        seed = name if name == "demo" else f"{INPUTS}/{name}"
        rows += [
            Row(("check-seed", "--seed", seed), check_code),
            Row(("stats", "--seed", seed), 0),
            Row(("generate", "--seed", seed, "--out", "out"), 0),
            Row(("generate", "--seed", seed, "--format", "stl", "--out", "out"), 0),
        ]
        mesh = demo if name == "demo" else load_obj((inputs / name).read_bytes())
        cloud = put(f"cloud-{k}.json", PointCloud4(orbit_cloud(mesh)).to_json())
        for tol, code in zip(VERIFY_TOLS, verify_codes):
            rows.append(Row(("verify", "--cloud", cloud) + (("--tol", tol) if tol else ()), code))
    bom = b"\xef\xbb\xbf" + (inputs / "cloud-0.json").read_bytes()
    rows.append(Row(("verify", "--cloud", put("bom-cloud.json", bom), "--out", "report.json"), 0))

    # malformed and extreme inputs
    sixteen_cell = put(
        "16-cell.json",
        json.dumps({"points": [[s if a == b else 0 for b in range(4)] for a in range(4) for s in (1, -1)]}),
    )
    clouds = {
        "bad-cloud.json": ('{"points": [{"x": 1}]}', 2),
        "ragged-cloud.json": ('{"points": [[1, 0, 0, 0], [1, 0, 0]]}', 2),
        "deep-cloud.json": ('{"points": ' + "[" * 100_000 + "]" * 100_000 + "}", 2),
        "copies.json": ('{"points": [' + ", ".join(["[1, 0, 0, 0]"] * 20_000) + "]}", 2),
        "empty-cloud.json": ('{"points": []}', 2),
    }
    rows.append(Row(("verify", "--cloud", sixteen_cell), 1))
    rows += [Row(("verify", "--cloud", put(name, text)), code) for name, (text, code) in clouds.items()]
    rows.append(Row(("stats", "--seed", put("far.obj", "v 1e308 0 0\nv 0 0 0\nv 0.5 0 0\nf 1 2 3\n")), 2))
    rows.append(Row(("stats", "--seed", put("bom.obj", b"\xef\xbb\xbf" + write_obj(demo))), 0))
    rows.append(Row(("generate", "--seed", "demo", "--pole=-0.5,0.5,0.5,0.5", "--out", "out"), 0))

    # clouds with close pairs: one pair under 1e-7 apart, and 8 000 points within about 1e-7
    rng = np.random.default_rng(0)
    pair = _unit(rng.normal(size=(40, 4)))
    pair[39] = _unit(pair[:1] + [0.0, 1e-7, 0.0, 0.0])[0]
    cluster = _unit([1.0, 0.0, 0.0, 0.0] + rng.normal(scale=5e-8, size=(8000, 4)))
    for name, points, codes in (("pair.json", pair, (2, 1)), ("cluster.json", cluster, (2, 2))):
        path = put(name, json.dumps({"points": points.tolist()}))
        rows += [Row(("verify", "--cloud", path, "--tol", tol), code) for tol, code in zip(("1e-6", "1e-10"), codes)]

    # each threshold, from just inside to just outside; every row writes its JSON
    p = radial_to_s3(demo.vertices[0])
    away = np.array([0.0, 0.0, 0.0, 1.0]) - p[3] * p
    away /= np.linalg.norm(away)
    merged = generate_sculpture(demo, default_pole()).merged
    extent, shortest = float(np.max(np.abs(merged.vertices))), feature_stats(merged)["min_edge"]
    at_max = FLOAT32_MAX / extent  # the scale that puts the extent at the float32 maximum
    at_tiny = float(np.finfo(np.float32).tiny) / shortest  # ... the shortest edge at the smallest normal float32

    def threshold_argv(name: str, kind: str, x: float) -> tuple[str, ...]:
        if kind == "tol":
            return ("verify", "--cloud", sixteen_cell, "--tol", repr(x), "--out", "report.json")
        if kind in ("neighbour", "contact", "overshoot"):
            vertices = demo.vertices.copy()
            if kind == "neighbour":  # the demo seed plus a vertex this far from anchor 0
                vertices = np.vstack([vertices, vertices[0] + [2e-6 * x, 0.0, 0.0]])
            else:  # the demo seed with its first +x face contact at this x
                vertices[3, 0] = 1.0 - 1e-6 * x if kind == "contact" else 1.0 + SEED_DOMAIN_TOL * x
            return ("check-seed", "--seed", put(f"{name}.obj", demo_with(vertices)), "--out", "report.json")
        if kind == "pole":
            angle = 2.0 * math.asin(POLE_PROXIMITY_TOL * x / 2.0)
            pole = math.cos(angle) * p + math.sin(angle) * away  # this chordal distance from lifted vertex 0
            return ("generate", "--seed", "demo", "--pole=" + ",".join(map(repr, pole.tolist())), "--out", "out")
        if kind == "min-feature":
            return ("generate", "--seed", "demo", "--min-feature", repr(at_max * shortest * x), "--out", "out")
        fmt, of = kind.split("-")
        scale = (at_max if of == "max" else at_tiny) * x
        return ("generate", "--seed", "demo", "--format", fmt, "--scale", repr(scale), "--out", "out")

    rows += [Row(threshold_argv(name, kind, x), code, name) for name, (kind, x, code) in THRESHOLDS.items()]
    return rows


def written(cwd: Path) -> dict[str, bytes]:
    """Every file under ``cwd``, by its path relative to ``cwd``."""
    return {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}


def _reject_constant(name: str):
    raise ValueError(f"non-finite value {name} in JSON")


def breaches(row: Row, code: object, stderr: str, files: dict[str, bytes]) -> list[str]:
    """How one run of ``row`` breaks the command contract: its exit code is
    the row's; a failure writes exactly one stderr line, a ``q8sculpt:
    error:`` line, and a success none; exit 1 is exactly a
    ``verification-failure``; a success with ``--out`` writes a file; and
    every JSON file written is strict JSON."""
    found = [f"exit {code}, expected {row.code}"] if code != row.code else []
    lines = stderr.splitlines()
    errors = [line for line in lines if line.startswith("q8sculpt: error:")]
    if len(errors) != (code != 0) or (errors and len(lines) != 1):
        found.append(f"{len(errors)} error lines in {len(lines)} stderr lines")
    if (code == 1) != any(line.startswith("q8sculpt: error: verification-failure:") for line in errors):
        found.append("exit 1 is not exactly a verification-failure")
    if code == 0 and "--out" in row.argv and not files:
        found.append("--out wrote nothing")
    for name, data in files.items():
        if name.endswith(".json"):
            try:
                json.loads(data, parse_constant=_reject_constant)
            except ValueError as exc:
                found.append(f"{name}: {exc}")
    return found
