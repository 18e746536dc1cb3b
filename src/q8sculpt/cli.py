"""Command-line orchestration: generate sculpture files, verify symmetry,
check seeds, export the labelled-cell graph, and report feature statistics.

:func:`run` is the process entry (``python -m q8sculpt`` and the console
script); :func:`main` runs one command in process.

Exit codes: 0 success, 1 verification failure, 2 input/parse error,
3 pipeline error (a vertex landed on the projection pole).  Every failure
prints one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .mesh_pipeline import Mesh
    from .projection import Pole

# Each command imports what it runs at its top, so that `--version`, `--help`
# and usage errors start without numpy and `verify` without the mesh pipeline.

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_PIPELINE = 3


def _diag(kind: str, message: str) -> None:
    flat = " ".join(str(message).split())
    print(f"q8sculpt: error: {kind}: {flat}", file=sys.stderr)


def _warn(message: str) -> None:
    print(f"q8sculpt: warning: {message}", file=sys.stderr)


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _parse_pole(text: str | None) -> Pole:
    import numpy as np

    from .projection import Pole, default_pole
    from .quat import UNIT_NORM_TOL

    if text is None:
        return default_pole()
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("pole needs four comma-separated coordinates")
    vec = np.array([float(p) for p in parts], dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise ValueError("pole coordinates must be finite")
    scale = 1.0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm in (0.0, np.inf) and np.any(vec):
        # the square overflowed or underflowed: vec / max |vec| has a norm in [1, 2]
        scale = float(np.max(np.abs(vec)))
        vec = vec / scale
        norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("pole cannot be the zero vector")
    if abs(scale * norm - 1.0) > UNIT_NORM_TOL:  # inf when the norm lies beyond the float range
        _warn(f"pole normalized, adjustment {abs(scale * norm - 1.0):.3g}")
        vec = vec / norm
    return Pole(vec)


def _load_seed(source: str) -> Mesh:
    from .mesh_pipeline import demo_seed, load_obj

    if source == "demo":
        return demo_seed()
    return load_obj(Path(source).read_bytes())


def _emit(path_text: str | None, payload: str) -> None:
    if path_text is None:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        Path(path_text).write_text(payload)


def _cmd_generate(args: argparse.Namespace) -> int:
    import numpy as np

    from .mesh_pipeline import (
        feature_stats,
        generate_sculpture,
        orbit_cloud,
        scale_for_min_feature,
        sculpture_files,
    )
    from .projection import PoleProximityError
    from .symmetry import PointCloud4

    seed = _load_seed(args.seed)
    pole = _parse_pole(args.pole)
    try:
        bundle = generate_sculpture(seed, pole, 1.0)
    except PoleProximityError as exc:
        _diag("pipeline-error", str(exc))
        return EXIT_PIPELINE
    scale = args.scale or scale_for_min_feature(bundle.merged, args.min_feature)  # a given --scale is > 0
    bundle = bundle.scaled(scale)
    merged_stats = feature_stats(bundle.merged)  # refuses degenerate edges before any write
    tiny = float(np.finfo(np.float32).tiny)
    if args.format == "stl" and merged_stats["min_edge"] < tiny:
        raise ValueError(
            f"scale {scale:.6g} shrinks the shortest edge to {merged_stats['min_edge']:.3g}, "
            f"below the smallest normal float32 ({tiny:.3g}) that binary STL can hold"
        )
    cloud = orbit_cloud(seed)  # refuses an ill-posed cloud before any write
    ext = args.format
    part_files, merged_file = sculpture_files(bundle, ext)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_parts = []
    for g, mesh in bundle.parts.items():
        name = f"part_{g.name}.{ext}"
        (out_dir / name).write_bytes(part_files[g])
        stats = feature_stats(mesh)
        manifest_parts.append(
            {
                "element": g.name,
                "file": name,
                "vertices": mesh.n_vertices,
                "triangles": mesh.n_triangles,
                "min_edge": stats["min_edge"],
                "max_edge": stats["max_edge"],
            }
        )
    merged_name = f"merged.{ext}"
    (out_dir / merged_name).write_bytes(merged_file)

    cloud_name = "cloud.json"
    (out_dir / cloud_name).write_text(PointCloud4(cloud).to_json())

    manifest = {
        "tool": "q8sculpt",
        "version": __version__,
        "format": ext,
        "pole": [float(c) for c in pole.p],
        "scale": float(scale),
        "min_feature": None if args.scale is not None else float(args.min_feature),
        "merged": {
            "file": merged_name,
            "vertices": bundle.merged.n_vertices,
            "triangles": bundle.merged.n_triangles,
            "feature_stats": merged_stats,
        },
        "parts": manifest_parts,
        "cloud_file": cloud_name,
        "cloud_points": len(cloud),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {len(bundle.parts) + 3} files to {out_dir}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .symmetry import DEFAULT_TOL, PointCloud4, symmetry_group

    cloud = PointCloud4.from_json(Path(args.cloud).read_bytes())
    report = symmetry_group(cloud, args.tol or DEFAULT_TOL)  # a given --tol is > 0
    _emit(args.out, report.to_json())
    if report.is_exactly_q8:
        return EXIT_OK
    _diag(
        "verification-failure",
        f"{len(report.symmetries)} candidate symmetries survive, "
        "expected exactly the 8 right-multiplication matrices",
    )
    return EXIT_VERIFICATION


def _cmd_check_seed(args: argparse.Namespace) -> int:
    from .mesh_pipeline import face_contact_check
    from .symmetry import DEFAULT_TOL, seed_asymmetry_check

    tol = args.tol or DEFAULT_TOL  # a given --tol is > 0
    seed = _load_seed(args.seed)
    contact = face_contact_check(seed, tol)  # first: it checks the seed's domain before the tolerance
    asymmetric = seed_asymmetry_check(seed.vertices, tol)
    report = {
        "asymmetric": asymmetric,
        "contact": contact,
        "passed": asymmetric and contact["passed"],
    }
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    if report["passed"]:
        return EXIT_OK
    if not asymmetric:
        _diag("verification-failure", "seed has nontrivial symmetry")
    else:
        failed = [axis for axis, audit in contact["axes"].items() if not audit["passed"]]
        _diag("verification-failure", f"seed face contact fails on axes {failed}")
    return EXIT_VERIFICATION


def _cmd_cayley(args: argparse.Namespace) -> int:
    from .blocks import cayley_graph, to_dot

    _emit(args.out, to_dot(cayley_graph()))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    from .mesh_pipeline import feature_stats

    seed = _load_seed(args.seed)
    _emit(args.out, json.dumps(feature_stats(seed), indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one-line input-error diagnostic, exit 2."""

    def error(self, message: str):
        _diag("input-error", message)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="q8sculpt",
        description=(
            "Generate and verify 3D-printable sculptures whose symmetry group "
            "is exactly the eight-element quaternion group."
        ),
    )
    parser.add_argument("--version", action="version", version=f"q8sculpt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="transform a seed mesh into the eight-part sculpture")
    gen.add_argument("--seed", required=True, help="seed OBJ path, or 'demo' for the built-in seed")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--pole",
        default=None,
        help="projection pole as four comma-separated reals; "
        "write --pole=-0.5,0.5,0.5,0.5 when the first is negative",
    )
    gen.add_argument("--scale", type=_positive, default=None, help="explicit uniform scale")
    gen.add_argument(
        "--min-feature",
        type=_positive,
        default=0.8,
        help="minimum edge length the default scale must achieve (default 0.8)",
    )
    gen.add_argument("--format", choices=("obj", "stl"), default="obj")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="brute-force symmetry check of a point cloud JSON")
    ver.add_argument("--cloud", required=True, help="cloud JSON path")
    ver.add_argument("--tol", type=_positive, default=None)
    ver.add_argument("--out", default=None, help="report path (default stdout)")
    ver.set_defaults(func=_cmd_verify)

    chk = sub.add_parser("check-seed", help="asymmetry and face-contact audit of a seed mesh")
    chk.add_argument("--seed", required=True, help="seed OBJ path, or 'demo'")
    chk.add_argument("--tol", type=_positive, default=None)
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=_cmd_check_seed)

    cay = sub.add_parser("cayley", help="export the labelled-cell graph in DOT format")
    cay.add_argument("--out", default=None)
    cay.set_defaults(func=_cmd_cayley)

    sta = sub.add_parser("stats", help="feature-size statistics of a mesh")
    sta.add_argument("--seed", required=True, help="mesh OBJ path, or 'demo'")
    sta.add_argument("--out", default=None)
    sta.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        _diag("input-error", str(exc))
        return EXIT_INPUT


def run(argv: list[str] | None = None) -> int:
    """:func:`main` as a whole process: the cyclic collector is off, and the
    heap is frozen before exit."""
    # A command builds almost no reference cycles, yet the collector would
    # walk numpy's import dozens of times and shutdown would walk the whole
    # heap again; frozen objects are skipped by every later collection.
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
