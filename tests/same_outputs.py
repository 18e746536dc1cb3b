"""Run the command line of two q8sculpt source trees on the same inputs and
list every case whose exit code, stdout, stderr or written files differ.

    python tests/same_outputs.py OLD NEW

OLD and NEW are source-tree roots, each holding ``src/q8sculpt``: say a
``git archive`` of the parent commit and the working tree.  The inputs are
written once, with OLD's package and the seeds of ``bench/workloads.py``.
Each case then runs as ``python -m q8sculpt ...`` with
``PYTHONPATH=<tree>/src``, once per tree, in a fresh directory that reaches
the inputs by the same relative path.  One line is printed per case that
differs, naming what differs, then the case count; the exit status is 1
when any case differs.  Two cases run at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INPUTS = "../../inputs"  # the inputs, from every case directory
VERIFY_TOLS = (None, "1e-10", "1e-4", "0.1", "2", "1e308")
WORKERS = 2
TIMEOUT_S = 300
# one BLAS thread in every case, so that both trees sum in the same order
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _unit(points: np.ndarray) -> np.ndarray:
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def write_inputs(old_src: Path, inputs: Path) -> list[list[str]]:
    """Write every input under ``inputs`` and return the cases, each the
    arguments of one command."""
    sys.path[:0] = [str(old_src), str(ROOT / "bench")]
    import workloads
    from q8sculpt import blocks
    from q8sculpt.mesh_pipeline import demo_seed, load_obj, orbit_cloud, write_obj
    from q8sculpt.symmetry import PointCloud4

    inputs.mkdir()

    def put(name: str, data: str | bytes) -> str:
        (inputs / name).write_bytes(data.encode() if isinstance(data, str) else data)
        return f"{INPUTS}/{name}"

    demo = demo_seed()
    mirrored = dict(blocks.standard_block().faces)
    mirrored[(0, 1)] = mirrored[(0, 1)].mirrored()
    seeds = [
        "demo",
        put("block.obj", write_obj(blocks.block_seed(blocks.standard_block()))),
        put("mirrored-block.obj", write_obj(blocks.block_seed(blocks.DecoratedBlock(mirrored)))),
    ]
    for name, seed in [("demo", 1)] + [(w, s) for w in ("verify-q8", "verify-cubic", "mesh-heightfield") for s in (1, 2)]:
        work = inputs / f"{name}-{seed}"
        work.mkdir()
        workloads.build(name, seed, work)
        seeds.append(f"{INPUTS}/{work.name}/seed.obj")
    copies = np.array([[0.1, 0.2, 0.3]] * 2000 + [[0.4, -0.1, 0.2], [-0.3, 0.25, 0.1]])
    seeds.append(put("copies.obj", workloads.obj_text(copies, np.array([[0, 2000, 2001]]))))
    for dx in (1.5e-6, 2.5e-6):
        moved = demo.vertices.copy()
        moved[0, 0] += dx
        seeds.append(put(f"demo-x+{dx}.obj", workloads.obj_text(moved, demo.triangles)))
    field, triangles = workloads.heightfield(1, 60)
    field[:, 2] = 0.5 * np.sin(3 * field[:, 0]) * np.cos(2 * field[:, 1])  # without the noise
    seeds.append(put("height-field.obj", workloads.obj_text(field, triangles)))

    cases = [["--version"], ["--help"], ["verify"], ["cayley"]]
    for k, seed in enumerate(seeds):
        cases += [
            ["check-seed", "--seed", seed],
            ["stats", "--seed", seed],
            ["generate", "--seed", seed, "--out", "out"],
            ["generate", "--seed", seed, "--format", "stl", "--out", "out"],
        ]
        mesh = demo if seed == "demo" else load_obj((inputs / seed.removeprefix(INPUTS + "/")).read_bytes())
        try:
            cloud = PointCloud4(orbit_cloud(mesh)).to_json()
        except ValueError:  # generate refuses this seed: no cloud to verify
            continue
        path = put(f"cloud-{k}.json", cloud)
        cases += [["verify", "--cloud", path] + (["--tol", tol] if tol else []) for tol in VERIFY_TOLS]
        if seed == "demo":
            bom = put("bom-cloud.json", b"\xef\xbb\xbf" + cloud.encode())
            cases.append(["verify", "--cloud", bom, "--out", "report.json"])

    # the edge cases of the CI console-script step
    clouds = {
        "bad-cloud.json": '{"points": [{"x": 1}]}',
        "ragged-cloud.json": '{"points": [[1, 0, 0, 0], [1, 0, 0]]}',
        "deep-cloud.json": '{"points": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "16-cell.json": json.dumps({"points": [[s if a == b else 0 for b in range(4)] for a in range(4) for s in (1, -1)]}),
        "copies.json": '{"points": [' + ", ".join(["[1, 0, 0, 0]"] * 20_000) + "]}",
    }
    cases += [["verify", "--cloud", put(name, text)] for name, text in clouds.items()]
    cases.append(["stats", "--seed", put("far.obj", "v 1e308 0 0\nv 0 0 0\nv 0.5 0 0\nf 1 2 3\n")])
    cases.append(["stats", "--seed", put("bom.obj", b"\xef\xbb\xbf" + write_obj(demo))])
    cases.append(["generate", "--seed", "demo", "--pole=-0.5,0.5,0.5,0.5", "--out", "out"])

    # clouds with close pairs: one pair under 1e-7 apart, and 8 000 points within about 1e-7
    rng = np.random.default_rng(0)
    pair = _unit(rng.normal(size=(40, 4)))
    pair[39] = _unit(pair[:1] + [0.0, 1e-7, 0.0, 0.0])[0]
    cluster = _unit([1.0, 0.0, 0.0, 0.0] + rng.normal(scale=5e-8, size=(8000, 4)))
    for name, points in (("pair.json", pair), ("cluster.json", cluster)):
        path = put(name, json.dumps({"points": points.tolist()}))
        cases += [["verify", "--cloud", path, "--tol", tol] for tol in ("1e-6", "1e-10")]
    return cases


def run_case(tree: Path, cwd: Path, args: list[str]) -> tuple[object, bytes, bytes, dict[str, bytes]]:
    """Exit code (or "timeout"), stdout, stderr and the written files of one case."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **SINGLE_THREAD)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "q8sculpt", *args], cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S
        )
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = "timeout", exc.stdout or b"", exc.stderr or b""
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return code, out, err, files


def differences(old: tuple, new: tuple) -> list[str]:
    (old_code, old_out, old_err, old_files), (new_code, new_out, new_err, new_files) = old, new
    found = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
    found += [name for name, a, b in (("stdout", old_out, new_out), ("stderr", old_err, new_err)) if a != b]
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files:
            found.append(f"{name} only in OLD")
        elif name not in old_files:
            found.append(f"{name} only in NEW")
        elif old_files[name] != new_files[name]:
            found.append(name)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source-tree root of the reference")
    parser.add_argument("new", type=Path, help="source-tree root of the change")
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        cases = write_inputs(trees["old"] / "src", Path(tmp) / "inputs")

        def compare(k: int) -> str | None:
            results = [run_case(tree, Path(tmp) / side / f"{k:03d}", cases[k]) for side, tree in trees.items()]
            found = differences(*results)
            return f"q8sculpt {shlex.join(cases[k])}: {'; '.join(found)}" if found else None

        with ThreadPoolExecutor(WORKERS) as pool:
            lines = [line for line in pool.map(compare, range(len(cases))) if line]
    for line in lines:
        print(line)
    print(f"{len(cases)} cases, {len(lines)} with a difference")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
