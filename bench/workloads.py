"""Seeded workload inputs for the q8sculpt benchmark.

Every generator takes the workload seed and returns the same input for the
same seed.  The program under test only ever sees the OBJ files written
here; the clouds it verifies are produced from them by its own `generate`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# One-line reasons, recorded in every result.
WHY = {
    "demo": "the built-in 15-vertex seed: start-up, import and per-call fixed costs dominate",
    "verify-q8": "random seed, exactly Q8: the guard and early candidate rejection dominate",
    "verify-cubic": "cube-symmetric orbit, all 384 candidates survive: full matching dominates",
    "mesh-heightfield": "height-field seed, thousands of triangles: OBJ/STL writers and orbit dedup dominate",
}

# Input sizes.  The heightfield and random seeds are sized so that one
# check-seed / generate / generate / verify cycle fits a few times into a
# benchmark run on two CPUs; `smoke` shrinks them for the benchmark's test.
SIZES = {
    "full": {"random_vertices": 400, "grid": 20},
    "smoke": {"random_vertices": 24, "grid": 5},
}


@dataclass(frozen=True)
class Expected:
    """What every command must produce on this input."""

    check_seed_exit: int
    check_seed_asymmetric: bool
    verify_exit: int
    symmetry_count: int
    chirality: str
    cloud_points: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_path: str
    vertices: int
    triangles: int
    expected: Expected

    def sizes(self) -> dict:
        return {
            "seed_vertices": self.vertices,
            "seed_triangles": self.triangles,
            "cloud_points": self.expected.cloud_points,
            "merged_triangles": 8 * self.triangles,
        }


def obj_text(vertices: np.ndarray, triangles: np.ndarray) -> str:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles]
    return "\n".join(lines) + "\n"


def chain_triangles(n: int) -> np.ndarray:
    """Disjoint triangles over consecutive vertex triples."""
    return np.arange(3 * (n // 3)).reshape(-1, 3)


def random_seed(seed: int, n: int) -> np.ndarray:
    """n generic points in [-0.9, 0.9]^3: asymmetric, no face contacts."""
    return np.random.default_rng(seed).uniform(-0.9, 0.9, size=(n, 3))


def heightfield(seed: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """grid x grid samples of z = 0.5 sin 3x cos 2y plus noise in [-0.05, 0.05].

    Without the noise the surface is symmetric under (x, y, z) -> (x, -y, z);
    the seeded noise breaks every cube symmetry.
    """
    axis = np.linspace(-0.9, 0.9, grid)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    noise = np.random.default_rng(seed).uniform(-0.05, 0.05, size=x.shape)
    z = 0.5 * np.sin(3 * x) * np.cos(2 * y) + noise
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    quads = []
    for i in range(grid - 1):
        for j in range(grid - 1):
            a, b = i * grid + j, i * grid + j + 1
            c, d = a + grid, b + grid
            quads += [(a, c, b), (b, c, d)]
    return vertices, np.array(quads, dtype=np.int64)


def cube_orbit(seed: int) -> np.ndarray:
    """The 48 images of one seeded point under the signed permutations of
    the cube's axes.

    The coordinates satisfy 0.1 <= a < b < c <= 0.8 with gaps of at least
    0.1, so any two images are at least 0.14 apart: far more than twice any
    tolerance the benchmark uses.
    """
    rng = np.random.default_rng(seed)
    point = np.array([rng.uniform(0.10, 0.25), rng.uniform(0.35, 0.50), rng.uniform(0.60, 0.80)])
    images = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            images.append(np.array(signs) * point[list(perm)])
    return np.array(images)


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Write the workload's seed OBJ under ``work`` and describe it."""
    dims = SIZES[size]
    if name == "demo":
        from q8sculpt.mesh_pipeline import demo_seed

        # The built-in seed, written out so that the OBJ parser is measured
        # too; 17 significant digits round-trip exactly.  Its 120 images
        # collapse to 72 points because the face contacts coincide.
        mesh = demo_seed()
        vertices, triangles = mesh.vertices, mesh.triangles
        expected = Expected(0, True, 0, 8, "metachiral", 72)
    elif name == "verify-q8":
        vertices = random_seed(seed, dims["random_vertices"])
        triangles = chain_triangles(len(vertices))
        expected = Expected(1, True, 0, 8, "metachiral", 8 * len(vertices))
    elif name == "verify-cubic":
        vertices = cube_orbit(seed)
        triangles = chain_triangles(len(vertices))
        expected = Expected(1, False, 1, 384, "achiral", 8 * len(vertices))
    elif name == "mesh-heightfield":
        vertices, triangles = heightfield(seed, dims["grid"])
        expected = Expected(1, True, 0, 8, "metachiral", 8 * len(vertices))
    else:
        raise ValueError(f"unknown workload {name!r}")
    path = work / "seed.obj"
    path.write_text(obj_text(vertices, triangles))
    return Workload(name, WHY[name], str(path), len(vertices), len(triangles), expected)
