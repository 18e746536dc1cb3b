"""Mesh ingestion, the eight-fold transform pipeline, feature-size analysis,
seed connectivity validation, and export for 3D printing.

The pipeline moves a seed design living in the cube [-1,1]^3 through:
embed into the w=+1 cell, project radially onto the 3-sphere, right-multiply
by a group element, and stereographically project back to 3-space.  Running
all eight elements produces the eight copies of the sculpture.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .quat import Q8Element, Q8_ELEMENTS, q8_right_matrix_int
from .projection import Pole, PoleProximityError, radial_to_s3, stereo_project
from .hypercube import contact_transfer_matrix
from .symmetry import DEFAULT_TOL, _dedup, _pairs_within, _well_posed_tol

SEED_DOMAIN_TOL = 1e-9

# Largest coordinate a binary STL record can hold.
FLOAT32_MAX = float(np.finfo(np.float32).max)

_STL_HEADER = b"q8sculpt binary STL".ljust(80, b"\0")
# One STL record: normal, three vertices, attribute byte count (always 0).
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attribute", "<u2")])
# Triangles (STL) and rows (OBJ) converted per pass; bounds the temporaries.
_STL_BLOCK = 4096
_OBJ_BLOCK = 1024


class MeshFormatError(ValueError):
    """Malformed mesh data; carries the offending input line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh: float vertices and integer index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3).copy()
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3).copy()
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh vertices must be finite")
        if len(t):
            if t.min() < 0 or t.max() >= len(v):
                raise ValueError("triangle index out of range")
            repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if np.any(repeated):
                raise ValueError(f"degenerate triangle at index {int(np.argmax(repeated))}")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def scaled(self, factor: float) -> "Mesh":
        return Mesh(self.vertices * factor, self.triangles)


def load_obj(data: bytes | str) -> Mesh:
    """Parse OBJ text: v records and (polygonal) f records, fan-triangulated.

    Indices are 1-based and must be positive; face tokens may carry /vt/vn
    suffixes, which are ignored.  Unknown record types are skipped.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    vertices: list[list[float]] = []
    faces: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 4:
                raise MeshFormatError("vertex record needs three coordinates", lineno)
            try:
                vertices.append([float(tok) for tok in tokens[1:4]])
            except ValueError:
                raise MeshFormatError(f"bad vertex coordinate in {raw!r}", lineno) from None
        elif kind == "f":
            if len(tokens) < 4:
                raise MeshFormatError("face record needs at least three vertices", lineno)
            idx = []
            for tok in tokens[1:]:
                head = tok.split("/")[0]
                try:
                    value = int(head)
                except ValueError:
                    raise MeshFormatError(f"bad face index {tok!r}", lineno) from None
                if value <= 0:
                    raise MeshFormatError(f"face index {value} must be positive", lineno)
                idx.append(value - 1)
            faces.append((lineno, idx))
    triangles = []
    for lineno, idx in faces:
        if any(v >= len(vertices) for v in idx):
            raise MeshFormatError("face index out of range", lineno)
        if len(set(idx)) != len(idx):
            raise MeshFormatError("face repeats a vertex", lineno)
        for a, b in zip(idx[1:], idx[2:]):
            triangles.append((idx[0], a, b))
    return Mesh(
        np.array(vertices, dtype=np.float64).reshape(-1, 3),
        np.array(triangles, dtype=np.int64).reshape(-1, 3),
    )


def write_obj(mesh: Mesh, comments: Iterable[str] = ()) -> bytes:
    """Emit OBJ text with vertices at nine significant digits."""
    if mesh.n_vertices == 0 or mesh.n_triangles == 0:
        raise ValueError("refusing to write an empty mesh")
    chunks = [f"# {c}\n" for c in comments]
    for start in range(0, mesh.n_vertices, _OBJ_BLOCK):
        rows = mesh.vertices[start : start + _OBJ_BLOCK].tolist()
        chunks.append("".join([f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in rows]))
    for start in range(0, mesh.n_triangles, _OBJ_BLOCK):
        rows = (mesh.triangles[start : start + _OBJ_BLOCK] + 1).tolist()
        chunks.append("".join([f"f {a} {b} {c}\n" for a, b, c in rows]))
    return "".join(chunks).encode("utf-8")


def write_stl(mesh: Mesh) -> bytes:
    """Emit binary STL: 80-byte header, little-endian count, 50-byte records.

    Normals are recomputed from the vertex winding; zero-area triangles get a
    zero normal.  Raises ValueError when a coordinate lies beyond the float32
    range of the records.
    """
    if mesh.n_vertices == 0 or mesh.n_triangles == 0:
        raise ValueError("refusing to write an empty mesh")
    extent = float(np.max(np.abs(mesh.vertices)))
    if extent > FLOAT32_MAX:
        raise ValueError(f"coordinate {extent:.6g} exceeds the float32 range of binary STL")
    n = mesh.n_triangles
    head = _STL_HEADER + struct.pack("<I", n)
    out = bytearray(len(head) + n * _STL_RECORD.itemsize)
    out[: len(head)] = head
    records = np.frombuffer(out, dtype=_STL_RECORD, offset=len(head))
    for start in range(0, n, _STL_BLOCK):
        tri = mesh.vertices[mesh.triangles[start : start + _STL_BLOCK]]
        normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        length = np.sqrt(np.einsum("ij,ij->i", normal, normal))[:, None]
        np.divide(normal, length, out=normal, where=length > 0)
        block = records[start : start + _STL_BLOCK]
        block["normal"] = normal
        block["vertices"] = tri
    return bytes(out)


def _check_seed_domain(mesh: Mesh) -> None:
    overshoot = np.max(np.abs(mesh.vertices), axis=1) - 1.0
    bad = np.nonzero(overshoot > SEED_DOMAIN_TOL)[0]
    if len(bad):
        raise ValueError(
            f"seed vertex {int(bad[0])} lies outside the cube [-1,1]^3 "
            f"by {float(overshoot[bad[0]]):.3g}"
        )


def unprojected_part_points(seed: Mesh, g: Q8Element) -> np.ndarray:
    """Seed vertices radially lifted to the 3-sphere and moved by element g."""
    lifted = radial_to_s3(seed.vertices)
    return lifted @ q8_right_matrix_int(g)


def transform_mesh(seed: Mesh, g: Q8Element, pole: Pole) -> Mesh:
    """One leg of the pipeline: lift the seed, right-multiply by g, project.

    Raises :class:`PoleProximityError` naming the seed vertex and the element
    when a transformed vertex lands on the projection pole.
    """
    _check_seed_domain(seed)
    try:
        projected = stereo_project(unprojected_part_points(seed, g), pole)
    except PoleProximityError as exc:
        raise PoleProximityError(f"seed {exc} under element {g.name}") from None
    return Mesh(projected, seed.triangles)


@dataclass(frozen=True)
class SculptureBundle:
    """The eight transformed copies plus their merged union."""

    parts: dict[Q8Element, Mesh]
    merged: Mesh

    def __post_init__(self) -> None:
        total = sum(m.n_vertices for m in self.parts.values())
        if self.merged.n_vertices != total:
            raise ValueError("merged mesh does not cover all parts")

    def scaled(self, scale: float) -> "SculptureBundle":
        """Every part and the merged mesh multiplied by ``scale``.

        The one check of a scale: raises ValueError unless it is positive
        and keeps every coordinate within the float32 range that a printed
        STL can hold.  Scaling acts vertex by vertex, so the scaled merged
        mesh is the same array as the merge of the scaled parts.
        """
        if not scale > 0:
            raise ValueError("scale must be positive")
        extent = float(np.max(np.abs(self.merged.vertices), initial=0.0)) * scale
        if not extent <= FLOAT32_MAX:
            raise ValueError(
                f"scale {scale:.6g} puts a coordinate at {extent:.6g}, "
                f"beyond the float32 range {FLOAT32_MAX:.6g}"
            )
        parts = {g: m.scaled(scale) for g, m in self.parts.items()}
        return SculptureBundle(parts, self.merged.scaled(scale))


def merge_meshes(meshes: Sequence[Mesh]) -> Mesh:
    vertices = []
    triangles = []
    offset = 0
    for mesh in meshes:
        vertices.append(mesh.vertices)
        triangles.append(mesh.triangles + offset)
        offset += mesh.n_vertices
    return Mesh(np.concatenate(vertices), np.concatenate(triangles))


def generate_sculpture(seed: Mesh, pole: Pole, scale: float = 1.0) -> SculptureBundle:
    """Transform the seed by all eight elements, in the fixed label order,
    merge, and scale uniformly by :meth:`SculptureBundle.scaled` (whose
    ValueError refuses a bad scale)."""
    parts = {g: transform_mesh(seed, g, pole) for g in Q8_ELEMENTS}
    return SculptureBundle(parts, merge_meshes(list(parts.values()))).scaled(scale)


def feature_stats(mesh: Mesh) -> dict[str, float]:
    """Minimum and maximum triangle edge length, and their ratio.

    Raises ValueError when an edge has zero length (coincident vertices, or
    a scale so small that the edge underflows), where the ratio is undefined.
    """
    if mesh.n_triangles == 0:
        raise ValueError("feature statistics need a non-empty mesh")
    tri = mesh.vertices[mesh.triangles]
    edges = np.concatenate(
        [tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2]]
    )
    lengths = np.linalg.norm(edges, axis=1)
    min_edge = float(np.min(lengths))
    max_edge = float(np.max(lengths))
    if min_edge == 0.0:
        shortest = int(np.argmin(lengths)) % mesh.n_triangles
        raise ValueError(f"triangle {shortest} has a zero-length edge")
    return {"min_edge": min_edge, "max_edge": max_edge, "ratio": max_edge / min_edge}


def scale_for_min_feature(merged: Mesh, min_feature: float) -> float:
    """Smallest scale >= 1 making the shortest edge of ``merged``, the
    sculpture at scale 1, at least ``min_feature`` model units.

    Raises ValueError when that scale overflows the float range.
    """
    if not min_feature > 0:
        raise ValueError("min_feature must be positive")
    scale = max(1.0, min_feature / feature_stats(merged)["min_edge"])
    if not np.isfinite(scale):
        raise ValueError(f"--min-feature {min_feature:.6g} needs a scale beyond the float range")
    return scale


@dataclass(frozen=True)
class AxisContact:
    """Contact audit for one axis pair of seed faces."""

    axis: str
    passed: bool
    plus_count: int
    minus_count: int
    unmatched_plus: tuple[tuple[float, float, float], ...]
    unmatched_minus: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class ContactReport:
    axes: tuple[AxisContact, ...]

    @property
    def passed(self) -> bool:
        return all(axis.passed for axis in self.axes)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "axes": {
                a.axis: {
                    "passed": a.passed,
                    "plus_count": a.plus_count,
                    "minus_count": a.minus_count,
                    "unmatched_plus": [list(p) for p in a.unmatched_plus],
                    "unmatched_minus": [list(p) for p in a.unmatched_minus],
                }
                for a in self.axes
            },
        }


def face_contact_check(seed: Mesh, tol: float = DEFAULT_TOL) -> ContactReport:
    """Verify the seed can connect to its transported copies through all six
    cube faces.

    For each axis, the vertices on the +face must map onto the vertices on
    the -face under that axis's :func:`~q8sculpt.hypercube.contact_transfer_matrix`,
    point for point within ``tol``; an axis with an empty contact set fails,
    since nothing would physically connect there.  Two seed vertices closer
    than ``2 * tol`` make the matching ambiguous and raise ValueError; under
    that guard the signed-permutation images pair off one to one.
    """
    _check_seed_domain(seed)
    _well_posed_tol(seed.vertices, tol)
    axes = []
    for axis, letter in enumerate("xyz"):
        coords = seed.vertices[:, axis]
        plus = seed.vertices[np.abs(coords - 1.0) <= tol]
        minus = seed.vertices[np.abs(coords + 1.0) <= tol]
        if len(plus) == 0 or len(minus) == 0:
            axes.append(
                AxisContact(letter, False, len(plus), len(minus), (), ())
            )
            continue
        i, j = _pairs_within(plus @ contact_transfer_matrix(axis), minus, tol)
        axes.append(
            AxisContact(
                letter,
                len(plus) == len(minus) == len(i),
                len(plus),
                len(minus),
                tuple(map(tuple, np.delete(plus, i, axis=0).tolist())),
                tuple(map(tuple, np.delete(minus, j, axis=0).tolist())),
            )
        )
    return ContactReport(tuple(axes))


def orbit_cloud(seed: Mesh) -> np.ndarray:
    """The sculpture's point cloud on the 3-sphere: all eight images of the
    seed vertices, greedily deduplicated within ``DEFAULT_TOL``.  The lift is
    1-Lipschitz, so contacts matched within that tolerance merge here."""
    _check_seed_domain(seed)
    lifted = radial_to_s3(seed.vertices)
    stacked = np.concatenate([lifted @ q8_right_matrix_int(g) for g in Q8_ELEMENTS])
    return stacked[_dedup(stacked, DEFAULT_TOL)]


def demo_seed() -> Mesh:
    """A small synthetic seed that is asymmetric and face-connectable.

    Three interior anchor points form a core triangle; each cube face gets a
    limb triangle from an anchor to two points on that face.  The points on
    each negative face are constructed as the transfer images of the positive
    face's points, so every contact check passes by construction.
    """
    anchors = np.array(
        [
            [0.1, -0.05, 0.2],
            [-0.2, 0.15, -0.1],
            [0.05, 0.3, -0.3],
        ]
    )
    plus_contacts = {
        0: np.array([[1.0, 0.35, 0.15], [1.0, 0.05, -0.25]]),
        1: np.array([[0.3, 1.0, -0.2], [-0.15, 1.0, 0.4]]),
        2: np.array([[0.25, 0.4, 1.0], [-0.35, 0.1, 1.0]]),
    }
    vertices = [anchors]
    for axis in range(3):
        vertices.append(plus_contacts[axis])
        vertices.append(plus_contacts[axis] @ contact_transfer_matrix(axis))
    verts = np.concatenate(vertices)
    # anchor indices 0..2; face pair for axis a starts at 3 + 4a
    triangles = [(0, 1, 2)]
    limb_anchor = {(0, 1): 0, (0, -1): 1, (1, 1): 2, (1, -1): 0, (2, 1): 1, (2, -1): 2}
    for axis in range(3):
        base = 3 + 4 * axis
        triangles.append((limb_anchor[(axis, 1)], base, base + 1))
        triangles.append((limb_anchor[(axis, -1)], base + 2, base + 3))
    return Mesh(verts, np.array(triangles, dtype=np.int64))
