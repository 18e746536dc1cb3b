"""Mesh ingestion, the eight-fold transform pipeline, feature-size analysis,
seed connectivity validation, and export for 3D printing.

The pipeline moves a seed design living in the cube [-1,1]^3 through:
embed into the w=+1 cell, project radially onto the 3-sphere, right-multiply
by a group element, and stereographically project back to 3-space.  Running
all eight elements produces the eight copies of the sculpture.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Iterable, Sequence

import numpy as np

from .quat import Q8Element, Q8_ELEMENTS, Record, q8_right_matrix_int
from .projection import Pole, PoleProximityError, radial_to_s3, stereo_project
from .hypercube import contact_transfer_matrix
from .symmetry import DEFAULT_TOL, _check_separation, _dedup, _well_posed_tol

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
    """Malformed mesh data; the message names the offending input line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class Mesh(Record):
    """Triangle mesh: float vertices and integer index triples, both held
    read-only."""

    __slots__ = __match_args__ = ("vertices", "triangles")

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray) -> None:
        v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3).copy()
        t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).copy()
        _check_finite(v)
        if len(t):
            if t.min() < 0 or t.max() >= len(v):
                raise ValueError("triangle index out of range")
            repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if np.any(repeated):
                raise ValueError(f"degenerate triangle at index {int(np.argmax(repeated))}")
        self._store(vertices=v, triangles=t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def scaled(self, factor: float) -> "Mesh":
        """The mesh with every vertex multiplied by ``factor``; it shares this
        mesh's triangle array."""
        vertices = self.vertices * factor
        _check_finite(vertices)
        return Mesh._trusted(vertices=vertices, triangles=self.triangles)


def _check_finite(vertices: np.ndarray) -> None:
    if not np.all(np.isfinite(vertices)):
        raise ValueError("mesh vertices must be finite")


def load_obj(data: bytes | str) -> Mesh:
    """Parse OBJ text: v records and (polygonal) f records, fan-triangulated.

    Indices are 1-based and must be positive; face tokens may carry /vt/vn
    suffixes, which are ignored.  Unknown record types are skipped.  Text is
    UTF-8; a leading byte-order mark is ignored.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    data = data.removeprefix("\ufeff")
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
                coords = [float(tok) for tok in tokens[1:4]]
            except ValueError:
                raise MeshFormatError(f"bad vertex coordinate in {raw!r}", lineno) from None
            if not all(map(math.isfinite, coords)):
                raise MeshFormatError(f"non-finite vertex coordinate in {raw!r}", lineno)
            vertices.append(coords)
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
    return Mesh._trusted(
        vertices=np.array(vertices, dtype=np.float64).reshape(-1, 3),
        triangles=np.array(triangles, dtype=np.int64).reshape(-1, 3),
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


def sculpture_files(bundle: SculptureBundle, fmt: str) -> tuple[dict[Q8Element, bytes], bytes]:
    """Each part's file and the merged file of a bundle in format ``fmt``,
    "obj" or "stl", cut from one encoding of the merged mesh.

    The files are byte for byte what :func:`write_obj` writes for each mesh
    with one comment line naming it, or what :func:`write_stl` writes.  A
    part's vertex lines or STL records are a run of the merged file's, in
    part order.  An OBJ part's face lines are the merged file's first ones,
    which hold the first part's triangles at offset zero; so every part
    must have the same triangles, as :func:`generate_sculpture`'s parts do,
    else ValueError.
    """
    meshes = list(bundle.parts.values())
    if fmt == "stl":
        merged = write_stl(bundle.merged)
        head, size = len(_STL_HEADER) + 4, _STL_RECORD.itemsize
        ends = np.cumsum([m.n_triangles for m in meshes]).tolist()
        parts = [
            _STL_HEADER + struct.pack("<I", hi - lo) + merged[head + lo * size : head + hi * size]
            for lo, hi in zip([0, *ends], ends)
        ]
    elif fmt == "obj":
        triangles = meshes[0].triangles
        if not all(np.array_equal(m.triangles, triangles) for m in meshes):
            raise ValueError("OBJ part files need every part to have the same triangles")
        merged = write_obj(bundle.merged, comments=["q8sculpt merged sculpture"])
        # line_end[n] is the offset just past line n; line 0 is the comment,
        # lines 1..n_vertices the vertices, then the faces
        line_end = (np.flatnonzero(np.frombuffer(merged, dtype=np.uint8) == ord("\n")) + 1).tolist()
        first_face = bundle.merged.n_vertices
        faces = merged[line_end[first_face] : line_end[first_face + len(triangles)]]
        ends = np.cumsum([m.n_vertices for m in meshes]).tolist()
        parts = [
            f"# q8sculpt part, element {g.name}\n".encode() + merged[line_end[lo] : line_end[hi]] + faces
            for g, lo, hi in zip(bundle.parts, [0, *ends], ends)
        ]
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    return dict(zip(bundle.parts, parts)), merged


def _check_seed_domain(mesh: Mesh) -> None:
    overshoot = np.max(np.abs(mesh.vertices), axis=1) - 1.0
    bad = np.nonzero(overshoot > SEED_DOMAIN_TOL)[0]
    if len(bad):
        raise ValueError(
            f"seed vertex {int(bad[0])} lies outside the cube [-1,1]^3 "
            f"by {float(overshoot[bad[0]]):.3g}"
        )


def unprojected_part_points(seed: Mesh, g: Q8Element) -> np.ndarray:
    """Seed vertices radially lifted to the 3-sphere and moved by element g.

    The pipeline's one lift, so the one place where a seed leaves the cube:
    raises ValueError for a vertex beyond [-1,1]^3 by ``SEED_DOMAIN_TOL``."""
    _check_seed_domain(seed)
    return radial_to_s3(seed.vertices) @ q8_right_matrix_int(g)


def transform_mesh(seed: Mesh, g: Q8Element, pole: Pole) -> Mesh:
    """One leg of the pipeline: lift the seed, right-multiply by g, project.

    Raises :class:`PoleProximityError` naming the seed vertex and the element
    when a transformed vertex lands on the projection pole.
    """
    try:
        projected = stereo_project(unprojected_part_points(seed, g), pole)
    except PoleProximityError as exc:
        raise PoleProximityError(f"seed {exc} under element {g.name}") from None
    _check_finite(projected)
    return Mesh._trusted(vertices=projected, triangles=seed.triangles)


class SculptureBundle(Record):
    """The eight transformed copies, and ``merged``, their union computed
    from them by :func:`merge_meshes` on first use."""

    __match_args__ = ("parts",)  # no __slots__: the cached property needs a __dict__

    def __init__(self, parts: dict[Q8Element, Mesh]) -> None:
        self._store(parts=parts)

    @functools.cached_property
    def merged(self) -> Mesh:
        return merge_meshes(list(self.parts.values()))

    def scaled(self, scale: float) -> "SculptureBundle":
        """The bundle of every part multiplied by ``scale``.

        The one check of a scale: raises ValueError unless it is positive
        and keeps every coordinate within the float32 range that a printed
        STL can hold.
        """
        if not scale > 0:
            raise ValueError("scale must be positive")
        extent = max(float(np.max(np.abs(m.vertices), initial=0.0)) for m in self.parts.values()) * scale
        if not extent <= FLOAT32_MAX:
            raise ValueError(
                f"scale {scale:.6g} puts a coordinate at {extent:.6g}, "
                f"beyond the float32 range {FLOAT32_MAX:.6g}"
            )
        return SculptureBundle({g: m.scaled(scale) for g, m in self.parts.items()})


def merge_meshes(meshes: Sequence[Mesh]) -> Mesh:
    """The meshes side by side, each one's triangles offset past the
    vertices before it.  Each part was checked, and an offset keeps its
    triangles in range and their indices distinct, so nothing is checked
    again."""
    vertices = []
    triangles = []
    offset = 0
    for mesh in meshes:
        vertices.append(mesh.vertices)
        triangles.append(mesh.triangles + offset)
        offset += mesh.n_vertices
    return Mesh._trusted(vertices=np.concatenate(vertices), triangles=np.concatenate(triangles))


def generate_sculpture(seed: Mesh, pole: Pole, scale: float = 1.0) -> SculptureBundle:
    """Transform the seed by all eight elements, in the fixed label order,
    and scale uniformly by :meth:`SculptureBundle.scaled` (whose ValueError
    refuses a bad scale)."""
    return SculptureBundle({g: transform_mesh(seed, g, pole) for g in Q8_ELEMENTS}).scaled(scale)


def feature_stats(mesh: Mesh) -> dict[str, float]:
    """Minimum and maximum triangle edge length, and their ratio.

    Raises ValueError when an edge has zero length (coincident vertices, or
    a scale so small that the edge underflows), where the ratio is undefined,
    and when the longest edge or the ratio lies beyond the float range.  An
    edge whose squared length overflows is measured again with ``np.hypot``.
    """
    if mesh.n_triangles == 0:
        raise ValueError("feature statistics need a non-empty mesh")
    tri = mesh.vertices[mesh.triangles]
    with np.errstate(over="ignore"):  # an overflow is measured again, or refused, below
        edges = np.concatenate(
            [tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2]]
        )
        lengths = np.linalg.norm(edges, axis=1)
        overflowed = np.isinf(lengths)
        lengths[overflowed] = np.hypot.reduce(edges[overflowed], axis=1)
    min_edge = float(np.min(lengths))
    max_edge = float(np.max(lengths))
    if min_edge == 0.0:
        shortest = int(np.argmin(lengths)) % mesh.n_triangles
        raise ValueError(f"triangle {shortest} has a zero-length edge")
    ratio = max_edge / min_edge
    if ratio == math.inf:
        longest = int(np.argmax(lengths)) % mesh.n_triangles
        raise ValueError(
            f"triangle {longest} has an edge {max_edge:.3g} long, {min_edge:.3g} the shortest: "
            "their ratio lies beyond the float range"
        )
    return {"min_edge": min_edge, "max_edge": max_edge, "ratio": ratio}


def scale_for_min_feature(merged: Mesh, min_feature: float) -> float:
    """A scale >= 1 making every edge of ``merged.scaled(scale)``, and so of
    the scaled parts that merge into it, at least ``min_feature`` long, where
    ``merged`` is the sculpture at scale 1: min_feature / shortest edge,
    stepped up while rounding leaves the scaled shortest edge short.

    Raises ValueError when that scale puts a coordinate beyond the float32
    range, which :meth:`SculptureBundle.scaled` refuses.
    """
    if not min_feature > 0:
        raise ValueError("min_feature must be positive")
    scale = max(1.0, min_feature / feature_stats(merged)["min_edge"])
    extent = float(np.max(np.abs(merged.vertices)))
    while scale * extent <= FLOAT32_MAX:
        got = feature_stats(merged.scaled(scale))["min_edge"]
        if got >= min_feature:
            return scale
        scale = float(np.nextafter(scale * (min_feature / got), math.inf))  # min_feature / got > 1, so the scale grows
    raise ValueError(f"--min-feature {min_feature:.6g} needs a scale beyond the float range")


def face_contact_check(seed: Mesh, tol: float = DEFAULT_TOL) -> dict:
    """Verify the seed can connect to its transported copies through all six
    cube faces: the ``contact`` object of the ``check-seed`` report,
    ``{"passed": ..., "axes": {"x": {"passed", "plus_count", "minus_count",
    "unmatched_plus", "unmatched_minus"}, "y": ..., "z": ...}}``.

    For each axis, the vertices on the +face must map onto the vertices on
    the -face under that axis's :func:`~q8sculpt.hypercube.contact_transfer_matrix`,
    point for point within ``tol``.  Contacts left without a partner are
    listed as unmatched: all of them on an axis where only one face has
    contacts.  An axis with no contact at all fails, since nothing would
    physically connect there.  Two seed vertices closer than ``2 * tol``
    make the matching ambiguous and raise ValueError.  Under that guard each
    image has at most one seed vertex within ``tol``, so the guard's own
    index pairs the images, and a partner counts only on the -face.
    """
    _check_seed_domain(seed)
    index = _well_posed_tol(seed.vertices, tol)
    axes = {}
    for axis, letter in enumerate("xyz"):
        coords = seed.vertices[:, axis]
        plus = seed.vertices[np.abs(coords - 1.0) <= tol]
        on_minus = np.abs(coords + 1.0) <= tol
        i, j, _ = index.pairs(plus @ contact_transfer_matrix(axis), tol)
        hit = on_minus[j]
        i, j = i[hit], j[hit]
        unmatched_minus = on_minus.copy()
        unmatched_minus[j] = False
        minus_count = int(np.count_nonzero(on_minus))
        axes[letter] = {
            "passed": 0 < len(plus) == minus_count == len(i),
            "plus_count": len(plus),
            "minus_count": minus_count,
            "unmatched_plus": np.delete(plus, i, axis=0).tolist(),
            "unmatched_minus": seed.vertices[unmatched_minus].tolist(),
        }
    return {"passed": all(a["passed"] for a in axes.values()), "axes": axes}


def orbit_cloud(seed: Mesh) -> np.ndarray:
    """The sculpture's point cloud on the 3-sphere: all eight images of the
    seed vertices, greedily deduplicated within ``DEFAULT_TOL``.  The lift is
    1-Lipschitz, so contacts matched within that tolerance merge here.

    Raises ValueError when two kept points lie within ``2 * DEFAULT_TOL``,
    where the guard of ``verify`` would refuse the cloud as ill-posed."""
    stacked = np.concatenate([unprojected_part_points(seed, g) for g in Q8_ELEMENTS])
    kept, separation = _dedup(stacked, DEFAULT_TOL)
    _check_separation(DEFAULT_TOL, separation)
    return stacked[kept]


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
