"""Decorated cubes, their face-matching rule, line/ring/hypercube assemblies,
and the labelled-cell path calculus.

A block is a cube whose six faces carry a motif (face, paw or tail), a
chirality (the motif or its mirror image) and a quarter-turn orientation.
Orientation conventions, fixed once:

- Face frames: the face with outward normal n = sign * e_axis has reference
  tangent u = e_((axis+1) % 3), identical for both signs.
- Turns are quarter turns of the motif measured in the right-hand sense about
  the INWARD normal (clockwise as seen from outside the cube).
- A screw step of +1 along an axis rotates the next block by one quarter turn
  in that same sense about the travel direction.

Two decorated faces in direct contact match when their motifs agree, their
chiralities are opposite (each side sees the other's mirror image) and their
turns cancel.  The hypercube's 24 shared squares bend that contact through
the fourth dimension: each joins the +face and the -face of one local axis,
eight squares per axis, and demands mirror matching with turns summing to 1
(mod 4).  The assembly audit is therefore one check per axis; the tests
derive the 24 gluings from cell transport and hold the audit to them.

These blocks cannot tile flat 3-space: four blocks can never match around a
single edge.  A chain of them closes only by bending 90 degrees into the
fourth dimension, which is why a loop of four works and why eight fill the
hypercube boundary.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .quat import Q8Element, Q8_ELEMENTS, GENERATORS, ValueRecord, q8_mul
from .hypercube import _quarter_turn, signed_permutation_matrices
from .mesh_pipeline import Mesh, orbit_cloud

MOTIFS = ("face", "paw", "tail")
CHIRALITIES = ("left", "right")

#: Face identifiers (axis, sign) in a fixed order: +X, -X, +Y, -Y, +Z, -Z.
FACES: tuple[tuple[int, int], ...] = ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))

_AXIS_LETTERS = "XYZ"


def face_name(face: tuple[int, int]) -> str:
    axis, sign = face
    return ("+" if sign > 0 else "-") + _AXIS_LETTERS[axis]


_ROT3_POWERS = tuple(
    tuple(np.linalg.matrix_power(_quarter_turn(a), k) for k in range(4)) for a in range(3)
)


def quarter_turn_matrix(axis: int, turns: int = 1) -> np.ndarray:
    """Rotation by ``turns`` right-handed quarter turns about +e_axis.

    A screw step of s quarter turns along the axis is ``turns = -s``:
    positive steps turn in the same sense as face turns (about the inward
    travel direction), i.e. by -90 degrees right-handed about +e_axis each.
    """
    return _ROT3_POWERS[axis][turns % 4].copy()


def face_arrow(face: tuple[int, int], turn: int) -> np.ndarray:
    """Direction the motif points at the given turn, as an integer 3-vector:
    the reference tangent e_((axis+1) % 3) carried by the face's turn."""
    axis, sign = face
    return _ROT3_POWERS[axis][(-sign * turn) % 4][(axis + 1) % 3].copy()


_TURN_OF_ARROW = {
    face: {tuple(face_arrow(face, t)): t for t in range(4)} for face in FACES
}


class FaceDecoration(ValueRecord):
    """Motif, chirality and quarter-turn orientation on one cube face."""

    __slots__ = __match_args__ = ("motif", "chirality", "turn")

    def __init__(self, motif: str, chirality: str, turn: int) -> None:
        if motif not in MOTIFS:
            raise ValueError(f"unknown motif {motif!r}")
        if chirality not in CHIRALITIES:
            raise ValueError(f"unknown chirality {chirality!r}")
        if turn not in (0, 1, 2, 3):
            raise ValueError(f"turn must be 0..3, got {turn!r}")
        self._store(motif=motif, chirality=chirality, turn=turn)

    def mirrored(self) -> "FaceDecoration":
        other = "left" if self.chirality == "right" else "right"
        return FaceDecoration(self.motif, other, self.turn)


class DecoratedBlock(ValueRecord):
    """A cube with one decoration per face, keyed by (axis, sign), in a
    read-only mapping of its own; hashed by the six decorations in ``FACES``
    order."""

    __slots__ = __match_args__ = ("faces",)

    def __init__(self, faces: dict[tuple[int, int], FaceDecoration]) -> None:
        if set(faces) != set(FACES):
            raise ValueError("a block needs exactly the six cube faces")
        self._store(faces=MappingProxyType(dict(faces)))

    def __hash__(self) -> int:
        return hash(tuple(self.faces[face] for face in FACES))

    def __reduce__(self) -> tuple:
        return DecoratedBlock, (dict(self.faces),)  # a mapping proxy does not pickle

    def face(self, axis: int, sign: int) -> FaceDecoration:
        return self.faces[(axis, sign)]

    def transform(self, r: np.ndarray) -> "DecoratedBlock":
        """Image of the block under a signed permutation of the cube.

        Rotations move decorations between faces and re-express their turns
        in the target face frame; reflections additionally mirror every motif.
        """
        r = np.asarray(r, dtype=np.int64)
        det = int(round(float(np.linalg.det(r))))
        if det not in (1, -1):
            raise ValueError("expected a signed permutation matrix")
        new_faces = {}
        for (axis, sign), dec in self.faces.items():
            image = sign * r[axis]
            new_axis = int(np.argmax(np.abs(image)))
            new_sign = int(image[new_axis])
            arrow_image = face_arrow((axis, sign), dec.turn) @ r
            new_turn = _TURN_OF_ARROW[(new_axis, new_sign)][tuple(arrow_image)]
            moved = FaceDecoration(dec.motif, dec.chirality, new_turn)
            if det < 0:
                moved = moved.mirrored()
            new_faces[(new_axis, new_sign)] = moved
        return DecoratedBlock(new_faces)


def standard_block() -> DecoratedBlock:
    """The reference block: tails on +-X, paws on +-Y, face motifs on +-Z.

    Positive faces carry the right-handed motif at turn 0, negative faces the
    left-handed motif at turn 1.  On each axis exactly the four turn pairs
    (t, 1 - t mod 4) assemble the hypercube, and the same four close a
    +1-step screw line along that axis; this block takes t = 0 on all three.
    """
    motif_of_axis = {0: "tail", 1: "paw", 2: "face"}
    faces = {}
    for axis, sign in FACES:
        motif = motif_of_axis[axis]
        if sign > 0:
            faces[(axis, sign)] = FaceDecoration(motif, "right", 0)
        else:
            faces[(axis, sign)] = FaceDecoration(motif, "left", 1)
    return DecoratedBlock(faces)


def faces_match(a: FaceDecoration, b: FaceDecoration, relative_turn: int) -> bool:
    """Mirror-image matching of two decorated faces brought into contact.

    True when the motifs agree, the chiralities are opposite, and the turns
    satisfy ``turn(a) + turn(b) = relative_turn (mod 4)``.  Direct contact in
    3-space demands ``relative_turn = 0``; the hypercube's bent gluings demand
    ``relative_turn = 1`` (see :func:`assemble_hypercube`).
    """
    return (
        a.motif == b.motif
        and a.chirality != b.chirality
        and (a.turn + b.turn - relative_turn) % 4 == 0
    )


def block_symmetries(block: DecoratedBlock) -> list[np.ndarray]:
    """All of the 48 signed-permutation cube isometries preserving the block."""
    return [r for r in signed_permutation_matrices(3) if block.transform(r) == block]


# ---------------------------------------------------------------------------
# lines and rings


class LineReport(NamedTuple):
    """Outcome of verifying a line or ring of placed blocks."""

    ok: bool
    first_mismatch: Optional[tuple[int, int]]
    mismatch_reason: Optional[str]
    screw_step: Optional[int]
    screw_order: Optional[int]
    translation_period: Optional[int]


def line_placements(
    block: DecoratedBlock, count: int, axis: int = 0, step: int = 1
) -> list[DecoratedBlock]:
    """Blocks of a screw line: block n is the seed turned n*step quarter turns."""
    return [block.transform(quarter_turn_matrix(axis, -n * step)) for n in range(count)]


def verify_line(
    blocks: Sequence[DecoratedBlock], axis: int = 0, wrap: bool = False
) -> LineReport:
    """Check every adjacent face pair of a line (or ring, with wrap) of blocks.

    Adjacent blocks touch +axis face to -axis face; a pair fails on motif,
    chirality or turn per :func:`faces_match`.  On success the report also
    describes the pattern's screw generator and translation period.
    """
    n = len(blocks)
    if n < 2:
        raise ValueError("need at least two blocks to verify a line")
    pairs = [(idx, idx + 1) for idx in range(n - 1)]
    if wrap:
        pairs.append((n - 1, 0))
    for p, q in pairs:
        a = blocks[p].faces[(axis, 1)]
        b = blocks[q].faces[(axis, -1)]
        if not faces_match(a, b, 0):
            reason = (
                f"blocks {p} and {q} disagree across the shared face: "
                f"{a.motif}/{a.chirality}/turn {a.turn} against "
                f"{b.motif}/{b.chirality}/turn {b.turn}"
            )
            return LineReport(False, (p, q), reason, None, None, None)

    screw_step = None
    for step in (1, 3, 2, 0):
        single = quarter_turn_matrix(axis, -step)
        if all(blocks[q] == blocks[p].transform(single) for p, q in pairs):
            screw_step = step
            break
    screw_order = 4 // math.gcd(screw_step, 4) if screw_step else None

    translation_period = None
    for period in range(1, n + 1 if wrap else n):
        compared = range(n if wrap else n - period)
        if all(blocks[(idx + period) % n] == blocks[idx] for idx in compared):
            translation_period = period
            break

    return LineReport(True, None, None, screw_step, screw_order, translation_period)


# ---------------------------------------------------------------------------
# the hypercube assembly

def _frame(face: tuple[int, int], turn: int) -> np.ndarray:
    """A face's frame in the cube, as three integer rows: the face centre,
    the motif arrow at ``turn`` and the transverse direction (one more
    quarter turn in the turn sense)."""
    axis, sign = face
    frame = np.zeros((3, 3), dtype=np.int64)
    frame[0, axis] = sign
    frame[1] = face_arrow(face, turn)
    frame[2] = face_arrow(face, turn + 1)
    return frame


class HypercubeAssembly(NamedTuple):
    """A block placed in every cell by cell transport, plus the match audit:
    the local axes whose eight shared squares fail to match."""

    block: DecoratedBlock
    failed_axes: tuple[int, ...]

    @property
    def matched(self) -> int:
        return 8 * (3 - len(self.failed_axes))

    @property
    def valid(self) -> bool:
        return not self.failed_axes


def assemble_hypercube(block: Optional[DecoratedBlock] = None) -> HypercubeAssembly:
    """Place one copy of the block per cell and audit all 24 shared squares.

    The placement in cell g is the cell-1 placement transported by right
    multiplication, so every block is the same block in its local frame.
    Each shared square joins the +face of one cell to the -face of the
    same local axis of its neighbour, eight squares per axis, and demands
    mirror matching with ``relative_turn = 1``.  So the audit is one
    :func:`faces_match` per axis, and an axis passes or fails all eight of
    its squares together.
    """
    if block is None:
        block = standard_block()
    failed = tuple(
        axis for axis in range(3) if not faces_match(block.faces[(axis, 1)], block.faces[(axis, -1)], 1)
    )
    return HypercubeAssembly(block, failed)


# Tangential offsets distinguishing the motifs in the decoration encoding;
# small enough that every sample point stays inside its own face square.
_MOTIF_OFFSET = {"face": 0.11, "paw": 0.13, "tail": 0.17}
_CHIRALITY_OFFSET = 0.07


def block_seed(block: DecoratedBlock) -> Mesh:
    """The block as a seed mesh in the cube: two marker vertices per face,
    in :data:`FACES` order.  With centre, arrow and transverse the rows of
    the face's frame (:func:`_frame`), one marker lies along the motif
    arrow at a motif-specific distance, the other off-axis on the motif's
    handedness side.  Per axis, two triangles join the +face's markers to
    the -face's; a core triangle joins the +faces' arrow markers, so the
    print is one piece.  A valid assembly's matched squares receive the
    same marker from both incident cells, so the seed passes the contact
    audit exactly when :func:`assemble_hypercube` matches all 24 squares."""
    vertices = []
    for face in FACES:
        dec = block.faces[face]
        center, arrow, sigma = _frame(face, dec.turn)
        hand = 1 if dec.chirality == "right" else -1
        vertices.append(center + _MOTIF_OFFSET[dec.motif] * arrow)
        vertices.append(center + _CHIRALITY_OFFSET * (arrow + hand * sigma))
    joins = [(4 * a, 4 * a + 1, 4 * a + 2) for a in range(3)] + [(4 * a + 1, 4 * a + 3, 4 * a + 2) for a in range(3)]
    return Mesh(np.array(vertices), [*joins, (0, 4, 8)])


def decoration_cloud(assembly: HypercubeAssembly) -> np.ndarray:
    """A valid assembly's decorations as a point cloud on the 3-sphere: the
    orbit cloud of :func:`block_seed`, one marker pair per shared square
    (48 points), whose symmetries are exactly the isometries preserving the
    decorated assembly.  Raises ValueError on an assembly with a mismatch."""
    if not assembly.valid:
        raise ValueError("decoration encoding requires a fully matched assembly")
    return orbit_cloud(block_seed(assembly.block))


# ---------------------------------------------------------------------------
# the labelled-cell graph


class CayleyGraph(NamedTuple):
    """Directed graph on the eight labels with one arc per generator."""

    nodes: tuple[Q8Element, ...]
    arcs: tuple[tuple[Q8Element, Q8Element, Q8Element], ...]  # (from, generator, to)


def cayley_graph() -> CayleyGraph:
    nodes = Q8_ELEMENTS
    arcs = tuple(
        (node, gen, q8_mul(node, gen)) for node in nodes for gen in GENERATORS
    )
    return CayleyGraph(nodes, arcs)


def follow_path(start: Q8Element, word: Sequence[Q8Element]) -> Q8Element:
    """Right-multiply the start label by each letter of the word in order.

    Letters must be +-i, +-j or +-k; traversing an arc backwards corresponds
    to a negative letter.
    """
    current = start
    for letter in word:
        if letter.axis == 0:
            raise ValueError(f"path letters must be imaginary units, got {letter.name}")
        current = q8_mul(current, letter)
    return current


def to_dot(graph: CayleyGraph) -> str:
    """Render the labelled-cell graph in DOT, arcs labelled by generator."""
    lines = ["digraph q8_cayley {", "  node [shape=circle];"]
    for node in graph.nodes:
        lines.append(f'  "{node.name}";')
    for src, gen, dst in graph.arcs:
        lines.append(f'  "{src.name}" -> "{dst.name}" [label="{gen.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
