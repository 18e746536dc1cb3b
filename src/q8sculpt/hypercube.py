"""Cell combinatorics of the hypercube [-1,1]^4.

The eight cubical cells are labelled by group elements: the cell pinned at
coordinate ``axis`` = ``sign`` gets the label with that axis and sign, so the
cell {w = +1} is labelled 1, {x = +1} is labelled i, and so on.  Which cell
is called 1 is an arbitrary base choice; fixing it to {w = +1} makes the
label of every other cell the element whose right multiplication reaches it.
Right multiplication permutes the cells; the cell centers are the vertices
of the 16-cell; and the signed permutations of the four coordinates are
exactly the isometries of R^4 preserving the cell decomposition.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .quat import Isometry4, Q8Element, Q8_ELEMENTS, integer_isometries, q8_mul, q8_right_matrix_int

# A cell label is just a group element.
CellLabel = Q8Element

ZERO_VECTOR_TOL = 1e-12


def cell_of_point(v: np.ndarray) -> CellLabel:
    """Label of the cell whose pinned coordinate dominates v in absolute value.

    Ties break to the lowest coordinate index (w before x before y before z);
    radially projected cube corners sit exactly on such ties.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    return cells_of_points(v[None])[0]


def cells_of_points(points: np.ndarray) -> list[CellLabel]:
    """Vectorized cell_of_point over an (n, 4) array."""
    points = np.asarray(points, dtype=np.float64)
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms <= ZERO_VECTOR_TOL):
        raise ValueError("cell_of_point is undefined at the zero vector")
    axes = np.argmax(np.abs(points), axis=1)  # argmax returns the first maximum
    signs = np.where(points[np.arange(len(points)), axes] > 0, 1, -1)
    return [Q8Element(int(s), int(a)) for s, a in zip(signs, axes)]


def cell_action(g: Q8Element) -> dict[CellLabel, CellLabel]:
    """The permutation of cell labels induced by right multiplication by g."""
    return {a: q8_mul(a, g) for a in Q8_ELEMENTS}


def _quarter_turn(axis: int) -> np.ndarray:
    """+90 degree right-handed rotation about +e_axis, acting on row vectors."""
    m = np.zeros((3, 3), dtype=np.int64)
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    m[axis, axis] = 1
    m[a1, a2] = 1
    m[a2, a1] = -1
    return m


def contact_transfer_matrix(axis: int) -> np.ndarray:
    """Map from a seed's +axis face plane onto its -axis face plane.

    This is the identification the hypercube gluing induces between the two
    opposite faces of the seed cube: reflect through the cube's mid-plane,
    then a quarter turn about the axis.  A point p of the +axis face of cell
    1 is, in 4-space, the point ``p @ contact_transfer_matrix(axis)`` of the
    -axis face of the neighbouring cell, so a seed connects with its
    transported copies exactly when its -face contact set is the image of
    its +face set.
    """
    reflect = np.eye(3, dtype=np.int64)
    reflect[axis, axis] = -1
    return reflect @ _quarter_turn(axis)


@dataclass(frozen=True)
class SixteenCell:
    """Vertices and edges of the dual polytope of the hypercube."""

    vertices: np.ndarray  # (8, 4) signed standard basis vectors
    edges: tuple[tuple[int, int], ...]  # 24 non-antipodal vertex pairs


def sixteen_cell() -> SixteenCell:
    """The 16-cell: vertices are the cell centers, in the group label order."""
    vertices = np.array([g.to_vec4() for g in Q8_ELEMENTS], dtype=np.int64)
    edges = []
    for a in range(8):
        for b in range(a + 1, 8):
            if not np.array_equal(vertices[a], -vertices[b]):
                edges.append((a, b))
    out = SixteenCell(vertices, tuple(edges))
    out.vertices.setflags(write=False)
    return out


def signed_permutation_matrices(n: int) -> list[np.ndarray]:
    """All signed n x n permutation matrices (row convention), integer entries.

    Deterministic order: permutations lexicographically, then sign patterns
    with +1 before -1 per coordinate.
    """
    eye = np.eye(n, dtype=np.int64)
    signs = [np.array(s)[:, None] for s in itertools.product((1, -1), repeat=n)]
    return [s * eye[list(perm)] for perm in itertools.permutations(range(n)) for s in signs]


@functools.cache
def candidate_stack() -> tuple[np.ndarray, np.ndarray]:
    """The candidates of :func:`hyperoctahedral_candidates`, in the same
    order, as one read-only int8 (384, 4, 4) array, and the read-only
    boolean mask of the orientation-preserving ones (determinant +1)."""
    matrices = np.stack(signed_permutation_matrices(4)).astype(np.int8)
    preserving = np.linalg.det(matrices) > 0
    matrices.setflags(write=False)
    preserving.setflags(write=False)
    return matrices, preserving


@functools.cache
def _candidate_tuple() -> tuple[Isometry4, ...]:
    return integer_isometries(candidate_stack()[0])


def hyperoctahedral_candidates() -> list[Isometry4]:
    """The 384 cell-decomposition-preserving isometries of S^3.

    These are the signed permutations of the four coordinates; the universe
    searched by the brute-force symmetry detector.  Contains the eight
    right-multiplication matrices of the group.  The isometries are built on
    the first call, with one orthogonality check over the stack, and shared
    (they are frozen, with read-only matrices); each call returns a fresh
    list.
    """
    return list(_candidate_tuple())


def q8_right_isometries() -> list[Isometry4]:
    """The eight right-multiplication matrices, in the group label order."""
    return [Isometry4(q8_right_matrix_int(g)) for g in Q8_ELEMENTS]
