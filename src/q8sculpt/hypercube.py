"""Cell combinatorics of the hypercube [-1,1]^4.

The eight cubical cells are labelled by group elements: the cell pinned at
coordinate ``axis`` = ``sign`` gets the label with that axis and sign, so the
cell {w = +1} is labelled 1, {x = +1} is labelled i, and so on.  Which cell
is called 1 is an arbitrary base choice; fixing it to {w = +1} makes the
label of every other cell the element whose right multiplication reaches it.

The module holds the cell centers (the vertices of the 16-cell), the map a
gluing induces between opposite faces of the seed cube, and the search
universe of the symmetry detector: the signed permutations of the four
coordinates, exactly the isometries of R^4 preserving the cell
decomposition, of which the eight right multiplications are a subgroup,
and the double cosets of that subgroup in it.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .quat import Isometry4, Q8_ELEMENTS, q8_right_matrix_int


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


class SixteenCell(NamedTuple):
    """Vertices and edges of the dual polytope of the hypercube: ``vertices``
    the (8, 4) signed standard basis vectors, ``edges`` the 24 pairs of
    vertex indices that are not antipodal."""

    vertices: np.ndarray
    edges: tuple[tuple[int, int], ...]


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


def signed_permutation_matrices(n: int) -> np.ndarray:
    """All signed n x n permutation matrices (row convention), as one int64
    (2^n n!, n, n) stack.

    Deterministic order: permutations lexicographically, then sign patterns
    (one sign per row) with +1 before -1 per coordinate; the identity first.
    """
    perms = np.eye(n, dtype=np.int64)[list(itertools.permutations(range(n)))]
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    return (signs[None, :, :, None] * perms[:, None]).reshape(-1, n, n)


@functools.cache
def candidate_stack() -> tuple[np.ndarray, np.ndarray]:
    """The candidates of :func:`hyperoctahedral_candidates`, in the same
    order, as one read-only int8 (384, 4, 4) array, and the read-only
    boolean mask of the orientation-preserving ones (determinant +1)."""
    matrices = signed_permutation_matrices(4).astype(np.int8)
    preserving = np.linalg.det(matrices) > 0
    matrices.setflags(write=False)
    preserving.setflags(write=False)
    return matrices, preserving


def _codes(m: np.ndarray) -> np.ndarray:
    """Balanced-ternary code of each (..., 4, 4) matrix with entries in {-1, 0, 1},
    first entry most significant: injective, and sorting as the entry lists do."""
    return m.reshape(*m.shape[:-2], 16) @ 3 ** np.arange(15, -1, -1)


@functools.cache
def q8_double_cosets() -> tuple[np.ndarray, np.ndarray]:
    """The double cosets R(Q8) c R(Q8) of the candidates of :func:`candidate_stack`.

    Returns two read-only index arrays into the stack: for each candidate,
    the first candidate of its double coset, and the right multiplications
    by i and j, which generate R(Q8).  The 384 candidates fall into 30
    double cosets, 24 of 8 and 6 of 32; the identity's, label 0, is R(Q8).
    A candidate c's label is the least position of its 64 products
    r_a c r_b, read as R[L[a, c], b] from the positions L[a, c] of r_a c
    and R[c, b] of c r_b.
    """
    matrices, _ = candidate_stack()
    codes = _codes(matrices)
    order = np.argsort(codes)

    def positions(stack: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(codes, _codes(stack), sorter=order)]

    r = np.stack([q8_right_matrix_int(g) for g in Q8_ELEMENTS]).astype(np.int8)
    L, R = positions(r[:, None] @ matrices), positions(matrices[:, None] @ r)
    first = np.min(R[L], axis=(0, 2))
    at_generators = L[[2, 4], 0]  # r_i and r_j (i, j are elements 2, 4) times candidate 0, the identity
    first.setflags(write=False)
    at_generators.setflags(write=False)
    return first, at_generators


@functools.cache
def _candidate_tuple() -> tuple[Isometry4, ...]:
    floats = candidate_stack()[0].astype(np.float64)
    floats.setflags(write=False)
    # signed permutation matrices are orthogonal by construction
    return tuple(Isometry4._trusted(m=m) for m in floats)


def hyperoctahedral_candidates() -> list[Isometry4]:
    """The 384 cell-decomposition-preserving isometries of S^3.

    These are the signed permutations of the four coordinates; the universe
    searched by the brute-force symmetry detector.  Contains the eight
    right-multiplication matrices of the group.  The isometries are built on
    the first call, as views of one read-only float copy of
    :func:`candidate_stack`, and shared; each call returns a fresh list.
    """
    return list(_candidate_tuple())


def q8_right_isometries() -> list[Isometry4]:
    """The eight right-multiplication matrices, in the group label order."""
    return [Isometry4(q8_right_matrix_int(g)) for g in Q8_ELEMENTS]
