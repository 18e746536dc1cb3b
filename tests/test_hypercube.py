import itertools

import numpy as np
import pytest

from q8sculpt.hypercube import (
    candidate_stack,
    hyperoctahedral_candidates,
    q8_right_isometries,
    signed_permutation_matrices,
    sixteen_cell,
)
from q8sculpt.quat import (
    I,
    Q8_ELEMENTS,
    Isometry4,
    matrix_key,
    q8_mul,
    right_mul_matrix,
)
from q8sculpt.symmetry import _codes


def test_cell_action_consistent_with_geometry(rng, cell_labels):
    """Right multiplication by g, applied to points, moves each point of
    cell a into cell a*g."""
    points = rng.normal(size=(2000, 4))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    # stay away from tie boundaries
    mags = np.sort(np.abs(points), axis=1)
    points = points[mags[:, 3] - mags[:, 2] > 1e-6][:1000]
    assert len(points) == 1000
    labels = cell_labels(points)
    for g in Q8_ELEMENTS:
        moved = cell_labels(points @ right_mul_matrix(g).m)
        assert moved == [q8_mul(label, g) for label in labels]


def test_sixteen_cell_combinatorics():
    cell = sixteen_cell()
    assert cell.vertices.shape == (8, 4)
    assert sorted(np.abs(cell.vertices).sum(axis=1).tolist()) == [1] * 8
    # oracle: count all pairs minus the antipodal ones
    expected_edges = [
        (a, b)
        for a, b in itertools.combinations(range(8), 2)
        if not np.array_equal(cell.vertices[a], -cell.vertices[b])
    ]
    assert len(expected_edges) == 8 * 7 // 2 - 4 == 24
    assert list(cell.edges) == expected_edges
    degree = np.zeros(8, dtype=int)
    for a, b in cell.edges:
        degree[a] += 1
        degree[b] += 1
    assert degree.tolist() == [6] * 8


def test_candidate_universe_size_and_orientation_split():
    candidates = hyperoctahedral_candidates()
    assert len(candidates) == 384
    preserving = [c for c in candidates if c.is_orientation_preserving]
    assert len(preserving) == 192
    matrices, mask = candidate_stack()
    assert matrices.dtype == np.int8 and matrices.shape == (384, 4, 4)
    assert mask.tolist() == [c.is_orientation_preserving for c in candidates]
    # the float views hold the stack's rows; independent orientation oracle:
    # the numpy determinant of each float candidate
    for c, m, preserving in zip(candidates, matrices, mask):
        assert np.array_equal(c.m, m)
        det = np.linalg.det(c.m)
        assert abs(det - (1.0 if preserving else -1.0)) < 1e-9


def test_candidate_views_equal_isometries_built_one_by_one():
    """The 384 views are built unchecked, as signed permutations; each is
    the isometry that Isometry4's own check builds from its matrix."""
    matrices, _ = candidate_stack()
    candidates = hyperoctahedral_candidates()
    assert len(candidates) == len(matrices)
    for view, m in zip(candidates, matrices):
        single = Isometry4(m)
        assert view.m.dtype == np.float64 and np.array_equal(view.m, single.m)
        assert view.orientation == single.orientation
        assert view.key() == single.key()
    assert len({id(view.m.base) for view in candidates}) == 1  # rows of one stack


def test_codes_sort_the_stack_lexicographically():
    matrices, _ = candidate_stack()
    assert matrices[np.argsort(_codes(matrices))].tolist() == sorted(matrices.tolist())
    assert len(set(_codes(matrices).tolist())) == 384


def test_candidates_distinct_orthogonal_closed():
    candidates = hyperoctahedral_candidates()
    keys = {c.key() for c in candidates}
    assert len(keys) == 384
    mats = np.stack([np.rint(c.m).astype(np.int64) for c in candidates])
    for m in mats:
        assert np.array_equal(m @ m.T, np.eye(4, dtype=np.int64))
        products = np.einsum("ij,njk->nik", m, mats)
        for p in products:
            assert matrix_key(p) in keys


def test_candidate_lists_are_independent():
    first = hyperoctahedral_candidates()
    keys = [c.key() for c in first]
    first.reverse()
    del first[:100]
    again = hyperoctahedral_candidates()
    assert [c.key() for c in again] == keys
    assert again is not hyperoctahedral_candidates()
    with pytest.raises(ValueError):
        again[0].m[0, 0] = 2.0  # shared matrices are read-only


def test_candidates_contain_right_multiplications():
    keys = {c.key() for c in hyperoctahedral_candidates()}
    for iso in q8_right_isometries():
        assert iso.key() in keys
    assert matrix_key(right_mul_matrix(I).m) in keys


def test_signed_permutation_order():
    """The stack is in the order of the one-matrix-at-a-time reference:
    permutations lexicographically, then sign patterns, the identity first."""
    for n in (3, 4):
        eye = np.eye(n, dtype=np.int64)
        perms, signs = itertools.permutations(range(n)), list(itertools.product((1, -1), repeat=n))
        reference = np.stack([np.diag(s) @ eye[list(p)] for p in perms for s in signs])
        stack = signed_permutation_matrices(n)
        assert stack.dtype == np.int64 and np.array_equal(stack, reference)
        assert np.array_equal(stack[0], eye)


def test_signed_permutations_3d():
    mats = signed_permutation_matrices(3)
    assert len(mats) == 48
    assert len({matrix_key(m) for m in mats}) == 48
    rotations = [m for m in mats if round(float(np.linalg.det(m))) == 1]
    assert len(rotations) == 24
