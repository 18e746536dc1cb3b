import functools
import itertools
import pickle
from collections import namedtuple

import numpy as np
import pytest

from q8sculpt.blocks import (
    CHIRALITIES,
    FACES,
    MOTIFS,
    DecoratedBlock,
    FaceDecoration,
    _frame,
    _CHIRALITY_OFFSET,
    _MOTIF_OFFSET,
    assemble_hypercube,
    block_seed,
    block_symmetries,
    cayley_graph,
    decoration_cloud,
    face_name,
    faces_match,
    follow_path,
    line_placements,
    quarter_turn_matrix,
    standard_block,
    to_dot,
    verify_line,
)
from q8sculpt.hypercube import contact_transfer_matrix, signed_permutation_matrices
from q8sculpt.mesh_pipeline import face_contact_check
from q8sculpt.quat import GENERATORS, I, J, K, MINUS_ONE, ONE, Q8_ELEMENTS, Q8Element, q8_mul, q8_right_matrix_int
from q8sculpt.symmetry import DEFAULT_TOL, _carrying


def test_standard_block_decorations():
    block = standard_block()
    top, bottom = block.face(2, 1), block.face(2, -1)
    assert (top.motif, top.chirality, top.turn) == ("face", "right", 0)
    assert (bottom.motif, bottom.chirality, bottom.turn) == ("face", "left", 1)
    assert assemble_hypercube(block).valid


def test_blocks_hash_by_value_and_keep_their_own_faces():
    block = standard_block()
    assert hash(block) == hash(standard_block())
    assert len({block, block.transform(np.eye(3, dtype=np.int64))}) == 1
    faces = dict(block.faces)
    own = DecoratedBlock(faces)
    faces[(0, 1)] = faces[(0, 1)].mirrored()
    assert own == block and own.faces[(0, 1)] == block.faces[(0, 1)]


def test_a_checked_block_cannot_be_changed_through_its_faces():
    block = standard_block()
    blocks = {block}
    with pytest.raises(TypeError):
        block.faces[(0, 1)] = block.faces[(0, 1)].mirrored()
    assert block in blocks and assemble_hypercube(block).valid
    assert pickle.loads(pickle.dumps(block)) == block == DecoratedBlock(block.faces)


def test_well_formedness_catches_violations():
    """A wrong turn or a wrong motif on one face fails that face's axis."""
    block = standard_block()
    faces = dict(block.faces)
    good = faces[(1, -1)]
    faces[(1, -1)] = FaceDecoration(good.motif, good.chirality, (good.turn + 1) % 4)
    assert assemble_hypercube(DecoratedBlock(faces)).failed_axes == (1,)
    faces = dict(block.faces)
    faces[(0, -1)] = FaceDecoration("paw", good.chirality, faces[(0, -1)].turn)
    assert assemble_hypercube(DecoratedBlock(faces)).failed_axes == (0,)


def test_faces_match_examples():
    right_paw = FaceDecoration("paw", "right", 0)
    left_paw = FaceDecoration("paw", "left", 0)
    assert faces_match(right_paw, left_paw, 0)
    assert not faces_match(right_paw, right_paw, 0)
    assert not faces_match(right_paw, FaceDecoration("tail", "left", 0), 0)


def test_block_transform_composes(rng):
    block = standard_block()
    mats = signed_permutation_matrices(3)
    for _ in range(60):
        r1 = mats[rng.integers(48)]
        r2 = mats[rng.integers(48)]
        assert block.transform(r1).transform(r2) == block.transform(r1 @ r2)
    eye = np.eye(3, dtype=np.int64)
    assert block.transform(eye) == block


def _without_face(face):
    faces = dict(standard_block().faces)
    del faces[face]
    return faces


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: FaceDecoration("wing", "right", 0), "unknown motif"),
        (lambda: FaceDecoration("paw", "up", 0), "unknown chirality"),
        (lambda: FaceDecoration("paw", "right", 4), "turn must be 0..3"),
        (lambda: DecoratedBlock(_without_face((0, -1))), "exactly the six cube faces"),
        (lambda: standard_block().transform(2 * np.eye(3)), "signed permutation"),
        (lambda: standard_block().transform(np.zeros((3, 3))), "signed permutation"),
        (lambda: verify_line([standard_block()]), "at least two blocks"),
        (lambda: verify_line([]), "at least two blocks"),
    ],
    ids=["motif", "chirality", "turn", "missing-face", "scaled-map", "singular-map", "one-block", "no-block"],
)
def test_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_block_has_no_symmetry():
    """Of the 48 signed-permutation cube isometries only the identity survives."""
    syms = block_symmetries(standard_block())
    assert len(syms) == 1
    assert np.array_equal(syms[0], np.eye(3, dtype=np.int64))


def test_line_of_blocks_with_unit_screw():
    line = line_placements(standard_block(), 6, axis=0, step=1)
    report = verify_line(line, axis=0)
    assert report.ok
    assert report.screw_step == 1
    assert report.screw_order == 4
    assert report.translation_period == 4


def test_line_with_flipped_block_fails():
    line = line_placements(standard_block(), 5)
    line[2] = line[2].transform(quarter_turn_matrix(1, 2))  # 180 about Y
    report = verify_line(line)
    assert not report.ok
    assert report.first_mismatch in ((1, 2), (2, 3))
    assert report.mismatch_reason


def test_ring_of_four_blocks():
    ring = line_placements(standard_block(), 4)
    report = verify_line(ring, wrap=True)
    assert report.ok
    assert report.screw_step == 1
    assert report.screw_order == 4
    assert report.translation_period == 4


def test_lines_work_along_every_axis():
    for axis in range(3):
        report = verify_line(line_placements(standard_block(), 5, axis=axis), axis=axis)
        assert report.ok, f"axis {axis}"


def test_screw_handedness_is_baked_into_the_block():
    """The block chains with the +1 screw only; the mirror screw fails."""
    assert not verify_line(line_placements(standard_block(), 5, step=-1)).ok
    assert not verify_line(line_placements(standard_block(), 5, step=2)).ok
    assert not verify_line(line_placements(standard_block(), 5, step=0)).ok


def test_every_screw_step_closes_some_line():
    """Re-turning the +-X faces over all 16 pairs of turns gives lines that
    verify at every screw step, each with that step's order and period."""
    expected = {0: (None, 1), 1: (4, 4), 2: (2, 2), 3: (4, 4)}
    block = standard_block()
    plus, minus = block.face(0, 1), block.face(0, -1)
    reached = set()
    for turn_plus, turn_minus in itertools.product(range(4), repeat=2):
        faces = dict(block.faces)
        faces[(0, 1)] = FaceDecoration(plus.motif, plus.chirality, turn_plus)
        faces[(0, -1)] = FaceDecoration(minus.motif, minus.chirality, turn_minus)
        for step in range(4):
            report = verify_line(line_placements(DecoratedBlock(faces), 6, step=step))
            if report.ok:
                assert report.screw_step == step
                assert (report.screw_order, report.translation_period) == expected[step]
                reached.add(step)
    assert reached == {0, 1, 2, 3}


@pytest.mark.parametrize("axis", range(3))
def test_screw_line_gluing_and_turn_sum_agree(axis):
    """Re-turning the two faces of one axis over all 16 pairs of turns: the
    +1 screw line along the axis closes exactly when the axis passes the
    assembly audit, exactly when the turns sum to 1 (mod 4), and that holds
    for four pairs."""
    block = standard_block()
    plus, minus = block.face(axis, 1), block.face(axis, -1)
    passing = 0
    for turn_plus, turn_minus in itertools.product(range(4), repeat=2):
        faces = dict(block.faces)
        faces[(axis, 1)] = FaceDecoration(plus.motif, plus.chirality, turn_plus)
        faces[(axis, -1)] = FaceDecoration(minus.motif, minus.chirality, turn_minus)
        variant = DecoratedBlock(faces)
        closes = verify_line(line_placements(variant, 5, axis=axis), axis=axis).ok
        glues = axis not in assemble_hypercube(variant).failed_axes
        assert closes == glues == ((turn_plus + turn_minus) % 4 == 1)
        passing += glues
    assert passing == 4


# ---------------------------------------------------------------------------
# the oracle: the hypercube's 24 gluings derived from 4-D cell transport


def neighbor_cell(cell, face):
    """The cell met through the given local face of a cell's block: local
    axis a steps by the generator of quaternion axis a+1 (x->i, y->j, z->k)."""
    axis, sign = face
    return q8_mul(Q8Element(sign, axis + 1), cell)


def _cell_frame(cell, face, turn):
    """The face frame of `_frame` placed on the cell-1 cube {w = 1} and
    carried into 4-space by the cell's transport."""
    return np.hstack([[[1], [0], [0]], _frame(face, turn)]) @ q8_right_matrix_int(cell)


# One shared square of the hypercube, with the matching it demands.
Gluing = namedtuple("Gluing", "cell_a face_a cell_b face_b relative_turn chirality_flip")


@functools.cache
def gluing_table():
    """The 24 face gluings of the hypercube, derived from cell transport.

    Each shared square is found by transporting both incident blocks' face
    frames into 4-space; the demanded ``relative_turn`` is the constant c with
    turn(a) + turn(b) = c (mod 4).  Every gluing mirrors (``chirality_flip``):
    AssertionError refuses one whose two sides, judged by the transported
    transverse directions, do not view the square with opposite orientations.
    """
    by_center = {}
    for cell in Q8_ELEMENTS:
        for face in FACES:
            center = tuple(_cell_frame(cell, face, 0)[0].tolist())
            by_center.setdefault(center, []).append((cell, face))

    gluings = []
    for center, pair in sorted(by_center.items()):
        if len(pair) != 2:
            raise AssertionError(f"face center {center} shared by {len(pair)} cells")
        (cell_a, face_a), (cell_b, face_b) = pair
        if neighbor_cell(cell_a, face_a) != cell_b:
            raise AssertionError("cell adjacency disagrees with face incidence")
        # frames_a[t]: centre, arrow and transverse of the square seen from a at turn t
        frames_a = np.stack([_cell_frame(cell_a, face_a, t) for t in range(4)])
        frames_b = np.stack([_cell_frame(cell_b, face_b, t) for t in range(4)])
        const = next((t for t in range(4) if np.array_equal(frames_b[t, 1], frames_a[0, 1])), None)
        if const is None:
            raise AssertionError("transported face frames never align")
        if not np.array_equal(frames_b[(const - np.arange(4)) % 4, 1], frames_a[:, 1]):
            raise AssertionError("gluing demand is not of the constant-sum form")
        if not np.array_equal(frames_b[const, 2], -frames_a[0, 2]):
            raise AssertionError("gluing does not mirror: transverse directions not opposite")
        gluings.append(Gluing(cell_a, face_a, cell_b, face_b, const, True))
    if len(gluings) != 24:
        raise AssertionError(f"expected 24 gluings, found {len(gluings)}")
    return tuple(gluings)


def oracle_audit(block):
    """(valid, matched) of the block audited square by square against the
    derived gluing table."""
    matched = sum(
        faces_match(block.faces[g.face_a], block.faces[g.face_b], g.relative_turn) for g in gluing_table()
    )
    return matched == 24, matched


# gluing_table() in order: (cell_a, face_a, cell_b, face_b)
GLUING_ORDER = [
    ("-1", "+X", "-i", "-X"),
    ("-1", "+Y", "-j", "-Y"),
    ("-1", "+Z", "-k", "-Z"),
    ("-1", "-Z", "k", "+Z"),
    ("-1", "-Y", "j", "+Y"),
    ("-1", "-X", "i", "+X"),
    ("-i", "+Z", "-j", "-Z"),
    ("-i", "-Y", "-k", "+Y"),
    ("-i", "+Y", "k", "-Y"),
    ("-i", "-Z", "j", "+Z"),
    ("-j", "+X", "-k", "-X"),
    ("-j", "-X", "k", "+X"),
    ("j", "-X", "-k", "+X"),
    ("j", "+X", "k", "-X"),
    ("i", "-Z", "-j", "+Z"),
    ("i", "+Y", "-k", "-Y"),
    ("i", "-Y", "k", "+Y"),
    ("i", "+Z", "j", "-Z"),
    ("1", "-X", "-i", "+X"),
    ("1", "-Y", "-j", "+Y"),
    ("1", "-Z", "-k", "+Z"),
    ("1", "+Z", "k", "-Z"),
    ("1", "+Y", "j", "-Y"),
    ("1", "+X", "i", "-X"),
]


def test_gluing_table_order():
    names = [
        (g.cell_a.name, face_name(g.face_a), g.cell_b.name, face_name(g.face_b)) for g in gluing_table()
    ]
    assert names == GLUING_ORDER


def test_gluing_table_shape_and_uniform_demand():
    table = gluing_table()
    assert len(table) == 24
    assert {g.relative_turn for g in table} == {1}
    assert {g.chirality_flip for g in table} == {True}
    assert sorted(g.face_a[0] for g in table) == [0] * 8 + [1] * 8 + [2] * 8  # eight per axis
    # each gluing joins a +face to the opposite -face along the same axis
    for g in table:
        assert g.face_a[0] == g.face_b[0]
        assert g.face_a[1] == -g.face_b[1]
        assert neighbor_cell(g.cell_a, g.face_a) == g.cell_b
        assert neighbor_cell(g.cell_b, g.face_b) == g.cell_a


def test_gluing_golden_ring_fixture():
    """Hand-checked ring through cells 1 -> i -> -1 -> -i via the +-X faces."""
    table = {}
    for g in gluing_table():
        # each shared square is recorded once; index it from both sides
        table[(g.cell_a.name, face_name(g.face_a))] = (g, g.cell_b, g.face_b)
        table[(g.cell_b.name, face_name(g.face_b))] = (g, g.cell_a, g.face_a)
    ring = [
        ("1", "+X", "i"),
        ("i", "+X", "-1"),
        ("-1", "+X", "-i"),
        ("-i", "+X", "1"),
    ]
    for cell, face, neighbor in ring:
        g, other_cell, other_face = table[(cell, face)]
        assert other_cell.name == neighbor
        assert face_name(other_face) == "-X"
        assert g.relative_turn == 1
        assert g.chirality_flip


def test_contact_transfer_agrees_with_cell_transport(rng):
    """Oracle: a +face point embedded in cell 1 must coincide with its
    transferred image embedded in the neighbouring cell."""
    for axis in range(3):
        face = (axis, 1)
        neighbor = neighbor_cell(ONE, face)
        transfer = contact_transfer_matrix(axis)
        transport = q8_right_matrix_int(neighbor).astype(float)
        for _ in range(50):
            p = rng.uniform(-1, 1, size=3)
            p[axis] = 1.0
            q = p @ transfer
            assert abs(q[axis] + 1.0) <= 1e-12
            left = np.concatenate(([1.0], p))
            right = np.concatenate(([1.0], q)) @ transport
            assert np.max(np.abs(left - right)) <= 1e-12


def test_assemble_hypercube_all_faces_match():
    assembly = assemble_hypercube()
    assert assembly.valid
    assert assembly.matched == 24
    assert assembly.failed_axes == ()
    assert (assembly.valid, assembly.matched) == oracle_audit(assembly.block)


def test_assemble_rejects_quarter_turn_violation():
    """A quarter turn too many on the +face of each axis in a subset fails
    exactly those axes, eight squares each, as the oracle's audit does."""
    block = standard_block()
    for broken in itertools.chain.from_iterable(itertools.combinations(range(3), k) for k in range(4)):
        faces = dict(block.faces)
        for axis in broken:
            dec = faces[(axis, 1)]
            faces[(axis, 1)] = FaceDecoration(dec.motif, dec.chirality, (dec.turn + 1) % 4)
        variant = DecoratedBlock(faces)
        assembly = assemble_hypercube(variant)
        assert assembly.failed_axes == broken
        assert assembly.matched == 8 * (3 - len(broken))
        assert (assembly.valid, assembly.matched) == oracle_audit(variant)
        assert face_contact_check(block_seed(variant))["passed"] == assembly.valid


def test_assembly_symmetry_group_is_exactly_q8():
    """The decorated assembly admits the eight right multiplications and no
    other cell-preserving isometry."""
    from q8sculpt.blocks import decoration_cloud
    from q8sculpt.symmetry import PointCloud4, symmetry_group

    cloud = PointCloud4(decoration_cloud(assemble_hypercube()))
    report = symmetry_group(cloud)
    assert report.is_exactly_q8
    assert len(report.symmetries) == 8


def test_cayley_graph_structure():
    graph = cayley_graph()
    assert len(graph.nodes) == 8
    assert len(graph.arcs) == 24
    arcs = {(a.name, g.name): b.name for a, g, b in graph.arcs}
    assert arcs[("1", "i")] == "i"
    assert arcs[("i", "i")] == "-1"
    for node in graph.nodes:
        assert sum(1 for a, _, _ in graph.arcs if a == node) == 3


def test_cayley_graph_vertex_transitive():
    graph = cayley_graph()
    arc_set = {(a, g, b) for a, g, b in graph.arcs}
    for left in Q8_ELEMENTS:
        relabeled = {(q8_mul(left, a), g, q8_mul(left, b)) for a, g, b in arc_set}
        assert relabeled == arc_set


def test_follow_path_examples_and_relations():
    assert follow_path(ONE, [I, I]) == MINUS_ONE
    assert follow_path(ONE, [I, J, K]) == MINUS_ONE
    assert follow_path(J, []) == J
    for start in Q8_ELEMENTS:
        for word in ([I, I], [J, J], [K, K], [I, J, K]):
            assert follow_path(start, word) == q8_mul(start, MINUS_ONE)


def test_follow_path_concatenates(rng):
    letters = [g for gen in GENERATORS for g in (gen, -gen)]
    for _ in range(1000):
        w1 = [letters[rng.integers(6)] for _ in range(rng.integers(0, 4))]
        w2 = [letters[rng.integers(6)] for _ in range(rng.integers(0, 4))]
        start = Q8_ELEMENTS[rng.integers(8)]
        assert follow_path(start, w1 + w2) == follow_path(follow_path(start, w1), w2)


def test_follow_path_rejects_scalars():
    with pytest.raises(ValueError):
        follow_path(ONE, [MINUS_ONE])


def test_dot_export():
    text = to_dot(cayley_graph())
    assert text.startswith("digraph")
    assert '"1" -> "i" [label="i"];' in text
    assert '"-i" -> "-k"' in text  # -i * j = -k
    assert text.count("->") == 24
    assert text == to_dot(cayley_graph())  # deterministic


def test_decoration_cloud_size_and_distinctness():
    from q8sculpt.blocks import decoration_cloud

    cloud = decoration_cloud(assemble_hypercube())
    assert cloud.shape == (48, 4)
    assert np.max(np.abs(np.linalg.norm(cloud, axis=1) - 1.0)) <= 1e-12
    gaps = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-2


def test_decoration_cloud_requires_valid_assembly():
    from q8sculpt.blocks import decoration_cloud

    block = standard_block()
    faces = dict(block.faces)
    dec = faces[(2, 1)]
    faces[(2, 1)] = FaceDecoration(dec.motif, dec.chirality, (dec.turn + 2) % 4)
    broken = assemble_hypercube(DecoratedBlock(faces))
    with pytest.raises(ValueError):
        decoration_cloud(broken)


def _transported_markers(block):
    """Reference for the decoration cloud, independent of the seed pipeline:
    each cell's two markers per face, built from the cell-transported frame
    in 4-space and normalised onto the 3-sphere (matched squares repeat)."""
    points = []
    for cell in Q8_ELEMENTS:
        for face in FACES:
            dec = block.faces[face]
            center, arrow, sigma = _cell_frame(cell, face, dec.turn)
            hand = 1 if dec.chirality == "right" else -1
            points.append(center + _MOTIF_OFFSET[dec.motif] * arrow)
            points.append(center + _CHIRALITY_OFFSET * (arrow + hand * sigma))
    points = np.array(points, dtype=np.float64)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _seed_symmetries(block):
    """The signed 3x3 permutations carrying the block's seed vertices onto
    themselves, found by the matcher that `seed_asymmetry_check` uses."""
    points = block_seed(block).vertices
    cube_maps = signed_permutation_matrices(3)
    return [cube_maps[k].tolist() for k in _carrying(points, cube_maps, DEFAULT_TOL)]


ONE_FACE_VARIANTS = list(itertools.product(FACES, MOTIFS, CHIRALITIES, range(4)))


@pytest.mark.parametrize(
    "face, motif, chirality, turn",
    ONE_FACE_VARIANTS,
    ids=[f"{face_name(f)}-{m}-{c}-{t}" for f, m, c, t in ONE_FACE_VARIANTS],
)
def test_block_seed_is_the_assembly(face, motif, chirality, turn):
    """Over every one-face variant of the standard block: the per-axis audit
    is the oracle's 24-gluing audit, the seed's contact audit agrees, the
    seed's cube symmetries are the block's, and a valid assembly's
    decoration cloud is the cell-transported markers."""
    faces = dict(standard_block().faces)
    faces[face] = FaceDecoration(motif, chirality, turn)
    block = DecoratedBlock(faces)
    assembly = assemble_hypercube(block)
    assert (assembly.valid, assembly.matched) == oracle_audit(block)
    assert face_contact_check(block_seed(block))["passed"] == assembly.valid
    assert _seed_symmetries(block) == [r.tolist() for r in block_symmetries(block)]

    if assembly.valid:
        cloud = decoration_cloud(assembly)
        gaps = np.linalg.norm(cloud[:, None] - _transported_markers(block)[None], axis=-1)
        assert cloud.shape == (48, 4)
        assert gaps.min(axis=0).max() <= 1e-15 and gaps.min(axis=1).max() <= 1e-15


def test_block_seed_keeps_the_symmetries_of_symmetric_blocks():
    """Single-motif blocks with random chiralities and turns, some of them
    symmetric: the seed's cube symmetries are still the block's."""
    gen = np.random.default_rng(11)
    orders = set()
    for _ in range(300):
        motif = MOTIFS[gen.integers(3)]
        faces = {f: FaceDecoration(motif, CHIRALITIES[gen.integers(2)], int(gen.integers(4))) for f in FACES}
        block = DecoratedBlock(faces)
        expected = [r.tolist() for r in block_symmetries(block)]
        assert _seed_symmetries(block) == expected
        orders.add(len(expected))
    assert orders >= {1, 2}
