"""Brute-force exact symmetry detection for point clouds on the 3-sphere.

The candidate universe is the 384 signed coordinate permutations: these are
precisely the isometries preserving the hypercube's cell decomposition, so
for cell-aligned sculptures nothing relevant is missed, and the search is
exact and fast.  Matching is tolerance-based: a candidate survives when it
maps the cloud bijectively onto itself within the tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .quat import Isometry4, UNIT_NORM_TOL, matrix_key
from .hypercube import hyperoctahedral_candidates, signed_permutation_matrices
from . import quat

DEFAULT_TOL = 1e-6

#: Canonical orientation-reversing signed permutation: negate the w axis.
MIRROR_W = np.diag([-1, 1, 1, 1]).astype(np.int64)


@dataclass(frozen=True, eq=False)
class PointCloud4:
    """Finite set of unit 4-vectors standing in for sculpture geometry."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64).copy()
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) array, got shape {pts.shape}")
        if len(pts) == 0:
            raise ValueError("point cloud is empty")
        norms = np.linalg.norm(pts, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > UNIT_NORM_TOL:
            raise ValueError(f"points must lie on the unit sphere (off by {worst:.3g})")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, text: str | bytes) -> "PointCloud4":
        data = json.loads(text)
        if not isinstance(data, dict) or "points" not in data:
            raise ValueError('cloud JSON must be an object with a "points" array')
        return cls(np.array(data["points"], dtype=np.float64))

    def to_json(self) -> str:
        return json.dumps({"points": self.points.tolist()})


@dataclass(frozen=True)
class SymmetryReport:
    """Surviving candidates plus the headline verdicts."""

    candidates_tested: int
    symmetries: tuple[Isometry4, ...]
    is_exactly_q8: bool
    chirality: str

    def to_json(self) -> str:
        matrices = sorted(
            [[int(v) for v in s.key()] for s in self.symmetries]
        )
        payload = {
            "candidates_tested": self.candidates_tested,
            "symmetry_count": len(self.symmetries),
            "symmetries": [
                [row for row in (m[0:4], m[4:8], m[8:12], m[12:16])] for m in matrices
            ],
            "is_exactly_q8": self.is_exactly_q8,
            "chirality": self.chirality,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


#: Candidate pairs the proximity kernel tests per block; bounds its working
#: memory however many points fall within the radius.
_BLOCK = 1 << 16


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """One int64 key per row of integer-valued cell indices (at most four
    axes), each axis folded into 15 bits.  Indices 2**15 cells apart share a
    key; that only adds candidates, which the distance test removes."""
    folded = cells.astype(np.int64) & 0x7FFF
    return (folded << (15 * np.arange(cells.shape[-1]))).sum(axis=-1)


def _pair_blocks(source: np.ndarray, target: np.ndarray, r: float):
    """:func:`_pairs_within`, yielded in blocks of at most about ``_BLOCK``
    candidates each, for callers that reduce as they go."""
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    span = np.maximum(np.max(np.abs(source), initial=0.0), np.max(np.abs(target), initial=0.0))
    if not (np.isfinite(span) and np.isfinite(r)):
        raise ValueError("coordinates and tolerance must be finite")
    resolution = max(1.0, float(span)) * 2.0**-50
    if not r > resolution:
        raise ValueError(
            f"tolerance {r:.3g} is not above the float resolution ({resolution:.3g}) "
            "of the coordinates"
        )
    cell = 2.0 * r
    keys = _cell_keys(np.floor(target / cell))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    dim = source.shape[1]
    corners = np.indices((2,) * dim).reshape(dim, -1).T
    probes = _cell_keys(np.floor(source / cell - 0.5)[:, None, :] + corners).ravel()
    start = np.searchsorted(keys, probes, "left")
    count = np.searchsorted(keys, probes, "right") - start
    cuts = np.searchsorted(np.cumsum(count), np.arange(_BLOCK, count.sum(), _BLOCK))
    for lo, hi in zip([0, *cuts], [*cuts, len(probes)]):
        c = count[lo:hi]
        i = np.repeat(np.arange(lo, hi) // len(corners), c)
        j = order[np.repeat(start[lo:hi] - np.cumsum(c) + c, c) + np.arange(c.sum())]
        diff = source[i] - target[j]
        near = np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= r
        yield i[near], j[near]


def _pairs_within(source: np.ndarray, target: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with ||source[i] - target[j]|| <= r; i ascends.

    The one proximity kernel: the well-posedness guard, candidate matching,
    greedy dedup and the contact audit are all built on it.  Target points
    are hashed to integer cells of side 2r and their keys sorted.  A point
    within r of a query q is, on every axis, within half a cell of q, so it
    lies in cell floor(q / 2r - 1/2) or the next one: the 2**d corner cells
    (16 in 4-D, 8 in 3-D) are found with ``searchsorted`` and every
    candidate in them gets the exact distance test.

    Float resolution.  A coordinate of size x is only known to within an ulp,
    about max(1, |x|) * 2**-52, and a distance test at a radius of a few ulps
    decides rounding noise rather than geometry.  So ``r`` must exceed
    max(1, max |coordinate|) * 2**-50, else ValueError.  The same floor keeps
    every cell index below 2**49 in size: exact in float64, no int64
    overflow.

    Matching.  Suppose no two target points lie within 2r of each other (the
    strict guard tol < separation / 2).  Then each source point has at most
    one target within r, since two such targets t, t' would be within
    ||t - s|| + ||s - t'|| <= 2r of each other.  The pairs therefore already
    form a partial function from sources to targets, and a tolerance match
    is a bijection exactly when every source has one hit and no target is
    hit twice; there is no other assignment left to search for.  A count of
    hits alone is not enough when the source is unguarded: two equal source
    points can both hit one target.
    """
    i, j = zip(*_pair_blocks(source, target, r))
    return np.concatenate(i), np.concatenate(j)


def min_pairwise_distance(points: np.ndarray, within: float) -> float:
    """Distance of the closest two distinct points, when they are at most
    ``within`` apart; inf otherwise (and for one point)."""
    points = np.asarray(points, dtype=np.float64)
    best = float("inf")
    for i, j in _pair_blocks(points, points, within):
        distinct = i != j
        if np.any(distinct):
            gaps = np.linalg.norm(points[i[distinct]] - points[j[distinct]], axis=1)
            best = min(best, float(np.min(gaps)))
    return best


def _is_bijection(source: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """True when source maps bijectively onto target within tol; the target
    must be guarded (see :func:`_pairs_within`)."""
    i, j = _pairs_within(source, target, tol)
    return np.array_equal(i, np.arange(len(source))) and np.array_equal(
        np.sort(j), np.arange(len(target))
    )


def _carrying(points: np.ndarray, matrices: np.ndarray, target: np.ndarray, tol: float):
    """Yield, in order, the index of each matrix that carries the points
    bijectively onto the guarded target within tol.

    A matrix can only do so if it sends point 0 within tol of a target
    point; that test runs for every matrix at once, and only the hits are
    matched in full, one at a time.
    """
    if len(points):
        hits = dict.fromkeys(_pairs_within(points[0] @ matrices, target, tol)[0].tolist())
    else:
        hits = range(len(matrices))
    for k in hits:
        if _is_bijection(points @ matrices[k], target, tol):
            yield k


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the points greedy dedup keeps: in order, a point is kept
    unless an already kept point lies within tol.  On a line with points at
    0, 0.6 tol and 1.2 tol, the first and the third are kept."""
    i, j = _pairs_within(points, points, tol)
    earlier = j < i
    keep = np.ones(len(points), dtype=bool)
    # i ascends, so each verdict read here is already final
    for a, b in zip(i[earlier].tolist(), j[earlier].tolist()):
        if keep[b]:
            keep[a] = False
    return np.flatnonzero(keep)


def match_point_sets(source: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Bijective tolerance matching between two raw point arrays.

    For sets that are not sphere clouds (seed contact sets, fixtures).  The
    target gets the well-posedness guard: ValueError when two of its points
    lie within 2*tol, where the matching would be ambiguous.
    """
    target = np.asarray(target, dtype=np.float64)
    _well_posed_tol(target, tol)
    return _is_bijection(np.asarray(source, dtype=np.float64), target, tol)


def _well_posed_tol(points: np.ndarray, tol: float) -> None:
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    separation = min_pairwise_distance(points, 2.0 * tol)
    if tol >= 0.5 * separation:
        raise ValueError(
            f"tolerance {tol} is not below half the minimum pairwise distance "
            f"({separation / 2:.3g}); matching would be ill-posed"
        )


def invariant_under(cloud: PointCloud4, iso: Isometry4, tol: float = DEFAULT_TOL) -> bool:
    """True when the isometry maps the cloud onto itself within tol."""
    _well_posed_tol(cloud.points, tol)
    return _is_bijection(cloud.points @ iso.m, cloud.points, tol)


def _q8_right_keys() -> frozenset[tuple[int, ...]]:
    return frozenset(matrix_key(quat.q8_right_matrix_int(g)) for g in quat.Q8_ELEMENTS)


def surviving_candidates(cloud: PointCloud4, tol: float = DEFAULT_TOL) -> list[Isometry4]:
    """Filter the 384-candidate universe down to the cloud's symmetries."""
    _well_posed_tol(cloud.points, tol)
    candidates = hyperoctahedral_candidates()
    matrices = np.stack([c.m for c in candidates])
    return [candidates[k] for k in _carrying(cloud.points, matrices, cloud.points, tol)]


def symmetry_group(cloud: PointCloud4, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Detect the cloud's full symmetry set within the candidate universe.

    ``is_exactly_q8`` is true when the survivors are precisely the eight
    right-multiplication matrices; the chirality verdict is computed from the
    survivors and the cloud's mirror image.
    """
    survivors = surviving_candidates(cloud, tol)
    keys = frozenset(s.key() for s in survivors)
    chirality = classify_chirality(cloud, tol, survivors=survivors)
    return SymmetryReport(
        candidates_tested=384,
        symmetries=tuple(survivors),
        is_exactly_q8=keys == _q8_right_keys(),
        chirality=chirality,
    )


def seed_asymmetry_check(points: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when only the identity cube isometry preserves the seed points.

    The seed lives in the cube [-1,1]^3; the candidate symmetries are the 48
    signed permutations of the three coordinates.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {points.shape}")
    _well_posed_tol(points, tol)
    identity = np.eye(3, dtype=np.int64)
    others = [m for m in signed_permutation_matrices(3) if not np.array_equal(m, identity)]
    return next(_carrying(points, np.stack(others), points, tol), None) is None


def _conjugate_keys(g: np.ndarray, group: Sequence[np.ndarray]) -> frozenset:
    # orthogonal with integer entries, so the inverse is the exact transpose
    return frozenset(matrix_key(g @ s @ g.T) for s in group)


def classify_chirality(
    cloud: PointCloud4,
    tol: float = DEFAULT_TOL,
    survivors: Optional[Sequence[Isometry4]] = None,
) -> str:
    """Classify the cloud as achiral, chiral or metachiral.

    Achiral: some orientation-preserving candidate carries the cloud onto its
    mirror image.  Otherwise the cloud is chiral, and it is metachiral when
    additionally no orientation-preserving candidate conjugates its symmetry
    group onto the mirror image's symmetry group: the group itself has a
    handedness.  All checks stay inside the 384-candidate universe, with the
    fixed mirror ``MIRROR_W``.
    """
    _well_posed_tol(cloud.points, tol)
    preserving = [c for c in hyperoctahedral_candidates() if c.is_orientation_preserving]
    matrices = np.stack([c.m for c in preserving])
    # the mirror image keeps every pairwise distance, so the guard covers it
    if next(_carrying(cloud.points, matrices, cloud.points @ MIRROR_W, tol), None) is not None:
        return "achiral"
    if survivors is None:
        survivors = surviving_candidates(cloud, tol)
    group = [np.rint(s.m).astype(np.int64) for s in survivors]
    group_keys = frozenset(matrix_key(m) for m in group)
    mirror_group_keys = _conjugate_keys(MIRROR_W, group)
    if group_keys == mirror_group_keys:
        return "chiral"
    for candidate in preserving:
        g = np.rint(candidate.m).astype(np.int64)
        if _conjugate_keys(g, group) == mirror_group_keys:
            return "chiral"
    return "metachiral"
