"""Brute-force exact symmetry detection for point clouds on the 3-sphere.

The candidate universe is the 384 signed coordinate permutations: these are
precisely the isometries preserving the hypercube's cell decomposition.  The
search over them is exact and fast, but they are not all of O(4): symmetries
outside them go unseen.  Matching is tolerance-based: a candidate survives
when it maps the cloud bijectively onto itself within the tolerance.

The search runs modulo the group it certifies.  Let miss(g) be the largest
distance from an image point to its partner (inf when g pairs no
bijection).  Right multiplications are isometries, so
miss(r1 h r2) <= miss(r1) + miss(h) + miss(r2), and as h = r1^-1 g r2^-1
the bound runs both ways.  When i and j both send point 0 within tol of a
point, as any symmetry does, they are matched in full; with m the larger
of their misses, every right multiplication by Q8 is a word of at most two
of them, so it misses by at most 2m, and every candidate of the double
coset R(Q8) h R(Q8) within miss(h) + 4m of h's.  So, as long as rho
below stays within the guard index's radius 2 tol, R(Q8) survives, and
of the 29 other double cosets of the 384 candidates one representative
each is matched, at rho = (tol + 4m)(1 + 2**-40), unless it sends point 0
nowhere within rho of a point: its whole coset survives when it pairs a
bijection with miss(h) <= tol (1 - 2**-40) - 4m, and is out when some
point has no partner within rho; any other coset is matched member by
member at tol.  The relative margin 2**-40 dwarfs the few ulps by which a
computed distance moves when a candidate permutes coordinates
(tol > 2**-50, so underflow cannot reach it either), and the survivors are
exactly those of matching each candidate on its own.  When i or j fails
the point-0 test or is no symmetry, or rho would exceed the guard index's
radius 2 tol, each candidate is its own coset, and the full matches of i
and j count as theirs: a cloud without R(Q8) costs no full match more.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .quat import Isometry4, UNIT_NORM_TOL, Record
from .hypercube import (
    _codes,
    candidate_stack,
    hyperoctahedral_candidates,
    q8_double_cosets,
    signed_permutation_matrices,
)

DEFAULT_TOL = 1e-6

#: Canonical orientation-reversing signed permutation: negate the w axis.
MIRROR_W = np.diag([-1, 1, 1, 1]).astype(np.int64)


#: The Python types ``json`` decodes a JSON number to (a bool is not one).
_JSON_NUMBERS = frozenset((int, float))


class PointCloud4(Record):
    """Finite set of unit 4-vectors standing in for sculpture geometry."""

    __slots__ = __match_args__ = ("points",)

    def __init__(self, points: np.ndarray) -> None:
        pts = np.asarray(points, dtype=np.float64).copy()
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) array, got shape {pts.shape}")
        if len(pts) == 0:
            raise ValueError("point cloud is empty")
        norms = np.linalg.norm(pts, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= UNIT_NORM_TOL:
            raise ValueError(f"points must lie on the unit sphere (off by {worst:.3g})")
        self._store(points=pts)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, text: str | bytes) -> "PointCloud4":
        """The cloud of ``{"points": [[w, x, y, z], ...]}``.  ValueError
        names the first point that is not an array of four JSON numbers, or
        that holds an integer beyond the float range, and refuses JSON
        nested too deeply to decode."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("cloud JSON is nested too deeply to decode") from None
        if not isinstance(data, dict) or not isinstance(data.get("points"), list):
            raise ValueError('cloud JSON must be an object with a "points" array')
        points = data["points"]
        for k, p in enumerate(points):
            if type(p) is not list or len(p) != 4 or not _JSON_NUMBERS.issuperset(map(type, p)):
                raise ValueError(f"cloud point {k} is not an array of JSON numbers")
        try:
            array = np.array(points, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range: name its point
            for k, p in enumerate(points):
                try:
                    list(map(float, p))
                except OverflowError:
                    raise ValueError(f"cloud point {k} has a coordinate beyond the float range") from None
            raise
        return cls(array.reshape(len(points), 4))  # no points: shape (0, 4), not (0,)

    def to_json(self) -> str:
        """``json.dumps({"points": self.points.tolist()})``, byte for byte.

        Float ``repr`` is nearly all of that cost, and a generated cloud
        holds few distinct magnitudes: right multiplication by an element of
        Q8 is a signed permutation, so every coordinate is plus or minus one
        of the lifted seed's.  So each distinct magnitude is formatted once,
        and the sign read off ``np.signbit``, which keeps -0.0.
        """
        flat = self.points.ravel()
        magnitudes = np.abs(flat)
        order = np.argsort(magnitudes)
        ranked = magnitudes[order]
        first = np.empty(len(ranked), dtype=bool)  # the first of each run of equal magnitudes
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        texts = [repr(m) for m in ranked[first].tolist()]
        table = texts + ["-" + t for t in texts]
        entry = np.empty(len(flat), dtype=np.intp)
        entry[order] = np.cumsum(first) - 1
        entry += np.signbit(flat) * len(texts)
        words = [table[k] for k in entry.tolist()]
        rows = map(", ".join, zip(*[iter(words)] * 4))
        return '{"points": [[' + "], [".join(rows) + "]]}"


class SymmetryReport(NamedTuple):
    """Surviving candidates plus the headline verdicts."""

    candidates_tested: int
    symmetries: tuple[Isometry4, ...]
    is_exactly_q8: bool
    chirality: str

    def to_json(self) -> str:
        """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

        With an indent, ``json`` runs its pure-Python encoder, which is slow
        on 384 matrices; the matrices are written from a template instead.
        """
        matrices = np.stack([s.m for s in self.symmetries]).astype(np.int8)
        rows = matrices[np.argsort(_codes(matrices))].reshape(-1, 16).tolist()
        fields = {  # in sorted key order
            "candidates_tested": json.dumps(self.candidates_tested),
            "chirality": json.dumps(self.chirality),
            "is_exactly_q8": json.dumps(self.is_exactly_q8),
            "symmetries": "[\n" + ",\n".join(_MATRIX_JSON.format(*row) for row in rows) + "\n  ]",
            "symmetry_count": json.dumps(len(self.symmetries)),
        }
        return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields.items()) + "\n}"


#: One matrix of the report at indent 2 and nesting depth 2, its 16 entries
#: as ``{0}``..``{15}``.
_MATRIX_JSON = (
    "    [\n"
    + ",\n".join("      [\n" + ",\n".join(f"        {{{4 * r + c}}}" for c in range(4)) + "\n      ]" for r in range(4))
    + "\n    ]"
)


#: Candidate pairs the proximity kernel tests per block, and image points
#: matched per chunk of candidates: bounds the working memory however many
#: points fall within the radius.  Larger blocks are no faster.
_BLOCK = 1 << 12


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """One uint64 key per row of integer cell indices (at most four axes),
    sum(cell[a] * 2**(15 a)) mod 2**64: linear in the cell.  Cells share a
    key only when 2**15 or more apart on some axis; that only adds
    candidates, which the distance test removes."""
    places = np.uint64(1) << np.arange(0, 15 * cells.shape[-1], 15, dtype=np.uint64)
    return cells.astype(np.int64).view(np.uint64) @ places


def _resolution(span: float) -> float:
    return max(1.0, span) * 2.0**-50


def _check_resolution(span: float, r: float) -> None:
    if not (np.isfinite(span) and np.isfinite(r)):
        raise ValueError("coordinates and tolerance must be finite")
    resolution = _resolution(span)
    if not r > resolution:
        raise ValueError(
            f"tolerance {r:.3g} is not above the float resolution ({resolution:.3g}) "
            "of the coordinates"
        )


class _Index:
    """The one proximity kernel: target points hashed once at a build radius
    R, then queried at any radius r <= R, one probe per query point; pairs
    leave it only by the walk of :meth:`blocks`.

    Each target t is stored under the 2**d cells floor(t / c - 1/2) + {0, 1}**d
    (16 in 4-D, 8 in 3-D), their keys sorted once; a query q probes the one
    cell floor(q / c), and every target stored there gets the exact distance
    test.  Exact: if |q - t| <= r <= R on every axis, then
    t / c - 1/2 < q / c < t / c + 1/2, so floor(q / c) is floor(t / c - 1/2)
    or the next cell.  The side c = 2R + (R + max(1, max |target|)) * 2**-40
    exceeds 2R by far more than rounding in the divisions and the distance
    test can move a point, so this holds for the computed values too; when
    it overflows to inf, every point lies in cell 0 or the one below it.

    Float resolution.  A coordinate of size x is only known to within an ulp,
    about max(1, |x|) * 2**-52, and a distance test at a radius of a few ulps
    decides rounding noise rather than geometry.  So a radius must exceed
    max(1, max |coordinate|) * 2**-50 over both point sets, else ValueError.
    The same floor keeps every cell index below 2**49 in size: exact in
    float64, no int64 overflow.

    Matching.  Suppose no two target points lie within 2r of each other (the
    strict guard tol < separation / 2, which :func:`_well_posed_tol` checks
    on the index it returns).  Then each source point has at most one target
    within r, since two such targets t, t' would be within
    ||t - s|| + ||s - t'|| <= 2r of each other.  The pairs therefore already
    form a partial function from sources to targets, and a tolerance match
    is a bijection exactly when every source has one hit and no target is
    hit twice; there is no other assignment left to search for.  A count of
    hits alone is not enough when the source is unguarded: two equal source
    points can both hit one target.
    """

    def __init__(self, target: np.ndarray, r: float) -> None:
        self.target, self.r = np.asarray(target, dtype=np.float64), r
        self.span = float(np.max(np.abs(self.target), initial=0.0))
        _check_resolution(self.span, r)
        self.cell = 2.0 * r + (r + max(1.0, self.span)) * 2.0**-40
        dim = self.target.shape[1]
        corners = _cell_keys(np.indices((2,) * dim).reshape(dim, -1).T)
        keys = (_cell_keys(np.floor(self.target / self.cell - 0.5))[:, None] + corners).ravel()
        order = np.argsort(keys, kind="stable")
        self.keys, self.owner = keys[order], order // len(corners)

    def blocks(self, source: np.ndarray, r: float, live: Optional[np.ndarray] = None):
        """Every pair (i, j) with ||source[i] - target[j]|| <= r, i ascending,
        and its distance, in blocks.  Each source is probed once; a block
        takes the live ones among the next ``_BLOCK`` sources, the first as
        many as have at most ``_BLOCK`` candidates in total, or the first
        alone when it has more.  ``live`` (all when None) is read before
        each block, so a consumer that clears it skips sources not yet
        queried.  A source of no rows yields one empty block."""
        if not r <= self.r:
            raise ValueError(f"query radius {r:.3g} exceeds the index's build radius {self.r:.3g}")
        source = np.asarray(source, dtype=np.float64)
        _check_resolution(max(self.span, float(np.max(np.abs(source), initial=0.0))), r)
        live = np.ones(len(source), dtype=bool) if live is None else live
        probes = _cell_keys(np.floor(source / self.cell))
        # searchsorted runs several times faster on sorted needles
        by_key = np.argsort(probes)
        start, count = np.empty_like(by_key), np.empty_like(by_key)
        start[by_key] = np.searchsorted(self.keys, probes[by_key], "left")
        count[by_key] = np.searchsorted(self.keys, probes[by_key], "right") - start[by_key]
        lo = 0
        while True:
            window = lo + np.flatnonzero(live[lo : lo + _BLOCK])
            rows = window[: max(1, np.searchsorted(np.cumsum(count[window]), _BLOCK, "right"))]
            lo = rows[-1] + 1 if len(rows) else lo + _BLOCK
            c = count[rows]
            i = np.repeat(rows, c)
            j = self.owner[np.repeat(start[rows] - np.cumsum(c) + c, c) + np.arange(c.sum())]
            diff = source[i] - self.target[j]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            near = dist <= r
            yield i[near], j[near], dist[near]
            if lo >= len(source):
                return

    def pairs(self, source: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`blocks` in one piece: the arrays i, j and dist."""
        return tuple(map(np.concatenate, zip(*self.blocks(source, r))))

    def nearest(self, source: np.ndarray) -> np.ndarray:
        """For each source point, the distance to its nearest target within
        the build radius, or inf: one query answers the test at every
        radius up to it, by the same computed distances."""
        best = np.full(len(source), np.inf)
        for i, _, dist in self.blocks(source, self.r):
            np.minimum.at(best, i, dist)
        return best

    def misses(self, images: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """For each point set of a (k, n, d) stack, matched onto the guarded
        target within r: its miss, the largest paired distance, or inf when
        the pairs are not a bijection; and whether some point of it has no
        target within r."""
        k, n = images.shape[:2]
        i, j, dist = self.pairs(images.reshape(k * n, images.shape[2]), r)
        per_source = np.bincount(i, minlength=k * n).reshape(k, n)
        per_target = np.bincount(i // n * len(self.target) + j, minlength=k * len(self.target))
        bijective = np.all(per_source == 1, axis=1) & np.all(per_target.reshape(k, -1) == 1, axis=1)
        paired = np.zeros(k * n)
        paired[i] = dist
        miss = np.where(bijective, np.max(paired.reshape(k, n), axis=1, initial=0.0), np.inf)
        return miss, np.any(per_source == 0, axis=1)


def min_pairwise_distance(index: _Index) -> float:
    """Distance of the closest two distinct target points of the index, when
    at most its build radius apart; inf otherwise (and for one point).
    A pair decides a scan at radius r: at 0 it is the minimum; at d < r / 4
    the refusal at tol = r / 2 is certain, and the scan restarts on an index
    built at d, whose pairs hold the same minimum, unless d is at the float floor."""
    best = float("inf")
    while True:
        for i, j, dist in index.blocks(index.target, index.r):
            best = float(np.min(dist[i != j], initial=best))
            if best == 0.0:
                return best
            if _resolution(index.span) < best < index.r / 4:
                break
        else:
            return best
        index = _Index(index.target, best)


#: Relative margin of the double-coset rule: far more than the few ulps by
#: which a computed distance moves when a candidate permutes coordinates.
_MARGIN = 2.0**-40


def _match(index: _Index, points: np.ndarray, matrices: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`_Index.misses` of the images of the points under each matrix,
    in chunks of about ``_BLOCK`` points."""
    miss, stray = np.empty(len(matrices)), np.empty(len(matrices), dtype=bool)
    step = _BLOCK // len(points) + 1
    for lo in range(0, len(matrices), step):
        miss[lo : lo + step], stray[lo : lo + step] = index.misses(points @ matrices[lo : lo + step], r)
    return miss, stray


def _carrying(
    points: np.ndarray, matrices: np.ndarray, tol: float, cosets: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """The indices, ascending, of the matrices that carry the points
    bijectively onto themselves within tol, after the guard.

    Such a matrix sends point 0 within tol of a point; that test runs for
    every matrix at once, and only the hits are matched in full, against
    the guard's index, in chunks of about ``_BLOCK`` points.  ``cosets`` is
    :func:`~q8sculpt.hypercube.q8_double_cosets` when the matrices are the
    384 candidates, and the search then runs modulo R(Q8), label 0, by the
    rule of the module docstring.
    """
    index = _well_posed_tol(points, tol)
    near = index.nearest(points[0] @ matrices)
    keep, todo = np.zeros(len(matrices), dtype=bool), near <= tol
    if cosets is not None and np.all(todo[cosets[1]]):
        first, generators = cosets
        miss = _match(index, points, matrices[generators], tol)[0]
        keep[generators], todo[generators] = np.isfinite(miss), False
        m = float(np.max(miss))
        reach = (tol + 4.0 * m) * (1.0 + _MARGIN)
        if reach <= index.r:
            # R(Q8), label 0, misses by at most 2m; each other coset goes by its first candidate
            reps = np.flatnonzero(first == np.arange(len(first)))[1:]
            reps = reps[near[reps] <= reach]
            miss, stray = _match(index, points, matrices[reps], reach)
            accepted, undecided = np.zeros(len(matrices), dtype=bool), np.zeros(len(matrices), dtype=bool)
            accepted[0] = True
            accepted[reps] = miss <= tol * (1.0 - _MARGIN) - 4.0 * m
            undecided[reps] = ~accepted[reps] & ~stray
            keep, todo = accepted[first], undecided[first]
    each = np.flatnonzero(todo)
    keep[each] = np.isfinite(_match(index, points, matrices[each], tol)[0])
    return np.flatnonzero(keep)


def _dedup(points: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Indices of the points greedy dedup keeps, and the distance of the
    closest two kept points when within 2 tol (inf otherwise): the
    separation that :func:`_well_posed_tol` would measure on the kept points.

    Greedy dedup: in order, a point is kept unless an already kept point
    lies within tol.  On a line with points at 0, 0.6 tol and 1.2 tol, the
    first and the third are kept.  One index at 2 tol serves both, by its
    own distances, walked by :meth:`_Index.blocks` over the points not yet
    dropped: a kept point drops its later neighbours within tol before
    their block, so a cluster costs the query of its first point, and each
    pair of kept points is found from its later point.
    """
    index = _Index(points, 2.0 * tol)
    keep, separation = np.ones(len(points), dtype=bool), float("inf")
    for i, j, dist in index.blocks(points, 2.0 * tol, keep):
        later = (j > i) & (dist <= tol)
        # i ascends, so each verdict read here is already final
        for a, b in zip(i[later].tolist(), j[later].tolist()):
            if keep[a]:
                keep[b] = False
        separation = float(np.min(dist[keep[i] & keep[j] & (j < i)], initial=separation))
    return np.flatnonzero(keep), separation


def match_point_sets(source: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Bijective tolerance matching between two raw point arrays.

    For sets that are not sphere clouds (seed contact sets, fixtures).  The
    target gets the well-posedness guard: ValueError when two of its points
    lie within 2*tol, where the matching would be ambiguous.
    """
    index = _well_posed_tol(target, tol)
    return bool(np.isfinite(index.misses(np.asarray(source, dtype=np.float64)[None], tol)[0][0]))


def _well_posed_tol(points: np.ndarray, tol: float) -> _Index:
    """ValueError unless tol < separation / 2; returns the index, built at
    2 tol (at most the float maximum), that measured the separation, for
    matching at tol."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _check_resolution(float(np.max(np.abs(points), initial=0.0)), tol)
    index = _Index(points, min(2.0 * tol, sys.float_info.max))
    _check_separation(tol, min_pairwise_distance(index))
    return index


def _check_separation(tol: float, separation: float) -> None:
    """The guard's verdict: ValueError unless tol < separation / 2."""
    if tol >= 0.5 * separation:
        raise ValueError(
            f"tolerance {tol} is not below half the minimum pairwise distance "
            f"({separation / 2:.3g}); matching would be ill-posed"
        )


def invariant_under(cloud: PointCloud4, iso: Isometry4, tol: float = DEFAULT_TOL) -> bool:
    """True when the isometry maps the cloud onto itself within tol."""
    return match_point_sets(cloud.points @ iso.m, cloud.points, tol)


def surviving_candidates(cloud: PointCloud4, tol: float = DEFAULT_TOL) -> list[Isometry4]:
    """Filter the 384-candidate universe down to the cloud's symmetries."""
    kept = _carrying(cloud.points, candidate_stack()[0], tol, q8_double_cosets())
    candidates = hyperoctahedral_candidates()
    return [candidates[k] for k in kept]


def symmetry_group(cloud: PointCloud4, tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Detect the cloud's full symmetry set within the candidate universe.

    ``is_exactly_q8`` is true when the survivors are precisely the eight
    right-multiplication matrices, R(Q8), the identity's double coset; the
    chirality verdict is read off the survivors.
    """
    survivors = surviving_candidates(cloud, tol)
    codes = _codes(np.stack([s.m for s in survivors]).astype(np.int8))
    right = _codes(candidate_stack()[0][q8_double_cosets()[0] == 0])
    return SymmetryReport(
        candidates_tested=384,
        symmetries=tuple(survivors),
        is_exactly_q8=np.array_equal(np.sort(codes), np.sort(right)),
        chirality=classify_chirality(cloud, tol, survivors=survivors),
    )


def seed_asymmetry_check(points: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when only the identity cube isometry preserves the seed points.

    The seed lives in the cube [-1,1]^3; the candidate symmetries are the 48
    signed permutations of the three coordinates.  ValueError when there are
    no points, since all 48 carry the empty set onto itself.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {points.shape}")
    if len(points) == 0:
        raise ValueError("seed has no vertices")
    matrices = signed_permutation_matrices(3)  # the identity first
    return _carrying(points, matrices, tol).tolist() == [0]


def classify_chirality(
    cloud: PointCloud4, tol: float = DEFAULT_TOL, survivors: Optional[Sequence[Isometry4]] = None
) -> str:
    """Classify the cloud as achiral, chiral or metachiral.

    Achiral: some orientation-preserving candidate g carries the cloud onto
    its mirror image ``cloud @ MIRROR_W``.  Negating w in both sets changes
    no float distance, and g -> g @ MIRROR_W maps the preserving candidates
    onto the reversing ones, so that holds exactly when some survivor
    reverses orientation.  Otherwise chiral, and metachiral when no
    orientation-reversing candidate h normalizes the group S, {h s h^T} != S:
    then no rotation g = MIRROR_W h carries S onto the mirror image's group,
    and the group itself has a handedness.
    ``survivors`` must be ``surviving_candidates(cloud, tol)``; when given,
    nothing is matched or guarded again.
    """
    if survivors is None:
        survivors = surviving_candidates(cloud, tol)
    if not all(s.is_orientation_preserving for s in survivors):
        return "achiral"
    matrices, preserving = candidate_stack()
    reversing = matrices[~preserving]
    group = np.stack([s.m for s in survivors]).astype(np.int8)
    conjugates = np.einsum("hab,sbc,hdc->hsad", reversing, group, reversing)
    normalized = np.all(np.sort(_codes(conjugates), axis=1) == np.sort(_codes(group)), axis=1)
    return "chiral" if np.any(normalized) else "metachiral"
