"""Radial projection of the seed cube onto the 3-sphere and stereographic
projection between the 3-sphere and 3-space.

The stereographic target is the hyperplane through the ORIGIN orthogonal to
the pole (not the tangent hyperplane at the antipode): the equator of the
pole then lands on the unit sphere and coordinates stay small.  Results are
expressed in a deterministic orthonormal basis of that hyperplane, so runs
are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .quat import UNIT_NORM_TOL, Record

#: Minimum allowed distance from a projected point to the pole.
POLE_PROXIMITY_TOL = 1e-6


class PoleProximityError(ValueError):
    """A point lies too close to the projection pole to project sanely."""


def _hyperplane_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to p.

    Deterministic construction: drop the standard axis most parallel to p
    (lowest index on ties), Gram-Schmidt the remaining three in index order.
    """
    basis = []
    for v in np.delete(np.eye(4), int(np.argmax(np.abs(p))), axis=0):
        for b in [p, *basis]:
            v = v - np.dot(v, b) * b
        basis.append(v / np.linalg.norm(v))
    return np.array(basis)


class Pole(Record):
    """Unit projection pole with the hyperplane basis derived from it (rows of ``basis``)."""

    __slots__ = ("p", "basis")
    __match_args__ = ("p",)

    def __init__(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=np.float64).copy()
        if p.shape != (4,):
            raise ValueError(f"pole must be a 4-vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("pole coordinates must be finite")
        if abs(float(np.linalg.norm(p)) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("pole must be a unit vector")
        self._store(p=p, basis=_hyperplane_basis(p))


def default_pole() -> Pole:
    """The pole at the hypercube vertex (1,1,1,1)/2.

    Placing the pole at a vertex keeps every transformed copy of the seed as
    far from infinity as possible; this particular vertex touches the four
    positively-labelled cells, so the eight copies come out in two size
    classes of four.
    """
    return Pole(np.array([0.5, 0.5, 0.5, 0.5]))


def radial_to_s3(points: np.ndarray) -> np.ndarray:
    """Map seed-cube points (x,y,z) to (1,x,y,z) normalized onto the 3-sphere.

    Accepts a single 3-vector or an (n, 3) array; the denominator is at
    least 1, so the map is total.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {points.shape}")
    lifted = np.concatenate([np.ones(points.shape[:-1] + (1,)), points], axis=-1)
    return lifted / np.linalg.norm(lifted, axis=-1, keepdims=True)


def stereo_project(points: np.ndarray, pole: Pole) -> np.ndarray:
    """Project unit 4-vectors from the pole onto the hyperplane through the
    origin orthogonal to it, expressed in the pole's fixed basis.

    Raises :class:`PoleProximityError`, naming the first offending point as
    "vertex i", when any point is within ``POLE_PROXIMITY_TOL`` of the pole:
    such a point would project to (near-)infinity, meaning part of the
    design passes through the projection point.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (1, 2) or points.shape[-1] != 4:
        raise ValueError(f"expected 4-vectors, got shape {points.shape}")
    bad = np.flatnonzero(np.linalg.norm(points - pole.p, axis=-1) < POLE_PROXIMITY_TOL)
    if len(bad):
        raise PoleProximityError(f"vertex {int(bad[0])} maps onto the projection pole")
    return (points @ pole.basis.T) / (1.0 - points @ pole.p)[..., None]


def stereo_unproject(points: np.ndarray, pole: Pole) -> np.ndarray:
    """Inverse of :func:`stereo_project`.

    The image of x lies at chordal distance exactly 2 / sqrt(|x|^2 + 1) from
    the pole.  Its domain mirrors the forward map's: raises
    :class:`PoleProximityError`, naming the first offending point as
    "vertex i", when that distance is below ``POLE_PROXIMITY_TOL``, that is
    for |x| above about 2 / ``POLE_PROXIMITY_TOL``.  The distance is taken
    through ``np.hypot``, which cannot overflow, so no returned point is
    the pole.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {points.shape}")
    to_pole = 2.0 / np.hypot(np.hypot.reduce(points, axis=-1), 1.0)
    bad = np.flatnonzero(to_pole < POLE_PROXIMITY_TOL)
    if len(bad):
        raise PoleProximityError(f"vertex {int(bad[0])} maps onto the projection pole")
    norm2 = np.sum(points * points, axis=-1)[..., None]
    return ((norm2 - 1.0) * pole.p + 2.0 * (points @ pole.basis)) / (norm2 + 1.0)
