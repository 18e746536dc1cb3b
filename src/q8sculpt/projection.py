"""Radial projection of the seed cube onto the 3-sphere and stereographic
projection between the 3-sphere and 3-space.

The stereographic target is the hyperplane through the ORIGIN orthogonal to
the pole (not the tangent hyperplane at the antipode): the equator of the
pole then lands on the unit sphere and coordinates stay small.  Results are
expressed in a deterministic orthonormal basis of that hyperplane, so runs
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quat import UNIT_NORM_TOL

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


@dataclass(frozen=True, eq=False)
class Pole:
    """Unit projection pole with the hyperplane basis derived from it (rows of ``basis``)."""

    p: np.ndarray
    basis: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64).copy()
        if p.shape != (4,):
            raise ValueError(f"pole must be a 4-vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("pole coordinates must be finite")
        if abs(float(np.linalg.norm(p)) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("pole must be a unit vector")
        p.setflags(write=False)
        basis = _hyperplane_basis(p)
        basis.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "basis", basis)


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
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    if pts.shape[1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {points.shape}")
    lifted = np.concatenate([np.ones((len(pts), 1)), pts], axis=1)
    out = lifted / np.linalg.norm(lifted, axis=1, keepdims=True)
    return out[0] if single else out


def stereo_project(points: np.ndarray, pole: Pole) -> np.ndarray:
    """Project unit 4-vectors from the pole onto the hyperplane through the
    origin orthogonal to it, expressed in the pole's fixed basis.

    Raises :class:`PoleProximityError`, naming the first offending point as
    "vertex i", when any point is within ``POLE_PROXIMITY_TOL`` of the pole:
    such a point would project to (near-)infinity, meaning part of the
    design passes through the projection point.
    """
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    if pts.shape[1] != 4:
        raise ValueError(f"expected 4-vectors, got shape {points.shape}")
    chordal = np.linalg.norm(pts - pole.p, axis=1)
    bad = np.nonzero(chordal < POLE_PROXIMITY_TOL)[0]
    if len(bad):
        raise PoleProximityError(f"vertex {int(bad[0])} maps onto the projection pole")
    along = pts @ pole.p
    tangential = pts @ pole.basis.T
    out = tangential / (1.0 - along)[:, None]
    return out[0] if single else out


def stereo_unproject(points: np.ndarray, pole: Pole) -> np.ndarray:
    """Inverse of :func:`stereo_project`; never returns the pole itself."""
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    if pts.shape[1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {points.shape}")
    embedded = pts @ pole.basis
    norm2 = np.sum(pts * pts, axis=1)
    out = ((norm2 - 1.0)[:, None] * pole.p + 2.0 * embedded) / (norm2 + 1.0)[:, None]
    return out[0] if single else out
