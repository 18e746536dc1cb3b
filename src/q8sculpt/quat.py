"""Quaternion arithmetic, the eight-element quaternion group, and the 4x4
rotation matrices induced by quaternion multiplication.

The product of basis units is written out once, in ``_BASIS_MUL``; the group
product and every multiplication matrix are read off that one table.

Conventions, fixed once here and used by the whole package:

- A quaternion w + x*i + y*j + z*k is stored as coordinates (w, x, y, z).
- Points and tangent vectors of R^4 are row vectors; every isometry acts on
  the right, ``image = v @ m``.  Composition therefore reads left to right:
  ``v @ a @ b`` applies ``a`` first, and consequently
  ``right_mul_matrix(a).m @ right_mul_matrix(b).m == right_mul_matrix(a*b).m``.
- Geometric group actions multiply by the group element on the RIGHT, so the
  matrix of the action of ``g`` is ``right_mul_matrix(g)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

UNIT_NORM_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9

_AXIS_NAMES = ("1", "i", "j", "k")

# Basis products e_a * e_b as (sign, axis), rows indexed by a, columns by b,
# axes ordered (1, i, j, k).  Encodes i*j = k, j*i = -k, i*i = -1, ...
_BASIS_MUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)

#: The table as read-only structure constants P: e_a * e_b = sum_c P[a, b, c] e_c.
_PRODUCT = np.array([[sign * np.eye(4, dtype=np.int64)[c] for sign, c in row] for row in _BASIS_MUL])
_PRODUCT.setflags(write=False)


class Record:
    """Base of the package's immutable records.

    A record's ``__init__`` validates its fields and stores them once, with
    :meth:`_store`, which makes every array field read-only; assigning or
    deleting an attribute afterwards raises AttributeError.  The fields of
    ``__match_args__`` are in ``__init__``'s order, for the repr and for
    ``match``.  Equality and hashing are by identity; :class:`ValueRecord`
    compares fields.  Plain classes, because a dataclass compiles generated
    source for every class at each start; a result that checks nothing is a
    ``NamedTuple``.  :meth:`_trusted` skips ``__init__``: its caller vouches
    that the fields pass every check there, and hands their arrays over.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, **fields: object):
        """The record of these fields, stored as given, unchecked."""
        record = object.__new__(cls)
        record._store(**fields)
        return record

    def _store(self, **fields: object) -> None:
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through __init__, which checks it again
        return type(self), self._values()


class ValueRecord(Record):
    """A record equal to another of its exact class with equal fields, and
    hashed by its fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class Quaternion(ValueRecord):
    """Element of the real quaternions, coordinates (w, x, y, z)."""

    __slots__ = __match_args__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        for c in (w, x, y, z):
            if not math.isfinite(c):
                raise ValueError(f"quaternion coordinates must be finite, got {c!r}")
        self._store(w=w, x=x, y=y, z=z)

    def magnitude(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)

    def normalize(self) -> "UnitQuaternion":
        """Explicitly rescale to unit magnitude (the only place that rescales)."""
        m = self.magnitude()
        if m == 0.0:
            raise ValueError("cannot normalize the zero quaternion")
        return UnitQuaternion(self.w / m, self.x / m, self.y / m, self.z / m)

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return mul(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


class UnitQuaternion(Quaternion):
    """Quaternion with magnitude 1; construction rejects anything else."""

    __slots__ = ()

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        super().__init__(w, x, y, z)
        if abs(self.magnitude() - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"unit quaternion magnitude {self.magnitude()!r} is off by more "
                f"than {UNIT_NORM_TOL}; use Quaternion.normalize() explicitly"
            )


def mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b, left operand first; an oracle apart from the table."""
    w = a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z
    x = a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y
    y = a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x
    z = a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w
    return Quaternion(w, x, y, z)


class Q8Element(ValueRecord):
    """One of the eight group elements +-1, +-i, +-j, +-k.

    ``axis`` indexes (1, i, j, k); the embedded quaternion has ``sign`` in
    that coordinate and zeros elsewhere.
    """

    __slots__ = __match_args__ = ("sign", "axis")

    def __init__(self, sign: int, axis: int) -> None:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign!r}")
        if axis not in (0, 1, 2, 3):
            raise ValueError(f"axis must be 0..3, got {axis!r}")
        self._store(sign=sign, axis=axis)

    @property
    def name(self) -> str:
        return ("" if self.sign == 1 else "-") + _AXIS_NAMES[self.axis]

    @classmethod
    def from_name(cls, name: str) -> "Q8Element":
        sign = 1
        body = name.strip()
        if body.startswith("-"):
            sign = -1
            body = body[1:]
        if body not in _AXIS_NAMES:
            raise ValueError(f"unknown group element name {name!r}")
        return cls(sign, _AXIS_NAMES.index(body))

    def to_quaternion(self) -> UnitQuaternion:
        coords = [0.0, 0.0, 0.0, 0.0]
        coords[self.axis] = float(self.sign)
        return UnitQuaternion(*coords)

    def to_vec4(self) -> np.ndarray:
        v = np.zeros(4, dtype=np.int64)
        v[self.axis] = self.sign
        return v

    def __mul__(self, other: "Q8Element") -> "Q8Element":
        return q8_mul(self, other)

    def __neg__(self) -> "Q8Element":
        return Q8Element(-self.sign, self.axis)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Q8({self.name})"


ONE = Q8Element(1, 0)
MINUS_ONE = Q8Element(-1, 0)
I = Q8Element(1, 1)  # noqa: E741 - the quaternion i
J = Q8Element(1, 2)
K = Q8Element(1, 3)

#: The eight elements in the display order 1, -1, i, -i, j, -j, k, -k.
Q8_ELEMENTS: tuple[Q8Element, ...] = (ONE, MINUS_ONE, I, -I, J, -J, K, -K)

#: The generating set used for cell walks and the arrow labels.
GENERATORS: tuple[Q8Element, ...] = (I, J, K)


def q8_mul(a: Q8Element, b: Q8Element) -> Q8Element:
    """Group product a*b, agreeing with the Hamilton product on coordinates."""
    sign, axis = _BASIS_MUL[a.axis][b.axis]
    return Q8Element(sign * a.sign * b.sign, axis)


def q8_inverse(a: Q8Element) -> Q8Element:
    """The element b with a*b = 1."""
    # basis elements square to -1 except the scalar axis
    if a.axis == 0:
        return a
    return -a


def q8_order(a: Q8Element) -> int:
    """Smallest n >= 1 with a**n = 1."""
    acc = a
    n = 1
    while acc != ONE:
        acc = q8_mul(acc, a)
        n += 1
    return n


class Isometry4(Record):
    """Orthogonal 4x4 matrix acting on row vectors.

    Construction checks only the shape and orthogonality; the orientation is
    a fact of the matrix, read off the sign of its determinant.
    """

    __slots__ = __match_args__ = ("m",)

    def __init__(self, m: np.ndarray) -> None:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.max(np.abs(m @ m.T - np.eye(4))) <= ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        self._store(m=m.copy())

    @property
    def is_orientation_preserving(self) -> bool:
        return bool(np.linalg.det(self.m) > 0)

    @property
    def orientation(self) -> str:
        """Either "preserving" (determinant +1) or "reversing" (determinant -1)."""
        return "preserving" if self.is_orientation_preserving else "reversing"

    def __matmul__(self, other: "Isometry4") -> "Isometry4":
        return Isometry4(self.m @ other.m)

    def key(self) -> tuple[int, ...]:
        return matrix_key(self.m)


def matrix_key(m: np.ndarray) -> tuple[int, ...]:
    """Exact integer fingerprint of a matrix with integer entries."""
    m = np.asarray(m)
    r = np.rint(m)
    if np.max(np.abs(m - r)) > 1e-9:
        raise ValueError("matrix entries are not integers")
    return tuple(int(v) for v in r.ravel())


def _coords(q: UnitQuaternion | Q8Element) -> tuple[float, float, float, float]:
    if isinstance(q, Q8Element):
        q = q.to_quaternion()
    if abs(q.magnitude() - 1.0) > UNIT_NORM_TOL:
        raise ValueError("multiplication matrices require a unit quaternion")
    return q.w, q.x, q.y, q.z


def right_mul_matrix(q: UnitQuaternion | Q8Element) -> Isometry4:
    """Matrix of v -> v*q on row vectors, ``v @ m`` = v*q: m[a, c] = sum_b P[a, b, c] q_b."""
    return Isometry4(np.einsum("abc,b->ac", _PRODUCT, _coords(q)))


def left_mul_matrix(q: UnitQuaternion | Q8Element) -> Isometry4:
    """Matrix of v -> q*v on row vectors: m[b, c] = sum_a q_a P[a, b, c]."""
    return Isometry4(np.einsum("a,abc->bc", _coords(q), _PRODUCT))


def q8_right_matrix_int(g: Q8Element) -> np.ndarray:
    """Exact integer right-multiplication matrix for a group element: row a is e_a * g."""
    return g.sign * _PRODUCT[:, g.axis]


def verify_group_axioms(elements: Sequence[Q8Element]) -> bool:
    """Exhaustively check closure, associativity, identity and inverses."""
    elems = list(elements)
    universe = set(elems)
    if len(universe) != len(elems):
        return False
    for a in elems:
        for b in elems:
            if q8_mul(a, b) not in universe:
                return False
    for a in elems:
        for b in elems:
            for c in elems:
                if q8_mul(q8_mul(a, b), c) != q8_mul(a, q8_mul(b, c)):
                    return False
    identities = [e for e in elems if all(q8_mul(e, a) == a and q8_mul(a, e) == a for a in elems)]
    if len(identities) != 1:
        return False
    identity = identities[0]
    for a in elems:
        if not any(q8_mul(a, b) == identity for b in elems):
            return False
    return True

