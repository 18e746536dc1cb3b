import numpy as np
import pytest

from q8sculpt.projection import (
    POLE_PROXIMITY_TOL,
    Pole,
    PoleProximityError,
    default_pole,
    radial_to_s3,
    stereo_project,
    stereo_unproject,
)
from q8sculpt.quat import ONE, Q8_ELEMENTS


def unit_sphere_points(n, seed):
    gen = np.random.default_rng(seed)
    pts = gen.normal(size=(n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_radial_examples():
    assert np.allclose(radial_to_s3(np.zeros(3)), [1, 0, 0, 0])
    assert np.allclose(radial_to_s3(np.array([1.0, 1.0, 1.0])), [0.5, 0.5, 0.5, 0.5])
    r = 1 / np.sqrt(2)
    assert np.allclose(radial_to_s3(np.array([1.0, 0.0, 0.0])), [r, r, 0, 0])


def test_radial_image_is_unit(rng):
    pts = rng.uniform(-1, 1, size=(10000, 3))
    image = radial_to_s3(pts)
    assert np.max(np.abs(np.linalg.norm(image, axis=1) - 1.0)) <= 1e-12


def test_radial_lands_in_cell_one(rng, cell_labels):
    pts = rng.uniform(-0.999, 0.999, size=(500, 3))
    assert all(label == ONE for label in cell_labels(radial_to_s3(pts)))


def test_default_pole_value():
    pole = default_pole()
    assert np.allclose(pole.p, [0.5, 0.5, 0.5, 0.5])
    assert abs(np.linalg.norm(pole.p) - 1.0) <= 1e-15


def test_default_pole_two_distance_classes():
    """The pole vertex touches the four positive cells: distance 1 to their
    centers and sqrt(3) to the four antipodal centers."""
    pole = default_pole()
    for g in Q8_ELEMENTS:
        d = float(np.linalg.norm(pole.p - g.to_vec4()))
        expected = 1.0 if g.sign > 0 else np.sqrt(3.0)
        assert abs(d - expected) <= 1e-12


def test_pole_requires_unit_vector():
    with pytest.raises(ValueError):
        Pole(np.array([1.0, 1.0, 0.0, 0.0]))
    for bad in (np.array([1.0, 0.0, 0.0]), np.eye(4)[:1], np.eye(4)[:, :1]):
        with pytest.raises(ValueError, match="pole must be a 4-vector"):
            Pole(bad)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Pole(np.array([bad, 0.0, 0.0, 0.0]))


def test_antipode_maps_to_origin():
    pole = default_pole()
    assert np.max(np.abs(stereo_project(-pole.p, pole))) <= 1e-15


def test_equator_maps_to_unit_sphere(rng):
    pole = default_pole()
    for _ in range(50):
        t = rng.normal(size=4)
        t -= (t @ pole.p) * pole.p
        t /= np.linalg.norm(t)
        assert abs(np.linalg.norm(stereo_project(t, pole)) - 1.0) <= 1e-12


def test_projecting_the_pole_errors():
    pole = default_pole()
    with pytest.raises(PoleProximityError):
        stereo_project(pole.p, pole)
    nearly = pole.p + np.array([1e-8, 0, 0, 0])
    nearly /= np.linalg.norm(nearly)
    with pytest.raises(PoleProximityError):
        stereo_project(nearly, pole)


def test_round_trip_sphere_to_space():
    pole = default_pole()
    q = unit_sphere_points(10000, seed=5)
    keep = np.linalg.norm(q - pole.p, axis=1) >= 1e-3
    q = q[keep]
    back = stereo_unproject(stereo_project(q, pole), pole)
    assert np.max(np.linalg.norm(back - q, axis=1)) <= 1e-9


def test_round_trip_space_to_sphere(rng):
    pole = default_pole()
    v = rng.normal(size=(10000, 3)) * 3.0
    lifted = stereo_unproject(v, pole)
    assert np.max(np.abs(np.linalg.norm(lifted, axis=1) - 1.0)) <= 1e-12
    assert np.min(np.linalg.norm(lifted - pole.p, axis=1)) > 1e-3
    forward = stereo_project(lifted, pole)
    assert np.max(np.linalg.norm(forward - v, axis=1)) <= 1e-9


@pytest.mark.parametrize("norm", [1e150, 1e200])
def test_unproject_refuses_points_that_map_onto_the_pole(norm):
    """Far points used to come back as the pole itself (1e150: norm^2 +- 1
    rounds to norm^2) or as NaN with an overflow warning (1e200)."""
    pole = default_pole()
    with pytest.raises(PoleProximityError, match="vertex 1 maps onto"):
        stereo_unproject(np.array([[0.3, -0.2, 0.1], [0.0, norm, 0.0]]), pole)


def test_unproject_round_trips_at_twice_the_pole_tolerance():
    """The image of x lies 2 / sqrt(|x|^2 + 1) from the pole; at twice the
    tolerance it is still mapped, and the sphere round trip still holds."""
    pole = default_pole()
    gap = 2 * POLE_PROXIMITY_TOL
    x = np.sqrt(4 / gap**2 - 1) * np.array([0.6, 0.0, -0.8])
    q = stereo_unproject(x, pole)
    assert np.linalg.norm(q - pole.p) == pytest.approx(gap, rel=1e-9)
    assert np.linalg.norm(stereo_unproject(stereo_project(q, pole), pole) - q) <= 1e-9


def test_unproject_origin_is_antipode():
    pole = default_pole()
    assert np.allclose(stereo_unproject(np.zeros(3), pole), -pole.p, atol=1e-15)


def test_conformality_spot_check(rng):
    """Pushforwards of orthogonal tangent directions stay orthogonal."""
    pole = default_pole()
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        if np.linalg.norm(q - pole.p) < 0.1:
            continue
        t1 = rng.normal(size=4)
        t1 -= (t1 @ q) * q
        t1 /= np.linalg.norm(t1)
        t2 = rng.normal(size=4)
        t2 -= (t2 @ q) * q
        t2 -= (t2 @ t1) * t1
        t2 /= np.linalg.norm(t2)
        base = stereo_project(q, pole)
        d1 = (stereo_project((q + h * t1) / np.linalg.norm(q + h * t1), pole) - base) / h
        d2 = (stereo_project((q + h * t2) / np.linalg.norm(q + h * t2), pole) - base) / h
        cosine = d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2))
        angle = np.degrees(np.arccos(np.clip(cosine, -1, 1)))
        worst = max(worst, abs(angle - 90.0))
    assert worst <= 0.01


def test_basis_is_deterministic():
    a = Pole(np.array([0.5, 0.5, 0.5, 0.5]))
    b = Pole(np.array([0.5, 0.5, 0.5, 0.5]))
    assert a.basis.tobytes() == b.basis.tobytes()
    assert np.allclose(a.basis @ a.basis.T, np.eye(3), atol=1e-15)
    assert np.max(np.abs(a.basis @ a.p)) <= 1e-15


_MAPS = {
    "radial_to_s3": (radial_to_s3, 3),
    "stereo_project": (lambda x: stereo_project(x, default_pole()), 4),
    "stereo_unproject": (lambda x: stereo_unproject(x, default_pole()), 3),
}


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_maps_take_one_vector_or_rows_and_refuse_other_shapes(name):
    """One vector gives exactly row 0 of the (1, d) result, no rows give no
    rows, and every other shape is refused by name."""
    f, d = _MAPS[name]
    vector = unit_sphere_points(1, seed=3)[0] if d == 4 else np.array([0.3, -0.7, 0.2])
    assert np.array_equal(f(vector), f(vector[None, :])[0])
    assert len(f(np.zeros((0, d)))) == 0
    for shape in [(2, 3, d), (), (5, d + 1), (d - 1,)]:
        with pytest.raises(ValueError, match=f"expected {d}-vectors"):
            f(np.full(shape, 0.1))


def test_pole_message_names_the_vertex_of_one_vector():
    pole = default_pole()
    with pytest.raises(PoleProximityError, match="vertex 0 maps onto"):
        stereo_project(pole.p, pole)
    with pytest.raises(PoleProximityError, match="vertex 1 maps onto"):
        stereo_project(np.stack([-pole.p, pole.p]), pole)
