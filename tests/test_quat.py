import numpy as np
import pytest

from q8sculpt.quat import (
    I,
    J,
    K,
    MINUS_ONE,
    ONE,
    Isometry4,
    Q8Element,
    Q8_ELEMENTS,
    Quaternion,
    UnitQuaternion,
    left_mul_matrix,
    matrix_key,
    mul,
    q8_inverse,
    q8_mul,
    q8_order,
    q8_right_matrix_int,
    right_mul_matrix,
    verify_group_axioms,
)


def random_unit_quaternions(n, seed=3):
    gen = np.random.default_rng(seed)
    coords = gen.normal(size=(n, 4))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    return [UnitQuaternion(*c) for c in coords]


def test_product_examples():
    assert q8_mul(I, J) == K
    assert q8_mul(J, I) == -K
    assert q8_mul(K, K) == MINUS_ONE
    assert q8_mul(-I, J) == -K
    assert q8_mul(MINUS_ONE, MINUS_ONE) == ONE


def test_identity_absorbs(rng):
    one = Quaternion(1, 0, 0, 0)
    for _ in range(20):
        q = Quaternion(*rng.normal(size=4))
        p = mul(one, q)
        assert (p.w, p.x, p.y, p.z) == (q.w, q.x, q.y, q.z)


def test_q8_mul_agrees_with_hamilton_on_all_64_pairs():
    for a in Q8_ELEMENTS:
        for b in Q8_ELEMENTS:
            embedded = mul(a.to_quaternion(), b.to_quaternion())
            expected = q8_mul(a, b).to_quaternion()
            assert embedded.to_array().tolist() == expected.to_array().tolist()


def test_inverse_matches_table_scan():
    # oracle: the inverse is the unique row entry multiplying to 1
    for a in Q8_ELEMENTS:
        scanned = [b for b in Q8_ELEMENTS if q8_mul(a, b) == ONE]
        assert scanned == [q8_inverse(a)]
        assert q8_mul(a, q8_inverse(a)) == ONE
    assert q8_inverse(I) == -I
    assert q8_inverse(ONE) == ONE
    assert q8_inverse(MINUS_ONE) == MINUS_ONE


def test_order_census():
    # oracle: brute-force repeated multiplication
    orders = sorted(q8_order(a) for a in Q8_ELEMENTS)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert q8_order(ONE) == 1
    assert q8_order(MINUS_ONE) == 2
    assert q8_order(J) == 4


def test_right_mul_matrix_worked_example(rng):
    m = right_mul_matrix(I).m
    for _ in range(100):
        x, y, z = rng.normal(size=3)
        image = np.array([1.0, x, y, z]) @ m
        assert np.max(np.abs(image - np.array([-x, 1.0, z, -y]))) <= 1e-12


def test_right_mul_identity_and_square():
    assert np.array_equal(right_mul_matrix(ONE).m, np.eye(4))
    mi = right_mul_matrix(I).m
    assert np.max(np.abs(mi @ mi - right_mul_matrix(MINUS_ONE).m)) == 0.0
    assert np.max(np.abs(mi @ mi + np.eye(4))) == 0.0


def test_right_mul_orthogonal_unit_determinant():
    for q in random_unit_quaternions(200):
        m = right_mul_matrix(q).m
        assert np.max(np.abs(m @ m.T - np.eye(4))) <= 1e-12
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12


def test_homomorphism_on_all_64_pairs():
    mats = {g: right_mul_matrix(g).m for g in Q8_ELEMENTS}
    for a in Q8_ELEMENTS:
        for b in Q8_ELEMENTS:
            assert np.max(np.abs(mats[a] @ mats[b] - mats[q8_mul(a, b)])) <= 1e-12


def test_defining_relations_as_matrices():
    mi, mj, mk = (right_mul_matrix(g).m for g in (I, J, K))
    eye = np.eye(4)
    assert np.max(np.abs(mi @ mi + eye)) <= 1e-12
    assert np.max(np.abs(mj @ mj + eye)) <= 1e-12
    assert np.max(np.abs(mk @ mk + eye)) <= 1e-12
    assert np.max(np.abs(mi @ mj @ mk + eye)) <= 1e-12


def test_isoclinic_turning_angle(rng):
    """<v, v*q> equals Re(q) for unit v; imaginary units turn by exactly 90 degrees."""
    v = rng.normal(size=(1000, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for g in (I, -I, J, -J, K, -K):
        dots = np.sum(v * (v @ right_mul_matrix(g).m), axis=1)
        assert np.max(np.abs(dots)) <= 1e-9
    for q in random_unit_quaternions(20, seed=11):
        dots = np.sum(v * (v @ right_mul_matrix(q).m), axis=1)
        assert np.max(np.abs(dots - q.w)) <= 1e-9


def test_multiplication_matrices_agree_with_products():
    """Oracle: the matrices must reproduce the Hamilton product itself."""
    gen = np.random.default_rng(23)
    for _ in range(50):
        q = Quaternion(*gen.normal(size=4)).normalize()
        v = Quaternion(*gen.normal(size=4))
        right = v.to_array() @ right_mul_matrix(q).m
        assert np.max(np.abs(right - mul(v, q).to_array())) <= 1e-12
        left = v.to_array() @ left_mul_matrix(q).m
        assert np.max(np.abs(left - mul(q, v).to_array())) <= 1e-12


def test_left_mul_examples():
    assert np.array_equal(left_mul_matrix(ONE).m, np.eye(4))
    ml = left_mul_matrix(I).m
    assert np.allclose(np.array([1, 0, 0, 0]) @ ml, [0, 1, 0, 0])
    # i * j = k
    assert np.allclose(np.array([0, 0, 1, 0]) @ ml, [0, 0, 0, 1])


def test_verify_group_axioms():
    assert verify_group_axioms(Q8_ELEMENTS)
    assert verify_group_axioms([ONE, MINUS_ONE, I, -I])
    assert not verify_group_axioms([ONE, I])


def test_unit_quaternion_construction_tolerance():
    UnitQuaternion(1.0 + 5e-10, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitQuaternion(1.0 + 5e-9, 0.0, 0.0, 0.0)


def test_normalize_is_explicit():
    q = Quaternion(3.0, 0.0, 4.0, 0.0)
    u = q.normalize()
    assert isinstance(u, UnitQuaternion)
    assert abs(u.magnitude() - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 0.0).normalize()


def test_quaternion_rejects_non_finite():
    with pytest.raises(ValueError):
        Quaternion(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion(float("inf"), 0.0, 0.0, 0.0)


def test_q8_element_validation_and_names():
    with pytest.raises(ValueError):
        Q8Element(0, 1)
    with pytest.raises(ValueError):
        Q8Element(1, 4)
    assert [g.name for g in Q8_ELEMENTS] == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    for g in Q8_ELEMENTS:
        assert Q8Element.from_name(g.name) == g
        vec = g.to_vec4()
        assert sorted(np.abs(vec).tolist()) == [0, 0, 0, 1]


def test_isometry4_validation():
    with pytest.raises(ValueError):
        Isometry4(np.eye(4) * 2.0)
    with pytest.raises(ValueError, match="not orthogonal"):
        Isometry4(np.full((4, 4), np.nan))
    mirror = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert Isometry4(mirror).orientation == "reversing"
    composed = Isometry4(mirror) @ Isometry4(mirror)
    assert composed.orientation == "preserving"


def test_orientation_is_the_sign_of_the_determinant():
    """Seeded random orthogonal matrices from QR, reflections included: the
    orientation follows det, and a product's follows the sign rule."""
    gen = np.random.default_rng(11)
    isos, signs = [], []
    for _ in range(40):
        q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        q = q * gen.choice([-1.0, 1.0], size=4)  # flip columns: QR alone fixes det
        iso = Isometry4(q)
        isos.append(iso)
        signs.append(np.linalg.det(q) > 0)
        assert iso.is_orientation_preserving == signs[-1]
        assert iso.orientation == ("preserving" if signs[-1] else "reversing")
    assert set(signs) == {True, False}
    for a, sa, b, sb in zip(isos, signs, isos[1:], signs[1:]):
        assert (a @ b).is_orientation_preserving == (sa == sb)
    for q in random_unit_quaternions(200, seed=13):
        assert right_mul_matrix(q).orientation == "preserving"
        assert left_mul_matrix(q).orientation == "preserving"


def test_integer_right_matrices_match_float():
    for g in Q8_ELEMENTS:
        assert np.array_equal(
            q8_right_matrix_int(g).astype(float), right_mul_matrix(g).m
        )


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: Isometry4(np.eye(3)), "expected a 4x4 matrix"),
        (lambda: matrix_key(np.eye(4) * 0.5), "not integers"),
        (lambda: right_mul_matrix(Quaternion(2.0, 0.0, 0.0, 0.0)), "unit quaternion"),
        (lambda: Q8Element.from_name("l"), "unknown group element name"),
    ],
    ids=["isometry-shape", "non-integer-key", "non-unit-multiplier", "unknown-name"],
)
def test_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_verify_group_axioms_refuses_duplicates_and_the_empty_list():
    assert not verify_group_axioms([ONE, ONE, MINUS_ONE])
    assert not verify_group_axioms([])


def test_operators_are_the_products():
    units = random_unit_quaternions(6)
    for a in units:
        assert -a == Quaternion(-a.w, -a.x, -a.y, -a.z)
        for b in units:
            assert a * b == mul(a, b)
    for a in Q8_ELEMENTS:
        for b in Q8_ELEMENTS:
            assert a * b == q8_mul(a, b)


def test_quaternion_records_compare_by_value():
    q = Quaternion(w=1.0, x=0.0, y=0.0, z=0.0)
    assert q == Quaternion(1.0, 0.0, 0.0, 0.0) and hash(q) == hash(Quaternion(1.0, 0.0, 0.0, 0.0))
    assert q != UnitQuaternion(1.0, 0.0, 0.0, 0.0)  # equal only within one exact class
    assert Q8Element(sign=1, axis=1) == I and len({I, Q8Element(1, 1), J}) == 2
    m = np.eye(4)
    assert Isometry4(m) != Isometry4(m)  # a record holding an array compares by identity
    for record, field in ((q, "w"), (UnitQuaternion(0.0, 1.0, 0.0, 0.0), "x"), (I, "sign")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
