"""Core Clifford algebra: blade products, involutions, and quaternions.

The product table is checked against an independent 4x4 matrix model of
Cl(1,3) hardcoded below, so a sign error in the table cannot hide behind
the library's own gamma-matrix dictionary.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_multivector
from oracles import quaternion_to_multivector, scatter_product
from spinorlab import (
    E0,
    E1,
    E2,
    E3,
    METRIC_SIGNS,
    PSEUDOSCALAR,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    Multivector,
    Quaternion,
    basis_vectors,
    lcontract,
    wedge,
)
from spinorlab.algebra import (
    BLADE_GRADES,
    BLADES,
    DIM,
    LCONTRACT_SIGN,
    PRODUCT_INDEX,
    PRODUCT_SIGN,
    WEDGE_SIGN,
    _product,
    product_array,
)

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _matrix_model():
    """Lower-index Dirac matrices: an independent faithful copy of Cl(1,3)."""
    g0 = np.diag([1, 1, -1, -1]).astype(complex)
    gammas = [g0]
    for s in SIGMA:
        m = np.zeros((4, 4), dtype=complex)
        m[:2, 2:] = -s
        m[2:, :2] = s
        gammas.append(m)
    mats = []
    for idx in BLADES:
        m = np.eye(4, dtype=complex)
        for i in idx:
            m = m @ gammas[i]
        mats.append(m)
    return mats


def test_product_table_against_matrix_model():
    mats = _matrix_model()
    for a in range(DIM):
        for b in range(DIM):
            lhs = mats[a] @ mats[b]
            rhs = PRODUCT_SIGN[a, b] * mats[PRODUCT_INDEX[a, b]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("i", range(4))
def test_basis_vector_squares_follow_the_metric(i):
    e = basis_vectors()[i]
    assert (e * e) == Multivector.scalar(METRIC_SIGNS[i])


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
def test_distinct_basis_vectors_anticommute(i, j):
    ei, ej = Multivector.blade(i), Multivector.blade(j)
    assert (ei * ej + ej * ei).norm() == 0.0


def test_blade_constructor_requires_sorted_index_tuples():
    with pytest.raises(ValueError, match="no basis blade"):
        Multivector.blade(1, 0)
    # products still produce the reordering sign
    assert E1 * E0 == -Multivector.blade(0, 1)
    assert E3 * Multivector.blade(1, 2) == Multivector.blade(1, 2, 3)


def test_pseudoscalar_squares_to_minus_one_and_commutes_with_evens():
    assert PSEUDOSCALAR * PSEUDOSCALAR == Multivector.scalar(-1.0)
    bivec = Multivector.blade(1, 2, coeff=0.7) + Multivector.blade(0, 3, coeff=-0.2)
    assert (PSEUDOSCALAR * bivec - bivec * PSEUDOSCALAR).norm() == 0.0


def test_pseudoscalar_anticommutes_with_vectors():
    for e in basis_vectors():
        assert (PSEUDOSCALAR * e + e * PSEUDOSCALAR).norm() == 0.0


def test_reversion_signs_per_grade():
    # + + - - + + pattern over grades 0..4
    expected = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}
    for n, idx in enumerate(BLADES):
        blade = Multivector.blade(*idx) if idx else Multivector.scalar(1.0)
        sign = expected[len(idx)]
        assert blade.reverse() == blade * sign, f"blade {n}"


def test_reversion_is_an_antiautomorphism():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_multivector(rng, complex_coeffs=True)
        b = random_multivector(rng, complex_coeffs=True)
        lhs = (a * b).reverse()
        rhs = b.reverse() * a.reverse()
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_grade_involution_is_an_automorphism():
    rng = np.random.default_rng(32)
    involute = lambda m: Multivector(m.coeffs * (-1.0) ** BLADE_GRADES)
    for _ in range(10):
        a = random_multivector(rng)
        b = random_multivector(rng)
        lhs = involute(a * b)
        rhs = involute(a) * involute(b)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_conjugate_is_plain_complex_conjugation_of_coefficients():
    rng = np.random.default_rng(33)
    a = random_multivector(rng, complex_coeffs=True)
    np.testing.assert_array_equal(a.conjugate().coeffs, a.coeffs.conj())


def test_grade_projections_partition_the_element():
    rng = np.random.default_rng(34)
    a = random_multivector(rng, complex_coeffs=True)
    total = sum((a.grade(k) for k in range(5)), Multivector.zero())
    np.testing.assert_allclose(total.coeffs, a.coeffs, atol=0)
    assert set(BLADE_GRADES[a.grade(2).coeffs != 0]) == {2}


def test_vector_round_trip_and_components():
    v = Multivector.vector([0.5, -1.0, 2.0, 3.5])
    np.testing.assert_array_equal(v.coeffs[1:5], [0.5, -1.0, 2.0, 3.5])
    assert set(BLADE_GRADES[v.coeffs != 0]) == {1}


def test_geometric_product_of_vector_splits_into_contraction_and_wedge():
    rng = np.random.default_rng(35)
    for _ in range(10):
        u = Multivector.vector(rng.standard_normal(4))
        a = random_multivector(rng)
        full = u * a
        split = lcontract(u, a) + wedge(u, a)
        np.testing.assert_allclose(full.coeffs, split.coeffs, atol=1e-12)


def test_wedge_and_contraction_are_grade_projections_of_the_product():
    for a_idx in BLADES:
        for b_idx in BLADES:
            a = Multivector.blade(*a_idx) if a_idx else Multivector.scalar(1.0)
            b = Multivector.blade(*b_idx) if b_idx else Multivector.scalar(1.0)
            prod = a * b
            ga, gb = len(a_idx), len(b_idx)
            w = prod.grade(ga + gb) if ga + gb <= 4 else Multivector.zero()
            np.testing.assert_allclose(wedge(a, b).coeffs, w.coeffs, atol=0)
            c = prod.grade(gb - ga) if gb >= ga else Multivector.zero()
            np.testing.assert_allclose(lcontract(a, b).coeffs, c.coeffs, atol=0)


def test_wedge_of_vectors_is_antisymmetric():
    rng = np.random.default_rng(36)
    u = Multivector.vector(rng.standard_normal(4))
    v = Multivector.vector(rng.standard_normal(4))
    np.testing.assert_allclose(
        wedge(u, v).coeffs, -wedge(v, u).coeffs, atol=1e-14
    )
    assert wedge(u, u).norm() < 1e-14


def test_division_by_scalar_and_subtraction():
    a = Multivector.vector([2.0, 4.0, 0.0, -6.0])
    np.testing.assert_array_equal((a / 2.0).coeffs[1:5], [1.0, 2.0, 0.0, -3.0])
    assert (1.0 - Multivector.scalar(0.25)).scalar_part() == pytest.approx(0.75)


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff, min_size=16, max_size=16), st.lists(coeff, min_size=16, max_size=16), st.lists(coeff, min_size=16, max_size=16))
def test_product_is_associative_and_distributive(xs, ys, zs):
    a, b, c = Multivector(xs), Multivector(ys), Multivector(zs)
    left = (a * b) * c
    right = a * (b * c)
    scale = max(1.0, a.norm() * b.norm() * c.norm())
    assert (left - right).norm() <= 1e-10 * scale
    dist = a * (b + c) - (a * b + a * c)
    assert dist.norm() <= 1e-10 * max(1.0, a.norm() * (b.norm() + c.norm()))


# ---- quaternions ----------------------------------------------------------


def test_hamilton_multiplication_table():
    one = Quaternion(1, 0, 0, 0)
    assert QUAT_I * QUAT_I == -one
    assert QUAT_J * QUAT_J == -one
    assert QUAT_K * QUAT_K == -one
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_K == QUAT_I
    assert QUAT_K * QUAT_I == QUAT_J
    assert QUAT_J * QUAT_I == -QUAT_K


def test_quaternion_norm_is_multiplicative():
    rng = np.random.default_rng(37)
    for _ in range(20):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        assert (p * q).norm() == pytest.approx(p.norm() * q.norm(), rel=1e-12)


def test_quaternion_conjugation_reverses_products():
    p = Quaternion(0.3, -1.2, 0.5, 2.0)
    q = Quaternion(1.0, 0.7, -0.4, 0.1)
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    np.testing.assert_allclose(lhs.components(), rhs.components(), atol=1e-14)


def test_quaternion_units_map_to_spatial_rotation_bivectors():
    assert quaternion_to_multivector(QUAT_I) == Multivector.blade(2, 3)
    assert quaternion_to_multivector(QUAT_J) == -Multivector.blade(1, 3)
    assert quaternion_to_multivector(QUAT_K) == Multivector.blade(1, 2)


def test_quaternion_embedding_is_a_homomorphism():
    rng = np.random.default_rng(38)
    for _ in range(10):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        lhs = quaternion_to_multivector(p * q)
        rhs = quaternion_to_multivector(p) * quaternion_to_multivector(q)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)


def test_scalar_multiplication_of_quaternions():
    q = Quaternion(1.0, -2.0, 0.5, 4.0)
    np.testing.assert_array_equal((2.0 * q).components(), [2.0, -4.0, 1.0, 8.0])
    np.testing.assert_array_equal((q * 2.0).components(), [2.0, -4.0, 1.0, 8.0])


def test_even_grades_are_exactly_the_quaternion_plus_pseudo_sector():
    # grade pattern of the 16 blades: 1 scalar, 4 vectors, 6 bivectors,
    # 4 trivectors, 1 pseudoscalar
    counts = np.bincount(BLADE_GRADES)
    np.testing.assert_array_equal(counts, [1, 4, 6, 4, 1])


def _signed_rows(rng, n, complex_rows):
    """Random (n, 16) rows with exact +0.0 and -0.0 entries mixed in."""
    x = rng.standard_normal((n, DIM))
    if complex_rows:
        x = x + 1j * rng.standard_normal((n, DIM))
        x.imag[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    return x


@pytest.mark.parametrize("table", [PRODUCT_SIGN, WEDGE_SIGN, LCONTRACT_SIGN], ids=["product", "wedge", "lcontract"])
@pytest.mark.parametrize("x_complex, y_complex", [(False, False), (False, True), (True, False), (True, True)])
def test_product_array_rows_are_the_scalar_products_bit_for_bit(table, x_complex, y_complex):
    rng = np.random.default_rng(131)
    x, y = _signed_rows(rng, 70, x_complex), _signed_rows(rng, 70, y_complex)
    got = product_array(x, y, table)
    want = np.array([scatter_product(a, b, table) for a, b in zip(x, y)])
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the one-row call that Multivector products, wedge and lcontract make
    alone = np.array([_product(a, b, table) for a, b in zip(x, y)])
    assert alone.dtype == want.dtype
    assert np.array_equal(alone.view(np.int64), want.view(np.int64))
    # a block of one row is broadcast against the other
    want = np.array([scatter_product(x[0], b, table) for b in y])
    assert np.array_equal(product_array(x[:1], y, table).view(np.int64), want.view(np.int64))
    want = np.array([scatter_product(a, y[0], table) for a in x])
    assert np.array_equal(product_array(x, y[:1], table).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Multivector(np.zeros(15)), ValueError, "expected 16 coefficients, got shape (15,)"),
    (lambda: Multivector(["a"] * 16), TypeError, "coefficients must be numeric, got dtype <U1"),
    (lambda: Multivector.vector([1.0, 2.0, 3.0]), ValueError, "a 1-vector needs 4 components"),
], ids=["shape", "dtype", "vector-shape"])
def test_each_multivector_check_refuses_its_input_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
