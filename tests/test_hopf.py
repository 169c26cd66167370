"""Quaternionic fibration of unit spinors and its algebraic dictionaries.

The component-route formulas are checked against an independent oracle: the
classical fibration written through the pairing q_a = p0 + p1 j,
q_b = p2 + p3 j.  The library's quaternion route uses a different pairing of
the same column, so the two images share J0 and the norm of the remaining
block but not the block itself; no fixed rotation relates them, and the tests
deliberately avoid asserting one.
"""

import numpy as np
import pytest

from conftest import random_unit_spinor
from spinorlab import (
    Multivector,
    Quaternion,
    QuaternionPair,
    SpinorC4,
    bilinears,
    column_fiber_action,
    column_to_even,
    column_to_quaternions,
    even_to_column,
    even_to_ideal,
    even_to_quaternions,
    gamma_rep,
    hopf_from_components,
    hopf_map,
    hopf_map_unnormalized,
    hopf_routes_report,
    ideal_projector,
    ideal_to_column,
    instanton_obstruction,
    quaternions_to_column,
)


def classical_fibration(p):
    """Independent oracle for the component route."""
    qa = Quaternion(p[0].real, p[0].imag, p[1].real, p[1].imag)
    qb = Quaternion(p[2].real, p[2].imag, p[3].real, p[3].imag)
    q = qa.conjugate() * qb
    return np.array(
        [qa.norm_squared() - qb.norm_squared(), -2 * q.z, -2 * q.y, 2 * q.x, 2 * q.w]
    )


def random_unit_quaternion(rng):
    c = rng.standard_normal(4)
    return Quaternion(*(c / np.linalg.norm(c)))


def test_quaternion_dictionary_on_basis_columns():
    pair = column_to_quaternions(SpinorC4([1, 0, 0, 0], "standard"))
    assert pair.q1 == Quaternion(1, 0, 0, 0)
    assert pair.q2 == Quaternion(0, 0, 0, 0)
    pair = column_to_quaternions(SpinorC4([-1j, 0, 0, 0], "standard"))
    assert pair.q1 == Quaternion(0, 0, 0, 1)


def test_quaternion_dictionary_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(30):
        psi = random_unit_spinor(rng)
        back = quaternions_to_column(column_to_quaternions(psi))
        np.testing.assert_allclose(back.components, psi.components, atol=1e-15)


def test_quaternion_dictionary_requires_the_standard_representation():
    with pytest.raises(ValueError, match="standard"):
        column_to_quaternions(SpinorC4([1, 0, 0, 0], "chiral"))


def test_even_and_ideal_round_trips():
    rng = np.random.default_rng(102)
    for _ in range(20):
        psi = random_unit_spinor(rng)
        even = column_to_even(psi)
        np.testing.assert_allclose(
            even_to_column(even).components, psi.components, atol=1e-13
        )
        xi = even_to_ideal(even)
        np.testing.assert_allclose(
            ideal_to_column(xi).components, psi.components, atol=1e-13
        )
        pair = even_to_quaternions(even)
        direct = column_to_quaternions(psi)
        np.testing.assert_allclose(
            pair.q1.components(), direct.q1.components(), atol=1e-13
        )
        np.testing.assert_allclose(
            pair.q2.components(), direct.q2.components(), atol=1e-13
        )


def test_ideal_projector_is_the_corner_idempotent():
    f = ideal_projector()
    assert ((f * f) - f).norm() < 1e-15
    matrix = gamma_rep("standard").mv_to_matrix(f)
    np.testing.assert_allclose(matrix, np.diag([1.0, 0, 0, 0]), atol=1e-15)


def test_ideal_projector_hands_out_copies_of_one_constant():
    f = ideal_projector()
    f.coeffs[:] = 0.0
    assert ideal_projector().coeffs[0] == 0.25
    assert ideal_projector() is not ideal_projector()


def test_right_multiplication_by_e12_acts_as_minus_i_on_the_ideal():
    rng = np.random.default_rng(103)
    xi = even_to_ideal(column_to_even(random_unit_spinor(rng)))
    rotated = xi * Multivector.blade(1, 2)
    np.testing.assert_allclose(rotated.coeffs, (xi * -1j).coeffs, atol=1e-14)


def test_unit_columns_map_onto_the_unit_sphere():
    rng = np.random.default_rng(104)
    for _ in range(100):
        point = hopf_map(column_to_quaternions(random_unit_spinor(rng)))
        assert point.norm() == pytest.approx(1.0, abs=1e-12)


def test_map_rejects_non_unit_pairs():
    pair = QuaternionPair(Quaternion(2, 0, 0, 0), Quaternion(0, 0, 0, 0))
    with pytest.raises(ValueError, match="normalize"):
        hopf_map(pair)


def test_norm_identity_holds_without_normalization_on_both_routes():
    rng = np.random.default_rng(105)
    for _ in range(50):
        comp = 2.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        psi = SpinorC4(comp, "standard")
        sigma_q, point_q = hopf_map_unnormalized(column_to_quaternions(psi))
        assert point_q.norm() ** 2 == pytest.approx(sigma_q**2, rel=1e-12)
        sigma_c, point_c = hopf_from_components(psi)
        assert point_c.norm() ** 2 == pytest.approx(sigma_c**2, rel=1e-12)


def test_antipodal_image_of_the_half_half_pair():
    w = 1 / np.sqrt(2)
    pair = QuaternionPair(Quaternion(w, 0, 0, 0), Quaternion(w, 0, 0, 0))
    point = hopf_map(pair)
    np.testing.assert_allclose(point.as_array(), [0, 0, 0, 0, 1.0], atol=1e-15)


def test_fiber_action_leaves_the_image_point_fixed():
    rng = np.random.default_rng(106)
    psi = random_unit_spinor(rng)
    pair = column_to_quaternions(psi)
    base = hopf_map(pair).as_array()
    for _ in range(100):
        u = random_unit_quaternion(rng)
        moved = hopf_map(pair.right_multiplied(u)).as_array()
        np.testing.assert_allclose(moved, base, atol=1e-12)


def test_fiber_action_on_columns_preserves_the_observables():
    rng = np.random.default_rng(107)
    psi = random_unit_spinor(rng)
    b0 = bilinears(psi)
    for _ in range(10):
        moved = column_fiber_action(psi, random_unit_quaternion(rng))
        b1 = bilinears(moved)
        assert b1.sigma == pytest.approx(b0.sigma, abs=1e-12)
        assert b1.omega == pytest.approx(b0.omega, abs=1e-12)
        np.testing.assert_allclose(b1.J, b0.J, atol=1e-12)


def test_quaternion_route_reads_off_the_direct_bilinears():
    rng = np.random.default_rng(108)
    for _ in range(30):
        psi = random_unit_spinor(rng)
        sigma_q, point_q = hopf_map_unnormalized(column_to_quaternions(psi))
        b = bilinears(psi)
        assert sigma_q == pytest.approx(b.J[0], abs=1e-12)
        expected = np.array([b.sigma, -b.J[1], -b.J[2], -b.J[3], b.omega])
        np.testing.assert_allclose(point_q.as_array(), expected, atol=1e-12)


def test_component_route_matches_the_classical_fibration_oracle():
    rng = np.random.default_rng(109)
    for _ in range(30):
        psi = random_unit_spinor(rng)
        sigma_c, point_c = hopf_from_components(psi)
        np.testing.assert_allclose(
            point_c.as_array(), classical_fibration(psi.components), atol=1e-13
        )
        assert sigma_c == pytest.approx(1.0, abs=1e-12)


def test_routes_share_j0_and_block_norm_but_not_the_block():
    rng = np.random.default_rng(110)
    gaps = []
    for _ in range(20):
        psi = random_unit_spinor(rng)
        _, point_q = hopf_map_unnormalized(column_to_quaternions(psi))
        _, point_c = hopf_from_components(psi)
        assert point_q.J0 == pytest.approx(point_c.J0, abs=1e-12)
        block_q = np.linalg.norm(point_q.as_array()[1:])
        block_c = np.linalg.norm(point_c.as_array()[1:])
        assert block_q == pytest.approx(block_c, abs=1e-12)
        gaps.append(np.max(np.abs(point_q.as_array() - point_c.as_array())))
    # the two trivializations genuinely differ pointwise
    assert max(gaps) > 0.1


def test_routes_report_structure():
    psi = SpinorC4(np.array([0.5, 0.5j, -0.5, 0.5j]), "standard")
    report = hopf_routes_report(psi)
    assert set(report) == {
        "quaternion_route",
        "component_route",
        "direct_bilinears",
        "norm_identity_residual_quaternion",
        "norm_identity_residual_component",
        "route_gap",
        "sigma_swap_gap",
    }
    assert report["norm_identity_residual_quaternion"] < 1e-12
    assert report["norm_identity_residual_component"] < 1e-12
    swap = report["sigma_swap_gap"]
    assert swap["quaternion_sigma_vs_direct_J0"] < 1e-12
    assert swap["quaternion_J0_vs_direct_sigma"] < 1e-12


def test_routes_report_accepts_chiral_input():
    psi = SpinorC4(np.array([1.0, 0, 0, 0]), "chiral")
    report = hopf_routes_report(psi)
    assert report["quaternion_route"]["sigma"] == pytest.approx(1.0)


def test_obstruction_on_a_generic_unit_column():
    psi = SpinorC4(np.array([1.0, 0.0, 1j, 0.0]) / np.sqrt(2), "standard")
    report = instanton_obstruction(psi)
    assert report["on_unit_sphere"] is True
    assert report["J_norm"] == pytest.approx(1.0, abs=1e-12)
    assert report["sigma_bilinear"] == pytest.approx(0.0, abs=1e-12)


def test_obstruction_floor_over_random_columns():
    rng = np.random.default_rng(111)
    floor = min(
        instanton_obstruction(random_unit_spinor(rng))["J_norm"] for _ in range(200)
    )
    assert floor > 1e-3


def test_eigenspinors_sit_off_the_unit_bilinear_sphere():
    from spinorlab import elko_quartet

    for lam in elko_quartet():
        report = instanton_obstruction(lam.spinor)
        assert abs(report["sigma_bilinear"]) < 1e-12


def test_obstruction_rejects_the_zero_column():
    with pytest.raises(ValueError, match="zero column"):
        instanton_obstruction(SpinorC4(np.zeros(4), "standard"))
