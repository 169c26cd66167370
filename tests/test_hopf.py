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

from conftest import mixed_spinors, random_unit_spinor
from oracles import (
    scalar_column_to_even,
    scalar_column_to_quaternions,
    scalar_even_to_column,
    scalar_even_to_ideal,
    scalar_hopf_from_components,
    scalar_hopf_map_unnormalized,
    scalar_hopf_routes_report,
    scalar_ideal_to_column,
    scalar_instanton_obstruction,
    scalar_quaternions_to_column,
)
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
from spinorlab.algebra import BLADE_GRADES
from spinorlab.flagdipole import sigma_projector
from spinorlab.hopf import (
    column_to_even_array,
    column_to_quaternions_array,
    even_to_column_array,
    even_to_ideal_array,
    fiber_action_array,
    hopf_from_components_array,
    hopf_map_array,
    hopf_report_array,
    ideal_to_column_array,
    quaternions_to_column_array,
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


# ---- array kernels against the one-column functions, bit for bit ------------
# The one-column functions of the library are one-row calls of the kernels, so
# the kernels are checked against the scalar one-column bodies they replaced,
# kept in ``oracles`` as ``scalar_*``.


def same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def flatten(report):
    """(key path, value) pairs of a nested report, in key order."""
    out = []
    for key, value in report.items():
        if isinstance(value, dict):
            out += [((key, *path), v) for path, v in flatten(value)]
        elif isinstance(value, list):
            out += [((key, n), v) for n, v in enumerate(value)]
        else:
            out.append(((key,), value))
    return out


def assert_same_report(got, want):
    got, want = flatten(got), flatten(want)
    assert [(path, type(v) is bool) for path, v in got] == [(path, type(v) is bool) for path, v in want]
    assert same_bits([float(v) for _, v in got], [float(v) for _, v in want])


@pytest.fixture(scope="module")
def batch():
    """360 spinors of all six classes, scaled by 0.1-10, phased, from both representations."""
    return [psi for _, psi in mixed_spinors(np.random.default_rng(112), 360)]


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_hopf_report_array_equals_the_per_record_oracles_bit_for_bit(batch, rep):
    spinors = [psi.in_rep(rep) for psi in batch]
    reports = hopf_report_array(np.array([psi.components for psi in spinors]), rep)
    for report, psi in zip(reports, spinors):
        want = scalar_hopf_routes_report(psi)
        want["instanton"] = scalar_instanton_obstruction(psi)
        assert_same_report(report, want)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_hopf_one_row_wrappers_return_their_row_of_the_batch(batch, rep):
    spinors = [psi.in_rep(rep) for psi in batch]
    reports = hopf_report_array(np.array([psi.components for psi in spinors]), rep)
    columns = np.array([psi.in_rep("standard").components for psi in spinors])
    sigma, point = hopf_from_components_array(columns)
    for n, (report, psi) in enumerate(zip(reports, spinors)):
        assert_same_report(instanton_obstruction(psi), report.pop("instanton"))
        assert_same_report(hopf_routes_report(psi), report)
        one_sigma, one_point = hopf_from_components(SpinorC4(columns[n], "standard"))
        assert same_bits([one_sigma, *one_point], [sigma[n], *point[n]])
        oracle_sigma, oracle_point = scalar_hopf_from_components(SpinorC4(columns[n], "standard"))
        assert same_bits([one_sigma, *one_point], [oracle_sigma, *oracle_point])


def test_dictionary_kernels_equal_the_one_column_functions_bit_for_bit(batch):
    spinors = [psi.in_rep("standard") for psi in batch]
    columns = np.array([psi.components for psi in spinors])
    q1, q2 = column_to_quaternions_array(columns)
    rng = np.random.default_rng(113)
    angles = rng.standard_normal((len(columns), 4))
    u = tuple((angles / np.linalg.norm(angles, axis=1)[:, None]).T)
    m1, m2 = fiber_action_array(q1, q2, u)
    sigma, point = hopf_map_array(q1, q2)
    back = quaternions_to_column_array(q1, q2)
    even = column_to_even_array(columns)
    even_back = even_to_column_array(even)
    ideal = even_to_ideal_array(even)
    ideal_back = ideal_to_column_array(ideal)
    for n, psi in enumerate(spinors):
        pair = scalar_column_to_quaternions(psi)
        assert same_bits([q[n] for q in (*q1, *q2)], [*pair.q1.components(), *pair.q2.components()])
        moved = pair.right_multiplied(Quaternion(*(c[n] for c in u)))
        assert same_bits([q[n] for q in (*m1, *m2)], [*moved.q1.components(), *moved.q2.components()])
        one_sigma, one_point = scalar_hopf_map_unnormalized(pair)
        assert same_bits([sigma[n], *point[n]], [one_sigma, *one_point])
        assert same_bits(back[n], scalar_quaternions_to_column(pair).components)
        one_even = scalar_column_to_even(psi)
        assert same_bits(even[n], one_even.coeffs)
        assert same_bits(even_back[n], scalar_even_to_column(one_even).components)
        one_ideal = scalar_even_to_ideal(one_even)
        assert same_bits(ideal[n], one_ideal.coeffs)
        assert same_bits(ideal_back[n], scalar_ideal_to_column(one_ideal).components)


def test_both_routes_round_their_squares_as_the_one_column_functions_do():
    # x * x and Python's x ** 2 differ in about 1 of 1,600 squares: enough rows to see it
    rng = np.random.default_rng(115)
    columns = rng.standard_normal((5000, 4)) + 1j * rng.standard_normal((5000, 4))
    columns *= 10.0 ** rng.uniform(-1.0, 1.0, (5000, 1))
    sigma_q, point_q = hopf_map_array(*column_to_quaternions_array(columns))
    sigma_c, point_c = hopf_from_components_array(columns)
    for n, column in enumerate(columns):
        psi = SpinorC4(column, "standard")
        sigma, point = scalar_hopf_map_unnormalized(scalar_column_to_quaternions(psi))
        assert same_bits([sigma_q[n], *point_q[n]], [sigma, *point])
        sigma, point = scalar_hopf_from_components(psi)
        assert same_bits([sigma_c[n], *point_c[n]], [sigma, *point])


def test_dictionary_kernels_raise_the_one_column_errors():
    rng = np.random.default_rng(114)
    even = column_to_even_array(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    odd = even.copy()
    odd[3] += 1e-3 * (BLADE_GRADES % 2)
    pairs = (
        (even_to_column_array, even_to_column, scalar_even_to_column),
        (even_to_ideal_array, even_to_ideal, scalar_even_to_ideal),
        (lambda c: even_to_quaternions(Multivector(c[3])), even_to_quaternions, scalar_even_to_column),
    )
    for array_fn, one_fn, scalar_fn in pairs:
        with pytest.raises(ValueError) as want:
            scalar_fn(Multivector(odd[3]))
        with pytest.raises(ValueError, match="odd-grade support") as block:
            array_fn(odd)
        with pytest.raises(ValueError) as one:
            one_fn(Multivector(odd[3]))
        assert str(block.value) == str(one.value) == str(want.value)
    ideal = even_to_ideal_array(even)
    ideal[2] = even[2]  # an even element is not in the ideal of f
    with pytest.raises(ValueError) as want:
        scalar_ideal_to_column(Multivector(ideal[2]))
    with pytest.raises(ValueError) as block:
        ideal_to_column_array(ideal)
    with pytest.raises(ValueError) as one:
        ideal_to_column(Multivector(ideal[2]))
    assert str(block.value) == str(one.value) == str(want.value)
    assert str(want.value) == "element is not in the minimal left ideal of f"


def test_dictionary_functions_are_one_row_calls_of_their_kernels(batch):
    spinors = [psi.in_rep("standard") for psi in batch]
    # signed zeros in every slot, and a column with every part a negative zero
    spinors += [SpinorC4(np.array([-0.0, 0.5 - 0.0j, complex(-0.0, 2.0), 0.0]), "standard"),
                SpinorC4(np.full(4, complex(-0.0, -0.0)), "standard")]
    columns = np.array([psi.components for psi in spinors])
    q1, q2 = column_to_quaternions_array(columns)
    sigma, point = hopf_map_array(q1, q2)
    back = quaternions_to_column_array(q1, q2)
    even = column_to_even_array(columns)
    ideal = even_to_ideal_array(even)
    # complex even elements: a phase on the operator spinor, with exact zeros off the even grades
    phased = even * np.exp(0.7j)
    same = lambda got, row, want: same_bits(got, row) and same_bits(got, want)
    for n, psi in enumerate(spinors):
        pair, want_pair = column_to_quaternions(psi), scalar_column_to_quaternions(psi)
        assert same([*pair.q1.components(), *pair.q2.components()], [q[n] for q in (*q1, *q2)],
                    [*want_pair.q1.components(), *want_pair.q2.components()])
        assert same(quaternions_to_column(pair).components, back[n], scalar_quaternions_to_column(pair).components)
        (one_sigma, one_point), (want_sigma, want_point) = (f(pair) for f in (
            hopf_map_unnormalized, scalar_hopf_map_unnormalized))
        assert same([one_sigma, *one_point], [sigma[n], *point[n]], [want_sigma, *want_point])
        assert same(column_to_even(psi).coeffs, even[n], scalar_column_to_even(psi).coeffs)
        for block in (even, phased):
            mv = Multivector(block[n])
            assert same(even_to_column(mv).components, even_to_column_array(block)[n],
                        scalar_even_to_column(mv).components)
        assert same(even_to_ideal(Multivector(even[n])).coeffs, ideal[n],
                    scalar_even_to_ideal(Multivector(even[n])).coeffs)
        assert same(ideal_to_column(Multivector(ideal[n])).components, ideal_to_column_array(ideal)[n],
                    scalar_ideal_to_column(Multivector(ideal[n])).components)


def test_hopf_map_unnormalized_takes_pairs_of_plain_numbers():
    pair = QuaternionPair(Quaternion(2, 0, 0, 0), Quaternion(0, 1, 0, 0))
    sigma, point = hopf_map_unnormalized(pair)
    assert (sigma, point) == scalar_hopf_map_unnormalized(pair) == (5.0, (3.0, -4.0, 0.0, 0.0, 0.0))
    assert all(type(x) is float for x in (sigma, *point))


@pytest.mark.parametrize("fn, name", [(column_to_even, "even"), (column_to_quaternions, "quaternion")])
def test_column_dictionaries_refuse_chiral_columns_with_the_scalar_text(fn, name):
    scalar_fn = {"even": scalar_column_to_even, "quaternion": scalar_column_to_quaternions}[name]
    psi = SpinorC4([1, 0, 0, 0], "chiral")
    with pytest.raises(ValueError) as want:
        scalar_fn(psi)
    with pytest.raises(ValueError) as got:
        fn(psi)
    assert str(got.value) == str(want.value) == f"the {name} dictionary is tied to the standard representation"


@pytest.mark.parametrize("sign", [1, -1, 0])
def test_the_half_projector_refuses_chiral_columns_with_the_dictionary_text(sign):
    # the same rule as the column dictionaries, checked before the sign is
    psi = SpinorC4([1, 0, 0, 0], "chiral")
    with pytest.raises(ValueError) as got:
        sigma_projector(psi, Multivector.scalar(0.0), 1.0, sign)
    assert str(got.value) == "the projector dictionary is tied to the standard representation"


def test_the_component_route_refuses_chiral_columns_and_agrees_with_the_report():
    # the report changes a chiral spinor to the standard representation first; the one-row
    # route refuses one, as the column dictionaries do, rather than read its components as a column
    psi = SpinorC4([1, 0.5j, -0.3, 0.2 + 0.1j], "chiral")
    with pytest.raises(ValueError) as got:
        hopf_from_components(psi)
    assert str(got.value) == "the component dictionary is tied to the standard representation"
    sigma, point = hopf_from_components(psi.in_rep("standard"))
    assert hopf_routes_report(psi)["component_route"] == {"sigma": sigma, "point": list(point)}
