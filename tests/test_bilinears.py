"""Bilinear covariants, Fierz identities, and the aggregate multivector."""

import numpy as np
import pytest

from conftest import phase_align, random_spinor
from spinorlab import (
    DegenerateProbeError,
    Multivector,
    SpinorC4,
    WeylC2,
    aggregate,
    aggregate_matrix_residual,
    bilinears,
    dirac_adjoint_mv,
    elko_rest,
    fierz_residuals,
    gamma_rep,
    generalized_fierz_residuals,
    is_boomerang,
    minkowski_square,
    reconstruct,
    weyl_spinor,
)
from spinorlab.algebra import GRADE_2_PAIRS


def test_spinor_constructor_validates_input():
    with pytest.raises(ValueError, match="4 complex components"):
        SpinorC4([1.0, 0.0])
    with pytest.raises(ValueError, match="unknown representation"):
        SpinorC4([1, 0, 0, 0], "majorana")


def test_rest_frame_dirac_covariants():
    b = bilinears(SpinorC4([1, 0, 0, 0], "standard"))
    assert b.sigma == pytest.approx(1.0)
    np.testing.assert_allclose(b.J, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(b.S, [0.0, 0.0, 0.0, 0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(b.K, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert b.omega == pytest.approx(0.0, abs=1e-15)


def test_flagpole_covariants_of_the_simplest_eigenspinor():
    lam = elko_rest(WeylC2(np.array([1.0, 0.0])), "self")
    b = bilinears(lam.spinor)
    assert abs(b.sigma) < 1e-14 and abs(b.omega) < 1e-14
    np.testing.assert_allclose(b.J, [2.0, 0.0, 0.0, -2.0], atol=1e-14)
    np.testing.assert_allclose(b.S, [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(b.K, np.zeros(4), atol=1e-14)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_time_component_of_the_current_is_the_squared_norm(rep):
    rng = np.random.default_rng(51)
    psi = random_spinor(rng, rep)
    b = bilinears(psi)
    assert b.J[0] == pytest.approx(psi.norm() ** 2, rel=1e-13)


def test_covariants_are_representation_independent():
    rng = np.random.default_rng(52)
    psi = random_spinor(rng, "chiral")
    a = bilinears(psi).as_array()
    c = bilinears(psi.in_rep("standard")).as_array()
    np.testing.assert_allclose(a, c, atol=1e-12)


def test_covariants_scale_quadratically_and_ignore_global_phase():
    rng = np.random.default_rng(53)
    psi = random_spinor(rng)
    b = bilinears(psi).as_array()
    scaled = bilinears(psi.scaled(3.0 * np.exp(0.7j))).as_array()
    np.testing.assert_allclose(scaled, 9.0 * b, rtol=1e-12)


def _gamma_product_forms(rep):
    """The sixteen Hermitian forms gamma0 G_n, written out as gamma products."""
    g0, up, ps = rep.lower[0], rep.upper, rep.pseudoscalar
    ops = [g0]
    ops += [g0 @ up[mu] for mu in range(4)]
    ops += [0.5j * g0 @ up[mu] @ up[nu] for mu, nu in GRADE_2_PAIRS]
    ops += [1j * g0 @ ps @ up[mu] for mu in range(4)]
    ops += [-g0 @ ps]
    return ops


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_all_sixteen_covariants_match_the_gamma_product_forms(rep):
    rng = np.random.default_rng(63)
    forms = _gamma_product_forms(gamma_rep(rep))
    spinors = [SpinorC4(np.eye(4)[k], rep) for k in range(4)]
    spinors += [random_spinor(rng, rep) for _ in range(10)]
    for psi in spinors:
        v = psi.components
        expected = [np.vdot(v, op @ v).real for op in forms]
        got = bilinears(psi).as_array()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * psi.norm() ** 2)


def test_minkowski_square_uses_the_mostly_minus_metric():
    v = Multivector.vector([2.0, 1.0, -1.0, 0.5])
    assert minkowski_square(v) == pytest.approx(4.0 - 1.0 - 1.0 - 0.25)


def test_spin_bivector_doubles_the_stored_components():
    rng = np.random.default_rng(54)
    b = bilinears(random_spinor(rng))
    smv = b.spin_bivector()
    for value, pair in zip(b.S, GRADE_2_PAIRS):
        blade = Multivector.blade(*pair)
        coeff = smv.coeffs[np.argmax(np.abs(blade.coeffs))]
        assert coeff == pytest.approx(2.0 * value, abs=1e-15)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_quadratic_identities_on_random_spinors(rep):
    rng = np.random.default_rng(55)
    for _ in range(50):
        b = bilinears(random_spinor(rng, rep, scale=rng.uniform(0.1, 4.0)))
        scale = max(1.0, b.J[0] ** 2)
        assert np.max(fierz_residuals(b)) < 1e-12 * scale


def test_quadratic_identities_on_singular_spinors():
    lam = elko_rest(WeylC2(np.array([0.3 + 1j, -0.8])), "anti")
    wl = weyl_spinor(WeylC2(np.array([1.0, 2j])), "left")
    for psi in (lam.spinor, wl):
        b = bilinears(psi)
        scale = max(1.0, b.J[0] ** 2)
        assert np.max(fierz_residuals(b)) < 1e-12 * scale


def test_current_is_timelike_or_null_with_positive_square():
    rng = np.random.default_rng(56)
    for _ in range(20):
        b = bilinears(random_spinor(rng))
        j2 = minkowski_square(b.current_vector())
        assert j2 >= -1e-12
        assert j2 == pytest.approx(b.sigma**2 + b.omega**2, rel=1e-10)
        k2 = minkowski_square(b.axial_vector())
        assert k2 == pytest.approx(-j2, rel=1e-10)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_aggregate_equals_four_psi_psibar(rep):
    rng = np.random.default_rng(57)
    for _ in range(10):
        psi = random_spinor(rng, rep)
        b = bilinears(psi)
        # dual route, assembled here rather than through the library helper
        g = gamma_rep(rep)
        zm = g.mv_to_matrix(aggregate(b))
        v = psi.components
        outer = 4.0 * np.outer(v, v.conj() @ g.lower[0])
        np.testing.assert_allclose(zm, outer, atol=1e-11 * max(1.0, b.J[0]))
        assert aggregate_matrix_residual(psi, b) < 1e-11 * max(1.0, b.J[0])


def test_aggregate_grades_carry_the_expected_parts():
    rng = np.random.default_rng(58)
    b = bilinears(random_spinor(rng))
    z = aggregate(b)
    assert z.grade(0).scalar_part() == pytest.approx(b.sigma)
    np.testing.assert_allclose(
        z.grade(1).vector_components().real, b.J, atol=1e-15
    )
    pseudo = z.grade(4).coeffs[-1]
    assert pseudo == pytest.approx(b.omega)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_generalized_identities_on_random_spinors(rep):
    rng = np.random.default_rng(59)
    for _ in range(10):
        psi = random_spinor(rng, rep)
        b = bilinears(psi)
        z = aggregate(b)
        res = generalized_fierz_residuals(z, b, rep)
        assert np.max(res) < 1e-10 * max(1.0, b.J[0] ** 2)


def test_real_aggregates_are_boomerangs():
    rng = np.random.default_rng(60)
    for rep in ("chiral", "standard"):
        z = aggregate(bilinears(random_spinor(rng, rep)))
        assert is_boomerang(z)
        assert (dirac_adjoint_mv(z) - z).norm() < 1e-12 * z.norm()


def test_imaginary_scalar_breaks_the_boomerang_property():
    rng = np.random.default_rng(61)
    z = aggregate(bilinears(random_spinor(rng)))
    spoiled = z + Multivector.blade(0, coeff=1j * z.norm())
    assert not is_boomerang(spoiled)


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_reconstruction_round_trip(rep):
    rng = np.random.default_rng(62)
    for _ in range(20):
        psi = random_spinor(rng, rep)
        z = aggregate(bilinears(psi))
        probe = random_spinor(rng, rep)
        recovered = reconstruct(z, probe)
        aligned = phase_align(recovered.components, psi.components)
        assert np.linalg.norm(aligned - psi.components) < 1e-10 * psi.norm()


def test_reconstruction_rejects_a_probe_in_the_kernel():
    psi = SpinorC4([1, 0, 0, 0], "standard")
    z = aggregate(bilinears(psi))
    # Z = 4 psi psibar annihilates anything orthogonal to psibar
    with pytest.raises(DegenerateProbeError, match="probe"):
        reconstruct(z, SpinorC4([0, 1, 0, 0], "standard"))


def test_reconstruction_fixes_the_leading_phase():
    psi = SpinorC4(np.array([1j, 0.5, 0, 0.25]), "chiral")
    z = aggregate(bilinears(psi))
    recovered = reconstruct(z, SpinorC4([1, 1, 1, 1], "chiral"))
    lead = recovered.components[0]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0
