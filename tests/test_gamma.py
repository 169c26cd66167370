"""Gamma-matrix dictionaries and the change of basis between them."""

import importlib

import numpy as np
import pytest

from conftest import random_multivector
from oracles import matrix_to_mv, tensordot_matrix
from spinorlab import (
    METRIC_SIGNS,
    SIMILARITY,
    Multivector,
    SpinorC4,
    gamma_rep,
)
from spinorlab.algebra import DIM, PRODUCT_INDEX, PRODUCT_SIGN

I2 = np.eye(2)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_anticommutators_reproduce_the_metric(tag):
    g = gamma_rep(tag).upper
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            np.testing.assert_allclose(anti, 2 * ETA[mu, nu] * np.eye(4), atol=1e-14)


def test_chiral_matrices_have_the_block_form():
    g = gamma_rep("chiral").upper
    np.testing.assert_array_equal(g[0][:2, 2:], I2)
    np.testing.assert_array_equal(g[0][2:, :2], I2)
    np.testing.assert_array_equal(g[0][:2, :2], np.zeros((2, 2)))
    sigma3 = np.diag([1.0, -1.0])
    np.testing.assert_array_equal(g[3][:2, 2:], -sigma3)
    np.testing.assert_array_equal(g[3][2:, :2], sigma3)


def test_standard_time_matrix_is_diagonal():
    g0 = gamma_rep("standard").upper[0]
    np.testing.assert_array_equal(g0, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_gamma5_forms():
    np.testing.assert_allclose(
        gamma_rep("chiral").gamma5, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15
    )
    expected = np.zeros((4, 4))
    expected[:2, 2:] = I2
    expected[2:, :2] = I2
    np.testing.assert_allclose(gamma_rep("standard").gamma5, expected, atol=1e-15)


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_pseudoscalar_matrix_is_i_gamma5(tag):
    rep = gamma_rep(tag)
    np.testing.assert_allclose(rep.pseudoscalar, 1j * rep.gamma5, atol=1e-15)


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_lower_index_matrices_carry_the_metric_signs(tag):
    rep = gamma_rep(tag)
    for mu in range(4):
        np.testing.assert_array_equal(rep.lower[mu], METRIC_SIGNS[mu] * rep.upper[mu])


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_blade_matrices_multiply_like_the_algebra(tag):
    blades = gamma_rep(tag).blades
    for a in range(DIM):
        for b in range(DIM):
            lhs = blades[a] @ blades[b]
            rhs = PRODUCT_SIGN[a, b] * blades[PRODUCT_INDEX[a, b]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_similarity_is_hermitian_unitary_and_involutive():
    np.testing.assert_allclose(SIMILARITY, SIMILARITY.conj().T, atol=0)
    np.testing.assert_allclose(SIMILARITY @ SIMILARITY, np.eye(4), atol=1e-15)


def test_similarity_takes_chiral_matrices_to_standard_ones():
    chiral = gamma_rep("chiral")
    standard = gamma_rep("standard")
    for mu in range(4):
        np.testing.assert_allclose(
            SIMILARITY @ chiral.upper[mu] @ SIMILARITY, standard.upper[mu], atol=1e-15
        )
        # SIMILARITY is an involution, so the same conjugation maps back
        np.testing.assert_allclose(
            SIMILARITY @ standard.upper[mu] @ SIMILARITY, chiral.upper[mu], atol=1e-15
        )


def test_spinor_representation_round_trip():
    rng = np.random.default_rng(41)
    comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = SpinorC4(comp, "chiral")
    back = psi.in_rep("standard").in_rep("chiral")
    np.testing.assert_allclose(back.components, comp, atol=1e-15)
    assert psi.in_rep("chiral") is psi


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_multivector_matrix_dictionary_is_a_homomorphism(tag):
    rep = gamma_rep(tag)
    rng = np.random.default_rng(42)
    for _ in range(8):
        a = random_multivector(rng, complex_coeffs=True)
        b = random_multivector(rng, complex_coeffs=True)
        lhs = rep.mv_to_matrix(a * b)
        rhs = rep.mv_to_matrix(a) @ rep.mv_to_matrix(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_matrix_dictionary_round_trips(tag):
    rep = gamma_rep(tag)
    rng = np.random.default_rng(43)
    mv = random_multivector(rng, complex_coeffs=True)
    back = matrix_to_mv(rep, rep.mv_to_matrix(mv))
    np.testing.assert_allclose(back.coeffs, mv.coeffs, atol=1e-13)
    # the sixteen blades span all complex 4x4 matrices
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    again = rep.mv_to_matrix(matrix_to_mv(rep, m))
    np.testing.assert_allclose(again, m, atol=1e-12)


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_matrix_array_rows_are_the_one_row_and_tensordot_matrices_bit_for_bit(tag):
    # real rows over ten decades, complex rows, and the sixteen bilinear operators
    rep = gamma_rep(tag)
    operators = importlib.import_module("spinorlab.bilinears")._OPERATORS
    rng = np.random.default_rng(45)
    real = rng.standard_normal((300, DIM)) * 10.0 ** rng.uniform(-5.0, 5.0, (300, 1))
    rows = [*real, *(random_multivector(rng, complex_coeffs=True).coeffs for _ in range(300)),
            *operators]
    block = rep.matrix_array(np.array(rows, dtype=np.complex128))
    assert block.shape == (len(rows), 4, 4)
    for row, matrix in zip(rows, block):
        mv = Multivector(row)
        assert rep.mv_to_matrix(mv).tobytes() == matrix.tobytes() == tensordot_matrix(rep, mv).tobytes()


def test_gamma_rep_rejects_unknown_tags():
    with pytest.raises(ValueError, match="unknown representation"):
        gamma_rep("majorana")


@pytest.mark.parametrize("tag", ["chiral", "standard"])
def test_dirac_adjoint_agrees_with_blade_level_conjugate_reverse(tag):
    rep = gamma_rep(tag)
    g0 = rep.lower[0]
    rng = np.random.default_rng(44)
    for _ in range(6):
        z = random_multivector(rng, complex_coeffs=True)
        zm = rep.mv_to_matrix(z)
        lhs = rep.mv_to_matrix(z.conjugate().reverse())
        rhs = g0 @ zm.conj().T @ g0
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
