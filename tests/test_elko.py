"""Dual-helicity eigenspinors: construction, conjugation, boosts, and duals."""

import numpy as np
import pytest

from conftest import random_spinor
from spinorlab import (
    SpinorC4,
    WeylC2,
    bilinears,
    charge_conjugation,
    classify,
    dirac_from_left,
    dirac_with_phase,
    elko_boost,
    elko_dual,
    elko_quartet,
    elko_rest,
    helicity_eigenspinor,
    lcontract,
    majorana_from_weyl,
    minkowski_square,
    penrose_flag,
    penrose_pole,
    wedge,
    weyl_spinor,
)

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def closed_form_current(alpha, beta):
    return np.array(
        [
            2 * (abs(alpha) ** 2 + abs(beta) ** 2),
            (-2 * (alpha * np.conj(beta) + np.conj(alpha) * beta)).real,
            (-2j * (alpha * np.conj(beta) - np.conj(alpha) * beta)).real,
            -2 * (abs(alpha) ** 2 - abs(beta) ** 2),
        ]
    )


def closed_form_spin(alpha, beta):
    return np.array(
        [
            (beta**2 - alpha**2).real,
            (alpha**2 + beta**2).imag,
            2 * (alpha * beta).real,
            -2 * (alpha * beta).imag,
            -(alpha**2 + beta**2).real,
            (alpha**2 - beta**2).imag,
        ]
    )


@pytest.mark.parametrize("sign", [1, -1])
def test_helicity_eigenspinors_solve_the_eigenproblem(sign):
    rng = np.random.default_rng(81)
    for _ in range(10):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        phi = helicity_eigenspinor(direction, sign)
        op = sum(direction[k] * SIGMA[k] for k in range(3))
        np.testing.assert_allclose(op @ phi.components, sign * phi.components, atol=1e-14)
        assert np.linalg.norm(phi.components) == pytest.approx(1.0)


def test_helicity_eigenspinors_along_z_are_the_basis_states():
    up = helicity_eigenspinor((0, 0, 1.0), +1)
    down = helicity_eigenspinor((0, 0, 1.0), -1)
    np.testing.assert_allclose(up.components, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(down.components, [0.0, 1.0], atol=1e-15)


def test_helicity_eigenspinor_input_validation():
    with pytest.raises(ValueError, match="zero direction"):
        helicity_eigenspinor((0.0, 0.0, 0.0), 1)
    with pytest.raises(ValueError, match="sign"):
        helicity_eigenspinor((0, 0, 1.0), 2)


def test_rest_eigenspinor_components_are_the_flipped_stack():
    lam = elko_rest(WeylC2(np.array([1.0, 0.0]), helicity=1, axis=(0, 0, 1.0)), "self")
    np.testing.assert_allclose(lam.components, [0, 1j, 1, 0], atol=1e-15)
    assert lam.pair == "-+"
    anti = elko_rest(WeylC2(np.array([1.0, 0.0]), helicity=1, axis=(0, 0, 1.0)), "anti")
    np.testing.assert_allclose(anti.components, [0, 1j, -1, 0], atol=1e-15)


def test_conjugation_eigenvalues_split_by_conjugacy():
    for lam in elko_quartet():
        expected = 1.0 if lam.conjugacy == "self" else -1.0
        image = charge_conjugation(lam.spinor)
        np.testing.assert_allclose(
            image.components, expected * lam.components, atol=1e-14
        )


def test_conjugation_is_an_involution():
    rng = np.random.default_rng(82)
    for _ in range(100):
        psi = random_spinor(rng, "chiral")
        twice = charge_conjugation(charge_conjugation(psi))
        np.testing.assert_allclose(twice.components, psi.components, atol=1e-14)


def test_conjugation_is_antilinear():
    rng = np.random.default_rng(83)
    psi = random_spinor(rng, "chiral")
    c = 0.3 - 1.7j
    lhs = charge_conjugation(psi.scaled(c)).components
    rhs = np.conj(c) * charge_conjugation(psi).components
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_conjugation_requires_the_chiral_representation():
    with pytest.raises(ValueError, match="chiral"):
        charge_conjugation(SpinorC4([1, 0, 0, 0], "standard"))


def test_quartet_covers_both_conjugacies_and_pairs():
    quartet = elko_quartet()
    assert [(l.conjugacy, l.pair) for l in quartet] == [
        ("self", "-+"),
        ("self", "+-"),
        ("anti", "-+"),
        ("anti", "+-"),
    ]


@pytest.mark.parametrize("conjugacy", ["self", "anti"])
def test_rest_eigenspinors_are_flagpoles_with_the_closed_form_covariants(conjugacy):
    rng = np.random.default_rng(84)
    for _ in range(10):
        alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = elko_rest(WeylC2(np.array([alpha, beta])), conjugacy)
        b = bilinears(lam.spinor)
        assert classify(b).label == 5
        scale = max(1.0, b.J[0])
        assert abs(b.sigma) < 1e-12 * scale
        assert abs(b.omega) < 1e-12 * scale
        assert np.max(np.abs(b.K)) < 1e-12 * scale
        sign = 1.0 if conjugacy == "self" else -1.0
        np.testing.assert_allclose(b.J, closed_form_current(alpha, beta), atol=1e-12 * scale)
        np.testing.assert_allclose(
            b.S, sign * closed_form_spin(alpha, beta), atol=1e-12 * scale
        )


def test_boost_reduces_to_the_known_scalar_factors():
    m = 1.0
    p = np.array([0.0, 0.0, 0.75 * m])  # E = 1.25 m, E + m = 2.25 m
    for lam in elko_quartet():
        boosted = elko_boost(lam, p, m)
        factor = np.linalg.norm(boosted.components) / np.linalg.norm(lam.components)
        expected = 1 / np.sqrt(2) if lam.pair == "-+" else np.sqrt(2)
        assert factor == pytest.approx(expected, rel=1e-14)
        np.testing.assert_allclose(
            boosted.components, factor * lam.components, rtol=1e-12
        )


def test_boosted_eigenspinors_stay_flagpoles():
    m = 0.8
    for pnorm in np.linspace(0.05, 2.5, 8):
        for lam in elko_quartet():
            boosted = elko_boost(lam, [0, 0, pnorm], m)
            b = bilinears(boosted.spinor)
            assert classify(b).label == 5
            assert abs(b.sigma) < 1e-12 * b.J[0]


def test_boost_input_validation():
    lam = elko_quartet()[0]
    with pytest.raises(ValueError, match="mass"):
        elko_boost(lam, [0, 0, 1.0], 0.0)
    with pytest.raises(ValueError, match="axis"):
        elko_boost(lam, [1.0, 0, 0], 1.0)
    boosted = elko_boost(lam, [0, 0, 1.0], 1.0)
    with pytest.raises(ValueError, match="rest"):
        elko_boost(boosted, [0, 0, 1.0], 1.0)


def test_zero_momentum_boost_is_the_identity_on_components():
    lam = elko_quartet()[1]
    still = elko_boost(lam, [0.0, 0.0, 0.0], 2.0)
    np.testing.assert_array_equal(still.components, lam.components)
    assert still.mass == 2.0


def test_dual_pairings_give_the_split_signature_gram_matrix():
    quartet = elko_quartet()
    gram = np.array(
        [[complex(elko_dual(a) @ b.components) for b in quartet] for a in quartet]
    )
    np.testing.assert_allclose(gram, np.diag([-2.0, -2.0, 2.0, 2.0]), atol=1e-14)


def test_dual_pairings_are_boost_invariant():
    m = 1.3
    p = np.array([0.0, 0.0, 0.6])
    boosted = [elko_boost(lam, p, m) for lam in elko_quartet()]
    gram = np.array(
        [[complex(elko_dual(a) @ b.components) for b in boosted] for a in boosted]
    )
    np.testing.assert_allclose(gram, np.diag([-2.0, -2.0, 2.0, 2.0]), atol=1e-13)


def test_dual_requires_a_helicity_pair_label():
    lam = elko_rest(WeylC2(np.array([0.6, 0.8j])), "self")
    with pytest.raises(ValueError, match="helicity"):
        elko_dual(lam)


def test_weyl_spinors_occupy_single_chirality_blocks():
    left = weyl_spinor(WeylC2(np.array([1.0, 0.0])), "left")
    right = weyl_spinor(WeylC2(np.array([1.0, 0.0])), "right")
    np.testing.assert_allclose(left.components, [0, 0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(right.components, [1, 0, 0, 0], atol=1e-15)
    assert classify(bilinears(left)).label == 6
    assert classify(bilinears(right)).label == 6


def test_majorana_split_of_a_weyl_seed():
    xi = SpinorC4([1, 0, 0, 0], "chiral")
    plus, minus = majorana_from_weyl(xi)
    np.testing.assert_allclose(plus.components, [0.5, 0, 0, -0.5j], atol=1e-15)
    np.testing.assert_allclose(minus.components, [0.5, 0, 0, 0.5j], atol=1e-15)
    # conjugation eigenstates with eigenvalues +1 and -1
    np.testing.assert_allclose(
        charge_conjugation(plus).components, plus.components, atol=1e-15
    )
    np.testing.assert_allclose(
        charge_conjugation(minus).components, -minus.components, atol=1e-15
    )


def test_majorana_split_warns_off_label_six_seeds():
    lam = elko_quartet()[0]
    with pytest.warns(UserWarning, match="class-6"):
        majorana_from_weyl(lam.spinor)


def test_dirac_spinor_from_a_left_block_is_parity_mappable():
    psi = dirac_from_left(helicity_eigenspinor((0, 0, 1.0), 1), [0.1, 0.2, -0.3], 1.5)
    b = bilinears(psi)
    assert classify(b).label == 2
    assert b.sigma > 0
    flipped = dirac_from_left(
        helicity_eigenspinor((0, 0, 1.0), 1), [0.1, 0.2, -0.3], 1.5, epsilon=-1
    )
    assert bilinears(flipped).sigma < 0


@pytest.mark.parametrize("build", [
    lambda phi: dirac_from_left(phi, [0.1, 0.2, -0.3], 1.5),
    lambda phi: dirac_from_left(phi, [0.0, 0.0, 0.0], 1.0, epsilon=-1),
    lambda phi: dirac_with_phase(phi, [0.1, 0.2, -0.3], 1.5, 1.0),
])
def test_a_dirac_spinor_on_the_zero_2_spinor_is_refused(build):
    # the zero left block would give the zero spinor, not the class-2 (or class-1) spinor promised
    with pytest.raises(ValueError, match="cannot build a Dirac spinor on the zero 2-spinor"):
        build(WeylC2(np.zeros(2, dtype=complex)))
    assert classify(bilinears(build(WeylC2(np.array([0.0, 1e-30j]))))).label in (1, 2)


def test_pole_is_half_the_null_current_on_singular_spinors():
    for psi in (elko_quartet()[0].spinor, weyl_spinor(WeylC2(np.array([1.0, 1j])), "left")):
        b = bilinears(psi)
        pole = penrose_pole(psi)
        np.testing.assert_allclose(
            2.0 * pole.coeffs[1:5].real, b.J, atol=1e-13
        )
        assert abs(minkowski_square(pole)) < 1e-12 * max(1.0, b.J[0] ** 2)


def test_flag_is_attached_to_the_pole():
    lam = elko_quartet()[0].spinor
    pole = penrose_pole(lam)
    flag = penrose_flag(lam)
    assert wedge(flag, pole).norm() < 1e-12
    assert lcontract(pole, flag).norm() < 1e-12 * max(1.0, flag.norm())


def test_weyl_spinors_carry_a_pole_but_no_flag():
    wl = weyl_spinor(WeylC2(np.array([0.6, 0.8])), "left")
    assert penrose_flag(wl).norm() < 1e-13
    assert penrose_pole(wl).norm() > 0.1
