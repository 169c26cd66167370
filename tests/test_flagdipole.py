"""Flag-dipole spinors from direction projections: frames, boomerangs, limits."""

import numpy as np
import pytest

from conftest import random_even
from oracles import (
    least_squares_flag_direction,
    scalar_annihilator_residuals,
    scalar_class_limit,
    scalar_direction_element,
    scalar_frame_from_bilinears,
    scalar_hs_residual,
    scalar_projection_spinor,
    scalar_sigma_projector_matrix,
    scalar_synthetic_frame,
    scalar_type4_boomerang,
    scalar_validate_direction,
)
from spinorlab import (
    FlagDipoleFrame,
    Multivector,
    aggregate,
    annihilator_residuals,
    bilinears,
    classify,
    class_limit,
    direction_class,
    direction_element,
    doran_h,
    elko_mixture_direction,
    frame_from_bilinears,
    lcontract,
    minkowski_square,
    projection_spinor,
    projector_idempotency_residual,
    sigma_projector,
    sigma_projector_matrix,
    synthetic_frame,
    type4_boomerang,
    validate_direction,
)
from spinorlab.bilinears import covariant_array
from spinorlab.verify import _SampleStream, _random_admissible_direction
from spinorlab.flagdipole import (
    _E0,
    annihilator_residual_array,
    boomerang_array,
    class_limit_array,
    direction_array,
    frame_array,
    projection_spinor_array,
    sigma_projector_matrix_array,
)

GENERIC_U = direction_element([0.3, 0.4, np.sqrt(1 - 0.25)])


def random_admissible(rng):
    while True:
        raw = rng.standard_normal(3)
        raw /= np.linalg.norm(raw)
        if 0.05 < abs(raw[2]) < 0.95:
            return direction_element(raw)


def test_direction_element_must_be_a_unit_spatial_vector():
    with pytest.raises(ValueError):
        validate_direction(direction_element([0.5, 0.0, 0.0]) * 0.5)
    with pytest.raises(ValueError):
        validate_direction(Multivector.vector([1.0, 0.0, 0.0, 1.0]))
    validate_direction(direction_element([0.0, 0.6, 0.8]))


@pytest.mark.parametrize(
    "components,expected",
    [
        ((1.0, 0.0, 0.0), 5),
        ((0.0, 1.0, 0.0), 5),
        ((0.0, 0.0, 1.0), 6),
        ((0.0, 0.0, -1.0), 6),
        ((0.6, 0.0, 0.8), 4),
    ],
)
def test_direction_classes(components, expected):
    u = direction_element(components)
    assert direction_class(u) == expected
    # the classifier agrees with the bilinears of the projected spinor
    psi = projection_spinor(Multivector.scalar(1.0), u)
    assert classify(bilinears(psi)).label == expected


def test_planar_mixtures_stay_flagpoles():
    for angle in (0.0, 0.7, 2.0):
        u = elko_mixture_direction(angle)
        assert direction_class(u) == 5
        psi = projection_spinor(Multivector.scalar(1.0), u)
        assert classify(bilinears(psi)).label == 5


def test_axial_overlap_fixes_the_current_ratio():
    assert doran_h(direction_element([0.0, 0.0, 1.0])) == pytest.approx(-1.0)
    assert doran_h(direction_element([1.0, 0.0, 0.0])) == pytest.approx(0.0)
    u = direction_element(np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
    assert doran_h(u) == pytest.approx(-1 / np.sqrt(2))


def test_axial_current_is_proportional_to_the_vector_current():
    rng = np.random.default_rng(121)
    for _ in range(20):
        u = random_admissible(rng)
        h = doran_h(u)
        psi = projection_spinor(Multivector.scalar(1.0), u)
        b = bilinears(psi)
        np.testing.assert_allclose(b.K, h * b.J, atol=1e-12 * max(1.0, b.J[0]))
        assert -1.0 < h < 1.0


def test_the_ratio_does_not_depend_on_the_operator_spinor():
    rng = np.random.default_rng(122)
    u = random_admissible(rng)
    h = doran_h(u)
    for _ in range(10):
        psi = projection_spinor(random_even(rng), u)
        b = bilinears(psi)
        if b.J[0] < 1e-6:
            continue
        np.testing.assert_allclose(b.K, h * b.J, atol=1e-10 * max(1.0, b.J[0]))


def test_extracted_frames_satisfy_the_hyperbolic_constraint():
    rng = np.random.default_rng(123)
    for _ in range(15):
        u = random_admissible(rng)
        psi = projection_spinor(Multivector.scalar(1.0), u)
        frame = frame_from_bilinears(bilinears(psi))
        assert frame.hs_residual() < 1e-9
        assert abs(minkowski_square(frame.J)) < 1e-9
        assert abs(float(lcontract(frame.J, frame.s).scalar_part().real)) < 1e-9
        assert frame.h == pytest.approx(doran_h(u), abs=1e-9)
        # s is spacelike: h^2 = 1 + s^2 < 1 forces a negative Minkowski square
        assert minkowski_square(frame.s) < 0
        assert frame.h**2 == pytest.approx(1.0 + minkowski_square(frame.s), abs=1e-9)


def test_aggregate_factors_through_the_frame():
    rng = np.random.default_rng(124)
    for _ in range(10):
        u = random_admissible(rng)
        b = bilinears(projection_spinor(Multivector.scalar(1.0), u))
        frame = frame_from_bilinears(b)
        z = type4_boomerang(frame)
        gap = (z - aggregate(b)).norm()
        assert gap < 1e-12 * max(1.0, aggregate(b).norm())


def test_boomerang_is_nilpotent_and_annihilated_from_both_sides():
    rng = np.random.default_rng(125)
    for _ in range(10):
        u = random_admissible(rng)
        frame = frame_from_bilinears(bilinears(projection_spinor(Multivector.scalar(1.0), u)))
        res = annihilator_residuals(frame)
        assert res["z_squared"] < 1e-12
        assert res["left"] < 1e-12
        assert res["right"] < 1e-12
        # flipping the axial sign in the left factor does not annihilate
        assert res["opposite_sign_left"] > 0.1


def test_synthetic_frames_allow_a_free_axial_weight():
    J = Multivector.vector([1.0, 0.0, 0.0, 1.0])
    s = Multivector.vector([0.0, 1.0, 0.0, 0.0])
    frame = synthetic_frame(J, s, h=0.3)
    assert frame.hs_residual() > 0.01  # deliberately off the constraint surface
    consistent = synthetic_frame(J, s, h=0.0)
    assert consistent.hs_residual() < 1e-12


def test_synthetic_frames_and_hs_residuals_are_the_multivector_arithmetic_bit_for_bit():
    # null J with s orthogonal to it up to rounding, from 1e-20 to 1e20; every
    # third J and every third s raw; h on the surface h^2 = 1 + s^2 when |s| < 1
    rng = np.random.default_rng(129)
    seen = set()
    for k in range(900):
        n = rng.standard_normal(3)
        J = np.concatenate([[np.linalg.norm(n)], n]) * 10.0 ** rng.uniform(-20, 20)
        s = np.concatenate([[0.0], np.cross(n, rng.standard_normal(3))])
        s *= 10.0 ** rng.uniform(-20, 20) if k % 2 else rng.uniform(0.1, 0.9) / np.linalg.norm(s)
        h = np.sqrt(1.0 - s @ s) if k % 2 == 0 else rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
        if k % 3 == 1:
            J = rng.standard_normal(4) * 10.0 ** rng.uniform(-20, 20)
        elif k % 3 == 2:
            s = rng.standard_normal(4) * 10.0 ** rng.uniform(-20, 20)
        J, s = Multivector.vector(J), Multivector.vector(s)
        # x * x and Python's x ** 2 differ in about 1 of 1,600 squares: enough h to see it
        for weight in (h, -h, *rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3, 6)):
            frame = FlagDipoleFrame(J=J, s=s, h=float(weight))
            assert np.float64(frame.hs_residual()).tobytes() == np.float64(scalar_hs_residual(frame)).tobytes()
        try:
            want = scalar_synthetic_frame(J, s, h)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                synthetic_frame(J, s, h)
            assert str(got.value) == str(exc)
            seen.add(str(exc).partition(",")[0])
            continue
        got = synthetic_frame(J, s, h)
        assert got.J is J and got.s is s and got.h == h and got.consistent == want.consistent
        seen.add(got.consistent)
    assert seen == {True, False, "J must be null", "s must be orthogonal to J"}


def test_projector_matrices_resolve_the_identity_bit_for_bit():
    rng = np.random.default_rng(126)
    eye = np.eye(4, dtype=np.complex128)
    for _ in range(25):
        u = random_admissible(rng)
        frame = frame_from_bilinears(bilinears(projection_spinor(Multivector.scalar(1.0), u)))
        total = sigma_projector_matrix(frame.s, frame.h, +1) + sigma_projector_matrix(
            frame.s, frame.h, -1
        )
        assert np.array_equal(total, eye)


def test_projector_idempotency_tracks_the_hyperbolic_constraint():
    rng = np.random.default_rng(127)
    u = random_admissible(rng)
    frame = frame_from_bilinears(bilinears(projection_spinor(Multivector.scalar(1.0), u)))
    assert projector_idempotency_residual(frame.s, frame.h) < 1e-14
    # off the constraint surface the halves stop being projectors
    off = synthetic_frame(
        Multivector.vector([1.0, 0, 0, 1.0]), Multivector.vector([0, 1.0, 0, 0]), h=0.5
    )
    assert projector_idempotency_residual(off.s, off.h) > 0.1


def test_projector_matrices_have_rank_two():
    rng = np.random.default_rng(128)
    u = random_admissible(rng)
    frame = frame_from_bilinears(bilinears(projection_spinor(Multivector.scalar(1.0), u)))
    for sign in (1, -1):
        m = sigma_projector_matrix(frame.s, frame.h, sign)
        assert np.trace(m).real == pytest.approx(2.0, abs=1e-12)
        eigs = np.sort(np.abs(np.linalg.eigvals(m)))
        np.testing.assert_allclose(eigs, [0, 0, 1, 1], atol=1e-9)


def test_projector_application_splits_spinors():
    rng = np.random.default_rng(129)
    u = random_admissible(rng)
    psi = projection_spinor(Multivector.scalar(1.0), u).in_rep("standard")
    frame = frame_from_bilinears(bilinears(psi))
    plus = sigma_projector(psi, frame.s, frame.h, +1)
    minus = sigma_projector(psi, frame.s, frame.h, -1)
    total = plus.components + minus.components
    assert np.linalg.norm(total - psi.components) < 64 * np.finfo(float).eps * psi.norm()


def test_projector_sign_validation():
    with pytest.raises(ValueError, match="sign"):
        sigma_projector_matrix(Multivector.vector([0, 1.0, 0, 0]), 0.0, 2)


def test_degeneration_paths_reach_the_two_singular_neighbours():
    labels_h = [
        classify(bilinears(psi)).label for _, _, psi in class_limit(GENERIC_U, "h->0")
    ]
    assert labels_h == [4, 4, 4, 5]
    labels_s = [
        classify(bilinears(psi)).label for _, _, psi in class_limit(GENERIC_U, "s->0")
    ]
    assert labels_s == [4, 4, 4, 6]


def test_degeneration_reproduces_the_input_at_unit_parameter():
    t, direction, _ = class_limit(GENERIC_U, "h->0")[0]
    assert t == 1.0
    np.testing.assert_allclose(direction.coeffs, GENERIC_U.coeffs, atol=1e-15)


def test_degeneration_path_validation():
    axial = direction_element([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="purely axial"):
        class_limit(axial, "h->0")
    planar = direction_element([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="purely in-plane"):
        class_limit(planar, "s->0")
    with pytest.raises(ValueError, match="which"):
        class_limit(GENERIC_U, "sideways")


# ---- array kernels against the per-sample bodies, bit for bit ------------------


def bits(x):
    return np.asarray(x).view(np.int64)


def kernel_block(seed=141, n=70):
    """Admissible directions, operator spinors, their projections and frames, stacked."""
    rng = np.random.default_rng(seed)
    us = [random_admissible(rng) for _ in range(n)]
    evens = [random_even(rng) for _ in range(n)]
    psis = [scalar_projection_spinor(e, u) for e, u in zip(evens, us)]
    frames = [scalar_frame_from_bilinears(bilinears(p)) for p in psis]
    rows = lambda items: np.array([m.coeffs for m in items])
    return us, evens, psis, frames, rows


def test_projection_kernel_rows_are_the_scalar_projections_bit_for_bit():
    us, evens, psis, _, rows = kernel_block()
    block = projection_spinor_array(rows(evens), rows(us))
    assert np.array_equal(bits(block), bits([p.components for p in psis]))
    assert np.array_equal(bits(projection_spinor(evens[3], us[3]).components), bits(block[3]))
    # the scalar 1 as one row, broadcast; a flagpole and a dipole direction among the rows
    one = Multivector.scalar(1.0)
    more = us + [direction_element([0.6, 0.8, 0.0]), direction_element([0.0, 0.0, -1.0])]
    block = projection_spinor_array(one.coeffs[None], rows(more))
    assert np.array_equal(bits(block), bits([scalar_projection_spinor(one, u).components for u in more]))


def test_frame_kernel_rows_are_the_scalar_frames_bit_for_bit():
    _, _, psis, frames, rows = kernel_block()
    J, s, h, consistent = frame_array(covariant_array([p.components for p in psis], "standard"))
    assert np.array_equal(bits(J), bits(rows(f.J for f in frames)))
    assert np.array_equal(bits(s), bits(rows(f.s for f in frames)))
    assert np.array_equal(bits(h), bits([f.h for f in frames]))
    assert consistent.tolist() == [f.consistent for f in frames]
    assert frame_from_bilinears(bilinears(psis[5])) == FlagDipoleFrame(
        Multivector(J[5]), Multivector(s[5]), float(h[5]), bool(consistent[5]))


# 16 eps (3.6e-15) on the reference difference and on the cosine between s and J;
# the largest seen are 1.0e-15 and 5e-17
FRAME_BOUND = 16 * np.finfo(np.float64).eps


def reference_covariants():
    """The covariants of ``kernel_block``, then of 2,000 projections of the projectors suite's directions."""
    _, _, psis, _, _ = kernel_block()
    rng = _SampleStream(23)
    u = direction_array([_random_admissible_direction(rng) for _ in range(2000)])
    columns = np.concatenate([[p.components for p in psis],
                              projection_spinor_array(Multivector.scalar(1.0).coeffs[None], u)])
    return covariant_array(columns, "standard")


def assert_minimum_norm_direction(J, s, reference):
    assert np.max(np.abs(s[:, 1:5] - reference)) <= FRAME_BOUND
    cosine = np.vecdot(s, J) / (np.linalg.norm(s, axis=1) * np.linalg.norm(J, axis=1))
    assert np.max(np.abs(cosine)) <= FRAME_BOUND


def test_frame_kernel_s_is_the_minimum_norm_least_squares_solution():
    cov = reference_covariants()
    J, s, _, _ = frame_array(cov)
    reference = least_squares_flag_direction(cov)
    assert_minimum_norm_direction(J, s, reference)
    # another member of the gauge family s + c J: Z and the projectors do not see it
    with pytest.raises(AssertionError):
        assert_minimum_norm_direction(J, s + 0.37 * J, reference)


def test_the_frame_kernel_takes_e0_from_its_own_constant(monkeypatch):
    # verify's projection fault tilts flagdipole._E0; the frames must not move with it
    _, _, psis, _, _ = kernel_block()
    cov = covariant_array([p.components for p in psis], "standard")
    want = frame_array(cov)
    monkeypatch.setattr("spinorlab.flagdipole._E0", _E0 + 1e-6 * np.eye(1, 16, 2))
    assert [x.tobytes() for x in frame_array(cov)] == [x.tobytes() for x in want]


def test_boomerang_and_annihilator_kernels_are_the_scalar_bodies_bit_for_bit():
    _, _, _, frames, rows = kernel_block()
    J, s, h = rows(f.J for f in frames), rows(f.s for f in frames), np.array([f.h for f in frames])
    z = boomerang_array(J, s, h)
    assert np.array_equal(bits(z), bits(rows(scalar_type4_boomerang(f) for f in frames)))
    res = annihilator_residual_array(J, s, h)
    want = [list(scalar_annihilator_residuals(f).values()) for f in frames]
    assert np.array_equal(bits(res), bits(want))
    # a given Z is used as it is
    shifted = z * 1.5
    res = annihilator_residual_array(J, s, h, shifted)
    want = [list(scalar_annihilator_residuals(f, Multivector(c)).values()) for f, c in zip(frames, shifted)]
    assert np.array_equal(bits(res), bits(want))
    # the one-frame functions are rows of the block
    assert np.array_equal(bits(type4_boomerang(frames[2]).coeffs), bits(z[2]))
    one = annihilator_residuals(frames[2])
    assert list(one) == ["z_squared", "left", "right", "opposite_sign_left"]
    assert np.array_equal(bits(list(one.values())), bits(annihilator_residual_array(J, s, h)[2]))


@pytest.mark.parametrize("sign", [1, -1])
def test_projector_matrix_kernel_is_the_scalar_matrix_bit_for_bit(sign):
    _, _, _, frames, rows = kernel_block()
    block = sigma_projector_matrix_array(rows(f.s for f in frames), [f.h for f in frames], sign)
    want = [scalar_sigma_projector_matrix(f.s, f.h, sign) for f in frames]
    assert np.array_equal(bits(block), bits(want))
    assert np.array_equal(bits(sigma_projector_matrix(frames[4].s, frames[4].h, sign)), bits(block[4]))


@pytest.mark.parametrize("which", ["h->0", "s->0"])
def test_class_limit_kernel_builds_the_scalar_paths_bit_for_bit(which):
    us, evens, _, _, rows = kernel_block(n=20)
    for even in (None, evens):
        directions, columns = class_limit_array(rows(us), which, psi_even=None if even is None else rows(even))
        paths = [scalar_class_limit(u, which, psi_even=None if even is None else e)
                 for u, e in zip(us, even or us)]
        assert [t for t, _, _ in paths[0]] == [1.0, 0.1, 0.01, 0.0]
        assert np.array_equal(bits(directions), bits([[d.coeffs for _, d, _ in p] for p in paths]).swapaxes(0, 1))
        assert np.array_equal(bits(columns), bits([[c.components for _, _, c in p] for p in paths]).swapaxes(0, 1))
    one = class_limit(us[7], which)
    for k, (t, direction, psi) in enumerate(one):
        assert np.array_equal(bits(direction.coeffs), bits(class_limit_array(rows(us), which)[0][k, 7]))
        assert psi.rep == "standard"


def test_flag_dipole_kernels_raise_the_per_sample_errors():
    us, _, psis, frames, rows = kernel_block(n=6)
    good = rows(us)
    faulty = {
        "pure 1-vector": good[2] + 1e-3 * np.eye(1, 16, 7)[0],
        "no time component": good[2] + 1e-3 * np.eye(1, 16, 1)[0],
        "square to -1": good[2] * 1.01,
    }
    for message, row in faulty.items():
        block = good.copy()
        block[4] = row
        with pytest.raises(ValueError) as want:
            scalar_validate_direction(Multivector(row))
        for call in (lambda: projection_spinor_array(block[:1], block), lambda: class_limit_array(block, "h->0"),
                     lambda: validate_direction(Multivector(row))):
            with pytest.raises(ValueError, match=message) as got:
                call()
            assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="real multivectors"):
        projection_spinor_array(good[:1], good + 0j)
    # an odd operator spinor is refused by the even-grade test
    with pytest.raises(ValueError, match="odd-grade support"):
        projection_spinor_array(good[:1] + np.eye(1, 16, 1), good)
    # a vanishing current, a current off the light cone, and an s not orthogonal to J
    cov = covariant_array([p.components for p in psis], "standard")
    cov[3, 1:5] = 0.0
    with pytest.raises(ValueError, match="current J vanishes"):
        frame_array(cov)
    # J^0, the divisor of the closed form, zero under a spatial current
    cov[3, 2] = 1.0
    with pytest.raises(ValueError, match="current J vanishes"):
        frame_array(cov)
    J, s, h = rows(f.J for f in frames), rows(f.s for f in frames), np.array([f.h for f in frames])
    timelike = J.copy()
    timelike[3, 1] *= 1.01
    with pytest.raises(ValueError, match="null-current invariant"):
        boomerang_array(timelike, s, h)
    tilted = s + 1e-3 * J
    tilted[:, 1] += 1e-3
    with pytest.raises(ValueError, match="J . s = 0"):
        annihilator_residual_array(J, tilted, h)


def direction_rows():
    """The projectors suite's draws for seeds 0-19, then non-unit, axial, planar and signed-zero rows."""
    rngs = [_SampleStream(seed) for seed in range(20)]
    rows = [_random_admissible_direction(rng) for rng in rngs for _ in range(50)]
    rows += [[3.0, 4.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -2.5], [1.0, 0.0, 0.0], [0.6, -0.8, 0.0],
             [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -3.0, -0.0], [1e-300, 0.0, 1.0],
             [0.3, 0.4, 0.866025403784], [1e150, -2e150, 3e150], [7.0, 7.0, 7.0]]
    return np.array(rows)


def test_direction_kernel_is_the_scalar_direction_element_bit_for_bit():
    rows = direction_rows()
    block = direction_array(rows)
    want = [scalar_direction_element(row).coeffs for row in rows]
    assert np.array_equal(bits(block), bits(want))
    for n in (0, 999, 1000, 1005, 1006, 1007, len(rows) - 1):
        assert np.array_equal(bits(direction_element(rows[n]).coeffs), bits(block[n]))
    assert direction_element([3, 4, 0]).coeffs[1:5].tolist() == [0.0, 0.6, 0.8, 0.0]


def test_direction_kernel_keeps_the_bits_of_rows_across_decades():
    # squares that stay normal doubles: the power-of-two scaling changes no bit
    rows = np.random.default_rng(39).standard_normal((281, 3)) * 10.0 ** np.arange(-140, 141)[:, None]
    want = [scalar_direction_element(row).coeffs for row in rows]
    assert np.array_equal(bits(direction_array(rows)), bits(want))


@pytest.mark.parametrize("row", [[1e-200, 0.0, 0.0], [1e200, 0.0, 1e200], [1e-160, 0.0, 1e-160],
                                 [-5e-324, 0.0, 0.0], [1.7e308, -1.7e308, 1.7e308]])
def test_directions_whose_squares_leave_the_double_range_are_unit_vectors(row):
    u = direction_element(row)
    validate_direction(u, tol=1e-15)
    assert np.array_equal(np.sign(u.coeffs[2:5]), np.sign(row))


@pytest.mark.parametrize("bad, message", [
    ([0.0, 0.0, 0.0], "the zero vector is not a direction"),
    ([-0.0, 0.0, -0.0], "the zero vector is not a direction"),
    ([1.0, 2.0], "a spatial direction needs 3 components"),
    ([1.0, 2.0, 3.0, 4.0], "a spatial direction needs 3 components"),
    ([[1.0, 2.0, 3.0]], "a spatial direction needs 3 components"),
])
def test_direction_errors_keep_their_text(bad, message):
    with pytest.raises(ValueError) as want:
        scalar_direction_element(bad)
    with pytest.raises(ValueError) as got:
        direction_element(bad)
    assert str(got.value) == str(want.value) == message
    # a zero row after good ones; a block of the wrong shape
    block = [[0.3, 0.4, 0.5], bad] if message.startswith("the zero") else [bad]
    with pytest.raises(ValueError) as got:
        direction_array(block)
    assert str(got.value) == message
