"""Bilinear covariants, Fierz identities, and the aggregate multivector."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import benchmark_corpus, mixed_spinors, phase_align, random_spinor
from oracles import (
    covariant_product_sums,
    exact_covariants,
    loop_generalized_fierz,
    scalar_reconstruct,
    vector_aggregate,
)
from spinorlab import (
    PSEUDOSCALAR,
    BilinearSet,
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
    lcontract,
    minkowski_square,
    reconstruct,
    wedge,
    weyl_spinor,
)
from spinorlab.algebra import GRADE_2_PAIRS
from spinorlab.bilinears import (
    aggregate_array,
    aggregate_residual_array,
    covariant_array,
    fierz_array,
    generalized_fierz_array,
    reconstruct_array,
)
from spinorlab.classify import magnitude_array
from spinorlab.cli import _MAX_NORM, _MIN_NORM
from spinorlab.gamma import REP_TAGS
from spinorlab.hopf import hopf_report_array


def test_spinor_constructor_validates_input():
    with pytest.raises(ValueError, match="4 complex components"):
        SpinorC4([1.0, 0.0])
    with pytest.raises(ValueError, match="unknown representation"):
        SpinorC4([1, 0, 0, 0], "majorana")


_V = np.array([[1, 0.5j, -0.3, 0.2 + 0.1j]])
_COV = covariant_array(_V)
# every kernel that takes a representation tag, and the spinor constructor, called with the tag ``rep``
REP_KERNELS = {
    "SpinorC4": lambda rep: SpinorC4(_V[0], rep),
    "covariant_array": lambda rep: covariant_array(_V, rep),
    "aggregate_residual_array": lambda rep: aggregate_residual_array(_V, _COV, rep),
    "generalized_fierz_array": lambda rep: generalized_fierz_array(aggregate_array(_COV), _COV, rep),
    "reconstruct_array": lambda rep: reconstruct_array(aggregate_array(_COV), _V, rep),
    "hopf_report_array": lambda rep: hopf_report_array(_V, rep),
}


@pytest.mark.parametrize("kernel", list(REP_KERNELS))
def test_every_kernel_refuses_an_unknown_representation_with_gamma_reps_text(kernel):
    for rep in REP_TAGS:
        REP_KERNELS[kernel](rep)
    with pytest.raises(ValueError) as want:
        gamma_rep("weyl")
    with pytest.raises(ValueError) as got:
        REP_KERNELS[kernel]("weyl")
    assert str(got.value) == str(want.value)


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
        z.grade(1).coeffs[1:5].real, b.J, atol=1e-15
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


# ---- bitwise oracles: the per-record bodies the array kernels replaced ------


def _vdot_covariants(psi):
    """One np.vdot per Hermitian form, as ``bilinears`` computed them one at a time."""
    v = psi.components
    return np.array([np.vdot(v, op @ v).real for op in _gamma_product_forms(gamma_rep(psi.rep))])


def _multivector_fierz(b):
    """The four Fierz residuals through Multivector products."""
    jmv, kmv, smv = b.current_vector(), b.axial_vector(), b.spin_bivector()
    r1 = abs(minkowski_square(jmv) - b.omega**2 - b.sigma**2)
    r2 = abs(minkowski_square(kmv) + minkowski_square(jmv))
    r3 = lcontract(jmv, kmv).norm()
    lhs = wedge(jmv, kmv) + (Multivector.scalar(b.omega) + PSEUDOSCALAR * b.sigma) * smv
    return np.array([r1, r2, r3, lhs.norm()])


def _matrix_aggregate_residual(psi, b):
    """Frobenius distance from the matrix of Z to 4 psi psibar, one spinor at a time."""
    rep = gamma_rep(psi.rep)
    zm = rep.mv_to_matrix(aggregate(b))
    v = psi.components
    return float(np.linalg.norm(zm - 4.0 * np.outer(v, v.conj() @ rep.lower[0])))


def _set(values, rep):
    return BilinearSet(sigma=float(values[0]), J=values[1:5], S=values[5:11],
                       K=values[11:15], omega=float(values[15]), rep=rep)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module", params=["chiral", "standard"])
def batch(request):
    """All six classes at scales 0.1-10 in one representation, with their kernel outputs."""
    rep = request.param
    spinors = [psi for _, psi in mixed_spinors(np.random.default_rng(64), 360) if psi.rep == rep]
    v = np.array([psi.components for psi in spinors])
    cov = covariant_array(v, rep)
    return spinors, cov, fierz_array(cov), aggregate_residual_array(v, cov, rep)


def test_array_kernels_equal_the_per_record_oracles_bit_for_bit(batch):
    spinors, cov, fierz, residual = batch
    assert cov.shape == (len(spinors), 16) and fierz.shape == (len(spinors), 4)
    for k, psi in enumerate(spinors):
        values = _vdot_covariants(psi)
        b = _set(values, psi.rep)
        assert np.array_equal(_bits(cov[k]), _bits(values))
        assert np.array_equal(_bits(fierz[k]), _bits(_multivector_fierz(b)))
        assert _bits(residual[k]) == _bits(_matrix_aggregate_residual(psi, b))


def test_one_row_wrappers_return_their_row_of_the_batch(batch):
    spinors, cov, fierz, residual = batch
    for k, psi in enumerate(spinors):
        b = bilinears(psi)
        assert np.array_equal(_bits(b.as_array()), _bits(cov[k]))
        assert np.array_equal(_bits(fierz_residuals(b)), _bits(fierz[k]))
        assert _bits(aggregate_matrix_residual(psi, b)) == _bits(residual[k])


def _exactly_hermitian(forms):
    return np.array_equal(forms, forms.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_every_hermitian_form_equals_its_conjugate_transpose_exactly(rep):
    # covariant_array keeps the real part of psi^dagger F psi: with F = F^dagger
    # exactly, the imaginary part it drops is rounding, for every spinor
    forms = importlib.import_module("spinorlab.bilinears")._MATRICES[rep][0]
    assert forms.shape == (16, 4, 4) and _exactly_hermitian(forms)
    # faults: an imaginary diagonal entry, and one off-diagonal entry moved by an ulp
    for n, i, j, value in [(5, 2, 2, 1j), (7, 0, 2, complex(0.0, np.nextafter(-0.5, 0.0)))]:
        broken = forms.copy()
        broken[n, i, j] = value
        assert broken[n, i, j] != forms[n, i, j] and not _exactly_hermitian(broken)


def test_covariant_array_rejects_a_block_that_is_not_n_by_4():
    with pytest.raises(ValueError, match=r"\(N, 4\)"):
        covariant_array(np.ones(4), "chiral")


def test_fierz_array_rounds_like_the_multivector_products_on_arbitrary_rows():
    # raw 16-tuples, not covariants of a spinor: about 1 in 600 squares x*x
    # rounds differently from Python's x**2, which the kernel must follow
    rng = np.random.default_rng(65)
    rows = rng.standard_normal((3000, 16)) * 10.0 ** rng.uniform(-3.0, 3.0, (3000, 1))
    got = fierz_array(rows)
    for row, residuals in zip(rows, got):
        assert np.array_equal(_bits(residuals), _bits(_multivector_fierz(_set(row, "chiral"))))


def _probes(rng, spinors):
    """Random probes, every fifth one zero and every fifth one in the kernel of Z = 4 psi psibar."""
    probes = []
    for k, psi in enumerate(spinors):
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if k % 5 == 1:
            xi = np.zeros(4, dtype=complex)
        elif k % 5 == 3:  # orthogonal to gamma0 psi, so psibar xi = 0
            g0psi = gamma_rep(psi.rep).lower[0] @ psi.components
            xi = xi - np.vdot(g0psi, xi) / np.vdot(g0psi, g0psi) * g0psi
        probes.append(xi)
    return np.array(probes)


@pytest.fixture(scope="module")
def fierz_batch(batch):
    """The batch's aggregates, generalized residuals and reconstructions from seeded probes."""
    spinors, cov, _, _ = batch
    rep = spinors[0].rep
    probes = _probes(np.random.default_rng(66), spinors)
    z = aggregate_array(cov)
    return spinors, cov, z, generalized_fierz_array(z, cov, rep), probes, reconstruct_array(z, probes, rep)


def test_fierz_kernels_equal_the_per_sample_oracles_bit_for_bit(fierz_batch):
    spinors, cov, z, gen, probes, (back, ok) = fierz_batch
    assert z.shape == (len(spinors), 16) and gen.shape == (len(spinors), 5)
    assert back.shape == (len(spinors), 4) and ok.shape == (len(spinors),)
    assert 0 < ok.sum() < len(spinors)
    for k, psi in enumerate(spinors):
        b = _set(cov[k], psi.rep)
        mv = vector_aggregate(b)
        assert np.array_equal(_bits(z[k].view(float)), _bits(mv.coeffs.view(float)))
        assert np.array_equal(_bits(gen[k]), _bits(loop_generalized_fierz(mv, b, psi.rep)))
        try:
            recovered = scalar_reconstruct(mv, SpinorC4(probes[k], psi.rep)).components
        except DegenerateProbeError:
            assert not ok[k]
            continue
        assert ok[k]
        assert np.array_equal(_bits(back[k].view(float)), _bits(recovered.view(float)))


def test_fierz_one_row_wrappers_return_their_row_of_the_batch(fierz_batch):
    spinors, cov, z, gen, probes, (back, ok) = fierz_batch
    for k, psi in enumerate(spinors):
        b = bilinears(psi)
        mv = aggregate(b)
        assert np.array_equal(_bits(mv.coeffs.view(float)), _bits(z[k].view(float)))
        assert np.array_equal(_bits(generalized_fierz_residuals(mv, b, psi.rep)), _bits(gen[k]))
        probe = SpinorC4(probes[k], psi.rep)
        if ok[k]:
            assert np.array_equal(_bits(reconstruct(mv, probe).components.view(float)),
                                  _bits(back[k].view(float)))
        else:
            with pytest.raises(DegenerateProbeError):
                reconstruct(mv, probe)


# ---- the covariants' rounding, against exact arithmetic -----------------------

# The bound, from covariant_array's operation count.  Every form F_n has one nonzero entry
# per row, each part 0, +-1/2 or +-1 (the oracle asserts it), so w = F_n psi (``forms @ v``)
# is exact: each part of w is a part of psi times a power of two, save that halving a
# subnormal rounds, by at most eta/2 (eta = 2^-1074, the least subnormal).  The covariant
# Re(psi^dagger w) (``vecdot``) is then a sum of eight real products a_i w_i, in whatever
# order BLAS takes them; each meets one multiplication and at most seven additions, so
# (Higham 2002, section 3.1, with underflow: products may underflow, additions do not)
#     |fl(m) - m| <= gamma_8 sum|a_i w_i| + (sum|a_i| + 8) eta,
# with gamma_8 = 8u / (1 - 8u), u = 2^-53.  That is c eps B with eps = 2^-52, c = 4 / (1 - 2^-50)
# (just above 4) and B the sum of |a_i w_i|, at most |psi|^T |F_n| |psi| by Cauchy-Schwarz.
# When every part of psi is an integer below 2^20 in size, every product and partial sum is
# a double and each rounding term is 0, so the bound is fl(m) = m.
_U = Fraction(1, 2**53)
_GAMMA_8 = 8 * _U / (1 - 8 * _U)
_ETA = Fraction(1, 2**1074)


def exact_covariants_and_bounds(components, rep):
    """The sixteen exact covariants of one spinor, and the bound above on each one's rounding."""
    parts = [x for z in map(complex, components) for x in (z.real, z.imag)]
    spread = (sum(map(abs, map(Fraction, parts))) + 8) * _ETA
    bounds = [_GAMMA_8 * b + spread for b in covariant_product_sums(components, rep)]
    return exact_covariants(components, rep), bounds, parts


def assert_covariants_within_the_rounding_bound(rows, rep):
    """Each covariant of each row within the bound above of its exact value; exact on small integers."""
    got = covariant_array(np.array(rows, dtype=complex).reshape(-1, 4), rep).tolist()
    for components, values in zip(rows, got):
        exact, bounds, parts = exact_covariants_and_bounds(components, rep)
        if all(x.is_integer() and abs(x) < 2**20 for x in parts):
            bounds = [0] * 16
        for n, (value, m, bound) in enumerate(zip(values, exact, bounds)):
            assert abs(Fraction(value) - m) <= bound, (rep, list(components), n, value, float(m))


# each basis spinor alone, and two with small integer parts: the kernel must be exact on them
_SMALL_INTEGER_ROWS = [*np.eye(4, dtype=complex), [1 + 2j, 3 - 1j, -4j, 2], [7, -3j, 5 + 1j, -6 - 2j]]


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       k=st.integers(-256, 128), rep=st.sampled_from(REP_TAGS))
def test_each_covariant_is_within_its_rounding_bound_across_the_accepted_norm_range(parts, k, rep):
    values = [math.ldexp(x, k) for x in parts]  # subnormal parts included
    assume(_MIN_NORM <= math.hypot(*values) <= _MAX_NORM)
    assert_covariants_within_the_rounding_bound([np.array(values).view(complex)], rep)


@settings(max_examples=50, deadline=None)
@given(parts=st.lists(st.integers(-2**19, 2**19), min_size=8, max_size=8),
       rep=st.sampled_from(REP_TAGS))
def test_each_covariant_of_a_small_integer_spinor_is_exact(parts, rep):
    assert_covariants_within_the_rounding_bound([np.array(parts, dtype=float).view(complex)], rep)


def _corpus_slice_and_small_integers():
    """The first 300 records of the benchmark's seed-0 corpus, by representation, and the rows above."""
    rows = {rep: list(_SMALL_INTEGER_ROWS) for rep in REP_TAGS}
    for record in benchmark_corpus(0)[:300]:
        rows[record["rep"]].append([complex(re, im) for re, im in record["components"]])
    return rows


def test_each_covariant_of_the_seed_0_corpus_is_within_its_rounding_bound():
    rows = _corpus_slice_and_small_integers()
    assert all(len(block) > 100 for block in rows.values())
    for rep, block in rows.items():
        assert_covariants_within_the_rounding_bound(block, rep)


def test_a_form_entry_one_ulp_off_fails_the_rounding_test(monkeypatch):
    """Fault row: J^0's form (the identity in both representations) with one entry moved by one ulp."""
    module = importlib.import_module("spinorlab.bilinears")
    for rep in REP_TAGS:
        forms, ops = module._MATRICES[rep]
        moved = forms.copy()
        moved[1, 0, 0] = np.nextafter(1.0, 2.0)
        with monkeypatch.context() as mp:
            mp.setitem(module._MATRICES, rep, (moved, ops))
            with pytest.raises(AssertionError):
                assert_covariants_within_the_rounding_bound(_corpus_slice_and_small_integers()[rep], rep)


# ---- the magnitudes' rounding ------------------------------------------------

# magnitude_array's |J|, |K| and |S| columns are fl(sqrt(vecdot(y, y))) over the k = 4, 4 and 6
# covariants x of the column, computed as x^ and scaled by the power of two s that brings J^0
# into [0.5, 1).  The bound on |m - s ||x|||, with beta_i the covariant bound above:
# - ||x^|| - ||x|| <= ||x^ - x|| <= sum beta_i.  Scaling by s rounds only a result that
#   underflows, by at most eta/2, so y = fl(s x^) has D = ||y - s x|| <= s sum beta_i + k eta/2,
#   and ||y|| <= s ||x|| + D.
# - vecdot of k squares (Higham 2002, section 3.1, with underflow): t = ||y||^2 (1 + theta) + d
#   with |theta| <= gamma_k and |d| <= k eta, so |sqrt(t) - ||y||| <= gamma_k ||y|| + sqrt(k eta),
#   since |sqrt(1 + theta) - 1| <= |theta| and |sqrt(a + d) - sqrt(a)| <= sqrt(|d|).
# - sqrt rounds once: |m - sqrt(t)| <= u sqrt(t) <= u ((1 + gamma_k) ||y|| + sqrt(k eta)).
# Summed, with c = gamma_k + u (1 + gamma_k) (about (k + 1) u: 3.5 eps for S) and
# sqrt(k eta) <= 3 * 2^-537 = r:
#     |m - s ||x||| <= c s ||x|| + a,   a = (1 + c) D + (1 + u) r.
# ||x|| is irrational in general, so the test squares the equivalent
#     (m - a) / (1 + c) <= s ||x|| <= (m + a) / (1 - c)
# and compares in Fraction arithmetic against s^2 sum x_i^2.
_MAGNITUDE_COLUMNS = {1: slice(1, 5), 4: slice(11, 15), 5: slice(5, 11)}  # |J|, |K|, |S|
_R = 3 * Fraction(1, 2**537)


def assert_magnitudes_within_the_rounding_bound(rows, rep, kernel=magnitude_array):
    """|J|, |K| and |S| of each row within the bound above of the exact norms, scaled by s."""
    cov = covariant_array(np.array(rows, dtype=complex).reshape(-1, 4), rep)
    for components, row, values in zip(rows, cov.tolist(), kernel(cov).tolist()):
        exact, bounds, _ = exact_covariants_and_bounds(components, rep)
        s = Fraction(2) ** -math.frexp(row[1])[1]
        for column, part in _MAGNITUDE_COLUMNS.items():
            k = part.stop - part.start
            gamma = k * _U / (1 - k * _U)
            c = gamma + _U * (1 + gamma)
            a = (1 + c) * (s * sum(bounds[part]) + k * _ETA / 2) + (1 + _U) * _R
            m, square = Fraction(values[column]), s * s * sum(x * x for x in exact[part])
            assert square <= ((m + a) / (1 - c)) ** 2, (rep, list(components), column, float(m))
            assert m <= a or ((m - a) / (1 + c)) ** 2 <= square, (rep, list(components), column, float(m))


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       k=st.integers(-256, 128), rep=st.sampled_from(REP_TAGS))
def test_each_magnitude_is_within_its_rounding_bound_across_the_accepted_norm_range(parts, k, rep):
    values = [math.ldexp(x, k) for x in parts]  # subnormal parts included
    assume(_MIN_NORM <= math.hypot(*values) <= _MAX_NORM)
    assert_magnitudes_within_the_rounding_bound([np.array(values).view(complex)], rep)


def test_each_magnitude_of_the_seed_0_corpus_is_within_its_rounding_bound():
    for rep, block in _corpus_slice_and_small_integers().items():
        assert_magnitudes_within_the_rounding_bound(block, rep)


# near-Weyl rows in the chiral representation: S pairs the two chiral blocks, so it is about
# 1e-6 J^0 and its bound beta_i is as small; at |psi| = 2^-250 the squares of its entries are
# subnormal unless the row is scaled first.  (In the standard representation such an S is a
# cancellation, with beta_i near eps J^0, which covers that loss.)
_NEAR_WEYL_ROWS = [[0.7, 0.3j, 3e-7, 1e-7j], [3e-7, 1e-7j, 0.7, 0.3j], [0.6 + 0.2j, -0.3j, 3e-7, 2e-7 + 1e-7j]]


def test_magnitudes_without_the_row_scaling_fail_the_rounding_test_for_small_psi(monkeypatch):
    """Fault row: magnitude_array with its np.ldexp the identity, its columns then scaled by s."""
    def unscaled(cov):
        with monkeypatch.context() as mp:
            mp.setattr(np, "ldexp", lambda x, _: np.array(x, dtype=float))
            out = magnitude_array(cov)
        return np.ldexp(out, -np.frexp(cov[:, 1:2])[1])

    small = [[math.ldexp(1.0, -250) * z for z in row] for row in _NEAR_WEYL_ROWS]
    assert_magnitudes_within_the_rounding_bound(small, "chiral")
    assert_magnitudes_within_the_rounding_bound(_NEAR_WEYL_ROWS, "chiral", unscaled)  # squares stay normal
    for row in small:
        with pytest.raises(AssertionError):
            assert_magnitudes_within_the_rounding_bound([row], "chiral", unscaled)
