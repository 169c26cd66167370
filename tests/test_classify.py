"""Lounesto classification: witnesses for all six classes and the class algebra."""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LORENTZ_PLANES,
    class_spinor,
    map_check_decades,
    mixed_spinors,
    random_spinor,
    spin_matrix,
)
from spinorlab import (
    BilinearInconsistencyError,
    BilinearSet,
    Multivector,
    NullSpinorError,
    PSEUDOSCALAR,
    SpinorC4,
    WeylC2,
    bilinears,
    classify,
    dirac_from_left,
    dirac_with_phase,
    direction_element,
    elko_rest,
    helicity_eigenspinor,
    majorana_from_weyl,
    pq_operators,
    projection_spinor,
    verify_class_relations,
    weyl_spinor,
)
from spinorlab.bilinears import covariant_array
from spinorlab.classify import lounesto_class, lounesto_rule, magnitude_array

PHI = helicity_eigenspinor((0.0, 0.0, 1.0), +1)
MOMENTUM = np.array([0.3, -0.2, 0.5])


def witness(label):
    if label == 1:
        return dirac_with_phase(PHI, MOMENTUM, 1.3, delta=0.7)
    if label == 2:
        return dirac_from_left(PHI, MOMENTUM, 1.3)
    if label == 3:
        return dirac_with_phase(PHI, MOMENTUM, 1.3, delta=np.pi / 2)
    if label == 4:
        u = direction_element([0.3, 0.4, np.sqrt(1 - 0.25)])
        return projection_spinor(Multivector.scalar(1.0), u)
    if label == 5:
        return elko_rest(PHI, "self").spinor
    return weyl_spinor(WeylC2(np.array([1.0, -0.5j])), "left")


@pytest.mark.parametrize("label", [1, 2, 3, 4, 5, 6])
def test_each_class_has_a_constructed_witness(label):
    verdict = classify(bilinears(witness(label)))
    assert verdict.label == label
    assert int(verdict) == label
    assert verdict.regular == (label in (1, 2, 3))


@pytest.mark.parametrize("label", [1, 2, 3, 4, 5, 6])
def test_classification_survives_scale_and_phase(label):
    for scale in (1e-120, 1e-80, 1e-60, 1e-5, 3.2e3, 1e38):
        psi = witness(label).scaled(scale * np.exp(1.9j))
        verdict = classify(bilinears(psi))
        assert verdict.label == label
        assert (not verdict.regular) == (label > 3)


# one Lorentz generator: a gamma pair (mu, nu) and an amount in [-1, 1]
GENERATOR = st.tuples(st.sampled_from(LORENTZ_PLANES), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 2 * np.pi),
       st.lists(GENERATOR, min_size=1, max_size=4))
def test_class_is_invariant_under_phase_representation_and_lorentz_transformations(
        label, seed, phase, generators):
    psi = class_spinor(np.random.default_rng(seed), label)
    other = "standard" if psi.rep == "chiral" else "chiral"
    b = bilinears(psi)
    assert classify(b).label == label
    assert classify(bilinears(psi.scaled(np.exp(1j * phase)))).label == label
    assert classify(bilinears(psi.in_rep(other).in_rep(psi.rep))).label == label
    for rep in ("chiral", "standard"):
        moved = SpinorC4(spin_matrix(rep, generators) @ psi.in_rep(rep).components, rep)
        b_moved = bilinears(moved)
        assert classify(b_moved).label == label
        # sigma and omega are Lorentz scalars: a matrix outside Spin+(1,3) would move them
        scale = 1e-9 * float(b.J[0] + b_moved.J[0])
        assert abs(b_moved.sigma - b.sigma) <= scale and abs(b_moved.omega - b.omega) <= scale


def test_witness_pattern_reports_which_covariants_vanish():
    v = classify(bilinears(witness(5)))
    assert v.witness == {"sigma": False, "omega": False, "K": False, "S": True}
    v = classify(bilinears(witness(2)))
    assert v.witness["sigma"] and not v.witness["omega"]


def test_singularity_means_both_scalars_vanish():
    assert classify(bilinears(witness(1))).regular
    assert not classify(bilinears(witness(5))).regular
    assert not classify(bilinears(witness(6))).regular


def test_zero_spinor_cannot_be_classified():
    b = BilinearSet(sigma=0.0, J=np.zeros(4), S=np.zeros(6), K=np.zeros(4), omega=0.0)
    with pytest.raises(NullSpinorError):
        classify(b)


def test_impossible_zero_pattern_is_rejected():
    b = BilinearSet(
        sigma=0.0, J=np.array([1.0, 0, 0, 0]), S=np.zeros(6), K=np.zeros(4), omega=0.0
    )
    with pytest.raises(BilinearInconsistencyError):
        classify(b)


def test_values_near_the_threshold_set_the_marginal_flag():
    base = dict(J=np.array([1.0, 0, 0, 0]), S=np.zeros(6), K=np.array([0, 0, 0.2, 0.0]))
    just_below = BilinearSet(sigma=1.0, omega=5e-11, **base)
    v = classify(just_below)
    assert v.label == 2
    assert v.marginal and "omega" in v.marginal_fields
    just_above = BilinearSet(sigma=1.0, omega=5e-10, **base)
    v = classify(just_above)
    assert v.label == 1
    assert v.marginal and "omega" in v.marginal_fields
    clear = BilinearSet(sigma=1.0, omega=0.5, **base)
    assert not classify(clear).marginal


def test_majorana_parts_are_flagpoles():
    xi = SpinorC4([1, 0, 0, 0], "chiral")
    plus, minus = majorana_from_weyl(xi)
    assert classify(bilinears(plus)).label == 5
    assert classify(bilinears(minus)).label == 5


def test_null_current_relations_for_singular_classes():
    for label in (4, 5, 6):
        b = bilinears(witness(label))
        rel = verify_class_relations(b, label)
        scale = max(1.0, b.J[0] ** 2)
        assert rel["J_square"] < 1e-12 * scale
        assert rel["K_square"] < 1e-12 * scale


def test_parity_projector_relations_for_class_two():
    b = bilinears(witness(2))
    rel = verify_class_relations(b, 2)
    scale = max(1.0, b.J[0] ** 2)
    assert rel["idempotent"] < 1e-12 * scale
    assert rel["p_from_kq"] < 1e-12 * scale
    assert rel["spin_projector_commutes"] < 1e-12 * scale


def test_nilpotency_relations_for_class_three():
    b = bilinears(witness(3))
    rel = verify_class_relations(b, 3)
    scale = max(1.0, b.J[0] ** 2)
    assert rel["p_squared"] < 1e-11 * scale
    assert rel["p_from_qk"] < 1e-11 * scale


def test_class_three_relation_is_sensitive_to_product_order():
    # Q K / omega recovers P; the reversed product K Q / omega gives -P
    b = bilinears(witness(3))
    p, q = pq_operators(b)
    kmv = b.axial_vector()
    forward = (q * kmv / b.omega - p).norm()
    reversed_ = (kmv * q / b.omega + p).norm()
    assert forward < 1e-11 * p.norm()
    assert reversed_ < 1e-11 * p.norm()
    assert (kmv * q / b.omega - p).norm() > p.norm()


def test_general_axial_identity_for_class_one():
    rng = np.random.default_rng(71)
    for _ in range(10):
        psi = random_spinor(rng)
        b = bilinears(psi)
        if classify(b).label != 1:
            continue
        rel = verify_class_relations(b, 1)
        assert rel["p_plus_inv_kq"] < 1e-11 * max(1.0, b.J[0] ** 2)


def test_axial_identity_specializes_across_all_regular_spinors():
    # K Q = -(omega + sigma e0123) P holds for every regular spinor
    rng = np.random.default_rng(72)
    for _ in range(20):
        b = bilinears(random_spinor(rng))
        p, q = pq_operators(b)
        lhs = b.axial_vector() * q
        rhs = -(Multivector.scalar(b.omega) + PSEUDOSCALAR * b.sigma) * p
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, p.norm() ** 2)


def test_relations_reject_labels_outside_the_range():
    b = bilinears(witness(2))
    with pytest.raises(ValueError, match="label"):
        verify_class_relations(b, 7)


def test_phase_sweep_walks_through_the_regular_classes():
    labels = [
        classify(bilinears(dirac_with_phase(PHI, MOMENTUM, 1.3, d))).label
        for d in (0.0, np.pi / 2, 0.7)
    ]
    assert labels == [2, 3, 1]


# ---- bitwise oracle: the per-record classification body --------------------


def _norm_rule(b, tol):
    """Magnitudes by np.linalg.norm and the decision tree, one bilinear set at a time.

    Returns (label, witness, marginal fields), or the exception class raised.
    """
    mags = {
        "sigma": abs(b.sigma),
        "omega": abs(b.omega),
        "K": float(np.linalg.norm(b.K)),
        "S": float(np.linalg.norm(b.S)),
    }
    threshold = tol * abs(b.J[0])
    if float(np.linalg.norm(b.J)) <= threshold and all(v <= threshold for v in mags.values()):
        return NullSpinorError
    nz = {k: v > threshold for k, v in mags.items()}
    marginal = tuple(k for k, v in mags.items() if threshold / 10.0 < v < threshold * 10.0)
    if nz["sigma"] or nz["omega"]:
        label = 1 if nz["sigma"] and nz["omega"] else 2 if nz["sigma"] else 3
    elif nz["K"] or nz["S"]:
        label = 4 if nz["K"] and nz["S"] else 5 if nz["S"] else 6
    else:
        return BilinearInconsistencyError
    return label, nz, marginal


def test_batched_magnitudes_and_rule_match_the_per_record_body():
    # the larger tolerances push covariants across the threshold, so the rows
    # meet every label, marginal fields, and with the two synthetic rows
    # (zero, and J alone) both errors
    spinors = [psi for _, psi in mixed_spinors(np.random.default_rng(73), 240)]
    synthetic = np.zeros((2, 16))
    synthetic[1, 1] = 1.0
    seen = set()
    for tol in (1e-10, 1e-3, 0.05, 0.3):
        for rep in ("chiral", "standard"):
            block = np.array([psi.components for psi in spinors if psi.rep == rep])
            cov = np.vstack([covariant_array(block, rep), synthetic])
            for values, row in zip(cov, magnitude_array(cov).tolist()):
                b = BilinearSet(sigma=float(values[0]), J=values[1:5], S=values[5:11],
                                K=values[11:15], omega=float(values[15]), rep=rep)
                direct = [abs(b.J[0]), np.linalg.norm(b.J), abs(b.sigma), abs(b.omega),
                          np.linalg.norm(b.K), np.linalg.norm(b.S)]
                direct = np.ldexp(direct, -np.frexp(b.J[0])[1])  # rows are scaled by 2^-e
                assert np.array_equal(np.array(row).view(np.int64), direct.view(np.int64))
                expected = _norm_rule(b, tol)
                for decide in (lambda: lounesto_class(row, tol), lambda: classify(b, tol)):
                    if isinstance(expected, type):
                        with pytest.raises(expected):
                            decide()
                        seen.add(expected)
                        continue
                    got = decide()
                    assert (got.label, got.witness, got.marginal_fields) == expected
                    assert got.marginal == bool(expected[2]) and got.regular == (got.label < 4)
                    seen.update([got.label, "marginal"] if got.marginal else [got.label])
    assert seen == {1, 2, 3, 4, 5, 6, "marginal", NullSpinorError, BilinearInconsistencyError}


def _sum_of_squares_magnitudes(c):
    """Fault: the one-row path with its norms as a Python sum of squares, not the BLAS dot."""
    row = np.ldexp(c[0], -np.frexp(c[0, 1])[1]).tolist()
    norm = lambda part: np.sqrt(sum(x * x for x in part))
    return np.array([[abs(row[1]), norm(row[1:5]), abs(row[0]), abs(row[15]),
                      norm(row[11:15]), norm(row[5:11])]])


@pytest.mark.parametrize("rep", ["chiral", "standard"])
@pytest.mark.parametrize("magnitudes, exact", [(magnitude_array, True),
                                               (_sum_of_squares_magnitudes, False)],
                         ids=["kernel", "fault-python-sum-of-squares"])
def test_one_row_kernels_are_their_row_of_the_block_bit_for_bit(rep, magnitudes, exact):
    # |psi| from 1e-60 to 1e38 with signed zeros, read in either representation, then the zero spinor
    v = np.array([psi.components for psi in map_check_decades()] + [[0.0] * 4, [complex(-0.0, -0.0)] * 4])
    cov = covariant_array(v, rep)
    mags = magnitude_array(cov)
    assert cov.flags.c_contiguous and mags.shape == (len(v), 6)
    bits = lambda x: np.asarray(x).view(np.int64)
    differ = 0
    for i in range(len(v)):
        row = covariant_array(v[i:i + 1], rep)
        assert row.shape == (1, 16) and row.flags.c_contiguous
        assert np.array_equal(bits(row), bits(cov[i:i + 1]))
        differ += not np.array_equal(bits(magnitudes(cov[i:i + 1])), bits(mags[i:i + 1]))
    assert (differ == 0) == exact


def assert_built_spinors_classify_as_built():
    """Five ``class_spinor`` witnesses of each label classify as that label."""
    rng = np.random.default_rng(17)
    for label in range(1, 7):
        for _ in range(5):
            assert classify(bilinears(class_spinor(rng, label))).label == label, label


@pytest.mark.parametrize("a, b", list(itertools.combinations(range(1, 7), 2)))
def test_each_swap_of_two_labels_in_lounesto_table_fails_a_class_check(monkeypatch, a, b):
    module = importlib.import_module("spinorlab.classify")  # the package's name is the function
    assert_built_spinors_classify_as_built()
    swap = {a: b, b: a}
    table = np.array([swap.get(v, v) for v in module._CLASS_TABLE], dtype=object)
    assert len(table) == 16
    monkeypatch.setattr(module, "_CLASS_TABLE", table)
    with pytest.raises(AssertionError):
        assert_built_spinors_classify_as_built()


def _rule_rows(rep):
    """``magnitude_array`` of the ``mixed_spinors`` in ``rep``, then of the zero row and J alone."""
    spinors = [psi.components for _, psi in mixed_spinors(np.random.default_rng(73), 240) if psi.rep == rep]
    synthetic = np.zeros((2, 16))
    synthetic[1, 1] = 1.0
    return magnitude_array(np.vstack([covariant_array(np.array(spinors), rep), synthetic]))


def test_the_block_rule_is_lounesto_class_row_by_row():
    seen = set()
    for tol in (1e-10, 1e-3, 1e-16, 1e-20, 0.5):
        for rep in ("chiral", "standard"):
            mags = _rule_rows(rep)
            label, flags, marginal, null = lounesto_rule(mags.T, tol)
            assert label.shape == null.shape == (len(mags),)
            flags, marginal = np.transpose(flags), np.transpose(marginal)
            for i, row in enumerate(mags.tolist()):
                if not label[i]:
                    error = NullSpinorError if null[i] else BilinearInconsistencyError
                    with pytest.raises(error):
                        lounesto_class(row, tol)
                    seen.add(error)
                    continue
                assert not null[i]
                got = lounesto_class(row, tol)
                fields = tuple(f for f, m in zip(("sigma", "omega", "K", "S"), marginal[i]) if m)
                assert got.label == label[i] and got.marginal_fields == fields
                assert list(got.witness.values()) == flags[i].tolist()
                seen.update([got.label, "marginal"] if got.marginal else [got.label])
    assert seen == {1, 2, 3, 4, 5, 6, "marginal", NullSpinorError, BilinearInconsistencyError}


def test_one_row_results_are_python_ints_and_bools():
    for row in _rule_rows("chiral").tolist():
        for tol in (1e-10, 0.5):
            label, flags, marginal, null = lounesto_rule(row, tol)
            assert type(label) is int and type(null) is bool
            assert all(type(x) is bool for x in [*flags, *marginal])
            if label:
                got = lounesto_class(row, tol)
                assert type(got.label) is int
                assert all(type(x) is bool for x in [got.regular, got.marginal, *got.witness.values()])
