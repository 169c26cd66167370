"""Component-level conditions deciding which regular spinors map onto ELKOs."""

import numpy as np
import pytest

from conftest import class_spinor, random_spinor
from oracles import scalar_elko_map_conditions
from spinorlab import (
    BilinearInconsistencyError,
    NullSpinorError,
    SingularSpinorError,
    SpinorC4,
    bilinears,
    classify,
    elko_map_conditions,
    elko_quartet,
    mappability,
)
from spinorlab.bilinears import covariant_array
from spinorlab.mapping import ConditionReport, condition_routes

# one-parameter families through each satisfying class, standard representation
FAMILY = {
    1: lambda a, b: np.array([a, 0, 1j * b, 0]),
    2: lambda a, b: np.array([a * (1 + 0.4j), b * (1 + 0.4j), 0, 0]),
    3: lambda a, b: np.array([1j * a, 1j * b, a, b]),
}


def test_both_arithmetic_routes_agree_on_random_spinors():
    rng = np.random.default_rng(91)
    for _ in range(200):
        psi = random_spinor(rng, "standard", scale=rng.uniform(0.2, 3.0))
        report = elko_map_conditions(psi)
        assert report.route_disagreement() < 1e-12 * report.scale


@pytest.mark.parametrize("label", [1, 2, 3])
def test_constructed_families_satisfy_their_class_conditions(label):
    rng = np.random.default_rng(92)
    for _ in range(10):
        a, b = rng.uniform(0.3, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        psi = SpinorC4(FAMILY[label](a, b), "standard")
        assert classify(bilinears(psi)).label == label
        report = elko_map_conditions(psi)
        assert report.satisfied(label)
        verdict = mappability(psi)
        assert verdict["class"] == label
        assert verdict[label] is True


def test_conditions_are_scale_and_phase_invariant():
    psi = SpinorC4(np.array([2.0, 0, 1j, 0]), "standard")
    scaled = psi.scaled(57.0 * np.exp(0.3j))
    assert elko_map_conditions(scaled).satisfied(1)
    # thresholds are tol * |psi|^2, so a small spinor gets the verdicts of its unit-norm copy
    rng = np.random.default_rng(95)
    spinors = [psi, SpinorC4(np.array([0.8j, 1.04j, 1.0, 1.3]), "standard")]
    spinors += [random_spinor(rng, "standard") for _ in range(20)]
    for psi in spinors:
        expected = mappability(psi)
        for scale in (1e-60, 1e-6, 57.0):
            assert mappability(psi.scaled(scale * np.exp(0.3j))) == expected


def test_class_three_only_witness_fails_the_class_two_extra_condition():
    # (iy, iyu, 1, u) satisfies the shared and class-3 conditions while the
    # class-2 extra condition stays bounded away from zero
    y, u = 0.8, 1.3
    psi = SpinorC4(np.array([1j * y, 1j * y * u, 1.0, u]), "standard")
    report = elko_map_conditions(psi)
    assert report.satisfied(3)
    assert not report.satisfied(2)
    assert report.extra_class2 > 0.1


def test_class_two_satisfaction_forces_the_class_three_extra_condition():
    # on the shared zero set the two extras differ by Im(psi3* psi4) terms
    # that the shared conditions already kill for these families
    rng = np.random.default_rng(93)
    for _ in range(20):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        psi = SpinorC4(FAMILY[2](a, b), "standard")
        report = elko_map_conditions(psi)
        if report.satisfied(2):
            assert report.extra_class3 < 1e-12 * report.scale


def test_random_spinors_essentially_never_satisfy_the_conditions():
    rng = np.random.default_rng(94)
    passes = 0
    total = 500
    for _ in range(total):
        report = elko_map_conditions(random_spinor(rng, "standard"))
        if bool(np.all(report.shared <= 1e-10 * report.scale)):
            passes += 1
    assert passes / total < 0.01


@pytest.mark.parametrize("case", ["zero", "flagpole-at-tol-0.9", 4, 5, 6])
def test_mappability_refuses_each_row_without_a_regular_class(case):
    if case == "zero":
        psi, tol = SpinorC4(np.zeros(4, dtype=complex), "chiral"), 1e-10
        error, message = NullSpinorError, "all bilinear covariants vanish; cannot classify the zero spinor"
    elif case == "flagpole-at-tol-0.9":  # |S| falls under the tolerance too: K = S = 0
        psi, tol = elko_quartet()[0].spinor, 0.9
        error = BilinearInconsistencyError
        message = "sigma = omega = 0 with K = S = 0 but J != 0: no spinor produces this pattern"
    else:
        psi, tol = class_spinor(np.random.default_rng(5), case), 1e-10
        error, message = SingularSpinorError, f"spinor is class {case}; mapping conditions apply to classes 1-3"
    with pytest.raises(ValueError) as caught:
        mappability(psi, tol)
    assert (caught.type, str(caught.value)) == (error, message)


def test_report_shape_and_scale():
    psi = SpinorC4(np.array([0.0, 0.0, 1.0, 1j]), "standard")
    report = elko_map_conditions(psi)
    assert report.shared.shape == (4,)
    assert report.scale == pytest.approx(2.0)
    # third displayed line drops the 2 Im(psi3* psi4) term; here that is 2
    assert report.line3_vs_class3_gap == pytest.approx(2.0)


def test_satisfied_rejects_singular_labels():
    report = elko_map_conditions(SpinorC4([1, 0, 0, 0], "standard"))
    with pytest.raises(ValueError, match="labels 1, 2 and 3"):
        report.satisfied(5)


@pytest.mark.parametrize("shared, extra2, extra3", [
    (s, e2, e3) for s in (0.0, 1.0) for e2 in (0.0, 1.0) for e3 in (0.0, 1.0)])
def test_each_label_needs_the_shared_block_and_its_own_extra_conditions(shared, extra2, extra3):
    """Class 1 needs both extras, class 2 the class-2 one, class 3 the class-3 one."""
    report = ConditionReport(np.array([0.0, shared, 0.0, 0.0]), extra2, extra3,
                             np.zeros(4), 0.0, 0.0, 0.0, scale=1.0)
    ok, ok2, ok3 = shared == 0.0, extra2 == 0.0, extra3 == 0.0
    assert [report.satisfied(label) for label in (1, 2, 3)] == [ok and ok2 and ok3, ok and ok2,
                                                                ok and ok3]


def spinors_across_decades(seed=96):
    """Standard spinors from 1e-60 to 1e60, with exact zeros and negative zeros among the parts."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((1210, 4)) + 1j * rng.standard_normal((1210, 4))
    v *= np.repeat(10.0 ** np.arange(-60, 61), 10)[:, None]
    v[rng.random(v.shape) < 0.15] = 0.0
    v.real[rng.random(v.shape) < 0.1] = -0.0
    v.imag[rng.random(v.shape) < 0.1] = -0.0
    return v


def test_conditions_are_the_complex_scalar_arithmetic_bit_for_bit():
    fields = ("shared", "extra_class2", "extra_class3", "shared_components", "extra_class2_components",
              "extra_class3_components", "line3_vs_class3_gap", "scale")
    for comp in spinors_across_decades():
        psi = SpinorC4(comp, "standard")
        got, want = elko_map_conditions(psi), scalar_elko_map_conditions(psi)
        for field in fields:
            a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), field


def test_condition_routes_on_arrays_are_the_float_routes_bit_for_bit():
    v = spinors_across_decades(97)
    block = condition_routes(v.real.T, v.imag.T)
    rows = [condition_routes(c.real.tolist(), c.imag.tolist()) for c in v]
    for route, width in ((0, 7), (1, 6)):
        assert len(block[route]) == width
        for k in range(width):
            want = np.array([r[route][k] for r in rows])
            assert np.array_equal(block[route][k].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("rep", ["chiral", "standard"])
def test_j0_of_the_covariants_is_the_condition_scale_bit_for_bit(rep):
    """J^0 of ``covariant_array`` is ``ConditionReport.scale``, so a block can take the scale from it."""
    v = spinors_across_decades(98)
    j0 = covariant_array(v, rep)[:, 1]
    scale = np.array([float(np.vdot(c, c).real) for c in v])
    assert np.array_equal(j0.view(np.int64), scale.view(np.int64))


def test_route_gap_and_verdicts_read_nan_as_np_max_and_np_all_do():
    """On the report's floats, a NaN anywhere gives what np.max over the six gaps and np.all give."""
    rng = np.random.default_rng(99)
    fields = ("shared", "extra_class2", "extra_class3", "shared_components",
              "extra_class2_components", "extra_class3_components", "scale")
    for _ in range(400):
        # residuals near the threshold tol * scale, so the verdicts go both ways
        values = {f: np.abs(rng.normal(1e-10, 1e-10, 4 if f.startswith("shared") else None))
                  for f in fields}
        values["scale"] = 1.0
        for field in rng.choice(fields, size=rng.integers(1, 4)):
            if field.startswith("shared"):
                values[field][rng.integers(4)] = np.nan
            else:
                values[field] = np.nan
        report = ConditionReport(line3_vs_class3_gap=0.0, **{
            f: v if f.startswith("shared") else float(v) for f, v in values.items()})
        # one np.max over all six gaps: a NaN in any of them is the gap
        gap = np.max(np.abs(np.r_[report.shared - report.shared_components,
                                  report.extra_class2 - report.extra_class2_components,
                                  report.extra_class3 - report.extra_class3_components]))
        assert np.array_equal(report.route_disagreement(), gap, equal_nan=True)
        threshold = 1e-10 * report.scale
        shared_ok = bool(np.all(report.shared <= threshold))
        ok2 = shared_ok and report.extra_class2 <= threshold
        ok3 = shared_ok and report.extra_class3 <= threshold
        assert [report.satisfied(label) for label in (1, 2, 3)] == [ok2 and ok3, ok2, ok3]
