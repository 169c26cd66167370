"""Exact metamorphic relations of the record subcommands, run in-process through ``cli.main``.

R1: scaling a spinor by 2^k, anywhere in the accepted norm range, leaves every
verdict of its ``classify`` and ``map-check`` records as it was, and multiplies
each numeric field of degree d in psi by exactly 2^(k d).  Multiplying by a
power of two is exact in IEEE 754 while nothing over- or underflows, and the
covariants and the mapping residuals are sums of products of two components
(d = 2).  ``fierz_residuals`` (d = 4) are left out: they square their degree-4
terms, whose squares leave the normal range for small psi, and they take
scalar squares through ``pow``, which libm does not round alike at every
exponent.

R2: multiplying a spinor by i, which takes each component a + ib to -b + ia,
leaves its ``classify`` and ``map-check`` records as they were, every residual
to its last bit.  The negation is exact, and in Re(psi_i* psi_j) =
a_i a_j + b_i b_j and Im(psi_i* psi_j) = a_i b_j - b_i a_j the two products
only trade places.  Nothing is asserted for ``hopf``: a global phase is not a
fibre action of its Hopf map.

R3: the same spinors as JSON-lines and as CSV give the same records, apart
from the label that only JSON-lines carries.

R4: each ``map-check`` record of a chunk that mixes both representations is
that spinor's record run alone, its index aside.  The records of a chunk are
computed one representation block at a time and written in input order.
(``test_cli.py`` checks the same of ``classify`` and ``hopf``.)

R5: re-expressing a spinor in the other gamma representation
(``SpinorC4.in_rep``) leaves its ``class``, ``witness``, ``marginal``,
``error_kind`` and ``mappability.class`` as they were, and its covariants
within 4 eps J^0 (at most 2.9 eps J^0 on the benchmark's seed 0-3 corpora).
The covariants are the same numbers in either representation, but the
similarity's 1/sqrt(2) entries round.  The mapping verdicts may differ: the
conditions act on the raw components.

R6: moving a spinor by a proper orthochronous Lorentz spin matrix (a seeded
product of one to four boosts, |eta| <= 2 each, and rotations) leaves its
``class``, ``witness`` and ``error_kind`` as they were.  sigma and omega are
Lorentz scalars and the zero pattern of K and S is Lorentz invariant, so only a
record flagged ``marginal`` before or after the move, where the zero tests
against ``tol * J^0`` sit on their threshold, may read otherwise; the test
counts those records.

R7: ``classify`` and ``hopf`` print the same bytes whether each record is
computed alone (``_CHUNK = 1``) or in the CLI's own ranges and chunks.  Every
block function gives a row the same bits at any block length, and the first
chunk is computed in ranges of 1, 3, 12, 48 and 192 rows, so its first row
takes the one-row paths of the kernels.  (R4 checks ``map-check``.)

R8: charge conjugation, psi^c = ``elko.charge_conjugation`` of the spinor in
the chiral representation, leaves its ``classify`` ``class``, ``witness``,
``marginal`` and ``error_kind`` as they were, and takes its covariants
(sigma, J, S, K, omega) to (-sigma, J, S, -K, -omega) within 4 eps J^0.  C
only permutes, negates and conjugates components, but the permuted rows sum
in another order.

R9: parity, psi -> gamma^0 psi in the spinor's own representation, leaves
the same four fields as they were and gives each covariant the sign of its
behaviour under space reflection: sigma +, J^0 +, J^i -, S^0i -, S^ij +,
K^0 -, K^i +, omega -.  In the standard representation gamma^0 =
diag(1, 1, -1, -1) negates whole terms of every form, so the magnitudes are
equal bit for bit; in the chiral one gamma^0 swaps the two halves, and they
agree within 4 eps J^0.

Each relation runs across chunk seams, and each has a fault row in
``RELATION_FAULTS`` that makes it fail.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LORENTZ_PLANES, mixed_spinors, spin_matrix
from spinorlab import SpinorC4, cli, mapping
from spinorlab.gamma import REP_TAGS, gamma_rep

CHUNK = 5  # the relations' inputs span several chunks
SPINORS = 12  # two of each Lounesto class
SEEDS = st.integers(0, 2**32 - 1)

UNCHANGED = {
    "classify": ("class", "regular", "singular", "marginal", "marginal_fields", "witness",
                 "boomerang", "error", "error_kind"),
    "map-check": ("mappability", "note"),
}
DEGREE = {  # field -> degree in psi, as the probe in test_r1_degrees_are_the_fields_degrees finds
    "classify": {"bilinears": 2},
    "map-check": {"shared_residuals": 2, "extra_class2": 2, "extra_class3": 2,
                  "route_disagreement": 2, "line3_vs_class3_gap": 2},
}


def run_stdout(argv, text, chunk=CHUNK):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(text))
        mp.setattr(cli, "_CHUNK", chunk)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    return code, out.getvalue()


def run_main(argv, text, chunk=CHUNK):
    code, out = run_stdout(argv, text, chunk)
    return code, [json.loads(line) for line in out.splitlines()]


def corpus(seed):
    return [psi for _, psi in mixed_spinors(np.random.default_rng(seed), SPINORS)]


def parts(psi, k=0):
    return [math.ldexp(x, k) for z in psi.components.tolist() for x in (z.real, z.imag)]


def accepted_range(spinors):
    """The smallest and largest k that keep every nonzero norm inside the accepted range."""
    nonzero = [psi for psi in spinors if psi.components.any()]
    norms = [math.hypot(*parts(psi)) for psi in nonzero]
    inside = lambda k: all(cli._MIN_NORM <= math.hypot(*parts(psi, k)) <= cli._MAX_NORM
                           for psi in nonzero)
    lo = math.floor(math.log2(cli._MIN_NORM / min(norms)))
    hi = math.ceil(math.log2(cli._MAX_NORM / max(norms)))
    while not inside(lo):
        lo += 1
    while not inside(hi):
        hi -= 1
    return lo, hi


def jsonl(spinors, k=0, rep=True, label=False):
    lines = []
    for n, psi in enumerate(spinors):
        record = {"components": np.reshape(parts(psi, k), (4, 2)).tolist()}
        record.update({"rep": psi.rep} if rep else {})
        record.update({"label": f"spinor {n}"} if label else {})
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def paired_records(command, spinors, partners):
    """The records of each spinor and of its partner, read interleaved from one input."""
    text = "".join(a + b for a, b in zip(jsonl(spinors).splitlines(True), partners.splitlines(True)))
    _, records = run_main([command, "-"], text)
    assert len(records) == 2 * len(spinors)
    return zip(records[0::2], records[1::2])


def numbers(value):
    return np.hstack(list(value.values()) if isinstance(value, dict) else [value])


def assert_r1(spinors, k):
    for command in ("classify", "map-check"):
        for plain, scaled in paired_records(command, spinors, jsonl(spinors, k)):
            verdicts = [(plain.get(f), scaled.get(f)) for f in UNCHANGED[command]]
            assert all(a == b for a, b in verdicts), (command, k, verdicts)
            for field, degree in DEGREE[command].items():
                if field in plain:
                    want = np.ldexp(numbers(plain[field]), k * degree)
                    assert np.array_equal(numbers(scaled[field]), want), (command, field, k)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, inside=st.floats(0.0, 1.0))
def test_r1_scaling_by_a_power_of_two_scales_each_field_by_its_degree(seed, inside):
    spinors = corpus(seed)
    lo, hi = accepted_range(spinors)
    for k in (lo, hi, round(lo + inside * (hi - lo))):
        assert_r1(spinors, k)


def test_r1_degrees_are_the_fields_degrees():
    """The probe behind DEGREE: each field's ratio at 2^k is 2^(k d) for its d, and for no other."""
    spinors = corpus(11)
    for command, degrees in DEGREE.items():
        for plain, scaled in paired_records(command, spinors, jsonl(spinors, 3)):
            for field, degree in degrees.items():
                if field in plain:
                    for a, b in zip(numbers(plain[field]), numbers(scaled[field])):
                        found = [d for d in range(9) if math.ldexp(a, 3 * d) == b]
                        assert found == ([degree] if a else list(range(9))), (command, field)


def times_i(psi):
    """psi times i, exactly: each component a + ib becomes -b + ia."""
    return SpinorC4(np.array([complex(-z.imag, z.real) for z in psi.components.tolist()]), psi.rep)


def assert_r2(spinors):
    turned = jsonl([times_i(psi) for psi in spinors])
    for command in ("classify", "map-check"):
        for plain, times in paired_records(command, spinors, turned):
            assert plain.pop("index") + 1 == times.pop("index")
            # repr round-trips each float, so equal text is equal bits, signed zeros included
            assert json.dumps(plain) == json.dumps(times), command


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
def test_r2_multiplying_by_i_leaves_every_record_as_it_was(seed):
    assert_r2(corpus(seed))


def assert_r3(spinors):
    header = "re1,im1,re2,im2,re3,im3,re4,im4\n"
    csv = header + "".join(",".join(map(repr, parts(psi))) + "\n" for psi in spinors)
    text = jsonl(spinors, rep=False, label=True)
    for command in ("classify", "map-check", "hopf"):
        for rep in REP_TAGS:
            code, from_jsonl = run_main([command, "-", "--rep", rep], text)
            csv_code, from_csv = run_main([command, "-", "--rep", rep], csv)
            assert csv_code == code and len(from_jsonl) == len(from_csv) == len(spinors)
            for n, (a, b) in enumerate(zip(from_jsonl, from_csv)):
                assert a.pop("label") == f"spinor {n}"
                assert list(a.items()) == list(b.items()), (command, rep, n)


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_r3_json_lines_and_csv_give_the_same_records(seed):
    assert_r3(corpus(seed))


def assert_r4(spinors):
    # both representations in every chunk, and a zero spinor at the end of the first
    spinors = [psi.in_rep(REP_TAGS[k % 2]) for k, psi in enumerate(spinors)]
    spinors[CHUNK - 1] = spinors[CHUNK - 1].scaled(0.0)
    _, together = run_main(["map-check", "-"], jsonl(spinors))
    assert [record.pop("index") for record in together] == list(range(len(spinors)))
    for psi, record in zip(spinors, together):
        _, (alone,) = run_main(["map-check", "-"], jsonl([psi]))
        assert alone.pop("index") == 0
        assert json.dumps(record) == json.dumps(alone)


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_r4_each_map_check_record_of_a_mixed_chunk_is_its_record_alone(seed):
    assert_r4(corpus(seed))


def benchmark_corpus(seed):
    """The records of ``perfbench/corpus.py``'s corpus for ``seed``: 2,000, ten of them zero."""
    if "benchmark_corpus" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("benchmark_corpus", path)
        # registered before it runs: its dataclass looks its module up there
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    text = sys.modules["benchmark_corpus"].make_corpus(seed, 2000).text
    return [json.loads(line) for line in text.splitlines()]


def spinor_of(record):
    return SpinorC4(np.array([complex(re, im) for re, im in record["components"]]), record["rep"])


def record_of(psi):
    return {"components": [[z.real, z.imag] for z in psi.components.tolist()], "rep": psi.rep}


def in_other_rep(record):
    psi = spinor_of(record)
    return record_of(psi.in_rep(REP_TAGS[1 - REP_TAGS.index(psi.rep)]))


R5_UNCHANGED = ("class", "witness", "marginal", "error_kind")
R5_EPS = 4  # covariants agree within R5_EPS * eps * J^0


def assert_r5(records):
    texts = ["".join(json.dumps(r) + "\n" for r in rs) for rs in (records, map(in_other_rep, records))]
    for command in ("classify", "map-check"):
        # at the CLI's own chunk size: 2,000 records still cross seven seams
        (code, plain), (moved_code, moved) = (run_main([command, "-"], t, cli._CHUNK) for t in texts)
        assert code == moved_code and len(plain) == len(records)
        for a, b in zip(plain, moved, strict=True):
            if command == "map-check":
                assert (a["mappability"] or {}).get("class") == (b["mappability"] or {}).get("class")
                continue
            assert [a.get(f) for f in R5_UNCHANGED] == [b.get(f) for f in R5_UNCHANGED], a["index"]
            if "bilinears" in a:
                gap = np.max(np.abs(numbers(a["bilinears"]) - numbers(b["bilinears"])))
                assert gap <= R5_EPS * np.finfo(float).eps * a["bilinears"]["J"][0], a["index"]


@pytest.mark.parametrize("seed", range(4))
def test_r5_the_other_representation_keeps_each_class_and_the_covariants(seed):
    assert_r5(benchmark_corpus(seed))


R6_UNCHANGED = ("class", "witness", "error_kind")
R6_SKIPPED = 0  # records marginal in either run, on each of the seed 0-3 corpora


def lorentz_moved(records, seed):
    """Each record moved by its own seeded Lorentz spin matrix, in the record's representation."""
    rng = np.random.default_rng(seed)
    moved = []
    for record in records:
        generators = [(LORENTZ_PLANES[rng.integers(6)], rng.uniform(-1.0, 1.0))
                      for _ in range(rng.integers(1, 5))]
        psi = spin_matrix(record["rep"], generators) @ [complex(*z) for z in record["components"]]
        moved.append({"components": [[z.real, z.imag] for z in psi.tolist()], "rep": record["rep"]})
    return moved


def assert_r6(records, seed):
    texts = ["".join(json.dumps(r) + "\n" for r in rs) for rs in (records, lorentz_moved(records, seed))]
    (code, plain), (moved_code, moved) = (run_main(["classify", "-"], t, cli._CHUNK) for t in texts)
    assert code == moved_code and len(plain) == len(moved) == len(records)
    skipped = 0
    for a, b in zip(plain, moved):
        if a.get("marginal") or b.get("marginal"):
            skipped += 1
            continue
        assert [a.get(f) for f in R6_UNCHANGED] == [b.get(f) for f in R6_UNCHANGED], a["index"]
    return skipped


@pytest.mark.parametrize("seed", range(4))
def test_r6_a_lorentz_transformation_keeps_each_class_and_witness(seed):
    assert assert_r6(benchmark_corpus(seed), seed) == R6_SKIPPED


def assert_r7(records):
    text = "".join(json.dumps(r) + "\n" for r in records)
    for command in ("classify", "hopf"):
        (code, whole), (alone_code, alone) = (run_stdout([command, "-"], text, chunk)
                                              for chunk in (cli._CHUNK, 1))
        assert (code, len(whole.splitlines())) == (alone_code, len(records)), command
        assert whole == alone, command


@pytest.mark.parametrize("seed", range(4))
def test_r7_bytes_do_not_depend_on_where_a_chunk_is_cut(seed):
    assert_r7(benchmark_corpus(seed))


def charge_conjugate(psi):
    return importlib.import_module("spinorlab.elko").charge_conjugation(psi)


def parity(psi):
    return SpinorC4(gamma_rep(psi.rep).upper[0] @ psi.components, psi.rep)


# covariants agree within SYMMETRY_EPS * eps * J^0 where they are not bit equal (at most
# 1.9 eps J^0 under C and under P on the seed 0-3 corpora)
SYMMETRY_EPS = 4
UNCHANGED_BY_C_AND_P = ("class", "witness", "marginal", "error_kind")
R8_SIGNS = np.array([-1.0] + [1.0] * 10 + [-1.0] * 5)  # -sigma, J, S, -K, -omega
R9_SIGNS = np.array([1.0,  # sigma
                     1, -1, -1, -1,  # J^0, J^i
                     -1, -1, -1, 1, 1, 1,  # S^0i, S^ij
                     -1, 1, 1, 1,  # K^0, K^i
                     -1])  # omega


def assert_symmetry(spinors, move, signs, exact_in=()):
    """``classify`` of each spinor and of ``move(spinor)``: the same verdicts, covariants times ``signs``."""
    texts = ["".join(json.dumps(record_of(psi)) + "\n" for psi in ps)
             for ps in (spinors, map(move, spinors))]
    (code, plain), (moved_code, moved) = (run_main(["classify", "-"], t, cli._CHUNK) for t in texts)
    assert code == moved_code and len(plain) == len(moved) == len(spinors)
    for psi, a, b in zip(spinors, plain, moved):
        assert [a.get(f) for f in UNCHANGED_BY_C_AND_P] == [b.get(f) for f in UNCHANGED_BY_C_AND_P], a["index"]
        if "bilinears" in a:
            want, got = signs * numbers(a["bilinears"]), numbers(b["bilinears"])
            if psi.rep in exact_in:
                assert np.array_equal(got, want), a["index"]
            else:
                gap = np.max(np.abs(got - want))
                assert gap <= SYMMETRY_EPS * np.finfo(float).eps * a["bilinears"]["J"][0], a["index"]


def assert_r8(records):
    spinors = [spinor_of(record).in_rep("chiral") for record in records]
    assert_symmetry(spinors, charge_conjugate, R8_SIGNS)


@pytest.mark.parametrize("seed", range(4))
def test_r8_charge_conjugation_keeps_each_class_and_flips_sigma_k_and_omega(seed):
    assert_r8(benchmark_corpus(seed))


def assert_r9(records):
    spinors = [spinor_of(record) for record in records]
    assert {psi.rep for psi in spinors} == set(REP_TAGS)
    assert_symmetry(spinors, parity, R9_SIGNS, exact_in=("standard",))


@pytest.mark.parametrize("seed", range(4))
def test_r9_parity_keeps_each_class_and_reflects_the_covariants(seed):
    assert_r9(benchmark_corpus(seed))


# ---- each relation fails on a fault in what it covers -------------------------


def _threshold_from_the_chunks_largest_j0(mp):  # zero tests against tol * max J^0 of the block
    magnitudes = cli.magnitude_array

    def faulty(cov):
        out = magnitudes(cov)
        j0 = np.asarray(cov)[:, 1]
        out[:, 0] *= j0.max() / np.where(j0 > 0, j0, 1.0)
        return out

    mp.setattr(cli, "magnitude_array", faulty)


def _re_formed_without_the_conjugate(mp):  # Re(psi_i* psi_j) as a_i a_j - b_i b_j
    routes = mapping.condition_routes

    # each residual is linear in the Re and Im terms, and with a = 0 the Re terms are
    # b_i b_j and the Im terms 0: subtracting twice those residuals flips the b_i b_j sign
    def faulty(a, b):
        return tuple([x - 2.0 * y for x, y in zip(route, b_only)]
                     for route, b_only in zip(routes(a, b), routes([0.0] * 4, b)))

    mp.setattr(mapping, "condition_routes", faulty)


def _csv_read_as_four_re_then_four_im(mp):  # the columns taken in split, not interleaved, order
    read = cli._read_csv
    mp.setattr(cli, "_read_csv",
               lambda lines, rep: ((v[0::2] + v[1::2], r, label) for v, r, label in read(lines, rep)))


def _rows_filled_from_the_end_of_their_block(mp):  # each block's fields in reverse row order
    block = cli._map_check_block
    mp.setattr(cli, "_map_check_block", lambda components, rep, tol: block(components, rep, tol)[::-1])


def _similarity_with_one_sign_flipped(mp):  # the chiral <-> standard map, one entry negated
    module = importlib.import_module("spinorlab.bilinears")  # the package's name is the function
    flipped = module.SIMILARITY.copy()
    flipped[0, 2] *= -1
    mp.setattr(module, "SIMILARITY", flipped)


def _a_matrix_outside_the_spin_group(mp):  # psi_1 doubled: not a Lorentz transformation
    mp.setattr(sys.modules[__name__], "spin_matrix", lambda rep, generators: np.diag([2.0, 1, 1, 1]))


def _one_row_covariants_moved_by_one_ulp(mp):  # a one-row block's bits differ from a block's
    covariants = cli.covariant_array

    def faulty(components, rep):
        out = covariants(components, rep)
        return np.nextafter(out, np.inf) if len(out) == 1 else out

    mp.setattr(cli, "covariant_array", faulty)


def _charge_conjugation_without_the_complex_conjugate(mp):  # C psi taken as -gamma^2 psi
    g2 = gamma_rep("chiral").upper[2]
    mp.setattr(importlib.import_module("spinorlab.elko"), "charge_conjugation",
               lambda psi: SpinorC4(-g2 @ psi.components, "chiral"))


def _parity_by_gamma_1(mp):  # psi -> gamma^1 psi: a reflection of one axis, not of space
    mp.setattr(sys.modules[__name__], "parity",
               lambda psi: SpinorC4(gamma_rep(psi.rep).upper[1] @ psi.components, psi.rep))


RELATION_FAULTS = {
    "R1": (_threshold_from_the_chunks_largest_j0,
           lambda spinors: assert_r1(spinors, accepted_range(spinors)[0])),
    "R2": (_re_formed_without_the_conjugate, assert_r2),
    "R3": (_csv_read_as_four_re_then_four_im, assert_r3),
    "R4": (_rows_filled_from_the_end_of_their_block, assert_r4),
    "R5": (_similarity_with_one_sign_flipped, lambda spinors: assert_r5(benchmark_corpus(0)[:200])),
    "R6": (_a_matrix_outside_the_spin_group, lambda spinors: assert_r6(benchmark_corpus(0)[:200], 0)),
    "R7": (_one_row_covariants_moved_by_one_ulp, lambda spinors: assert_r7(benchmark_corpus(0)[:200])),
    "R8": (_charge_conjugation_without_the_complex_conjugate,
           lambda spinors: assert_r8(benchmark_corpus(0)[:200])),
    "R9": (_parity_by_gamma_1, lambda spinors: assert_r9(benchmark_corpus(0)[:200])),
}


@pytest.mark.parametrize("relation", list(RELATION_FAULTS))
def test_each_relation_fails_on_a_fault_in_what_it_covers(relation, monkeypatch):
    fault, check = RELATION_FAULTS[relation]
    spinors = corpus(5)
    check(spinors)
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check(spinors)
