"""Command line interface: record formats, exit codes, determinism."""

import importlib
import io
import contextlib
import itertools
import json
import math
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import class_spinor, map_check_decades, mixed_spinors
from oracles import (
    per_sample_suite_fierz,
    per_sample_suite_hopf,
    per_sample_suite_mapping,
    per_sample_suite_projectors,
    scalar_map_check_record,
)
from spinorlab import SpinorC4, cli, verify
from spinorlab.algebra import hamilton_product


# the CLI as a fresh interpreter runs it: ``python -m spinorlab.cli``, the package from this tree,
# and stdout block-buffered as it is by default, so a byte left unflushed at exit would be lost
CHILD = [sys.executable, "-m", "spinorlab.cli"]
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def spinor_record(components, **extra):
    rec = {"components": [[c.real, c.imag] for c in map(complex, components)]}
    rec.update(extra)
    return rec


def test_classify_emits_one_json_record_per_spinor(tmp_path, capsys):
    path = tmp_path / "spinors.jsonl"
    write_jsonl(
        path,
        [
            spinor_record([1, 0, 0, 0], rep="standard", label="rest"),
            spinor_record([0, 1j, 1, 0], rep="chiral"),
        ],
    )
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["class"] for r in records] == [2, 5]
    first = records[0]
    assert first["index"] == 0
    assert first["label"] == "rest"
    assert first["regular"] is True
    assert first["singular"] is False
    assert first["boomerang"] is True
    assert first["error"] is None
    assert first["bilinears"]["sigma"] == pytest.approx(1.0)
    assert first["bilinears"]["J"] == pytest.approx([1.0, 0, 0, 0])
    assert max(first["fierz_residuals"]) < 1e-12
    assert list(first) == [
        "index",
        "label",
        "class",
        "regular",
        "singular",
        "marginal",
        "marginal_fields",
        "witness",
        "bilinears",
        "fierz_residuals",
        "boomerang",
        "error",
    ]


def test_classify_reads_csv_with_a_header(tmp_path, capsys):
    path = tmp_path / "spinors.csv"
    path.write_text(
        "re1,im1,re2,im2,re3,im3,re4,im4\n"
        "1,0,0,0,0,0,0,0\n"
        "0,0,0,1,1,0,0,0\n"
    )
    code, out, _ = run(["classify", str(path), "--rep", "chiral", "--json"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["class"] for r in records] == [6, 5]


def test_classify_table_output(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    write_jsonl(path, [spinor_record([1, 0, 0, 0], rep="standard")])
    code, out, _ = run(["classify", str(path), "--table"], capsys)
    assert code == 0
    assert "class" in out.splitlines()[0]
    assert " 2 " in out.splitlines()[1]


@pytest.mark.parametrize("label, shown", [
    ("elko:self:rest", "elko:self:rest"), ("two words", "two words"), ("", ""), (None, ""),
    ("a\nb", '"a\\nb"'), ("tab\there", '"tab\\there"'), (0, "0"), (False, "false"),
    (["x", 1], '["x", 1]'), ({"k": None}, '{"k": null}'),
], ids=["text", "spaces", "empty", "null", "newline", "tab", "zero", "false", "list", "object"])
def test_classify_table_rows_show_every_label_on_their_one_line(tmp_path, capsys, label, shown):
    path = tmp_path / "two.jsonl"
    write_jsonl(path, [spinor_record(GENERIC), spinor_record(GENERIC, label=label)])
    code, out, _ = run(["classify", str(path), "--table"], capsys)
    _, unlabelled, labelled = out.splitlines()  # the header, then one row per record
    assert code == 0 and labelled == unlabelled.replace("   0 ", "   1 ", 1) + shown


def test_classify_flags_the_zero_spinor_and_exits_two(tmp_path, capsys):
    path = tmp_path / "zero.jsonl"
    write_jsonl(path, [spinor_record([0, 0, 0, 0]), spinor_record([1, 0, 0, 0])])
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["class"] is None
    assert records[0]["error_kind"] == "null-spinor"
    assert records[1]["class"] is not None


def test_classify_empty_input_is_not_an_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    assert code == 0
    assert out == ""


def test_classify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"components": [[1,0],[0,0],[0,0]]}\n')
    code, _, err = run(["classify", str(path), "--json"], capsys)
    assert code == 1
    assert "spinorlab:" in err


def test_classify_reads_stdin(tmp_path, capsys, monkeypatch):
    line = json.dumps(spinor_record([0, 0, 1, 0], rep="chiral"))
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, _ = run(["classify", "-", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == 6


def test_make_rest_eigenspinor_defaults(capsys):
    code, out, _ = run(["make", "elko"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["rep"] == "chiral"
    assert rec["label"] == "elko:self:rest"
    np.testing.assert_allclose(
        [complex(re, im) for re, im in rec["components"]], [0, 1j, 1, 0], atol=1e-15
    )


def test_make_boosted_eigenspinor_scales_by_the_pair_factor(capsys):
    code, out, _ = run(
        ["make", "elko", "--p", "0,0,0.75", "--m", "1.0", "--helicity", "+"], capsys
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["label"] == "elko:self:-+"
    assert rec["momentum"] == [0.0, 0.0, 0.75]
    comps = np.array([complex(re, im) for re, im in rec["components"]])
    np.testing.assert_allclose(
        comps, np.array([0, 1j, 1, 0]) / np.sqrt(2), atol=1e-14
    )


def test_make_boosted_eigenspinor_rejects_explicit_weyl_components(capsys):
    code, _, err = run(
        ["make", "elko", "--p", "0,0,0.75", "--m", "1.0", "--alpha", "1"], capsys
    )
    assert code == 1
    assert "alpha" in err


def test_make_dirac_phase_label_and_class(capsys):
    code, out, _ = run(
        ["make", "dirac", "--phi", "1,0", "--delta", "0.7", "--p", "0.3,-0.2,0.5"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["label"] == "dirac:delta=0.7"
    assert rec["mass"] == 1.0


def test_make_majorana_emits_both_parts(capsys):
    code, out, _ = run(["make", "majorana", "--part", "both"], capsys)
    assert code == 0
    labels = [json.loads(line)["label"] for line in out.splitlines()]
    assert labels == ["majorana:+", "majorana:-"]
    # a charge-conjugation eigenspinor has one nonzero part, which --part writes alone
    for seed, part, label in (("0,1j,1,0", "plus", "majorana:+"), ("0,-1j,1,0", "minus", "majorana:-")):
        code, out, err = run(["make", "majorana", "--xi", seed, "--part", part], capsys)
        assert (code, err, len(out.splitlines())) == (0, "", 1)
        assert json.loads(out)["label"] == label


def test_make_flagdipole_requires_a_direction(capsys):
    code, _, err = run(["make", "flagdipole"], capsys)
    assert code == 1
    assert "--u" in err


def test_make_then_classify_pipeline(tmp_path, capsys):
    path = tmp_path / "made.jsonl"
    code, _, _ = run(
        ["make", "flagdipole", "--u", "0.3,0.4,0.866025403784", "--output", str(path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == 4


@pytest.mark.parametrize("extreme, plain", [
    ("1e-200,0,0", "1,0,0"), ("1e200,0,1e200", "1,0,1"), ("1e-160,0,1e-160", "1,0,1"),
])
def test_make_flagdipole_takes_any_finite_nonzero_direction(extreme, plain, capsys, monkeypatch):
    code, out, err = run(["make", "flagdipole", "--u", extreme], capsys)
    assert (code, err) == (0, "")
    _, plain_out, _ = run(["make", "flagdipole", "--u", plain], capsys)
    got, want = json.loads(out), json.loads(plain_out)
    assert (got["label"], got["rep"]) == (want["label"], want["rep"])
    # the same direction up to rounding: 1e-160 and 1 have different mantissas
    np.testing.assert_allclose(got["components"], want["components"], rtol=1e-15, atol=0)
    if extreme != "1e-160,0,1e-160":
        assert out == plain_out
    # the extreme row and the same row moved by a power of two into [4, 8) give the same line
    values = [float(x) for x in extreme.split(",")]
    shift = 3 - math.frexp(max(map(abs, values)))[1]
    ordinary = ",".join(repr(math.ldexp(x, shift)) for x in values)
    assert run(["make", "flagdipole", "--u", ordinary], capsys)[1] == out
    classes = []
    for text in (out, plain_out):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, record, _ = run(["classify", "-", "--json"], capsys)
        classes.append((code, json.loads(record)["class"]))
    assert classes[0] == classes[1] == (0, 5 if plain == "1,0,0" else 4)


@pytest.mark.parametrize("argv, label", [
    (["elko", "--alpha", "1e-9"], 5),
    (["elko", "--alpha", "0", "--beta", "1e-9j"], 5),
    (["weyl", "--phi", "1e-9,0"], 6),
    (["weyl", "--phi", "0,1e-30", "--chirality", "right"], 6),
])
def test_make_builds_on_tiny_two_spinors(argv, label, capsys, monkeypatch):
    # only the zero 2-spinor is refused: classify accepts a norm down to about 1.2e-77
    code, out, _ = run(["make", *argv], capsys)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(["classify", "-", "--json"], capsys)
    assert (code, json.loads(out)["class"]) == (0, label)


@pytest.mark.parametrize("suite", ["fierz", "hopf", "projectors", "mapping"])
def test_verify_suites_pass(suite, capsys):
    code, out, _ = run(["verify", suite, "--samples", "40", "--seed", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("ok suite=")


def test_verify_json_output_is_deterministic(capsys):
    code1, out1, _ = run(["verify", "fierz", "--samples", "25", "--seed", "7", "--json"], capsys)
    code2, out2, _ = run(["verify", "fierz", "--samples", "25", "--seed", "7", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.splitlines():
        rec = json.loads(line)
        assert rec["pass"] is True


def test_hopf_reports_include_the_instanton_block(tmp_path, capsys):
    path = tmp_path / "unit.jsonl"
    s = 1 / np.sqrt(2)
    write_jsonl(path, [spinor_record([s, 0, 1j * s, 0], rep="standard")])
    code, out, _ = run(["hopf", str(path), "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["instanton"]["on_unit_sphere"] is True
    assert rec["norm_identity_residual_quaternion"] < 1e-12
    assert rec["sigma_swap_gap"]["quaternion_sigma_vs_direct_J0"] < 1e-12


def test_map_check_reports_conditions_and_rejects_singular_inputs(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    write_jsonl(
        path,
        [
            spinor_record([1, 0, 0, 0], rep="standard", label="mappable"),
            spinor_record([0, 1j, 1, 0], rep="chiral", label="flagpole"),
        ],
    )
    code, out, _ = run(["map-check", str(path), "--json"], capsys)
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["mappability"] == {"class": 2, "1": True, "2": True, "3": True}
    assert second["mappability"] is None
    assert "class 5" in second["note"]


def test_output_flag_writes_the_file_verbatim(tmp_path, capsys):
    target = tmp_path / "out.jsonl"
    code, out, _ = run(["make", "weyl", "--phi", "1,0", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    rec = json.loads(target.read_text())
    assert rec["label"] == "weyl:left"


def test_unknown_subcommand_exits_nonzero(capsys):
    assert cli.main(["frobnicate"]) != 0


def test_hopf_reports_a_zero_spinor_without_aborting_the_batch(tmp_path, capsys):
    path = tmp_path / "zero_then_unit.jsonl"
    write_jsonl(path, [spinor_record([0, 0, 0, 0], label="zero"), spinor_record([1, 0, 0, 0])])
    code, out, _ = run(["hopf", str(path), "--json"], capsys)
    assert code == 2
    first, second = (json.loads(line) for line in out.splitlines())
    assert list(first) == ["index", "label", "error", "error_kind"]
    assert first["error_kind"] == "null-spinor"
    assert second["index"] == 1 and "error" not in second
    assert second["instanton"]["on_unit_sphere"] is True


def test_map_check_notes_a_null_spinor_and_exits_zero(tmp_path, capsys):
    path = tmp_path / "zero.jsonl"
    write_jsonl(path, [spinor_record([0, 0, 0, 0])])
    code, out, _ = run(["map-check", str(path), "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["mappability"] is None
    assert "zero spinor" in rec["note"]


def test_hopf_table_output(tmp_path, capsys):
    path = tmp_path / "zero_then_unit.jsonl"
    write_jsonl(path, [spinor_record([0, 0, 0, 0]), spinor_record([1, 0, 0, 0])])
    code, out, _ = run(["hopf", str(path), "--table"], capsys)
    assert code == 2
    assert out.splitlines() == [
        "   0 the zero column has no image point",
        "   1 sigma_q=1 norm_residual=0.00e+00 route_gap=1.00e+00",
    ]


def test_map_check_table_output(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    write_jsonl(
        path,
        [
            spinor_record([1, 0, 0, 0], rep="standard", label="mappable"),
            spinor_record([0, 1j, 1, 0], rep="chiral", label="flagpole"),
        ],
    )
    code, out, _ = run(["map-check", str(path), "--table"], capsys)
    assert code == 0
    first, second = out.splitlines()
    assert first == "   0 shared_max=0.00e+00 ad2=0.00e+00 ad3=0.00e+00 "
    assert second.startswith("   1 shared_max=") and "class 5" in second


def map_check_spinors(seed=98):
    """Spinors from 1e-70 to 1e35 in both reps, with zero and signed-zero parts, then the
    six classes, the three mapping witnesses and the zero spinor."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((424, 4)) + 1j * rng.standard_normal((424, 4))
    v *= np.repeat(10.0 ** np.arange(-70, 36), 4)[:, None]
    v[rng.random(v.shape) < 0.15] = 0.0
    v.real[rng.random(v.shape) < 0.1] = -0.0
    v.imag[rng.random(v.shape) < 0.1] = -0.0
    spinors = [SpinorC4(c, rep) for c, rep in zip(v, itertools.cycle(("standard", "chiral")))]
    spinors += [psi for _, psi in mixed_spinors(rng, 60)]
    witnesses = ([2, 0, 1j, 0], [1, 0, 0, 0], [1j, 1j, 1, 1], [0, 0, 0, 0])
    return spinors + [SpinorC4(c, "standard") for c in witnesses]


def map_check_against_the_oracle(tmp_path, capsys, spinors, tol):
    """Run ``map-check --json`` on labelled and unlabelled records; compare each line to the oracle."""
    labels = [f"s{k}" if k % 3 == 0 else None for k in range(len(spinors))]
    path = tmp_path / "spinors.jsonl"
    write_jsonl(path, [spinor_record(psi.components, rep=psi.rep, **({"label": lab} if lab else {}))
                       for psi, lab in zip(spinors, labels)])
    code, out, err = run(["map-check", str(path), "--json", "--tol", repr(tol)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(spinors)
    records = []
    for k, (line, psi, lab) in enumerate(zip(lines, spinors, labels)):
        record = {"index": k, **({"label": lab} if lab else {}), **scalar_map_check_record(psi, tol)}
        assert line == json.dumps(record)
        records.append(record)
    return records


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.95])
def test_map_check_records_are_the_per_spinor_oracle_byte_for_byte(tmp_path, capsys, monkeypatch,
                                                                  tol, chunk):
    if chunk:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    spinors = map_check_spinors() + map_check_decades()
    records = map_check_against_the_oracle(tmp_path, capsys, spinors, tol)
    notes = {r.get("note", "").partition(";")[0] for r in records}
    verdicts = {r["mappability"][k] for r in records if r["mappability"] for k in "123"}
    assert {"", "all bilinear covariants vanish"} <= notes and verdicts == {True, False}
    if tol < 0.9:
        assert {f"spinor is class {label}" for label in (4, 5, 6)} <= notes
    else:  # the threshold reads the flagpoles' current as alone
        assert any(note.startswith("sigma = omega = 0 with K = S = 0") for note in notes)


def test_map_check_a_shared_residual_at_the_threshold_passes(tmp_path, capsys):
    psi = SpinorC4([1, 0, 2.0**-20, 0], "standard")
    tol = 2.0**-20 - 2.0**-60
    # |psi|^2 = 1 + 2^-40 exactly, and tol |psi|^2 rounds to the residual Re(psi_1* psi_3) = 2^-20
    assert tol * (1 + 2.0**-40) == 2.0**-20
    at, = map_check_against_the_oracle(tmp_path, capsys, [psi], tol)
    below, = map_check_against_the_oracle(tmp_path, capsys, [psi], float(np.nextafter(tol, 0.0)))
    assert at["shared_residuals"][0] == 2.0**-20
    assert (at["mappability"]["2"], below["mappability"]["2"]) == (True, False)


def test_non_numeric_mass_and_momentum_are_ignored(tmp_path, capsys):
    path = tmp_path / "extra.jsonl"
    write_jsonl(path, [spinor_record([1, 0, 0, 0], rep="standard", mass="heavy", momentum="x")])
    for command in ("classify", "hopf", "map-check"):
        code, out, _ = run([command, str(path), "--json"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert "mass" not in rec and "momentum" not in rec


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_components_are_malformed_input(tmp_path, capsys, entry):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"components": [[1, 0], [0, %s], [0, 0], [0, 0]]}\n' % entry)
    for command in ("classify", "hopf", "map-check"):
        code, out, err = run([command, str(path), "--json"], capsys)
        assert (code, out) == (1, "")
        assert "line 1: non-finite component" in err


@pytest.mark.parametrize("entry", ['"1_0"', '"1e5"', '"nan"', "true", "false"])
def test_json_components_that_are_not_json_numbers_are_malformed_input(tmp_path, capsys, entry):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"components": [[1, 0], [0, %s], [0, 0], [0, 0]]}\n' % entry)
    for command in ("classify", "hopf", "map-check"):
        code, out, err = run([command, str(path), "--json"], capsys)
        assert (code, out, err) == (1, "", "spinorlab: line 1: non-numeric component entry\n")


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_csv_components_are_malformed_input(tmp_path, capsys, entry):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,0,0,0,0,0,0,0\n1,0,{entry},0,0,0,0,0\n")
    for command in ("classify", "hopf", "map-check"):
        code, out, err = run([command, str(path), "--json"], capsys)
        assert (code, out) == (1, "")
        assert "row 2: non-finite component" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_fewer_than_one_sample(capsys, samples):
    code, out, err = run(["verify", "fierz", "--samples", samples], capsys)
    assert (code, out) == (1, "")
    assert "--samples" in err


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(["verify", "fierz", "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: spinorlab verify ")
    assert err.endswith("spinorlab verify: error: argument --seed: must be at least 0, got -1\n")


@pytest.mark.parametrize("tol", ["0.9", "1", "2", "1e10"])
def test_verify_mapping_fails_its_witnesses_at_a_tolerance_near_1_or_above(capsys, tol):
    # the tolerance reads a regular witness as singular, so mappability refuses it
    code, out, err = run(["verify", "mapping", "--samples", "50", "--tol", tol, "--json"], capsys)
    checks = {row["check"]: row["pass"] for row in map(json.loads, out.splitlines())}
    assert (code, err) == (2, "")
    assert checks["constructed_families_pass"] is False


RECORD_OPTIONS = {"-h", "--help", "--rep", "--tol", "--json", "--table", "--output"}
HELP_OPTIONS = {
    "classify": RECORD_OPTIONS,
    "hopf": RECORD_OPTIONS,
    "map-check": RECORD_OPTIONS,
    "verify": {"-h", "--help", "--samples", "--seed", "--tol", "--json", "--table", "--output"},
    "make": {
        "-h", "--help", "--alpha", "--beta", "--conjugacy", "--helicity", "--xi", "--part",
        "--phi", "--chirality", "--p", "--m", "--epsilon", "--delta", "--u", "--output",
    },
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_each_subcommands_options(command, capsys):
    code, out, _ = run([command, "--help"], capsys)
    assert code == 0
    options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))
    assert options == HELP_OPTIONS[command]


MAX_NORM = np.finfo(float).max ** 0.125  # about 3.4e38
GENERIC = np.array([1.0, 0.5j, -0.3, 0.2 + 0.1j])


@pytest.mark.parametrize("norm", [1e40, 1e77, 1e154, 1e200])
def test_spinor_norms_above_the_bound_are_malformed_input(tmp_path, capsys, norm):
    for components in ([norm, 0, 0, 0], GENERIC * (norm / np.linalg.norm(GENERIC))):
        path = tmp_path / "huge.jsonl"
        write_jsonl(path, [spinor_record([1, 0, 0, 0]), spinor_record(components)])
        for command in ("classify", "map-check", "hopf"):
            code, out, err = run([command, str(path), "--json"], capsys)
            assert (code, out) == (1, "")
            assert "line 2: spinor norm above 3.4e+38 is out of range" in err


MIN_NORM = np.finfo(float).tiny ** 0.25  # about 1.2e-77


@pytest.mark.parametrize("norm", [1e-78, 1e-80, 1e-160, 1e-300])
def test_nonzero_spinor_norms_below_the_floor_are_malformed_input(tmp_path, capsys, norm):
    for components in ([norm, 0, 0, 0], GENERIC * (norm / np.linalg.norm(GENERIC))):
        path = tmp_path / "tiny.jsonl"
        write_jsonl(path, [spinor_record([1, 0, 0, 0]), spinor_record(components)])
        for command in ("classify", "map-check", "hopf"):
            code, out, err = run([command, str(path), "--json"], capsys)
            assert (code, out) == (1, "")
            assert "line 2: nonzero spinor norm below 1.22e-77 is out of range" in err


def test_records_keep_their_verdicts_down_to_the_norm_floor(tmp_path, capsys):
    # all six classes in both representations, a flag-dipole whose K is a few
    # percent of S, and regular spinors that meet the mapping conditions
    spinors = [psi for _, psi in mixed_spinors(np.random.default_rng(66), 24)]
    spinors.append(class_spinor(np.random.default_rng(2), 4))
    spinors += [SpinorC4(comp, "standard") for comp in
                (GENERIC, [2, 0, 1j, 0], [1 + 0.4j, 0.5 + 0.2j, 0, 0], [0.8j, 1.04j, 1, 1.3])]
    verdicts = []
    for norm in (1.0, 1e-6, 1.001 * MIN_NORM):
        records = [
            spinor_record(psi.components * (norm / np.linalg.norm(psi.components)), rep=psi.rep)
            for psi in spinors
        ]
        path = tmp_path / "scaled.jsonl"
        write_jsonl(path, records)
        outputs = {}
        for command in ("classify", "map-check", "hopf"):
            code, out, _ = run([command, str(path), "--json"], capsys)
            assert code == 0
            outputs[command] = [json.loads(line) for line in out.splitlines()]
        verdicts.append(
            (
                [(r["class"], r["witness"], r["marginal_fields"]) for r in outputs["classify"]],
                [r["mappability"] for r in outputs["map-check"]],
            )
        )
    assert {4, 5, 6} <= {label for label, _, _ in verdicts[0][0]}
    assert {"1": True, "2": True, "3": True, "class": 1} in verdicts[0][1]
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]


@pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
def test_classify_writes_every_record_at_a_tolerance_below_the_rounding_noise(tmp_path, capsys, tol):
    # verdicts may follow rounding noise down there, but every record is written
    spinors = [psi for _, psi in mixed_spinors(np.random.default_rng(99), 600)]
    path = tmp_path / "spinors.jsonl"
    write_jsonl(path, [spinor_record(psi.components, rep=psi.rep) for psi in spinors])
    code, out, err = run(["classify", str(path), "--tol", tol], capsys)
    assert code in (0, 2) and err == ""
    assert [json.loads(line)["index"] for line in out.splitlines()] == list(range(len(spinors)))


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in the output")


def test_spinor_norms_just_below_the_bound_give_finite_records(tmp_path, capsys):
    rng = np.random.default_rng(64)
    records = [spinor_record([0.999 * MAX_NORM, 0, 0, 0])]
    for n in range(6):
        comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        comp *= 0.999 * MAX_NORM / np.linalg.norm(comp)
        records.append(spinor_record(comp, rep=("chiral", "standard")[n % 2]))
    path = tmp_path / "large.jsonl"
    write_jsonl(path, records)
    for command in ("classify", "map-check", "hopf"):
        code, out, _ = run([command, str(path), "--json"], capsys)
        assert code == 0
        lines = [json.loads(line, parse_constant=_reject_non_finite) for line in out.splitlines()]
        assert len(lines) == len(records)
        if command == "classify":
            assert all(rec["boomerang"] is True for rec in lines)


def test_hopf_gives_a_tiny_column_its_image_point(tmp_path, capsys):
    # the exact zero column is still an error: see the zero-spinor batch test above
    path = tmp_path / "tiny.jsonl"
    write_jsonl(path, [spinor_record([1e-9, 0, 0, 0])])
    code, out, _ = run(["hopf", str(path), "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert "error" not in rec
    assert rec["instanton"]["sigma_component_route"] == pytest.approx(1e-18)


def test_boomerang_fails_when_the_covariants_miss_four_psi_psibar(tmp_path, capsys, monkeypatch):
    path = tmp_path / "generic.jsonl"
    write_jsonl(path, [spinor_record(GENERIC)])
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    assert (code, json.loads(out)["boomerang"]) == (0, True)

    exact = cli.covariant_array

    def shifted(components, rep):
        cov = exact(components, rep)
        cov[:, 0] += 1e-6 * cov[:, 1]  # sigma moved by 1e-6 J^0
        return cov

    monkeypatch.setattr(cli, "covariant_array", shifted)
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    rec = json.loads(out)
    assert (code, rec["class"], rec["error"]) == (0, 1, None)
    assert rec["boomerang"] is False


def test_verify_fierz_prints_four_passing_checks(capsys):
    code, out, _ = run(["verify", "fierz", "--samples", "50", "--seed", "3", "--json"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["check"] for rec in records] == [
        "quadratic_identities",
        "aggregate_equals_4_psi_psibar",
        "generalized_identities",
        "reconstruction_roundtrip",
    ]
    assert all(rec["pass"] is True for rec in records)


def assert_blocked_suite_prints_the_oracle_bytes(suite, oracle, sample_counts, seed, tol,
                                                 capsys, monkeypatch):
    for samples in sample_counts:
        argv = ["verify", suite, "--samples", str(samples), "--seed", str(seed)]
        argv += ["--tol", tol] if tol else []
        got = [run([*argv, fmt], capsys) for fmt in ("--json", "--table")]
        results = oracle(verify._SampleStream(seed), samples, float(tol or 1e-10))
        with monkeypatch.context() as patch:
            patch.setattr(verify, f"_suite_{suite}", lambda seed, n, t: results)
            want = [run([*argv, fmt], capsys) for fmt in ("--json", "--table")]
        assert got == want, samples


@pytest.mark.parametrize("seed, tol", [(1, None), (4, None), (4, "1e-6")])
def test_blocked_verify_fierz_prints_the_per_sample_suite_bytes(seed, tol, capsys, monkeypatch):
    block = verify._VERIFY_BLOCK
    counts = (1, 2, block - 1, block, block + 1, 2 * block + 3, 1000)
    assert_blocked_suite_prints_the_oracle_bytes("fierz", per_sample_suite_fierz, counts, seed, tol,
                                                 capsys, monkeypatch)


@pytest.mark.parametrize("tol", [None, "1e-6"])
@pytest.mark.parametrize("seed", [2, 5])
def test_blocked_verify_hopf_prints_the_per_sample_suite_bytes(seed, tol, capsys, monkeypatch):
    block = verify._VERIFY_BLOCK
    counts = (1, block - 1, block, block + 1, 200, 1000)
    assert_blocked_suite_prints_the_oracle_bytes("hopf", per_sample_suite_hopf, counts, seed, tol,
                                                 capsys, monkeypatch)


@pytest.mark.parametrize("seed, tol", [(1, None), (4, "1e-6")])
def test_blocked_verify_projectors_prints_the_per_sample_suite_bytes(seed, tol, capsys, monkeypatch):
    # 1-11 and 99-100 requested samples run the floor of 10; 639, 641 and 1000 run
    # 63, 64 and 100, the last across a block seam
    block = verify._VERIFY_BLOCK
    counts = (1, 9, 10, 11, 99, 100, 10 * block - 1, 10 * block + 1, 1000)
    assert_blocked_suite_prints_the_oracle_bytes("projectors", per_sample_suite_projectors, counts,
                                                 seed, tol, capsys, monkeypatch)


@pytest.mark.parametrize("seed, tol", [(0, None), (3, None), (3, "1e-6")])
def test_blocked_verify_mapping_prints_the_per_sample_suite_bytes(seed, tol, capsys, monkeypatch):
    block = verify._VERIFY_BLOCK
    counts = (1, 9, 10, 11, 99, 100, 10 * block - 1, 10 * block + 1, 1000)
    assert_blocked_suite_prints_the_oracle_bytes("mapping", per_sample_suite_mapping, counts,
                                                 seed, tol, capsys, monkeypatch)


def test_verify_fierz_fails_reconstruction_when_every_probe_is_degenerate(capsys, monkeypatch):
    def nothing_recovered(z, probes, rep):
        return np.zeros((len(z), 4), dtype=complex), np.zeros(len(z), dtype=bool)

    monkeypatch.setattr(verify, "reconstruct_array", nothing_recovered)
    code, out, _ = run(["verify", "fierz", "--samples", "50", "--seed", "3", "--json"], capsys)
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [rec["pass"] for rec in records] == [True, True, True, False]
    assert records[3] == {"check": "reconstruction_roundtrip", "worst": 0.0, "pass": False}


def _flip_omega_in_z(mp):  # omega e0123 enters Z with the wrong sign
    module = importlib.import_module("spinorlab.bilinears")
    inverses = module._INVERSES.copy()
    inverses[15] *= -1
    mp.setattr(module, "_INVERSES", inverses)


def _halve_the_spin_coefficient(mp):  # c(M) = S^{mu nu} instead of 2 S^{mu nu}
    module = importlib.import_module("spinorlab.bilinears")
    mp.setattr(module, "_FACTORS", np.where(module._FACTORS == 2.0, 1.0, module._FACTORS))


def _flip_the_dual_sign(mp):  # J ^ K + (omega - sigma e0123) S_bold
    module = importlib.import_module("spinorlab.bilinears")
    mp.setattr(module, "_DUAL_SIGN", -module._DUAL_SIGN)


def _stretch_the_recovered_spinor(mp):  # recovered psi 1e-6 too long
    real = verify.reconstruct_array

    def stretched(z, probes, rep):
        back, ok = real(z, probes, rep)
        return back * (1 + 1e-6), ok

    mp.setattr(verify, "reconstruct_array", stretched)


def _stretch_the_ideal_projector(mp):  # f = (1 + e0)(1 + i e12)/4 off by 1e-9
    module = importlib.import_module("spinorlab.hopf")
    mp.setattr(module, "_IDEAL_PROJECTOR", module._IDEAL_PROJECTOR * (1 + 1e-9))


def _drop_the_factor_2_on_j1(mp):  # J1 = Re(q1* i q2) on the quaternion route
    module = importlib.import_module("spinorlab.hopf")
    mp.setattr(module, "_UNITS", [(0.0, 0.5, 0.0, 0.0), *module._UNITS[1:]])


def _act_on_the_left(mp):  # the fiber element multiplies u q, not q u
    mp.setattr(importlib.import_module("spinorlab.hopf"), "fiber_action_array",
               lambda q1, q2, u: (hamilton_product(u, q1), hamilton_product(u, q2)))


def _fault_the_routes(mp, fault):
    """Replace condition_routes, in mapping and in verify, by ``fault(a, b, complex_route, component_route)``."""
    exact = verify.condition_routes
    faulty = lambda a, b: fault(a, b, *exact(a, b))
    mp.setattr(importlib.import_module("spinorlab.mapping"), "condition_routes", faulty)
    mp.setattr(verify, "condition_routes", faulty)


def _tilt_the_component_route(mp):  # split-component shared residuals 1e-9 too large
    _fault_the_routes(mp, lambda a, b, cx, comp: (cx, [r * (1 + 1e-9) for r in comp[:4]] + comp[4:]))


def _flip_a_sign_in_extra_class3(mp):  # + Im(psi_2* psi_3) where the condition has -
    def fault(a, b, cx, comp):
        im = lambda i, j: a[i] * b[j] - b[i] * a[j]
        extra3 = im(0, 3) + im(1, 2) - 2.0 * im(0, 1)
        return cx[:5] + [extra3] + cx[6:], comp[:5] + [extra3]

    _fault_the_routes(mp, fault)


def _zero_the_shared_residuals(mp):  # every spinor meets the shared block
    _fault_the_routes(mp, lambda a, b, cx, comp: (
        [0.0 * r for r in cx[:4]] + cx[4:], [0.0 * r for r in comp[:4]] + comp[4:]))


def _tilt_gamma_0_in_the_projection(mp):  # Psi (1 + (gamma_0 + 1e-6 gamma_1) u)/2
    module = importlib.import_module("spinorlab.flagdipole")
    mp.setattr(module, "_E0", module._E0 + 1e-6 * np.eye(1, 16, 2))


def _misread_the_axial_ratio(mp):  # h = K/J at J's dominant entry, 1e-6 too large
    module = importlib.import_module("spinorlab.flagdipole")
    real = module.frame_array

    def misread(covariants):
        J, s, h, consistent = real(covariants)
        return J, s, h * (1 + 1e-6), consistent

    mp.setattr(module, "frame_array", misread)


def _drop_h_from_the_boomerang(mp):  # Z = J (1 + i s), without i h e0123
    module = importlib.import_module("spinorlab.flagdipole")
    real = module.boomerang_array
    mp.setattr(module, "boomerang_array", lambda J, s, h, tol=1e-9: real(J, s, 0.0 * h, tol))


def _halve_the_projector_operator(mp):  # (1 -/+ i (s + h e0123)/2) / 2
    module = importlib.import_module("spinorlab.flagdipole")
    real = module.sigma_projector_matrix_array
    mp.setattr(module, "sigma_projector_matrix_array", lambda s, h, sign: real(s / 2, h / 2, sign))


def _fault_the_minus_half(mp, fault):
    """Replace the sign -1 half-projector matrices of verify projectors by ``fault(s, h)``."""
    module = importlib.import_module("spinorlab.flagdipole")
    real = module.sigma_projector_matrix_array
    mp.setattr(module, "sigma_projector_matrix_array",
               lambda s, h, sign: real(s, h, sign) if sign == 1 else fault(s, h))


def _stretch_the_minus_half_by_an_ulp(mp):  # the halves sum to (1 + 2^-52) on their minus part
    real = importlib.import_module("spinorlab.flagdipole").sigma_projector_matrix_array
    _fault_the_minus_half(mp, lambda s, h: real(s, h, -1) * (1 + 2.0**-52))


def _tilt_h_in_the_minus_half(mp):  # the minus half built with h 1e-12 too large
    real = importlib.import_module("spinorlab.flagdipole").sigma_projector_matrix_array
    _fault_the_minus_half(mp, lambda s, h: real(s, h * (1 + 1e-12), -1))


def _stop_the_limit_paths_short(mp):  # the paths end at t = 1e-3, not t = 0
    module = importlib.import_module("spinorlab.flagdipole")
    real = module.class_limit_array
    mp.setattr(module, "class_limit_array", lambda u, which, ts: real(u, which, ts=(*ts[:-1], 1e-3)))


# one small fault per check, in the kernel, table or function that the check covers
CHECK_FAULTS = {
    ("fierz", "quadratic_identities"): _flip_the_dual_sign,
    ("fierz", "aggregate_equals_4_psi_psibar"): _flip_omega_in_z,
    ("fierz", "generalized_identities"): _halve_the_spin_coefficient,
    ("fierz", "reconstruction_roundtrip"): _stretch_the_recovered_spinor,
    ("hopf", "representation_roundtrips"): _stretch_the_ideal_projector,
    ("hopf", "norm_identity"): _drop_the_factor_2_on_j1,
    ("hopf", "fiber_invariance"): _act_on_the_left,
    ("projectors", "projection_class_is_4"): _tilt_gamma_0_in_the_projection,
    ("projectors", "axial_ratio_K_equals_hJ"): _misread_the_axial_ratio,
    ("projectors", "boomerang_annihilators"): _drop_h_from_the_boomerang,
    ("projectors", "projector_idempotency"): _halve_the_projector_operator,
    ("projectors", "projector_matrix_sum_is_identity"): _stretch_the_minus_half_by_an_ulp,
    ("projectors", "projector_apply_sum_at_machine_floor"): _tilt_h_in_the_minus_half,
    ("projectors", "class_limits_reach_5_and_6"): _stop_the_limit_paths_short,
    ("mapping", "route_agreement"): _tilt_the_component_route,
    ("mapping", "constructed_families_pass"): _flip_a_sign_in_extra_class3,
    ("mapping", "random_pass_rate_below_1pc"): _zero_the_shared_residuals,
}


@pytest.mark.parametrize("suite, check", list(CHECK_FAULTS))
def test_each_verify_check_fails_on_a_fault_in_what_it_covers(suite, check, capsys, monkeypatch):
    def verdict():
        code, out, _ = run(["verify", suite, "--samples", "40", "--seed", "3", "--json"], capsys)
        return code, {rec["check"]: rec["pass"] for rec in map(json.loads, out.splitlines())}[check]

    assert verdict() == (0, True)
    CHECK_FAULTS[suite, check](monkeypatch)
    assert verdict() == (2, False)


def _nan_in_the_first_block(mp, module, name, nan=lambda out: out * np.nan):
    """Make ``module.name`` return ``nan`` of its values on its first call, its own values after."""
    real = getattr(module, name)
    calls = itertools.count()
    mp.setattr(module, name, lambda *args: nan(real(*args)) if next(calls) == 0 else real(*args))


# a kernel that returns NaN for one block of each suite, and the check that reads it
NAN_FAULTS = {
    ("fierz", "quadratic_identities"): lambda mp: _nan_in_the_first_block(mp, verify, "fierz_array"),
    ("hopf", "norm_identity"): lambda mp: _nan_in_the_first_block(
        mp, importlib.import_module("spinorlab.hopf"), "norm_identity_residual_array"),
    ("projectors", "boomerang_annihilators"): lambda mp: _nan_in_the_first_block(
        mp, importlib.import_module("spinorlab.flagdipole"), "annihilator_residual_array"),
    ("mapping", "route_agreement"): lambda mp: _nan_in_the_first_block(
        mp, verify, "condition_routes", lambda routes: (routes[0], [r * np.nan for r in routes[1]])),
}


@pytest.mark.parametrize("suite, check", list(NAN_FAULTS))
def test_a_nan_residual_fails_its_verify_check_and_is_written_as_null(suite, check, capsys, monkeypatch):
    def faulty_run(fmt):  # 1,000 samples: every suite runs more blocks after the faulty one
        with monkeypatch.context() as patch:
            NAN_FAULTS[suite, check](patch)
            return run(["verify", suite, "--samples", "1000", "--seed", "3", fmt], capsys)

    code, out, _ = faulty_run("--json")
    records = {rec["check"]: rec for rec in map(json.loads, out.splitlines())}
    assert code == 2 and "NaN" not in out
    assert records[check] == {"check": check, "worst": None, "pass": False}
    code, out, _ = faulty_run("--table")
    assert code == 2 and f"FAIL {check:<36} worst=nan" in out.splitlines()


@pytest.mark.parametrize("suite", ["fierz", "hopf", "projectors", "mapping"])
def test_no_verify_suite_calls_a_numpy_solver(suite, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a verify suite called a numpy.linalg solver")

    for name in ("lstsq", "pinv", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    code, out, _ = run(["verify", suite, "--samples", "65", "--seed", "1", "--json"], capsys)
    assert code == 0
    assert all(rec["pass"] is True for rec in map(json.loads, out.splitlines()))


def test_classify_gives_a_tiny_spinor_its_class(tmp_path, capsys):
    # thresholds scale with J^0, so [1e-9, 0, 0, 0] is the Weyl spinor [1, 0, 0, 0] rescaled
    path = tmp_path / "tiny.jsonl"
    write_jsonl(path, [spinor_record([1e-9, 0, 0, 0])])
    code, out, _ = run(["classify", str(path), "--json"], capsys)
    rec = json.loads(out)
    assert (code, rec["class"], rec["error"], rec["boomerang"]) == (0, 6, None, True)


def records_stdin(command, records, capsys, monkeypatch, *options):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(r) + "\n" for r in records)))
    code, out, _ = run([command, "-", "--json", *options], capsys)
    return code, out.splitlines()


@pytest.fixture(scope="module")
def across_chunks():
    """2 chunks + 3 records of all six classes in both reps, zero spinors either side of a seam."""
    zeros = (cli._CHUNK - 1, cli._CHUNK)
    pairs = mixed_spinors(np.random.default_rng(81), 2 * cli._CHUNK + 3)
    spinors = [psi.scaled(0.0) if k in zeros else psi for k, (_, psi) in enumerate(pairs)]
    return zeros, [spinor_record(psi.components, rep=psi.rep) for psi in spinors]


@pytest.mark.parametrize("tol", [1e-10, 0.05])
def test_classify_chunks_give_the_records_of_one_spinor_at_a_time(across_chunks, capsys,
                                                                  monkeypatch, tol):
    zeros, records = across_chunks
    options = ("--tol", str(tol))
    code, lines = records_stdin("classify", records, capsys, monkeypatch, *options)
    assert code == 2 and len(lines) == len(records)
    for k, (line, record) in enumerate(zip(lines, records)):
        rec = json.loads(line)
        assert rec["index"] == k
        assert (rec.get("error_kind") == "null-spinor") == (k in zeros)
        _, alone = records_stdin("classify", [record], capsys, monkeypatch, *options)
        assert line.split(", ", 1)[1] == alone[0].split(", ", 1)[1]


def test_hopf_chunks_give_the_records_of_one_spinor_at_a_time(across_chunks, capsys, monkeypatch):
    zeros, records = across_chunks
    records = [dict(record, label=f"record {k}") for k, record in enumerate(records)]
    code, lines = records_stdin("hopf", records, capsys, monkeypatch)
    assert code == 2 and len(lines) == len(records)
    for k, (line, record) in enumerate(zip(lines, records)):
        rec = json.loads(line)
        assert (rec["index"], rec["label"]) == (k, record["label"])
        assert (rec.get("error_kind") == "null-spinor") == (k in zeros)
        _, alone = records_stdin("hopf", [record], capsys, monkeypatch)
        assert line.split(", ", 1)[1] == alone[0].split(", ", 1)[1]


# ---- malformed parameters --------------------------------------------------


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["classify", "-"], ["hopf", "-"], ["map-check", "-"],
                                     ["verify", "mapping"]])
def test_an_unusable_tol_is_malformed_input(capsys, monkeypatch, command, tol):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spinor_record(GENERIC)) + "\n"))
    code, out, err = run([*command, "--tol", tol], capsys)
    assert (code, out) == (1, "")
    assert f"argument --tol: must be a finite number above 0, got {tol}" in err


@pytest.mark.parametrize("argv,message", [
    (["elko", "--p", "nan,0,0", "--m", "1"], "--p must be finite"),
    (["elko", "--p", "0,0,1", "--m", "nan"], "--m must be finite"),
    (["elko", "--alpha", "inf"], "--alpha must be finite"),
    (["elko", "--beta", "nan+1j"], "--beta must be finite"),
    (["majorana", "--xi", "1,0,inf,0"], "--xi must be finite"),
    (["weyl", "--phi", "1,nan"], "--phi must be finite"),
    (["flagdipole", "--u", "0.3,inf,0.8"], "--u must be finite"),
    (["dirac", "--delta", "inf"], "--delta must be finite"),
    (["elko", "--p", "0,0,1", "--m", "0"], "mass must be positive"),
    (["dirac", "--m", "-1"], "mass must be positive"),
    (["flagdipole", "--u", "0,0,0"], "the zero vector is not a direction"),
    (["weyl", "--phi", "0,0"], "cannot build a Weyl spinor on the zero 2-spinor"),
    (["dirac", "--phi", "0,0"], "cannot build a Dirac spinor on the zero 2-spinor"),
    (["dirac", "--phi", "0,0", "--delta", "1"], "cannot build a Dirac spinor on the zero 2-spinor"),
    (["elko", "--p", "1e200,0,0", "--m", "1"], "the parameters give non-finite components"),
    (["elko", "--alpha", "0", "--beta", "0"], "cannot build an ELKO on the zero 2-spinor"),
    (["elko", "--alpha", "1e300", "--beta", "1e300"],
     "elko:self:rest: spinor norm above 3.4e+38 is out of range"),
    (["weyl", "--phi", "1e-100,0"], "weyl:left: nonzero spinor norm below 1.22e-77 is out of range"),
    # the zero seed, and seeds that charge conjugation maps to plus or minus themselves
    (["majorana", "--xi", "0,0,0,0"], "majorana:+: the parameters give the zero spinor"),
    (["majorana", "--xi", "0,1j,1,0"], "majorana:-: the parameters give the zero spinor"),
    (["majorana", "--xi", "0,-1j,1,0"], "majorana:+: the parameters give the zero spinor"),
    (["weyl", "--phi", "1,2x"], "cannot parse complex number from '2x'"),
    (["weyl", "--phi", "1,0,0"], "--phi needs 2 comma-separated values, got 3"),
    (["elko", "--p", "0,1", "--m", "1"], "--p needs 3 comma-separated values, got 2"),
    (["elko", "--p", "0,x,1", "--m", "1"], "cannot parse --p from '0,x,1'"),
    (["elko", "--p", "0,0,1"], "--m is required when --p is nonzero"),
    # --m and --delta are checked before any other parameter is read
    (["elko", "--p", "0,x,1", "--m", "inf"], "--m must be finite, got inf"),
    (["dirac", "--phi", "x", "--delta", "nan"], "--delta must be finite, got nan"),
])
def test_make_rejects_bad_parameters_as_malformed_input(capsys, argv, message):
    code, out, err = run(["make", *argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("spinorlab: ") and err.count("\n") == 1
    assert message in err


# ---- streaming: one chunk read, computed and written at a time ---------------


def corpus_records(count, seed=5):
    spinors = [psi for _, psi in mixed_spinors(np.random.default_rng(seed), count)]
    return [spinor_record(psi.components, rep=psi.rep) for psi in spinors]


def run_text(argv, text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(argv, capsys)


def test_records_leave_before_the_input_ends():
    chunk = "".join(json.dumps(r) + "\n" for r in corpus_records(cli._CHUNK)).encode()
    with subprocess.Popen([*CHILD, "map-check", "-"], env=CHILD_ENV,
                          bufsize=0, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            proc.stdin.write(chunk)  # stdin stays open, so the child has not seen the end
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            first = proc.stdout.readline() if ready else b""  # unbuffered: reads no further
            rest, err = proc.communicate(timeout=60)  # closes stdin, drains both pipes
        finally:
            proc.kill()
    assert first, "no output line while the input was still open"
    assert json.loads(first)["index"] == 0
    assert (proc.returncode, err) == (0, b"")
    assert len(rest.splitlines()) == cli._CHUNK - 1


def test_a_malformed_record_in_the_third_chunk_exits_after_two_chunks(tmp_path, capsys):
    bad = 2 * cli._CHUNK + 5  # 1-based line number
    records = corpus_records(bad + 4)
    lines = [json.dumps(r) for r in records]
    lines[bad - 1] = '{"components": [[1, 0], [0, 0]]}'
    path, prefix = tmp_path / "bad.jsonl", tmp_path / "prefix.jsonl"
    path.write_text("\n".join(lines) + "\n")
    write_jsonl(prefix, records[:2 * cli._CHUNK])
    for command in ("classify", "map-check"):
        code, out, err = run([command, str(path)], capsys)
        assert code == 1
        assert f"spinorlab: line {bad}: 'components' must be a list" in err
        assert run([command, str(prefix)], capsys)[:2] == (0, out)
        assert len(out.splitlines()) == 2 * cli._CHUNK


NAN_LINE = '{"components": [[1, NaN], [0, 0], [0, 0], [0, 0]]}'
SHORT_LINE = '{"components": [[1, 0], [0, 0]]}'


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
@pytest.mark.parametrize("bad, message", [
    ({10: NAN_LINE, 11: SHORT_LINE}, "line 10: non-finite component entry"),
    ({10: SHORT_LINE, 11: NAN_LINE},
     "line 10: 'components' must be a list of four [re, im] pairs"),
    ({11: '{"components": [[1, "x"], 5, [0, 0], [0, 0]]}'}, "line 11: non-numeric component entry"),
    ({10: "1e39,0,0,0,0,0,0,0", 11: "1,0,0"},
     f"row 10: spinor norm above {MAX_NORM:.3g} is out of range"),
    ({10: '{"components": [[1, 0], [0, 0, 0], [0, 0], [0, 0]]}', 11: NAN_LINE},
     "line 10: each component must be a [re, im] pair"),
    ({10: '{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "rep": "weyl"}', 11: SHORT_LINE},
     "line 10: unknown representation 'weyl'"),
    ({10: "0" * 131073 + ",0,0,0,0,0,0,0", 11: "1,0,0"},
     "row 10: field larger than field limit (131072)"),
], ids=["non-finite-then-structure", "structure-then-non-finite", "pair-values-before-next-shape",
        "csv-norm-then-short-row", "pair-shape-then-non-finite", "unknown-rep-then-structure",
        "csv-cell-past-the-field-limit-then-short-row"])
def test_the_first_bad_document_in_input_order_is_the_one_reported(capsys, monkeypatch, command,
                                                                   bad, message):
    monkeypatch.setattr(cli, "_CHUNK", 4)  # lines 9-12 are the third chunk
    records = corpus_records(12)
    lines = [json.dumps(r) for r in records]
    if "row" in message:
        lines = [",".join(repr(x) for pair in r["components"] for x in pair) for r in records]
    for lineno, text in bad.items():
        lines[lineno - 1] = text
    before = run_text([command, "-"], "".join(line + "\n" for line in lines[:8]), capsys, monkeypatch)
    code, out, err = run_text([command, "-"], "".join(line + "\n" for line in lines), capsys, monkeypatch)
    assert (code, err) == (1, f"spinorlab: {message}\n")
    assert out == before[1] and len(out.splitlines()) == 8


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
@pytest.mark.parametrize("lineno", [2, 10], ids=["first-chunk", "third-chunk"])
@pytest.mark.parametrize("integer, message, read_as", [
    ("-1" + "0" * 400, "non-finite component entry", "-1e400"),
    ("1" * 4301, "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion", None),
], ids=["past-the-double-range", "past-the-digit-limit"])
def test_an_integer_component_too_large_to_read_is_malformed_input(capsys, monkeypatch, command,
                                                                   lineno, integer, message, read_as):
    monkeypatch.setattr(cli, "_CHUNK", 4)  # lines 9-12 are the third chunk
    lines = [json.dumps(r) for r in corpus_records(12)]
    lines[lineno - 1] = '{"components": [[0, %s], [1, 0], [0, 0], [0, 0]]}' % integer
    lines[lineno] = SHORT_LINE  # a later bad line is not the one reported
    done = (lineno - 1) // 4 * 4  # the records of the chunks before the bad line
    before = run_text([command, "-"], "".join(line + "\n" for line in lines[:done]), capsys, monkeypatch)
    code, out, err = run_text([command, "-"], "".join(line + "\n" for line in lines), capsys, monkeypatch)
    assert code == 1 and err.startswith(f"spinorlab: line {lineno}: {message}") and err.count("\n") == 1
    assert out == before[1] and len(out.splitlines()) == done
    if read_as:  # the same input, the integer written as the float it overflows to
        lines[lineno - 1] = lines[lineno - 1].replace(integer, read_as)
        text = "".join(line + "\n" for line in lines)
        assert run_text([command, "-"], text, capsys, monkeypatch) == (code, out, err)


DEEP = "[" * 100_000 + "]" * 100_000  # far past the interpreter's recursion limit
LONG = "1" * 5001
TOO_LONG = (
    "invalid JSON: Exceeds the limit (4300 digits)"
    " for integer string conversion: value has 5001 digits\n")


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
@pytest.mark.parametrize("bad, message", [
    ('{"components": %s}' % DEEP, "invalid JSON: maximum recursion depth exceeded"),
    ('{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "label": %s}' % DEEP,
     "invalid JSON: maximum recursion depth exceeded"),
    ('{"components": [[%s, 0], [0, 0], [0, 0], [0, 0]]}' % LONG, TOO_LONG),
    ('{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "label": %s}' % LONG, TOO_LONG),
], ids=["nested-components", "nested-label", "long-integer-component", "long-integer-label"])
def test_a_line_json_cannot_read_is_malformed_input_with_one_line_of_message(capsys, monkeypatch,
                                                                            command, bad, message):
    monkeypatch.setattr(cli, "_CHUNK", 4)  # line 6 is in the second chunk
    lines = [json.dumps(r) for r in corpus_records(8)]
    lines[5] = bad
    before = run_text([command, "-"], "".join(line + "\n" for line in lines[:4]), capsys, monkeypatch)
    code, out, err = run_text([command, "-"], "".join(line + "\n" for line in lines), capsys, monkeypatch)
    assert code == 1 and err.startswith(f"spinorlab: line 6: {message}") and err.count("\n") == 1
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    assert out == before[1] and len(out.splitlines()) == 4


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
def test_a_label_nested_as_deep_as_the_decoder_reads_is_echoed(capsys, monkeypatch, command):
    def nested(depth):
        return '{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], "label": %s}\n' % ("[" * depth + "]" * depth)

    # the deepest label the decoder reads, from the first that it refuses
    depth = 1000
    while (result := run_text([command, "-"], nested(depth), capsys, monkeypatch))[0] == 1:
        assert result[2].startswith("spinorlab: line 1: invalid JSON: maximum recursion depth exceeded")
        depth -= 1
    code, out, _ = result
    label = json.loads(out)["label"]
    for _ in range(depth - 1):
        (label,) = label
    assert code == 0 and label == [] and depth > 900


GOOD = '{"components": [[1, 0], [0, 0.5], [-0.3, 0], [0.2, 0.1]]}'
DECODER_ROWS = {  # a second line after GOOD, and the message json.loads gives it (None: it reads)
    "leading-spaces-and-tabs": (" \t " + GOOD, None),
    "trailing-spaces-and-tabs": (GOOD + "\t  ", None),
    "bom": ("\ufeff" + GOOD,
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "two-objects": (GOOD + GOOD, "invalid JSON: Extra data: line 1 column 58 (char 57)"),
    "unterminated-string": (GOOD[:-1] + ', "label": "abc',
                            "invalid JSON: Unterminated string starting at: line 1 column 68 (char 67)"),
    "5000-digit-integer": (GOOD.replace("0.5", "1" * 5000),
                           "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
                           " value has 5000 digits"),
    "nesting-past-the-recursion-limit": (GOOD[:-1] + ', "label": %s}' % DEEP,
                                         "invalid JSON: maximum recursion depth exceeded"
                                         " while decoding a JSON array from a unicode string"),
    "bare-list": ("[1]", "expected an object with a 'components' field"),
}


@pytest.mark.parametrize("command", ["classify", "map-check"])
@pytest.mark.parametrize("row", list(DECODER_ROWS))
def test_each_line_gets_the_verdict_and_message_of_json_loads(capsys, monkeypatch, command, row):
    text, message = DECODER_ROWS[row]
    code, out, err = run_text([command, "-"], f"{GOOD}\n{text}\n", capsys, monkeypatch)
    if message is None:  # whitespace around an object: the line reads as that object
        assert (code, out, err) == run_text([command, "-"], f"{GOOD}\n{GOOD}\n", capsys, monkeypatch)
        assert code == 0 and len(out.splitlines()) == 2
    else:
        assert (code, out, err) == (1, "", f"spinorlab: line 2: {message}\n")


BOM_INPUTS = {  # each without its byte order mark
    "jsonl-one-line": GOOD + "\n",
    "jsonl-two-lines": GOOD + "\n" + GOOD + "\n",
    "csv-with-header": "re1,im1,re2,im2,re3,im3,re4,im4\n1,0,0,0,0,0,0,0\n0,0,0,1,1,0,0,0\n",
    "csv-without-header": "1,0,0,0,0,0,0,0\n0,0,0,1,1,0,0,0\n",
}


@pytest.mark.parametrize("source", ["file", "stdin", "stringio"])
@pytest.mark.parametrize("name", list(BOM_INPUTS))
def test_a_byte_order_mark_at_the_start_of_the_input_is_dropped(tmp_path, capsys, monkeypatch,
                                                                 name, source):
    def classify(text):
        if source == "file":
            path = tmp_path / "in.txt"
            path.write_bytes(text.encode())
            return run(["classify", str(path)], capsys)
        if source == "stringio":
            return run_text(["classify", "-"], text, capsys, monkeypatch)
        done = subprocess.run([*CHILD, "classify", "-"], input=text.encode(), capture_output=True,
                              env=CHILD_ENV, timeout=120)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    plain = classify(BOM_INPUTS[name])
    assert plain[0] == 0 and len(plain[1].splitlines()) == 1 + ("two" in name or "csv" in name)
    assert classify("\ufeff" + BOM_INPUTS[name]) == plain


CSV_ROWS = "1,0,0,0,0,0,0,0\n0,0,0,1,1,0,0,0\n"
CSV_FIRST_ROWS = {  # the first row, and whether it is read as a header
    "header": ("re1,im1,re2,im2,re3,im3,re4,im4", True),
    "bom-first-header": ("\ufeffre1,im1,re2,im2,re3,im3,re4,im4", True),
    "short-header": ("re,im", True),
    "one-bad-cell": ("1,0,0,x,0,0,0,0", False),
    "one-number-among-names": ("re1,im1,re2,im2,re3,im3,re4,0", False),
    "bom-first-bad-cell": ("\ufeff1,0,0,x,0,0,0,0", False),
    "blank-line-then-header": ("\nre1,im1,re2,im2,re3,im3,re4,im4", True),
    "two-blank-lines-then-header": ("\n \nre1,im1,re2,im2,re3,im3,re4,im4", True),
    "blank-line-then-bad-cell": ("\n1,0,0,x,0,0,0,0", False),
    "two-blank-lines-then-bad-cell": ("\n\n1,0,0,x,0,0,0,0", False),
}


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
@pytest.mark.parametrize("row", list(CSV_FIRST_ROWS))
def test_a_csv_first_row_is_a_header_only_when_no_cell_is_a_number(capsys, monkeypatch, command, row):
    first, header = CSV_FIRST_ROWS[row]
    got = run_text([command, "-"], f"{first}\n{CSV_ROWS}", capsys, monkeypatch)
    if header:
        assert got == run_text([command, "-"], CSV_ROWS, capsys, monkeypatch)
        assert got[0] == 0 and len(got[1].splitlines()) == 2
    else:
        rowno = first.count("\n") + 1  # the blank lines before the bad row count
        assert got == (1, "", f"spinorlab: row {rowno}: non-numeric CSV cell\n")


CSV_EMPTY_CELL_ROWS = {  # a row with empty cells, and whether it reads as the spinor (1, 0, 0, 0)
    "empty-cell-inside": ("1,,2,0,0,0,0,0,0", False),
    "empty-first-cell": (",1,0,0,0,0,0,0,0", False),
    "trailing-comma": ("1,0,0,0,0,0,0,0,", True),
    "blank-cells-then-row": (" , \n1,0,0,0,0,0,0,0", True),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
@pytest.mark.parametrize("row", list(CSV_EMPTY_CELL_ROWS))
def test_an_empty_csv_cell_before_a_filled_one_is_malformed(tmp_path, capsys, monkeypatch,
                                                            row, command, source):
    text, reads = CSV_EMPTY_CELL_ROWS[row]
    if source == "file":
        path = tmp_path / "in.csv"
        path.write_text(text + "\n")
        got = run([command, str(path)], capsys)
    else:
        got = run_text([command, "-"], text + "\n", capsys, monkeypatch)
    if reads:
        assert got == run_text([command, "-"], "1,0,0,0,0,0,0,0\n", capsys, monkeypatch)
        assert got[0] == 0 and len(got[1].splitlines()) == 1
        assert command != "classify" or json.loads(got[1])["class"] == 6
    else:  # the cells after the empty one are not shifted left into its place
        assert got == (1, "", "spinorlab: row 1: non-numeric CSV cell\n")


@pytest.mark.parametrize("text, line", [("\n\ufeff" + GOOD, 2), ("\ufeff\ufeff" + GOOD, 1)],
                         ids=["after-a-blank-line", "a-second-mark"])
def test_a_byte_order_mark_past_the_start_of_the_input_is_malformed(capsys, monkeypatch, text, line):
    code, out, err = run_text(["classify", "-"], text + "\n", capsys, monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"spinorlab: line {line}: {DECODER_ROWS['bom'][1]}\n"


def test_output_opens_with_the_first_chunk(tmp_path, capsys):
    records = corpus_records(2 * cli._CHUNK + 3)
    path, target = tmp_path / "in.jsonl", tmp_path / "out.txt"
    write_jsonl(path, records[:2] + [{"components": "none"}] + records[3:])
    code, out, _ = run(["map-check", str(path), "--output", str(target)], capsys)
    assert (code, out, target.exists()) == (1, "", False)
    write_jsonl(path, records)
    for options in (["--json"], ["--table"]):
        code, out, _ = run(["classify", str(path), *options], capsys)
        assert code == 0 and len(out.splitlines()) == len(records) + (options == ["--table"])
        assert run(["classify", str(path), *options, "--output", str(target)], capsys)[:2] == (0, "")
        assert target.read_text() == out
    # the first chunk is read whole before any record of it is written
    lines = [json.dumps(r) for r in records]
    target.unlink()
    for bad in (2, cli._CHUNK // 2 + 1, cli._CHUNK, cli._CHUNK + 2):  # 1-based line numbers
        path.write_text("".join(line + "\n" for line in lines[:bad - 1] + ["{"] + lines[bad:]))
        written = cli._CHUNK if bad > cli._CHUNK else 0
        for command in ("classify", "map-check", "hopf"):
            code, out, err = run([command, str(path)], capsys)
            assert (code, len(out.splitlines())) == (1, written), (command, bad)
            assert err.startswith(f"spinorlab: line {bad}: invalid JSON"), (command, bad)
            code, out, _ = run([command, str(path), "--output", str(target)], capsys)
            assert (code, out) == (1, "")
            if written:  # the first chunk's records, in the file the first chunk opened
                assert len(target.read_text().splitlines()) == written
                target.unlink()
            assert not target.exists()


def emitted(monkeypatch):
    """The lines of each ``cli._emit`` call, one list per call, in call order."""
    writes = []
    emit = cli._emit

    def logged(lines, out):
        writes.append(list(lines))
        emit(lines, out)

    monkeypatch.setattr(cli, "_emit", logged)
    return writes


RAMP = [1, 3, 12, 48, 192]  # the first chunk's writes: cut at the powers of four below 256


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
def test_the_first_chunk_is_written_in_ranges_of_one_three_twelve_48_and_192(capsys, monkeypatch,
                                                                               command):
    zeros = (0, 3, 255)  # alone in the first range, and last in the second and the fifth
    spinors = [psi.scaled(0.0) if k in zeros else psi
               for k, (_, psi) in enumerate(mixed_spinors(np.random.default_rng(25), 600))]
    assert {psi.rep for psi in spinors[:4]} == {"chiral", "standard"}
    records = [spinor_record(psi.components, rep=psi.rep) for psi in spinors]
    writes = emitted(monkeypatch)
    code, lines = records_stdin(command, records, capsys, monkeypatch)
    assert [len(w) for w in writes] == RAMP + [256, 88]
    assert sum(writes, []) == lines
    assert [json.loads(line)["index"] for line in lines] == list(range(600))
    nulls = [k for k, line in enumerate(lines) if "all bilinear covariants vanish" in line
             or '"null-spinor"' in line]
    assert nulls == list(zeros) and code == (0 if command == "map-check" else 2)
    # the table header rides in the first write, and a short input takes the cuts below its length
    writes.clear()
    assert records_stdin(command, records[:3], capsys, monkeypatch)[1] == lines[:3]
    assert [len(w) for w in writes] == [1, 2]
    if command == "classify":
        writes.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(r) + "\n" for r in records)))
        code, out, _ = run(["classify", "-", "--table"], capsys)
        assert [len(w) for w in writes] == [2, 3, 12, 48, 192, 256, 88]
        assert writes[0][0] == cli.CLASSIFY_HEADER and sum(writes, []) == out.splitlines()


def test_each_classify_record_is_filled_right_before_it_is_serialized(capsys, monkeypatch):
    """A record lives until its line is made: no range builds all its field dicts first."""
    zeros = (cli._CHUNK - 1, cli._CHUNK + 1)
    spinors = [psi.scaled(0.0) if k in zeros else psi
               for k, (_, psi) in enumerate(mixed_spinors(np.random.default_rng(27), cli._CHUNK + 40))]
    assert {psi.rep for psi in spinors[:4]} == {psi.rep for psi in spinors[cli._CHUNK:]} == {
        "chiral", "standard"}
    records = [spinor_record(psi.components, rep=psi.rep) for psi in spinors]
    expected = records_stdin("classify", records, capsys, monkeypatch)
    events = []
    fields = cli._classification_fields

    def logged_fields(*column):
        events.append("fields")
        return fields(*column)

    # cli's own json only, through a module proxy as the benchmark's tracer wraps it
    proxy = type(json)(json.__name__)
    proxy.__dict__.update(vars(json))
    proxy.dumps = lambda record: events.append(("dumps", record["index"])) or json.dumps(record)
    monkeypatch.setattr(cli, "_classification_fields", logged_fields)
    monkeypatch.setattr(cli, "json", proxy)
    assert records_stdin("classify", records, capsys, monkeypatch) == expected
    assert events == [e for k in range(len(records)) for e in ("fields", ("dumps", k))]


@pytest.mark.parametrize("command", ["classify", "map-check", "hopf"])
def test_an_empty_input_is_one_empty_write_and_an_empty_output_file(tmp_path, capsys, monkeypatch,
                                                                    command):
    target = tmp_path / "out.jsonl"
    writes = emitted(monkeypatch)
    code, out, err = run_text([command, "-", "--output", str(target)], "", capsys, monkeypatch)
    assert (code, out, err, writes) == (0, "", "", [[]])
    assert target.read_text() == ""


def test_output_may_not_overwrite_the_input_it_is_reading(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, corpus_records(cli._CHUNK + 1))
    before = path.read_text()
    code, out, err = run(["classify", str(path), "--output", str(path)], capsys)
    assert (code, out) == (1, "")
    assert "it is the input" in err
    assert path.read_text() == before


def test_csv_rows_across_a_chunk_boundary_read_as_in_one_chunk(tmp_path, capsys, monkeypatch):
    rows = [",".join(repr(x) for c in r["components"] for x in c)
            for r in corpus_records(2 * cli._CHUNK + 3)]
    seam = cli._CHUNK  # rows[seam - 1] ends the first chunk, rows[seam] starts the second
    lines = ["re0,im0,re1,im1,re2,im2,re3,im3", "", *rows[:seam], "", " ,", *rows[seam:]]
    lines[seam + 1] = '"' + lines[seam + 1].replace(",", '\n",', 1)  # a quoted cell spans lines
    path = tmp_path / "batch.csv"
    path.write_text("\n".join(lines) + "\n")
    outputs = [run(["classify", str(path)], capsys)[:2]]
    monkeypatch.setattr(cli, "_CHUNK", len(rows) + 1)
    outputs.append(run(["classify", str(path)], capsys)[:2])
    monkeypatch.undo()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and len(outputs[0][1].splitlines()) == len(rows)
    # rows count csv records, not lines: the quoted cell above spans two lines
    path.write_text("\n".join(lines[:seam + 5] + ["1,2,3"] + lines[seam + 5:]) + "\n")
    code, out, err = run(["classify", str(path)], capsys)
    assert (code, len(out.splitlines())) == (1, seam)
    assert f"row {seam + 6}: need 8 real columns" in err


@pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_json_lines_split_where_str_splitlines_splits(tmp_path, capsys, monkeypatch, sep):
    lines = [json.dumps(r) for r in corpus_records(cli._CHUNK + 2)]
    lines.insert(3, "")
    expected = run_text(["classify", "-"], "\n".join(lines) + "\n", capsys, monkeypatch)[:2]
    assert expected[0] == 0
    text = sep.join(lines) + sep
    path = tmp_path / "sep.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert run_text(["classify", "-"], text, capsys, monkeypatch)[:2] == expected
    assert run(["classify", str(path)], capsys)[:2] == expected
    lines[cli._CHUNK + 1] = "{"  # line CHUNK + 2, after a full chunk of records
    code, out, err = run_text(["classify", "-"], sep.join(lines) + sep, capsys, monkeypatch)
    assert (code, len(out.splitlines())) == (1, cli._CHUNK)
    assert f"line {cli._CHUNK + 2}: invalid JSON" in err


def test_an_unwritable_output_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [spinor_record(GENERIC)])
    target = tmp_path / "missing" / "out.jsonl"
    for argv in (["classify", str(path)], ["make", "elko"], ["verify", "hopf", "--samples", "1"]):
        code, out, err = run([*argv, "--output", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spinorlab: cannot write {target}: ") and err.count("\n") == 1


# ---- no traceback and strict JSON on any input and any output failure ----------


ONE = b'{"components": [[1, 0], [0, 0.5], [-0.3, 0], [0.2, 0.1]]}\n'
PROBES = {  # argv ({file} is the input written to a file, - is stdin, a last "> /dev/full", "<&-" or
    # ">&-" redirects the child's stdout or closes its stdin or stdout), input, the one stderr line
    "json-lines-file-not-utf8": (["classify", "{file}"], ONE + b'{"label": "\xff"}\n{"components": 1}\n',
                                 "line 2: invalid UTF-8"),
    "csv-file-not-utf8": (["map-check", "{file}"], b"1,0,0,0,0,0,0,0\n1,0,\xff0,0,0,0,0,0\n",
                          "row 2: invalid UTF-8"),
    "stdin-not-utf8": (["hopf", "-"], ONE + b'{"components": [[1, 0], [0, 0], [0, 0], [0, 0]], '
                                            b'"label": "\xff"}\n', "line 2: invalid UTF-8"),
    "csv-header-on-stdin-not-utf8": (["classify", "-"], b"re\xff,im\n1,0,0,0,0,0,0,0\n",
                                     "row 1: invalid UTF-8"),
    "output-file-full": (["classify", "{file}", "--output", "/dev/full"], ONE,
                         "cannot write /dev/full: [Errno 28] No space left on device"),
    "stdout-full": (["make", "elko", ">", "/dev/full"], b"",
                    "cannot write stdout: [Errno 28] No space left on device"),
    "nan-label": (["classify", "-"], ONE.replace(b"}", b', "label": NaN}'),
                  "line 1: non-finite number in 'label'"),
    "overflowing-label-in-a-list": (["map-check", "-"], ONE.replace(b"}", b', "label": {"a": [1, -1e400]}}'),
                                    "line 1: non-finite number in 'label'"),
    "stdin-closed": (["classify", "-", "<&-"], ONE, "cannot read stdin: it is closed"),
    "input-file-missing": (["hopf", "no-such-input.jsonl"], b"",
                           "cannot read no-such-input.jsonl: [Errno 2] No such file or directory: "
                           "'no-such-input.jsonl'"),
    "stdout-closed": (["make", "elko", ">&-"], b"", "cannot write stdout: it is closed"),
    "stdout-closed-after-a-chunk": (["map-check", "{file}", ">&-"], ONE, "cannot write stdout: it is closed"),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_input_that_is_not_utf8_a_write_error_and_a_nan_label_exit_1_with_one_line(tmp_path, probe):
    """In a child process: real stdin bytes, a real stdout and the interpreter's final flush."""
    argv, data, message = PROBES[probe]
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    full = argv[-2:] == [">", "/dev/full"]
    closed = {"<&-": 0, ">&-": 1}.get(argv[-1])  # the file descriptor the child starts without
    argv = argv[:-2] if full else argv[:-1] if closed is not None else argv
    with open("/dev/full", "wb") if full else contextlib.nullcontext(subprocess.PIPE) as stdout:
        proc = subprocess.run([*CHILD, *argv],
                              input=data if "-" in argv else b"", stdout=stdout, stderr=subprocess.PIPE,
                              env=CHILD_ENV,
                              preexec_fn=None if closed is None else lambda: os.close(closed))
    assert (proc.returncode, proc.stderr.decode()) == (1, f"spinorlab: {message}\n")
    assert not proc.stdout  # each fault is in the first chunk, so no record was written


LINES = [ONE.strip(), ONE.strip().replace(b"}", b', "label": "x", "rep": "standard"}'),
         b'{"components": [[0, 0], [0, 0], [0, 0], [0, 0]]}', b"re,im", b"1,0,0,0,0,0,0,0",
         ONE.strip().replace(b"}", b', "label": [Infinity]}')]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.one_of(st.binary(max_size=20), st.sampled_from(LINES)), max_size=6).map(b"\n".join))
def test_any_bytes_give_exit_0_1_or_2_one_message_line_and_strict_json(tmp_path, capsys, monkeypatch, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    for command in ("classify", "map-check", "hopf"):
        # stdin as a process gets it: bytes under a text layer, here one that reads only ASCII
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        for argv in ([command, str(path)], [command, "-"]):
            code, out, err = run(argv, capsys)
            assert code in (0, 1, 2)
            if code == 1:
                assert err.startswith("spinorlab: ") and err.count("\n") == 1 and err.endswith("\n")
            for line in out.splitlines():
                json.loads(line, parse_constant=_reject_non_finite)


# ---- the process entry: run() ends the process once its output is flushed ------


class _Stream:
    """A text stream that logs its flushes by name; ``fault`` is raised by each flush."""

    def __init__(self, name, log, fault=None):
        self.name, self.log, self.fault = name, log, fault

    def flush(self):
        self.log.append(self.name)
        if self.fault:
            raise self.fault


@pytest.mark.parametrize("closed", [None, "stdout", "stderr"])
def test_run_flushes_stdout_and_stderr_then_ends_the_process_with_the_code_of_main(monkeypatch, closed):
    flushed, ended = [], []
    for name in ("stdout", "stderr"):
        monkeypatch.setattr(f"sys.{name}", None if name == closed else _Stream(name, flushed))
    monkeypatch.setattr(cli, "main", lambda: 2)
    monkeypatch.setattr(cli.os, "_exit", ended.append)
    cli.run()
    assert ended == [2]
    assert flushed == [name for name in ("stdout", "stderr") if name != closed]


def test_run_leaves_a_failed_flush_and_an_exception_to_the_interpreter(monkeypatch):
    flushed = []
    monkeypatch.setattr("sys.stdout", _Stream("stdout", flushed, BrokenPipeError(32, "Broken pipe")))
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail(f"os._exit({code})"))
    monkeypatch.setattr(cli, "main", lambda: 1)
    with pytest.raises(SystemExit) as exc:  # the interpreter's final flush then reports the failure
        cli.run()
    assert (exc.value.code, flushed) == (1, ["stdout"])
    monkeypatch.setattr(cli, "main", lambda: [][0])
    with pytest.raises(IndexError):  # a traceback and exit 1, as from any script
        cli.run()


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {"spinorlab": "spinorlab.cli:run"}


CLOSED_STDERR = {  # argv, the file descriptors the child starts without
    "stdin-closed": (["classify", "-"], (0, 2)),
    "tol-0": (["classify", "-", "--tol", "0"], (2,)),
}


@pytest.mark.parametrize("case", list(CLOSED_STDERR))
def test_with_stderr_closed_an_error_writes_nothing_and_exits_1(capsys, monkeypatch, case):
    argv, closed = CLOSED_STDERR[case]
    proc = subprocess.run([*CHILD, *argv], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=CHILD_ENV,
                          preexec_fn=lambda: [os.close(fd) for fd in closed])
    assert (proc.returncode, proc.stdout) == (1, b"")
    # in-process: the interpreter sets the stream of a descriptor closed at start to None
    for fd, name in ((0, "sys.stdin"), (2, "sys.stderr")):
        monkeypatch.setattr(name, None if fd in closed else io.StringIO())
    assert run(argv, capsys)[:2] == (1, "")


@pytest.fixture(scope="module")
def parity_inputs(tmp_path_factory):
    """A 600-record corpus, the same with a short line in its third chunk, and with a zero spinor."""
    root = tmp_path_factory.mktemp("parity")
    lines = [json.dumps(r) for r in corpus_records(600, seed=18)]
    texts = {
        "{corpus}": lines,
        "{bad}": lines[:2 * cli._CHUNK + 4] + [SHORT_LINE] + lines[2 * cli._CHUNK + 4:],
        "{zero}": lines + [json.dumps(spinor_record(np.zeros(4)))],
    }
    paths = {}
    for key, text in texts.items():
        paths[key] = root / f"{key.strip('{}')}.jsonl"
        paths[key].write_text("\n".join(text) + "\n")
    return paths


PARITY = {  # argv, and the exit code
    **{f"{command}{name}": ([command, "{corpus}", *options], 0)
       for command in ("classify", "map-check", "hopf")
       for name, options in (("", []), ("-table", ["--table"]), ("-output", ["--output", "{out}"]))},
    "make-elko": (["make", "elko"], 0),
    "make-majorana": (["make", "majorana"], 0),
    "verify-mapping-json": (["verify", "mapping", "--json"], 0),
    "verify-mapping-table": (["verify", "mapping", "--table"], 0),
    "help": (["classify", "--help"], 0),  # printed, not flushed, when main returns
    "version": (["--version"], 0),
    "malformed-in-the-third-chunk": (["map-check", "{bad}"], 1),
    "zero-spinor": (["classify", "{zero}"], 2),
}


@pytest.mark.parametrize("case", list(PARITY))
def test_a_child_process_writes_the_bytes_of_an_in_process_run(parity_inputs, tmp_path, capsys, case):
    """Stdout, stderr, exit code and output file: no byte is lost when the child skips teardown."""
    argv, expected = PARITY[case]
    child, own = ([str({**parity_inputs, "{out}": tmp_path / name}.get(arg, arg)) for arg in argv]
                  for name in ("child.out", "in-process.out"))
    proc = subprocess.run([*CHILD, *child], stdin=subprocess.DEVNULL, capture_output=True, env=CHILD_ENV)
    code, out, err = run(own, capsys)
    assert code == expected and (out or "--output" in argv) and bool(err) == (code == 1)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
    if "--output" in argv:
        text = (tmp_path / "in-process.out").read_bytes()
        assert text and (tmp_path / "child.out").read_bytes() == text


@pytest.fixture(scope="module")
def corpus_2000(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipe") / "corpus.jsonl"
    write_jsonl(path, corpus_records(2000, seed=19))
    return path


@pytest.mark.parametrize("reads", [1, 0], ids=["after-the-first-line", "before-the-first-line"])
@pytest.mark.parametrize("argv", [["classify", "{corpus}"], ["verify", "fierz", "--samples", "2000", "--table"]],
                         ids=["classify-2000", "verify-fierz-2000"])
def test_a_reader_that_closes_the_pipe_on_stdout_leaves_exit_0_and_no_message(corpus_2000, argv, reads):
    argv = [str(corpus_2000) if arg == "{corpus}" else arg for arg in argv]
    with subprocess.Popen([*CHILD, *argv], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=CHILD_ENV) as proc:
        lines = [proc.stdout.readline() for _ in range(reads)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert all(lines)
    assert (proc.returncode, err) == (0, b"")
