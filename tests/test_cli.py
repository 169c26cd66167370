"""Command line interface: record formats, exit codes, determinism."""

import dataclasses
import io
import json
import re

import numpy as np
import pytest

from spinorlab import cli


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

    exact = cli.bilinears

    def shifted(psi, tol=1e-10):
        b = exact(psi, tol=tol)
        return dataclasses.replace(b, sigma=b.sigma + 1e-6 * b.J[0])

    monkeypatch.setattr(cli, "bilinears", shifted)
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
