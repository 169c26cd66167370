"""Tests of the benchmark itself: corpus labels, output checks, tracer, metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import corpus
import layers
import spans
from spinorlab import NullSpinorError, SpinorC4, bilinears, classify, cli

HERE = Path(__file__).resolve().parent


def run_cli(args, stdin):
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(args)
    finally:
        sys.stdin = saved
    return out.getvalue(), code


@pytest.fixture(scope="module")
def small():
    return corpus.make_corpus(seed=7, size=400)


def test_mix_has_a_small_zero_share_and_half_generic_records():
    for size in (400, 10_000):
        counts = corpus.kind_counts(size)
        assert sum(counts.values()) == size
        assert 0 < counts["zero"] < 0.01 * size
        assert abs(counts["generic"] - (size - counts["zero"]) / 2) <= 1
        assert set(counts) == set(corpus.KINDS)
        built = [counts[k] for k in corpus.BUILT_KINDS]
        assert max(built) - min(built) <= 1


def test_corpus_is_a_function_of_the_seed(small):
    again = corpus.make_corpus(seed=7, size=400)
    assert again.text == small.text and again.expected == small.expected
    assert corpus.make_corpus(seed=8, size=400).text != small.text
    assert small.mix == corpus.kind_counts(400)
    assert set(small.class_mix) == {"1", "2", "3", "4", "5", "6", "null"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_expected_classes_match_the_library(seed):
    data = corpus.make_corpus(seed=seed, size=600)
    for line, label in zip(data.text.splitlines(), data.expected):
        doc = json.loads(line)
        psi = SpinorC4(np.array([complex(*p) for p in doc["components"]]), doc["rep"])
        try:
            got = classify(bilinears(psi)).label
        except NullSpinorError:
            got = None
        assert got == label


def test_classify_check_accepts_the_cli_and_catches_wrong_output(small):
    out, code = run_cli(["classify", "-"], small.text)
    assert checks.check_classify(out, code, small.expected) == 0
    lines = out.splitlines()
    target = next(i for i, c in enumerate(small.expected) if c == 4)
    rec = json.loads(lines[target])
    rec["class"] = 5
    lines[target] = json.dumps(rec)
    assert checks.check_classify("\n".join(lines), code, small.expected) == 1
    assert checks.check_classify(out, 0, small.expected) == len(small.expected)
    assert checks.check_classify("\n".join(lines[:-1]), code, small.expected) == len(small.expected)


def test_mapcheck_check_accepts_the_cli_and_catches_wrong_output(small):
    out, code = run_cli(["map-check", "-"], small.text)
    assert checks.check_mapcheck(out, code, small.expected) == 0
    lines = out.splitlines()
    regular = next(i for i, c in enumerate(small.expected) if c == 2)
    singular = next(i for i, c in enumerate(small.expected) if c == 6)
    rec = json.loads(lines[regular])
    rec["route_disagreement"] = 1e-9
    lines[regular] = json.dumps(rec)
    rec = json.loads(lines[singular])
    rec["mappability"] = {"class": 6}
    lines[singular] = json.dumps(rec)
    assert checks.check_mapcheck("\n".join(lines), code, small.expected) == 2
    assert checks.check_mapcheck(out, 2, small.expected) == len(small.expected)


def test_verify_check_fails_the_suite_on_any_failed_check():
    out, code = run_cli(["verify", "hopf", "--samples", "20", "--seed", "3", "--json"], "")
    assert checks.check_verify(out, code, 20) == 0
    failing = out.replace('"pass": true', '"pass": false', 1)
    assert checks.check_verify(failing, code, 20) == 20
    assert checks.check_verify(out, 2, 20) == 20
    assert checks.check_verify("", 0, 20) == 20


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def outer():
        tracer.root("inner", sum, range(20000))
        tracer.root("inner", sum, range(20000))

    tracer.root("outer", outer)
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    outer_span = tracer.spans[0]
    inner_ns = sum(end - start for name, start, end, parent, _ in tracer.spans if name == "inner")
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert totals["outer"][1] == outer_span[2] - outer_span[1] - inner_ns
    assert totals["inner"][1] == inner_ns


def test_install_wraps_every_binding_and_uninstall_restores_them(small):
    from spinorlab import mapping

    before = (cli.bilinears, mapping.bilinears, cli.json)
    tracer = spans.Tracer()
    layers.install(tracer, "mapcheck-mixed")
    try:
        assert cli.bilinears is not before[0] and mapping.bilinears is not before[1]
        out, code = run_cli(["map-check", "-"], small.text)
    finally:
        tracer.uninstall()
    assert (cli.bilinears, mapping.bilinears, cli.json) == before
    assert checks.check_mapcheck(out, code, small.expected) == 0
    totals = tracer.totals()
    assert totals["mapping.elko_map_conditions"][0] > len(small.expected)  # cli and mappability
    assert totals["cli.json_dumps"][0] == len(small.expected)
    assert tracer.counts["algebra.multivector_inits"] == 0
    entries = [s[4] for s in tracer.spans if s[0] == "mapping.elko_map_conditions" and s[3] is None]
    assert entries == list(range(len(small.expected)))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "first_record_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == ["classify-mixed", "mapcheck-mixed", "verify-suites"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
