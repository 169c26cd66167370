#!/usr/bin/env python3
"""Byte-identity check of the spinorlab CLI between two source trees.

    python3 scripts/byte_identity.py PARENT_SRC CHANGE_SRC

Runs ``python -m spinorlab.cli`` with PYTHONPATH set to each tree: ``classify``,
``map-check`` and ``hopf`` on the seed 0-3 ``perfbench/corpus.py`` corpora and
``map_check_decades()`` (JSON-lines from a file and stdin, CSV with a header
and without; each plain, ``--table``, ``--rep standard``, ``--tol`` 1e-10, 1e-3,
1e-16, 1e-20 and 0.5), CSV with leading blank lines, the seed-1 corpus with a
malformed ``{`` line in and just past the first chunk, the ``verify`` suites at
seeds 1-3 and at ``--samples`` 1 and 65 as JSON and table, the README
``make`` pipelines, and ``make`` runs that end in each error its parameters
can raise.  Inputs are built once, with PARENT_SRC.  It prints each run whose
exit codes, stdout SHA-256 or stderr differ, and exits 1 if any does.
Standard library only.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = "re1,im1,re2,im2,re3,im3,re4,im4\n"
OPTIONS = [[], ["--table"], ["--rep", "standard"], ["--tol", "1e-10"], ["--tol", "1e-3"],
           ["--tol", "1e-16"], ["--tol", "1e-20"], ["--tol", "0.5"]]
BUILD = """
import json, corpus, conftest
texts = {f"seed-{seed}": corpus.make_corpus(seed, 2000).text for seed in range(4)}
texts["decades"] = "".join(json.dumps({"components": [[z.real, z.imag] for z in p.components.tolist()],
                                       "rep": p.rep}) + "\\n" for p in conftest.map_check_decades())
csv = {k: "".join(",".join(repr(x) for re_im in json.loads(line)["components"] for x in re_im) + "\\n"
                  for line in text.splitlines()) for k, text in texts.items()}
print(json.dumps({k: (text, csv[k]) for k, text in texts.items()}))
"""
EDGE = {  # CSV with leading blank lines, before a header and before a bad first data row
    "csv-blank-line-then-header": "\n" + HEADER + "1,0,0,0,0,0,0,0\n",
    "csv-two-blank-lines-then-header": "\n\n" + HEADER + "1,0,0,0,0,0,0,0\n",
    "csv-blank-line-then-bad-row": "\n1,0,x,0,0,0,0,0\n1,0,0,0,0,0,0,0\n",
}
# 1-based lines of the seed-1 corpus that read "{": inside the first 256-record chunk, at its
# last line, and in the second chunk; a record written before the first chunk was read whole
# would show in the first three
BAD_LINES = (2, 129, 256, 258)
PIPELINES = [  # the README's make examples, each stage's stdout the next one's stdin
    [["make", "elko"], ["classify", "-", "--json"]],
    [["make", "elko", "--p", "0,0,0.75", "--m", "1.0"]],
    [["make", "dirac", "--phi", "1,0", "--p", "0.3,-0.2,0.5", "--m", "1.3", "--delta", "0.7"]],
    [["make", "flagdipole", "--u", "0.3,0.4,0.866025403784"]],
    [["make", "elko"], ["hopf", "-"]],
]
MAKE_ERRORS = [  # make runs that exit 1: a bad number, a wrong count, a missing or extra option,
    # a non-finite parameter, a build that overflows, and a spinor past the accepted norm
    ["make", "weyl", "--phi", "1,x"],
    ["make", "elko", "--p", "0,x,1", "--m", "1"],
    ["make", "weyl", "--phi", "1"],
    ["make", "majorana", "--xi", "1,0,0,inf"],
    ["make", "elko", "--p", "0,0,1"],
    ["make", "elko", "--p", "0,0,1", "--m", "1", "--alpha", "1"],
    ["make", "flagdipole"],
    ["make", "elko", "--m", "nan"],
    ["make", "dirac", "--p", "1e300,0,0", "--m", "1"],
    ["make", "weyl", "--phi", "1e200,0"],
]


def runs(texts: dict, tmp: Path):
    """(name, stages, stdin) for every run of the matrix."""
    for name, (text, csv) in texts.items():
        forms = {"jsonl-file": (text, True), "jsonl-stdin": (text, False),
                 "csv-header-stdin": (HEADER + csv, False), "csv-file": (csv, True)}
        for form, (data, from_file) in forms.items():
            source = "-"
            if from_file:
                source = str(tmp / f"{name}-{form}.txt")
                Path(source).write_text(data)
            for command in ("classify", "map-check", "hopf"):
                for options in OPTIONS:
                    yield (f"{command} {name} {form} {' '.join(options)}",
                           [[command, source, *options]], "" if from_file else data)
    for name, data in EDGE.items():
        for command in ("classify", "map-check", "hopf"):
            yield f"{command} {name}", [[command, "-"]], data
    lines = texts["seed-1"][0].splitlines(True)
    for lineno in BAD_LINES:
        data = "".join(lines[:lineno - 1] + ["{\n"] + lines[lineno:])
        for command in ("classify", "map-check", "hopf"):
            yield f"{command} seed-1 with '{{' at line {lineno}", [[command, "-"]], data
    for suite in ("fierz", "hopf", "projectors", "mapping"):
        # the default sample count at seeds 1-3, then one sample and a block plus one at seed 1
        sizes = [["--seed", seed] for seed in ("1", "2", "3")]
        sizes += [["--seed", "1", "--samples", samples] for samples in ("1", "65")]
        for size in sizes:
            for fmt in ("--json", "--table"):
                argv = ["verify", suite, *size, fmt]
                yield " ".join(argv), [argv], ""
    for stages in PIPELINES + [[argv] for argv in MAKE_ERRORS]:
        yield " | ".join(" ".join(argv) for argv in stages), stages, ""


def run(src: str, stages: list, stdin: str):
    """Each stage's exit code, the last stage's stdout digest, and every stage's stderr."""
    env = {**os.environ, "PYTHONPATH": src}
    data, codes, errs = stdin.encode(), [], b""
    for argv in stages:
        done = subprocess.run([sys.executable, "-m", "spinorlab.cli", *argv], input=data,
                              capture_output=True, env=env, timeout=600)
        data, errs = done.stdout, errs + done.stderr
        codes.append(done.returncode)
    return codes, hashlib.sha256(data).hexdigest(), errs.decode(errors="replace")


def main(parent: str, change: str) -> int:
    parent, change = (str(Path(p).resolve()) for p in (parent, change))
    path = os.pathsep.join([parent, str(ROOT / "perfbench"), str(ROOT / "tests")])
    env = {**os.environ, "PYTHONPATH": path}
    texts = json.loads(subprocess.run([sys.executable, "-c", BUILD], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = list(runs(texts, Path(tmp)))
        with ThreadPoolExecutor(2) as pool:  # each run is a child process: two at a time
            results = [pool.map(lambda r, src=src: run(src, *r[1:]), matrix)
                       for src in (parent, change)]
            differ = 0
            for (name, _, _), before, after in zip(matrix, *results):
                if before != after:
                    differ += 1
                    print(f"DIFFERS {name}\n  parent: {before}\n  change: {after}")
    print(f"{len(matrix)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    sys.exit(main(*sys.argv[1:]))
