"""spinorlab benchmark: CLI throughput end to end, per-layer cost from a traced run.

    python3 perfbench/run.py --workload classify-mixed --seed 1 --seconds 30 --trace 0

Run it from the root of a spinorlab checkout; it imports the package from
``src/`` and builds nothing else.  With ``--trace 0`` it launches the real
CLI (``python -m spinorlab.cli``) as a child process, one child at a time in
a closed loop, until ``--seconds`` have passed, and reports end-to-end
metrics, each time scaled by a calibration child run next to it.  With
``--trace 1`` it calls ``spinorlab.cli.main`` in-process, alternating
untraced and traced passes, and reports per-layer metrics.
Either way every output is checked.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give provenance and figures outside the metric set.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, set before numpy loads.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

import argparse
import contextlib
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CORPUS_SIZE = 2000  # records per classify / map-check batch
VERIFY_SAMPLES = 1000  # --samples per verify suite
SUITES = ("fierz", "hopf", "projectors", "mapping")
SETUP_CODE = "import spinorlab.cli as c; c.build_parser()"
# A fixed load that runs no spinorlab code: interpreter start, numpy import,
# small complex arrays and JSON, the same kinds of work as the CLI.
CALIBRATION_CODE = """
import json
import numpy as np
rng = np.random.default_rng(0)
for _ in range(4000):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    json.loads(json.dumps({"m": [float(x) for x in np.outer(v, v.conj()).real.ravel()]}))
"""
CALIBRATION_REF_S = 0.24  # the fastest calibration child seen on the build host (2-vCPU Xeon)
WORKLOADS = ("classify-mixed", "mapcheck-mixed", "verify-suites")
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Job:
    """One CLI invocation of a batch."""

    args: list  # CLI arguments after ``spinorlab``
    stdin: Path | None
    items: int
    check: Callable[[str, int], int]  # (stdout, exit code) -> failed items
    item_id: str | None = None


@dataclass
class Child:
    wall_s: float
    first_byte_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


# ---- workloads -------------------------------------------------------------


def suite_items(suite: str, samples: int) -> int:
    """Samples a verify suite actually runs; the projectors suite runs fewer."""
    return max(10, samples // 10) if suite == "projectors" else samples


def make_jobs(workload: str, seed: int) -> tuple[list[Job], dict]:
    """The batch for ``workload`` and a description of its inputs."""
    if workload == "verify-suites":
        jobs = []
        for suite in SUITES:
            items = suite_items(suite, VERIFY_SAMPLES)
            args = ["verify", suite, "--samples", str(VERIFY_SAMPLES), "--seed", str(seed), "--json"]
            check = lambda out, rc, items=items: checks.check_verify(out, rc, items)
            jobs.append(Job(args, None, items, check, item_id=suite))
        return jobs, {"samples": VERIFY_SAMPLES, "items_per_suite": {s: suite_items(s, VERIFY_SAMPLES) for s in SUITES}}

    import corpus  # imports spinorlab, so only after src/ is on the path

    data = corpus.make_corpus(seed, CORPUS_SIZE)
    path = OUT / f"corpus-{workload}-{seed}.jsonl"
    path.write_text(data.text, encoding="utf-8")
    if workload == "classify-mixed":
        job = Job(["classify", "-"], path, CORPUS_SIZE, lambda out, rc: checks.check_classify(out, rc, data.expected))
    else:
        job = Job(["map-check", "-"], path, CORPUS_SIZE, lambda out, rc: checks.check_mapcheck(out, rc, data.expected))
    info = {
        "records": CORPUS_SIZE,
        "corpus_bytes": len(data.text.encode()),
        "kind_mix": data.mix,
        "class_mix": data.class_mix,
    }
    return [job], info


# ---- end-to-end run ----------------------------------------------------------


def run_child(args: list, stdin: Path | None) -> Child:
    """Run ``python -m spinorlab.cli *args`` (or ``python -c``) through launch.py."""
    command = [sys.executable, *args] if args[0] == "-c" else [sys.executable, "-m", "spinorlab.cli", *args]
    stdout, stderr = OUT / "child-stdout.txt", OUT / "child-stderr.txt"
    launcher = [sys.executable, str(HERE / "launch.py"), str(stdin or "-"), str(stdout), str(stderr), *command]
    done = subprocess.run(launcher, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, check=True)
    timing = json.loads(done.stdout)
    return Child(
        timing["wall_s"], timing["first_byte_s"], timing["peak_rss_mb"], timing["returncode"],
        stdout.read_text(encoding="utf-8"),
    )


def report_child_failure(job: Job, child: Child) -> None:
    stderr = (OUT / "child-stderr.txt").read_text(encoding="utf-8", errors="replace")
    print(f"perfbench: check failed for spinorlab {' '.join(job.args)} (exit {child.returncode})", file=sys.stderr)
    print(stderr[-2000:], file=sys.stderr)


def end_to_end(jobs: list[Job], seconds: float) -> dict:
    """Closed loop of rounds until ``seconds`` pass; timings are scaled by a calibration.

    A round runs a set-up child and then each CLI child of the batch, one at
    a time, each paired with a calibration child run next to it.  The host
    slows the guest by up to 1.9x for stretches of seconds to minutes, and
    the calibration is slowed alike, so each time is multiplied by
    ``CALIBRATION_REF_S / calibration``.  The run reports medians over
    rounds.  Raw samples are printed with the result.
    """
    calibrate = lambda: run_child(["-c", CALIBRATION_CODE], None).wall_s
    run_child(["-c", SETUP_CODE], None)  # compiles bytecode and warms the file cache
    setup = []  # (wall, calibration) per round
    children = [[] for _ in jobs]  # per job: (child, calibration) per round
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not setup or perf_counter() < deadline:
        setup.append((run_child(["-c", SETUP_CODE], None).wall_s, calibrate()))
        for job, samples in zip(jobs, children):
            calibration = calibrate()
            child = run_child(job.args, job.stdin)
            bad = job.check(child.stdout, child.returncode)
            if bad:
                report_child_failure(job, child)
            attempted += job.items
            failed += bad
            samples.append((child, calibration))

    def scaled_median(samples, measure):
        return statistics.median(measure(x) * CALIBRATION_REF_S / cal for x, cal in samples)

    wall = sum(scaled_median(s, lambda c: c.wall_s) for s in children)
    metrics = {
        "items_per_s": (sum(j.items for j in jobs) / wall, "1/s"),
        "first_record_s": (sum(scaled_median(s, lambda c: c.first_byte_s) for s in children), "s"),
        "setup_s": (scaled_median(setup, lambda wall: wall), "s"),
        "peak_rss_mb": (max(statistics.median(c.peak_rss_mb for c, _ in s) for s in children), "MB"),
    }
    extra = {
        "rounds": len(setup),
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
        "setup_s_samples": [w for w, _ in setup],
        "setup_calibration_s_samples": [c for _, c in setup],
        "jobs": [
            {
                "args": job.args,
                "items": job.items,
                "wall_s": [c.wall_s for c, _ in s],
                "first_byte_s": [c.first_byte_s for c, _ in s],
                "peak_rss_mb": [c.peak_rss_mb for c, _ in s],
                "calibration_s": [cal for _, cal in s],
            }
            for job, s in zip(jobs, children)
        ],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


# ---- traced run ---------------------------------------------------------------


def run_pass(jobs: list[Job], tracer) -> tuple[float, int]:
    """Run the batch in-process; return its wall time and failed items."""
    from spinorlab import cli

    wall = 0.0
    failed = 0
    for job in jobs:
        stdin = job.stdin.read_text(encoding="utf-8") if job.stdin else ""
        out = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                start = perf_counter()
                if tracer is None:
                    code = cli.main(job.args)
                else:
                    tracer.item = job.item_id
                    code = tracer.root(layers.ROOT_SPAN, cli.main, job.args)
                wall += perf_counter() - start
        finally:
            sys.stdin = saved_stdin
        failed += job.check(out.getvalue(), code)
    return wall, failed


def traced(jobs: list[Job], workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes until ``seconds`` pass.

    Span times come from the fastest traced pass, for the reason given in
    ``end_to_end``; counts are the same in every pass.
    """
    import spans

    tracer = spans.Tracer()
    plain, passes = [], []  # untraced walls; (traced wall, first span, end span)
    failed = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        wall, bad = run_pass(jobs, None)
        plain.append(wall)
        failed += bad
        first = len(tracer.spans)
        layers.install(tracer, workload)
        try:
            wall, bad = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        passes.append((wall, first, len(tracer.spans)))
        failed += bad
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")

    items = sum(j.items for j in jobs)
    fastest = min(passes)
    totals = tracer.totals(fastest[1], fastest[2])
    values = {}
    for span in layers.SPANS:
        calls, self_ns = totals.get(span, (0, 0))
        values[f"{span}.self_us_per_item"] = self_ns / 1e3 / items
        values[f"{span}.calls_per_item"] = calls / items
    values["cli.unattributed.self_us_per_item"] = totals[layers.ROOT_SPAN][1] / 1e3 / items
    for metric, span in (
        ("bilinears.reconstruct.degenerate_share", "bilinears.reconstruct"),
        ("classify.classify.error_share", "classify.classify"),
    ):
        calls = totals.get(span, (0, 0))[0]
        values[metric] = tracer.raised[span] / len(passes) / calls if calls else 0.0
    for name in ("multivector_inits", "geometric_products"):
        values[f"algebra.{name}_per_item"] = tracer.counts[f"algebra.{name}"] / len(passes) / items
    values["trace.overhead_share"] = fastest[0] / min(plain) - 1

    metrics = {name: (values[name], layers.per_layer_unit(name)) for name in layers.per_layer_names()}
    attempted = 2 * items * len(passes)
    extra = {
        "passes": len(passes),
        "untraced_pass_s": plain,
        "traced_pass_s": [p[0] for p in passes],
        "spans_recorded": len(tracer.spans),
        "multivector_inits_per_pass": tracer.counts["algebra.multivector_inits"] / len(passes),
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


# ---- provenance and entry -------------------------------------------------------


def provenance(workload: str, seed: int, seconds: float, trace: int, inputs: dict) -> dict:
    import numpy

    sources = sorted((SRC / "spinorlab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "inputs": inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinorlab" / "cli.py").is_file():
        print(f"perfbench: no spinorlab sources under {SRC}; run from a spinorlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    jobs, inputs = make_jobs(args.workload, args.seed)
    if args.trace:
        result = traced(jobs, args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(jobs, args.seconds)
    for job in jobs:
        if job.stdin:
            job.stdin.unlink()

    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, args.trace, inputs)}))
    print(json.dumps({"attempted": result["attempted"], "failed": result["failed"], **result["extra"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
