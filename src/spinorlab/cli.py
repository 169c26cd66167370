"""Command-line interface: classify spinors, build families, verify identities.

Subcommands
-----------
classify   read spinor documents, emit classification reports
make       construct a named spinor family (elko, majorana, weyl, dirac, flagdipole)
verify     run a randomized identity suite (fierz, hopf, projectors, mapping)
hopf       compare the fibration routes for each input spinor
map-check  evaluate the ELKO mapping conditions for each input spinor

Input is JSON-lines (one object per line with a ``components`` field of four
[re, im] pairs) or CSV with eight real columns, re/im interleaved.  Output is
deterministic: fixed key order, byte-identical for identical input and seed.

Exit codes: 0 on success, 1 for I/O or parse errors (non-finite components and
|psi| above ~3.4e38 included), 2 when a classify or hopf record carries an error
or a verify suite fails.  map-check notes null and singular spinors and exits 0.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .algebra import Multivector, Quaternion
from .bilinears import (
    SpinorC4,
    aggregate,
    aggregate_matrix_residual,
    bilinears,
    fierz_residuals,
    generalized_fierz_residuals,
    reconstruct,
)
from .classify import BilinearInconsistencyError, NullSpinorError, classify
from .elko import (
    WeylC2,
    dirac_from_left,
    dirac_with_phase,
    elko_boost,
    elko_rest,
    helicity_eigenspinor,
    majorana_from_weyl,
    weyl_spinor,
)
from .flagdipole import (
    annihilator_residuals,
    class_limit,
    direction_element,
    frame_from_bilinears,
    projection_spinor,
    projector_idempotency_residual,
    sigma_projector,
    sigma_projector_matrix,
)
from .hopf import (
    column_to_even,
    column_to_quaternions,
    even_to_column,
    even_to_ideal,
    hopf_map_unnormalized,
    hopf_routes_report,
    ideal_to_column,
    instanton_obstruction,
    quaternions_to_column,
)
from .mapping import SingularSpinorError, elko_map_conditions, mappability

REP_CHOICES = ("chiral", "standard")
# largest accepted |psi|: the record code goes up to its eighth power
_MAX_NORM = np.finfo(float).max ** 0.125


class CliInputError(Exception):
    """Unreadable or unparseable input; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; reserve 2 for math faults
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass
class SpinorDocument:
    index: int
    spinor: SpinorC4
    label: str | None = None


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise CliInputError(f"cannot parse complex number from {text!r}") from exc


def _parse_complex_list(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise CliInputError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    return np.array([_parse_complex(p) for p in parts])


def _parse_floats(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise CliInputError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise CliInputError(f"cannot parse {what} from {text!r}") from exc


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite(values: list[complex], where: str) -> np.ndarray:
    if not all(map(cmath.isfinite, values)):
        raise CliInputError(f"{where}: non-finite component entry")
    if math.hypot(*[x for z in values for x in (z.real, z.imag)]) > _MAX_NORM:  # hypot: no overflow
        raise CliInputError(f"{where}: spinor norm above {_MAX_NORM:.3g} is out of range")
    return np.array(values)


def _components_from_pairs(pairs, where: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != 4:
        raise CliInputError(f"{where}: 'components' must be a list of four [re, im] pairs")
    values = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliInputError(f"{where}: each component must be a [re, im] pair")
        try:
            values.append(complex(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{where}: non-numeric component entry") from exc
    return _finite(values, where)


def read_documents(path: str, default_rep: str) -> list[SpinorDocument]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.lstrip()[0] == "{":
        return _read_jsonl(text, default_rep)
    return _read_csv(text, default_rep)


def _read_jsonl(text: str, default_rep: str) -> list[SpinorDocument]:
    docs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliInputError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "components" not in obj:
            raise CliInputError(f"{where}: expected an object with a 'components' field")
        comp = _components_from_pairs(obj["components"], where)
        rep = obj.get("rep", default_rep)
        if rep not in REP_CHOICES:
            raise CliInputError(f"{where}: unknown representation {rep!r}")
        docs.append(
            SpinorDocument(index=len(docs), spinor=SpinorC4(comp, rep), label=obj.get("label"))
        )
    return docs


def _read_csv(text: str, default_rep: str) -> list[SpinorDocument]:
    docs = []
    rows = list(csv.reader(io.StringIO(text)))
    for rowno, row in enumerate(rows, start=1):
        cells = [c.strip() for c in row if c.strip() != ""]
        if not cells:
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            if rowno == 1:  # tolerate a header row
                continue
            raise CliInputError(f"row {rowno}: non-numeric CSV cell")
        if len(values) != 8:
            raise CliInputError(
                f"row {rowno}: need 8 real columns (re/im interleaved), got {len(values)}"
            )
        pairs = [complex(values[2 * k], values[2 * k + 1]) for k in range(4)]
        comp = _finite(pairs, f"row {rowno}")
        docs.append(SpinorDocument(index=len(docs), spinor=SpinorC4(comp, default_rep)))
    return docs


def _emit(lines: list[str], output: str | None) -> None:
    payload = "\n".join(lines)
    if lines:
        payload += "\n"
    if output is None or output == "-":
        sys.stdout.write(payload)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(payload)


# ---- record pipeline: classify, hopf, map-check ----------------------------


def _head(doc: SpinorDocument) -> dict:
    head: dict = {"index": doc.index}
    if doc.label is not None:
        head["label"] = doc.label
    return head


def _run_records(args, record_fn, table_row, header=None) -> int:
    """Read, format one record per document, emit; exit 2 when a record has an error.

    Each record is formatted as soon as it is made, so only the output lines
    stay in memory.
    """
    lines = [header] if args.table and header else []
    failed = False
    for doc in read_documents(args.input, args.rep):
        record = record_fn(doc, args.tol)
        failed = failed or bool(record.get("error"))
        lines.append(table_row(record) if args.table else json.dumps(record))
    _emit(lines, args.output)
    return 2 if failed else 0


def _classification_record(doc: SpinorDocument, tol: float) -> dict:
    record = _head(doc)
    try:
        b = bilinears(doc.spinor, tol=tol)
        verdict = classify(b, tol=tol)
    except (NullSpinorError, BilinearInconsistencyError) as exc:
        record.update(
            {
                "class": None,
                "error": str(exc),
                "error_kind": "null-spinor" if isinstance(exc, NullSpinorError) else "inconsistency",
            }
        )
        return record
    residuals = fierz_residuals(b)
    # Crawford's boomerang test: Z comes back to 4 psi psibar, whose norm is 4 J^0
    boomerang = aggregate_matrix_residual(doc.spinor, b) <= max(tol, 1e-12) * 4 * b.J[0]
    record.update(
        {
            "class": verdict.label,
            "regular": verdict.regular,
            "singular": not verdict.regular,
            "marginal": verdict.marginal,
            "marginal_fields": list(verdict.marginal_fields),
            "witness": {k: bool(v) for k, v in verdict.witness.items()},
            "bilinears": {
                "sigma": float(b.sigma),
                "J": [float(x) for x in b.J],
                "S": [float(x) for x in b.S],
                "K": [float(x) for x in b.K],
                "omega": float(b.omega),
            },
            "fierz_residuals": [float(r) for r in residuals],
            "boomerang": bool(boomerang),
            "error": None,
        }
    )
    return record


CLASSIFY_HEADER = (
    f"{'idx':>4} {'class':>5} {'regular':>7} {'marginal':>8} "
    f"{'sigma':>12} {'omega':>12} {'fierz_max':>10}  note"
)


def _classification_row(rec: dict) -> str:
    if rec.get("error"):
        return (f"{rec['index']:>4} {'-':>5} {'-':>7} {'-':>8} "
                f"{'-':>12} {'-':>12} {'-':>10}  {rec['error']}")
    b = rec["bilinears"]
    return (
        f"{rec['index']:>4} {rec['class']:>5} {str(rec['regular']):>7} "
        f"{str(rec['marginal']):>8} {b['sigma']:>12.4e} {b['omega']:>12.4e} "
        f"{max(rec['fierz_residuals']):>10.2e}  {rec.get('label') or ''}"
    )


def _hopf_record(doc: SpinorDocument, tol: float) -> dict:
    record = _head(doc)
    try:
        instanton = instanton_obstruction(doc.spinor)
    except ValueError as exc:  # the zero column has no image point
        record.update({"error": str(exc), "error_kind": "null-spinor"})
        return record
    record.update(hopf_routes_report(doc.spinor))
    record["instanton"] = instanton
    return record


def _hopf_row(rec: dict) -> str:
    if rec.get("error"):
        return f"{rec['index']:>4} {rec['error']}"
    q = rec["quaternion_route"]
    return (
        f"{rec['index']:>4} sigma_q={q['sigma']:.6g} "
        f"norm_residual={rec['norm_identity_residual_quaternion']:.2e} "
        f"route_gap={rec['route_gap']:.2e}"
    )


def _map_check_record(doc: SpinorDocument, tol: float) -> dict:
    report = elko_map_conditions(doc.spinor)
    record = _head(doc)
    record.update(
        {
            "shared_residuals": [float(x) for x in report.shared],
            "extra_class2": float(report.extra_class2),
            "extra_class3": float(report.extra_class3),
            "route_disagreement": float(report.route_disagreement()),
            "line3_vs_class3_gap": float(report.line3_vs_class3_gap),
        }
    )
    try:
        record["mappability"] = {str(k): v for k, v in mappability(doc.spinor, tol).items()}
    except (SingularSpinorError, NullSpinorError, BilinearInconsistencyError) as exc:
        record["mappability"] = None
        record["note"] = str(exc)
    return record


def _map_check_row(rec: dict) -> str:
    return (
        f"{rec['index']:>4} shared_max={max(rec['shared_residuals']):.2e} "
        f"ad2={rec['extra_class2']:.2e} ad3={rec['extra_class3']:.2e} {rec.get('note') or ''}"
    )


# ---- make ------------------------------------------------------------------


def cmd_make(args) -> int:
    records: list[dict] = []

    def add(spinor: SpinorC4, label: str, momentum=None, mass=None) -> None:
        comp = [[float(c.real), float(c.imag)] for c in spinor.components]
        record: dict = {"components": comp, "rep": spinor.rep, "label": label}
        if momentum is not None:
            record["momentum"] = [float(x) for x in momentum]
        if mass is not None:
            record["mass"] = float(mass)
        records.append(record)

    if args.family == "elko":
        momentum = _parse_floats(args.p, 3, "--p") if args.p else np.zeros(3)
        moving = float(np.linalg.norm(momentum)) > 0.0
        if moving:
            if args.alpha is not None or args.beta is not None:
                raise CliInputError(
                    "boosted ELKOs are built from helicity eigenspinors; "
                    "drop --alpha/--beta when --p is nonzero"
                )
            if args.m is None:
                raise CliInputError("--m is required when --p is nonzero")
            phi = helicity_eigenspinor(momentum, 1 if args.helicity == "+" else -1)
            lam = elko_boost(elko_rest(phi, args.conjugacy), momentum, args.m)
            add(
                lam.spinor,
                f"elko:{args.conjugacy}:{lam.pair}",
                momentum=momentum.tolist(),
                mass=args.m,
            )
        else:
            alpha = _parse_complex(args.alpha) if args.alpha is not None else 1 + 0j
            beta = _parse_complex(args.beta) if args.beta is not None else 0j
            phi = WeylC2(np.array([alpha, beta]))
            lam = elko_rest(phi, args.conjugacy)
            add(lam.spinor, f"elko:{args.conjugacy}:rest")
    elif args.family == "majorana":
        comp = (
            _parse_complex_list(args.xi, 4, "--xi")
            if args.xi
            else np.array([1, 0, 0, 0], dtype=complex)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus, minus = majorana_from_weyl(SpinorC4(comp, "chiral"))
        if args.part in ("plus", "both"):
            add(plus, "majorana:+")
        if args.part in ("minus", "both"):
            add(minus, "majorana:-")
    elif args.family == "weyl":
        phi = WeylC2(_parse_complex_list(args.phi, 2, "--phi"))
        add(weyl_spinor(phi, args.chirality), f"weyl:{args.chirality}")
    elif args.family == "dirac":
        phi = WeylC2(_parse_complex_list(args.phi, 2, "--phi"))
        momentum = _parse_floats(args.p, 3, "--p") if args.p else np.zeros(3)
        mass = args.m if args.m is not None else 1.0
        if args.delta != 0.0:
            psi = dirac_with_phase(phi, momentum, mass, args.delta)
            label = f"dirac:delta={args.delta:g}"
        else:
            psi = dirac_from_left(phi, momentum, mass, epsilon=args.epsilon)
            label = f"dirac:eps={args.epsilon:+d}"
        add(psi, label, momentum=momentum.tolist(), mass=mass)
    else:  # flagdipole
        if args.u is None:
            raise CliInputError("make flagdipole requires --u ux,uy,uz")
        u = direction_element(_parse_floats(args.u, 3, "--u"))
        psi = projection_spinor(Multivector.scalar(1.0), u)
        add(psi, "flagdipole")

    _emit([json.dumps(record) for record in records], args.output)
    return 0


# ---- verify ----------------------------------------------------------------


def _random_spinor(rng: np.random.Generator, rep: str) -> SpinorC4:
    comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return SpinorC4(comp, rep)


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def _suite_fierz(rng: np.random.Generator, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    worst_quad = worst_general = worst_matrix = worst_recon = 0.0
    for n in range(samples):
        rep = "chiral" if n % 2 == 0 else "standard"
        psi = _random_spinor(rng, rep)
        b = bilinears(psi)
        scale = max(1.0, float(b.J[0]) ** 2)
        worst_quad = max(worst_quad, float(np.max(fierz_residuals(b))) / scale)
        z = aggregate(b)
        worst_matrix = max(worst_matrix, aggregate_matrix_residual(psi, b) / scale)
        gen = generalized_fierz_residuals(z, b, rep)
        worst_general = max(worst_general, float(np.max(gen)) / max(1.0, scale ** 1.5))
        probe = _random_spinor(rng, rep)
        try:
            recovered = reconstruct(z, probe)
            worst_recon = max(
                worst_recon,
                _phase_aligned_distance(recovered.components, psi.components)
                / max(1.0, psi.norm()),
            )
        except ValueError:
            pass
    return [
        ("quadratic_identities", worst_quad, worst_quad < tol),
        ("aggregate_equals_4_psi_psibar", worst_matrix, worst_matrix < tol),
        ("generalized_identities", worst_general, worst_general < max(tol, 1e-9)),
        ("reconstruction_roundtrip", worst_recon, worst_recon < 1e-8),
    ]


def _suite_hopf(rng: np.random.Generator, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    worst_norm = worst_fiber = worst_round = 0.0
    for _ in range(samples):
        comp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        comp /= np.linalg.norm(comp)
        psi = SpinorC4(comp, "standard")
        pair = column_to_quaternions(psi)
        sigma, point = hopf_map_unnormalized(pair)
        worst_norm = max(worst_norm, abs(point.norm() ** 2 - sigma**2))
        angles = rng.standard_normal(4)
        u = Quaternion(*(angles / np.linalg.norm(angles)))
        moved = pair.right_multiplied(u)
        sigma_m, point_m = hopf_map_unnormalized(moved)
        worst_fiber = max(
            worst_fiber,
            float(np.max(np.abs(point_m.as_array() - point.as_array()))),
            abs(sigma_m - sigma),
        )
        back = quaternions_to_column(pair)
        worst_round = max(worst_round, float(np.linalg.norm(back.components - psi.components)))
        even = column_to_even(psi)
        back2 = even_to_column(even)
        worst_round = max(worst_round, float(np.linalg.norm(back2.components - psi.components)))
        ideal = even_to_ideal(even)
        back3 = ideal_to_column(ideal)
        worst_round = max(worst_round, float(np.linalg.norm(back3.components - psi.components)))
    return [
        ("norm_identity", worst_norm, worst_norm < tol),
        ("fiber_invariance", worst_fiber, worst_fiber < tol),
        ("representation_roundtrips", worst_round, worst_round < 1e-13),
    ]


def _random_admissible_direction(rng: np.random.Generator) -> Multivector:
    while True:
        raw = rng.standard_normal(3)
        norm = np.linalg.norm(raw)
        if norm < 1e-6:
            continue
        raw /= norm
        if 0.05 < abs(raw[2]) < 0.95:
            return direction_element(raw)


def _suite_projectors(rng: np.random.Generator, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    worst_class = 0.0
    worst_ratio = worst_ann = worst_idem = 0.0
    matrix_sum_exact = True
    worst_apply = 0.0
    limit_fail = 0.0
    eye = np.eye(4, dtype=np.complex128)
    for n in range(max(10, samples // 10)):
        u = _random_admissible_direction(rng)
        psi = projection_spinor(Multivector.scalar(1.0), u)
        b = bilinears(psi)
        verdict = classify(b)
        if verdict.label != 4:
            worst_class = 1.0
        frame = frame_from_bilinears(b)
        ratio = float(np.max(np.abs(frame.h * b.J - b.K))) / max(1.0, float(np.max(np.abs(b.K))))
        worst_ratio = max(worst_ratio, ratio)
        res = annihilator_residuals(frame)
        worst_ann = max(worst_ann, res["z_squared"], res["left"], res["right"])
        worst_idem = max(worst_idem, projector_idempotency_residual(frame.s, frame.h))
        mat_sum = sigma_projector_matrix(frame.s, frame.h, +1) + sigma_projector_matrix(
            frame.s, frame.h, -1
        )
        if not np.array_equal(mat_sum, eye):
            matrix_sum_exact = False
        plus = sigma_projector(psi, frame.s, frame.h, +1)
        minus = sigma_projector(psi, frame.s, frame.h, -1)
        total = plus.components + minus.components
        worst_apply = max(
            worst_apply,
            float(np.linalg.norm(total - psi.components)) / max(1.0, psi.norm()),
        )
        for which, terminal in (("h->0", 5), ("s->0", 6)):
            path = class_limit(u, which)
            end = classify(bilinears(path[-1][2]))
            if end.label != terminal:
                limit_fail = 1.0
    machine_floor = 64 * np.finfo(np.float64).eps
    return [
        ("projection_class_is_4", worst_class, worst_class == 0.0),
        ("axial_ratio_K_equals_hJ", worst_ratio, worst_ratio < max(tol, 1e-9)),
        ("boomerang_annihilators", worst_ann, worst_ann < max(tol, 1e-11)),
        ("projector_idempotency", worst_idem, worst_idem < max(tol, 1e-10)),
        ("projector_matrix_sum_is_identity", 0.0 if matrix_sum_exact else 1.0, matrix_sum_exact),
        ("projector_apply_sum_at_machine_floor", worst_apply, worst_apply < machine_floor),
        ("class_limits_reach_5_and_6", limit_fail, limit_fail == 0.0),
    ]


def _suite_mapping(rng: np.random.Generator, samples: int, tol: float) -> list[tuple[str, float, bool]]:
    worst_route = 0.0
    passes = 0
    total = 0
    witness_fail = 0.0
    witnesses = {
        1: np.array([2, 0, 1j, 0]),
        2: np.array([1, 0, 0, 0], dtype=complex),
        3: np.array([1j, 1j, 1, 1]),
    }
    for label, comp in witnesses.items():
        scale = float(rng.uniform(0.5, 2.0))
        phase = np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        psi = SpinorC4(comp * scale * phase, "standard")
        report = elko_map_conditions(psi)
        if not report.satisfied(label, tol):
            witness_fail = 1.0
        verdict = mappability(psi, tol)
        if verdict["class"] != label or not verdict[label]:
            witness_fail = 1.0
    for _ in range(samples):
        psi = _random_spinor(rng, "standard")
        report = elko_map_conditions(psi)
        worst_route = max(worst_route, report.route_disagreement())
        total += 1
        if bool(np.all(report.shared <= tol * report.scale)):
            passes += 1
    rate = passes / max(1, total)
    return [
        ("route_agreement", worst_route, worst_route < 1e-12),
        ("constructed_families_pass", witness_fail, witness_fail == 0.0),
        ("random_pass_rate_below_1pc", rate, rate < 0.01),
    ]


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    suites = {
        "fierz": _suite_fierz,
        "hopf": _suite_hopf,
        "projectors": _suite_projectors,
        "mapping": _suite_mapping,
    }
    results = suites[args.suite](rng, args.samples, args.tol)
    lines = []
    if args.table:
        for name, value, ok in results:
            lines.append(f"{'ok ' if ok else 'FAIL'} {name:<36} worst={value:.3e}")
        lines.append(
            f"{'ok' if all(r[2] for r in results) else 'FAIL'} suite={args.suite} "
            f"samples={args.samples} seed={args.seed}"
        )
    else:
        for name, value, ok in results:
            lines.append(json.dumps({"check": name, "worst": float(value), "pass": bool(ok)}))
    _emit(lines, args.output)
    return 0 if all(r[2] for r in results) else 2


# ---- entry -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spinorlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, records: bool = True, table: bool = False) -> None:
        if records:
            p.add_argument("input", help="input file (JSON-lines or CSV), or - for stdin")
            p.add_argument("--rep", choices=REP_CHOICES, default="chiral",
                           help="representation for inputs that do not declare one")
        p.add_argument("--tol", type=float, default=1e-10, help="zero-test tolerance")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         help="JSON-lines output" + ("" if table else " (default)"))
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="human-readable table output" + (" (default)" if table else ""))
        p.set_defaults(table=table)
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="Lounesto-classify each input spinor")
    common(p)
    p.set_defaults(func=partial(_run_records, record_fn=_classification_record,
                                table_row=_classification_row, header=CLASSIFY_HEADER))

    p = sub.add_parser("make", help="construct a named spinor family")
    p.add_argument("family", choices=("elko", "majorana", "weyl", "dirac", "flagdipole"))
    p.add_argument("--alpha", default=None, help="upper 2-spinor entry (complex, elko)")
    p.add_argument("--beta", default=None, help="lower 2-spinor entry (complex, elko)")
    p.add_argument("--conjugacy", choices=("self", "anti"), default="self")
    p.add_argument("--helicity", choices=("+", "-"), default="+",
                   help="helicity pair seed for boosted elko")
    p.add_argument("--xi", default=None, help="4 complex components (majorana seed)")
    p.add_argument("--part", choices=("plus", "minus", "both"), default="both")
    p.add_argument("--phi", default="1,0", help="2 complex components (weyl/dirac)")
    p.add_argument("--chirality", choices=("left", "right"), default="left")
    p.add_argument("--p", default=None, help="momentum px,py,pz")
    p.add_argument("--m", type=float, default=None, help="mass")
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    p.add_argument("--delta", type=float, default=0.0,
                   help="relative phase of the right block (dirac)")
    p.add_argument("--u", default=None, help="spatial direction ux,uy,uz (flagdipole)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_make, table=False)

    p = sub.add_parser("verify", help="run a randomized identity suite")
    p.add_argument("suite", choices=("fierz", "hopf", "projectors", "mapping"))
    p.add_argument("--samples", type=positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p, records=False, table=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hopf", help="compare fibration routes per input spinor")
    common(p)
    p.set_defaults(func=partial(_run_records, record_fn=_hopf_record, table_row=_hopf_row))

    p = sub.add_parser("map-check", help="evaluate ELKO mapping conditions per input")
    common(p)
    p.set_defaults(func=partial(_run_records, record_fn=_map_check_record,
                                table_row=_map_check_row))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"spinorlab: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
