"""Command-line interface: classify spinors, build families, verify identities.

Subcommands
-----------
classify   read spinor documents, emit classification reports
make       construct a named spinor family (elko, majorana, weyl, dirac, flagdipole)
verify     run a randomized identity suite (fierz, hopf, projectors, mapping) of
           ``spinorlab.verify``, its samples in fixed blocks through the array kernels
hopf       compare the fibration routes for each input spinor, a chunk at a time
map-check  evaluate the ELKO mapping conditions for each input spinor

Input is JSON-lines (one object per line with a ``components`` field of four
[re, im] pairs) or CSV with eight real columns, re/im interleaved.  Output is
deterministic: fixed key order, byte-identical for identical input and seed.
Each subcommand imports what it runs when it runs: ``make`` loads
``spinorlab.make``, which reads its parameters and calls the builders of its
family, ``hopf`` the route report, ``verify`` the suites, and CSV input the
``csv`` module, so ``classify`` and ``map-check`` on JSON-lines load none of
these modules.
The record subcommands stream: they read, compute and write one chunk of
``_CHUNK`` records at a time, so peak memory does not grow with the input.
Each chunk is parsed straight into one (N, 4) complex block, with each
record's representation and head, and the parsed rows are dropped.  They
share one path, ``_run_records``: it computes a chunk in row ranges, groups
each range by representation, calls the subcommand's block function
(``_classification_block``, ``_hopf_block``, ``_map_check_block``) once per
representation present, which yields one dict of fields per row (map-check
classifies the block at once and sends only its rows of classes 1-3 to
``mappability``), and then,
in input order, fills each record after its head, makes its line and drops
the record, so a record lives only until its line is made.  The range's
lines are written together.  The first chunk is read and checked whole,
then computed and written in ranges of 1, 3, 12, 48 and 192 rows, so the
first record leaves once one row is computed; each later chunk is one range.

Exit codes: 0 on success, 1 for I/O or parse errors (non-finite components,
component entries that are not JSON numbers, |psi| outside ~1.2e-77..3.4e38,
a ``--tol`` that is not a finite number above 0, ``make`` parameters its
builders refuse and ``make`` spinors outside that range or zero included;
input that is not UTF-8, a ``label`` that holds NaN or an infinity, which JSON
output cannot carry, a closed stdin or stdout, and output that cannot be
written), 2 when a classify or hopf record carries an error or a verify suite
fails.
map-check notes null and singular spinors and exits 0.  A malformed record
exits 1 after the records of the chunks before it have been written.  With
stderr closed at start an error writes no message, to stderr or stdout, and
still exits 1.

The console script and ``python -m spinorlab.cli`` enter through ``run``: the
process ends with ``os._exit`` as soon as its output is flushed and closed,
which skips the interpreter's teardown.  Atexit handlers and finalizers do not
run; spinorlab and numpy register none.  ``main(argv)`` still returns its exit
code normally, for callers in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from typing import NamedTuple, TextIO

import numpy as np

from . import __version__
# ``bilinears`` is not called here; perfbench's tracer checks that it wraps this binding
from .bilinears import SpinorC4, aggregate_residual_array, bilinears, covariant_array, fierz_array
from .classify import _FIELDS, _REFUSALS, lounesto_rule, magnitude_array
from .gamma import REP_TAGS
from .mapping import _refusal, elko_map_conditions, mappability

# largest accepted |psi|: the record code goes up to its eighth power
_MAX_NORM = np.finfo(float).max ** 0.125
# smallest accepted nonzero |psi|: its fourth power, the size of the Fierz terms,
# stays a normal double, and the covariants (|psi|^2) keep 154 decades below them
_MIN_NORM = np.finfo(float).tiny ** 0.25
# documents read per round, and the most rows computed and written at once:
# classify's array intermediates take about 1 kB per record, so a fixed chunk
# keeps peak memory flat for any input length; the first record leaves once
# the first chunk is read and its first row computed
_CHUNK = 256


class CliInputError(Exception):
    """Unreadable or unparseable input; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; reserve 2 for math faults
        if sys.stderr is not None:  # closed at start: print(file=None) would write to stdout
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class Chunk(NamedTuple):
    """Up to ``_CHUNK`` documents in input order."""

    heads: list[dict]  # each record's first fields: its index, and its label when it has one
    reps: list[str]
    components: np.ndarray  # (N, 4) complex


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _spinor_parts(values: list[float], where: str,
                  non_finite: str = "non-finite component entry") -> list[float]:
    """The eight re/im parts of an input line or row or a ``make`` record, if finite and in range."""
    if not all(map(math.isfinite, values)):
        raise CliInputError(f"{where}: {non_finite}")
    norm = math.hypot(*values)  # no over- or underflow
    if norm > _MAX_NORM:
        raise CliInputError(f"{where}: spinor norm above {_MAX_NORM:.3g} is out of range")
    if 0.0 < norm < _MIN_NORM:
        raise CliInputError(f"{where}: nonzero spinor norm below {_MIN_NORM:.3g} is out of range")
    return values


# the JSON values a component entry may be; float() would also read a string or a boolean
_NUMBER_TYPES = frozenset((int, float))


def _components_from_pairs(pairs, where: str) -> list[float]:
    if not isinstance(pairs, list) or len(pairs) != 4:
        raise CliInputError(f"{where}: 'components' must be a list of four [re, im] pairs")
    values = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliInputError(f"{where}: each component must be a [re, im] pair")
        re, im = pair
        if type(re) not in _NUMBER_TYPES or type(im) not in _NUMBER_TYPES:
            raise CliInputError(f"{where}: non-numeric component entry")
        try:
            values += (float(re), float(im))
        except OverflowError:  # an integer past the double range is non-finite, as 1e400 is
            values += (math.inf if isinstance(x, int) else float(x) for x in pair)
    return _spinor_parts(values, where)


def _input_lines(path: str):
    """The input as a context manager over its lines; ``-`` is stdin, left open.

    Files and stdin read alike: as UTF-8, each byte that is not UTF-8 read as
    a lone surrogate that ``_check_utf8`` refuses with its line's number, and
    with universal newlines.  A text stream without ``reconfigure``, such as
    ``io.StringIO``, is read as it is.
    """
    if path == "-":
        if sys.stdin is None:  # the interpreter started with file descriptor 0 closed
            raise CliInputError("cannot read stdin: it is closed")
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape", newline=None)
        return contextlib.nullcontext(sys.stdin)
    try:
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def _check_utf8(text: str, where: str) -> None:
    """Refuse text that holds a byte the input could not decode as UTF-8."""
    if not text.isascii():  # O(1): ASCII text pays nothing
        try:
            text.encode("utf-8")  # a lone surrogate does not encode
        except UnicodeEncodeError:
            raise CliInputError(f"{where}: invalid UTF-8") from None


def _documents(path: str, default_rep: str) -> Iterator[Chunk]:
    """Parse the input lazily, one chunk at a time, each line checked as it is read.

    One U+FEFF at the start of the input is a byte order mark and is dropped,
    as ``utf-8-sig`` drops it.  The first non-blank line picks the format:
    JSON-lines when it starts with ``{`` (past any other U+FEFF, which the
    JSON decoder then refuses), CSV otherwise.  A blank input reads as CSV
    without rows.  The last chunk holds fewer than ``_CHUNK`` documents, and
    may hold none.
    """
    with _input_lines(path) as lines:
        head = []
        for line in lines:
            head.append(line if head else line.removeprefix("\ufeff"))
            if head[-1].strip():
                break
        jsonl = "".join(head[-1:]).replace("\ufeff", "").lstrip().startswith("{")
        docs = (_read_jsonl if jsonl else _read_csv)(itertools.chain(head, lines), default_rep)
        for start in itertools.count(0, _CHUNK):
            chunk = list(itertools.islice(docs, _CHUNK))
            # an (N, 8) float block viewed as complex pairs each re with its im
            block = np.array([values for values, _, _ in chunk], dtype=float).reshape(-1, 8)
            heads = [{"index": start + k} if label is None else {"index": start + k, "label": label}
                     for k, (_, _, label) in enumerate(chunk)]
            reps, last = [rep for _, rep, _ in chunk], len(chunk) < _CHUNK
            del chunk  # the parsed rows are in the block and the heads now
            yield Chunk(heads, reps, block.view(complex))
            if last:
                return


def read_documents(documents: Iterator[Chunk]) -> Chunk:
    """Parse the next chunk: up to ``_CHUNK`` documents, reading no line past them."""
    return next(documents)


# the scanner inside json.loads, without the whitespace matches around it
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _decode(line: str, where: str):
    """The JSON value of ``line``: one scan at offset 0 when it takes the whole line.

    Anything else (whitespace at either end, a BOM, trailing data, a value
    the scanner refuses) goes to ``json.loads``, which accepts or refuses the
    line and words the message.
    """
    try:
        value, end = _scan_json(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):  # no value at 0, or a refused one
        pass
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise CliInputError(f"{where}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer of more than 4,300 digits
        # keep the limit and the length, not Python's advice to raise the limit
        raise CliInputError(f"{where}: invalid JSON: {str(exc).partition(';')[0]}") from exc


# json.dumps(value, allow_nan=False), one frame shallower: a label nested as deep as
# ``_decode`` accepts still encodes
_strict_json = json.JSONEncoder(allow_nan=False).encode


def _read_jsonl(lines: Iterable[str], default_rep: str) -> Iterator[tuple[list[float], str, str | None]]:
    # a file splits only on newlines; splitlines also breaks at \v, \f, U+2028 and the like
    texts = (text for line in lines for text in line.splitlines())
    for lineno, line in enumerate(texts, start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        _check_utf8(line, where)
        obj = _decode(line, where)
        if not isinstance(obj, dict) or "components" not in obj:
            raise CliInputError(f"{where}: expected an object with a 'components' field")
        comp = _components_from_pairs(obj["components"], where)
        rep = obj.get("rep", default_rep)
        if rep not in REP_TAGS:
            raise CliInputError(f"{where}: unknown representation {rep!r}")
        label = obj.get("label")
        if isinstance(label, (float, list, dict)):
            try:  # NaN, Infinity and 1e400 read as floats, but JSON output cannot carry them
                _strict_json(label)
            except ValueError:
                raise CliInputError(f"{where}: non-finite number in 'label'") from None
        yield comp, rep, label


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_csv(lines: Iterable[str], default_rep: str) -> Iterator[tuple[list[float], str, None]]:
    import csv

    rowno = filled = 0
    try:
        for rowno, row in enumerate(csv.reader(lines), start=1):
            cells = [c.strip() for c in row]
            while cells and not cells[-1]:  # trailing commas; an earlier empty cell fails below
                cells.pop()
            if not cells:
                continue
            filled += 1  # rows with cells: the first, past any blank lines, may be a header
            try:
                values = [float(c) for c in cells]
            except ValueError:  # a byte that is not UTF-8 fails float() too
                _check_utf8("".join(cells), f"row {rowno}")
                if filled == 1 and not any(map(_reads_as_float, cells)):  # a header: names only
                    continue
                raise CliInputError(f"row {rowno}: non-numeric CSV cell")
            if len(values) != 8:
                raise CliInputError(
                    f"row {rowno}: need 8 real columns (re/im interleaved), got {len(values)}"
                )
            yield _spinor_parts(values, f"row {rowno}"), default_rep, None
    except csv.Error as exc:  # a cell past csv's field size limit, or a NUL before Python 3.11
        raise CliInputError(f"row {rowno + 1}: {exc}") from exc


def _output(path: str | None, source: str = "-"):
    """Where output lines go: stdout, or the file ``path`` opened for writing."""
    if path is None or path == "-":
        if sys.stdout is None:  # the interpreter started with file descriptor 1 closed
            raise CliInputError("cannot write stdout: it is closed")
        return contextlib.nullcontext(sys.stdout)
    if source != "-" and os.path.exists(path) and os.path.samefile(source, path):
        raise CliInputError(f"cannot write {path}: it is the input, which is still being read")
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _emit(lines: list[str], out: TextIO) -> None:
    """Write ``lines``, each ending in a newline, and flush them."""
    try:
        out.write("".join(line + "\n" for line in lines))
        out.flush()
    except OSError as exc:
        _discard(out)
        if isinstance(exc, BrokenPipeError):  # the reader is gone: ``main`` exits 0
            raise
        raise CliInputError(f"cannot write {'stdout' if out is sys.stdout else out.name}: {exc}") from exc


def _discard(out: TextIO) -> None:
    """Point ``out`` at the null device: what it still buffers then flushes there on close or exit."""
    with contextlib.suppress(OSError, ValueError):  # a stream without a file descriptor
        fd = out.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


# ---- record pipeline: classify, hopf, map-check ----------------------------


def _run_records(args, block_fn, table_row, header=None) -> int:
    """Stream the input through ``block_fn``; exit 2 when a record has an error.

    Each round reads up to ``_CHUNK`` documents.  The first chunk is read and
    checked whole before the output opens, so input that fails there leaves
    no file and writes nothing; a malformed record later exits 1 after the
    earlier chunks.  Each chunk is then computed and written in row ranges:
    the first chunk is cut at the powers of four below its length, [0, 1),
    [1, 4), [4, 16), [16, 64), [64, 256), so its first record leaves once one
    row is computed, and each later chunk is one range.  A range is grouped by
    representation; ``block_fn(components, rep, tol)`` runs once per
    representation present, on that block's (N, 4) components, and returns
    an iterable of one dict of fields per row (the same bits at any block
    length).  In input order, each record takes its next row's fields after
    its head, is made into its line and is dropped from the chunk, so no
    range holds its filled records; its lines are written and flushed
    before the next range is computed.  ``_classification_block`` builds
    each dict only when it is taken.  ``_map_check_block`` returns a list:
    it classifies its block at once, but its mapping conditions are
    evaluated per row, and building a row's dict at write time was slower.
    """
    lines = [header] if args.table and header else []
    failed = False
    with contextlib.ExitStack() as stack:
        documents = stack.enter_context(contextlib.closing(_documents(args.input, args.rep)))
        chunk = read_documents(documents)
        out = stack.enter_context(_output(args.output, args.input))
        # at most four extra ranges of one or two block calls each, whatever the input length
        size = len(chunk.heads)
        cuts = [4 ** k for k in range(size.bit_length()) if 4 ** k < size]
        while True:
            for start, stop in zip([0, *cuts], [*cuts, len(chunk.heads)]):
                fields = {}
                for rep in REP_TAGS:
                    rows = [i for i in range(start, stop) if chunk.reps[i] == rep]
                    if rows:
                        fields[rep] = iter(block_fn(chunk.components[rows], rep, args.tol))
                for i in range(start, stop):
                    record, chunk.heads[i] = chunk.heads[i], None
                    record.update(next(fields[chunk.reps[i]]))
                    failed = failed or bool(record.get("error"))
                    lines.append(table_row(record) if args.table else json.dumps(record))
                _emit(lines, out)
                lines = []
            if len(chunk.heads) < _CHUNK:
                return 2 if failed else 0
            chunk, cuts = read_documents(documents), []


def _classification_block(components: np.ndarray, rep: str, tol: float) -> Iterator[dict]:
    """Classify one representation block: the kernels and the rule run once on all its rows.

    They run when this is called; each row's dict is built from their columns when it is taken.
    """
    cov = covariant_array(components, rep)
    # Crawford's boomerang test: Z comes back to 4 psi psibar, whose norm is 4 J^0
    residual = aggregate_residual_array(components, cov, rep)
    boomerang = residual <= max(tol, 1e-12) * 4 * cov[:, 1]
    label, flags, marginal, null = lounesto_rule(magnitude_array(cov).T, tol)
    return map(_classification_fields, label.tolist(), np.transpose(flags).tolist(),
               np.transpose(marginal).tolist(), null.tolist(), cov.tolist(),
               fierz_array(cov).tolist(), boomerang.tolist())


def _classification_fields(label: int, flags: list, marginal: list, null: bool, c: list,
                           residuals: list, boomerang: bool) -> dict:
    if not label:
        _, kind, message = _REFUSALS[null]
        return {"class": None, "error": message, "error_kind": kind}
    return {
        "class": label,
        "regular": label < 4,
        "singular": label > 3,
        "marginal": any(marginal),
        "marginal_fields": [name for name, m in zip(_FIELDS, marginal) if m],
        "witness": dict(zip(_FIELDS, flags)),
        "bilinears": {"sigma": c[0], "J": c[1:5], "S": c[5:11], "K": c[11:15], "omega": c[15]},
        "fierz_residuals": residuals,
        "boomerang": boomerang,
        "error": None,
    }


CLASSIFY_HEADER = (
    f"{'idx':>4} {'class':>5} {'regular':>7} {'marginal':>8} "
    f"{'sigma':>12} {'omega':>12} {'fierz_max':>10}  note"
)


def _classification_row(rec: dict) -> str:
    if rec.get("error"):
        return (f"{rec['index']:>4} {'-':>5} {'-':>7} {'-':>8} "
                f"{'-':>12} {'-':>12} {'-':>10}  {rec['error']}")
    b = rec["bilinears"]
    label = rec.get("label", "")
    if not (isinstance(label, str) and label.isprintable()):
        label = json.dumps(label)  # keeps the row to one line and shows 0 and false
    return (
        f"{rec['index']:>4} {rec['class']:>5} {str(rec['regular']):>7} "
        f"{str(rec['marginal']):>8} {b['sigma']:>12.4e} {b['omega']:>12.4e} "
        f"{max(rec['fierz_residuals']):>10.2e}  {label}"
    )


def _hopf_block(components: np.ndarray, rep: str, tol: float) -> list[dict]:
    """Route reports of one representation block: ``hopf_report_array`` runs once on its rows."""
    from .hopf import _NULL_COLUMN, hopf_report_array

    null = {"error": _NULL_COLUMN, "error_kind": "null-spinor"}
    reports = hopf_report_array(components, rep)
    return [report if nonzero else null for nonzero, report in zip(components.any(axis=1), reports)]


def _hopf_row(rec: dict) -> str:
    if rec.get("error"):
        return f"{rec['index']:>4} {rec['error']}"
    q = rec["quaternion_route"]
    return (
        f"{rec['index']:>4} sigma_q={q['sigma']:.6g} "
        f"norm_residual={rec['norm_identity_residual_quaternion']:.2e} "
        f"route_gap={rec['route_gap']:.2e}"
    )


def _map_check_block(components: np.ndarray, rep: str, tol: float) -> list[dict]:
    """Mapping reports of one representation block, its rows classified once as a block.

    The kernels and the rule run once on all the rows, and each row's label
    is ``mappability``'s one-row label bit for bit.  Each row's conditions
    are then evaluated on its own.  A row labelled 1-3 takes its verdicts
    from ``mappability``; any other row gets none, and the message of its
    ``_refusal`` as its note.
    """
    labels, _, _, nulls = lounesto_rule(magnitude_array(covariant_array(components, rep)).T, tol)
    records = []
    for row, label, null in zip(components, labels.tolist(), nulls.tolist()):
        spinor = SpinorC4(row, rep)
        report = elko_map_conditions(spinor)
        fields = {
            "shared_residuals": report.shared.tolist(),
            "extra_class2": report.extra_class2,
            "extra_class3": report.extra_class3,
            "route_disagreement": report.route_disagreement(),
            "line3_vs_class3_gap": report.line3_vs_class3_gap,
        }
        if label in (1, 2, 3):
            # json.dumps writes the int keys 1, 2 and 3 as "1", "2" and "3"
            fields["mappability"] = mappability(spinor, tol)
        else:
            fields["mappability"] = None
            fields["note"] = str(_refusal(label, null))
        records.append(fields)
    return records


def _map_check_row(rec: dict) -> str:
    return (
        f"{rec['index']:>4} shared_max={max(rec['shared_residuals']):.2e} "
        f"ad2={rec['extra_class2']:.2e} ad3={rec['extra_class3']:.2e} {rec.get('note') or ''}"
    )


# ---- make ------------------------------------------------------------------


def cmd_make(args) -> int:
    from .make import make_records

    try:
        with np.errstate(all="ignore"):  # an overflow shows as non-finite components
            records = make_records(args)
    except ValueError as exc:  # a parameter that cannot be read, or a builder's own check
        raise CliInputError(str(exc)) from exc
    for record in records:  # each family builds all its spinors before the first is checked
        where, values = record["label"], [x for pair in record["components"] for x in pair]
        # the zero spinor passes the input rule; here it is a Majorana part of a C-eigenspinor
        if not any(_spinor_parts(values, where, "the parameters give non-finite components")):
            raise CliInputError(f"{where}: the parameters give the zero spinor")
    with _output(args.output) as out:
        _emit([json.dumps(record) for record in records], out)
    return 0


# ---- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify

    results = getattr(verify, f"_suite_{args.suite}")(args.seed, args.samples, args.tol)
    passed = all(ok for _, _, ok in results)
    if args.table:
        lines = [f"{'ok ' if ok else 'FAIL'} {name:<36} worst={value:.3e}"
                 for name, value, ok in results]
        lines.append(f"{'ok' if passed else 'FAIL'} suite={args.suite} "
                     f"samples={args.samples} seed={args.seed}")
    else:  # a NaN or infinite worst value is written as null, which JSON can carry
        lines = [json.dumps({"check": name, "worst": float(value) if math.isfinite(value) else None,
                             "pass": bool(ok)}) for name, value, ok in results]
    with _output(args.output) as out:
        _emit(lines, out)
    return 0 if passed else 2


# ---- entry -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spinorlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, records: bool = True, table: bool = False,
               tol_help: str = "zero-test tolerance") -> None:
        if records:
            p.add_argument("input", help="input file (JSON-lines or CSV), or - for stdin")
            p.add_argument("--rep", choices=REP_TAGS, default="chiral",
                           help="representation for inputs that do not declare one")
        p.add_argument("--tol", type=positive_float, default=1e-10, help=tol_help)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         help="JSON-lines output" + ("" if table else " (default)"))
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="human-readable table output" + (" (default)" if table else ""))
        p.set_defaults(table=table)
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("classify", help="Lounesto-classify each input spinor")
    common(p)
    p.set_defaults(func=partial(_run_records, block_fn=_classification_block,
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
    p.add_argument("--seed", type=non_negative_int, default=0)
    common(p, records=False, table=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hopf", help="compare fibration routes per input spinor")
    common(p, tol_help="not read: hopf applies no tolerance")
    p.set_defaults(func=partial(_run_records, block_fn=_hopf_block, table_row=_hopf_row))

    p = sub.add_parser("map-check", help="evaluate ELKO mapping conditions per input")
    common(p)
    p.set_defaults(func=partial(_run_records, block_fn=_map_check_block,
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
        if sys.stderr is not None:  # closed at start: print(file=None) would write to stdout
            print(f"spinorlab: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


def run() -> None:
    """The console script: run ``main``, then end the process once its output is flushed.

    ``os._exit`` skips the interpreter's teardown, some 25 ms of finalizing
    numpy and every other module after the last byte; atexit handlers and
    finalizers do not run.  Every file ``main`` opens is closed when it
    returns, and stdout and stderr are flushed here.  A flush that fails
    leaves the exit to ``sys.exit``, whose final flush reports the failure.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # a descriptor closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
