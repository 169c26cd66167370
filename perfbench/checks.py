"""Output checks: how many items of one CLI batch came out missing or wrong.

Each check takes what the CLI wrote to stdout and its exit code and returns
the number of failed items.  An exit code the batch should not have, or
output that no longer lines up one record per line, fails the whole batch.
"""

from __future__ import annotations

import json

ROUTE_LIMIT = 1e-12  # the verify mapping suite's bound on the two arithmetic routes


def _records(stdout: str, count: int) -> list | None:
    lines = stdout.splitlines()
    if len(lines) != count:
        return None
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            records.append(None)
    return records


def check_classify(stdout: str, returncode: int, expected: list) -> int:
    """One line per record in order, with the expected class or a null-spinor error.

    The CLI exits 2 exactly when some record could not be classified.
    """
    records = _records(stdout, len(expected))
    if records is None or returncode != (2 if None in expected else 0):
        return len(expected)
    failed = 0
    for index, (rec, label) in enumerate(zip(records, expected)):
        if not isinstance(rec, dict) or rec.get("index") != index:
            failed += 1
        elif label is None:
            failed += not (rec.get("class") is None and rec.get("error_kind") == "null-spinor")
        else:
            failed += not (rec.get("class") == label and rec.get("error") is None)
    return failed


def check_mapcheck(stdout: str, returncode: int, expected: list) -> int:
    """The regular classes get a mappability verdict for their own class, the rest a note."""
    records = _records(stdout, len(expected))
    if records is None or returncode != 0:
        return len(expected)
    failed = 0
    for index, (rec, label) in enumerate(zip(records, expected)):
        if not isinstance(rec, dict) or rec.get("index") != index:
            failed += 1
            continue
        verdict = rec.get("mappability")
        if label in (1, 2, 3):
            ok = isinstance(verdict, dict) and verdict.get("class") == label
        else:
            ok = verdict is None and bool(rec.get("note"))
        route = rec.get("route_disagreement")
        ok = ok and isinstance(route, float) and route < ROUTE_LIMIT
        failed += not ok
    return failed


def check_verify(stdout: str, returncode: int, items: int) -> int:
    """A suite passes when it exits 0 and every check it prints passes."""
    lines = stdout.splitlines()
    try:
        passed = bool(lines) and all(json.loads(line)["pass"] is True for line in lines)
    except (ValueError, KeyError, TypeError):
        passed = False
    return 0 if passed and returncode == 0 else items
