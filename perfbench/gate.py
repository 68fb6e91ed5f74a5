"""Correctness gate: the behaviour-defining fields of each verify report.

A performance change must not change what the verifier says.  The gate
reduces each JSON report that `verify` prints to the fields that define its
behaviour, compares them with an expected record, and reports every field
that differs.  It also digests the whole report with `wall_time` stripped,
so two commits can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json

ROW_FIELDS = ("bug", "proof", "counterexample", "vacuity", "matched")


def case_records(doc: dict) -> dict[str, dict]:
    """Behaviour fields of every case in a report, keyed by `name[case]`."""
    records = {}
    for p in doc["proofs"]:
        v = p["verdict"]
        records[f"{p['name']}[{p['case']}]"] = {
            "status": p["status"],
            "expected_match": p["expected_match"],
            "verdict_status": v["status"],
            "fault_kind": v["fault_kind"],
            "failed_site": v["failed_site"],
            "counterexample_tape": p["counterexample_tape"],
            "paths_explored": p["paths_explored"],
            "paths_pruned_by_assume": p["paths_pruned_by_assume"],
            "paths_truncated": p["paths_truncated"],
        }
    return records


def matrix_records(doc: dict) -> dict[str, dict]:
    """Detection cells of every matrix row, keyed by bug id."""
    return {r["bug"]: {f: r[f] for f in ROW_FIELDS}
            for r in doc.get("matrix", {}).get("rows", [])}


def behaviour(exit_code: int, doc: dict) -> dict:
    """Everything the gate compares for one command."""
    return {"exit_code": exit_code, "cases": case_records(doc),
            "matrix": matrix_records(doc)}


def compare(expected: dict, actual: dict) -> tuple[int, list[str]]:
    """Compare two `behaviour` records.

    Returns the number of checks made (the exit code, one per expected or
    actual case, one per matrix row) and one message per failed check.
    Only the fields the expected record names are compared, so an oracle
    that knows a subset of the fields can serve as the expectation."""
    failures = []
    checks = 1
    if expected["exit_code"] != actual["exit_code"]:
        failures.append(f"exit code {actual['exit_code']}, "
                        f"expected {expected['exit_code']}")
    for section in ("cases", "matrix"):
        exp, act = expected.get(section, {}), actual.get(section, {})
        for key in sorted(exp.keys() | act.keys()):
            checks += 1
            if key not in act:
                failures.append(f"{section} {key}: missing")
            elif key not in exp:
                failures.append(f"{section} {key}: unexpected")
            else:
                diff = [f"{f}={act[key].get(f)!r} (expected {want!r})"
                        for f, want in exp[key].items() if act[key].get(f) != want]
                if diff:
                    failures.append(f"{section} {key}: " + ", ".join(diff))
    return checks, failures


def _strip_times(node):
    if isinstance(node, dict):
        return {k: _strip_times(v) for k, v in node.items() if k != "wall_time"}
    if isinstance(node, list):
        return [_strip_times(v) for v in node]
    return node


def normalized(doc: dict) -> str:
    """The report as canonical JSON with every `wall_time` removed."""
    return json.dumps(_strip_times(doc), sort_keys=True, indent=2) + "\n"


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()
