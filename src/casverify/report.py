"""Report documents: versioned JSON and a human markdown rendering.

Given identical inputs and seed, the JSON output is byte-identical except
for wall_time fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .corpus import CaseResult, DetectionMatrix
from .engine import ExploreConfig, RunReport
from .vacuity import (STATUS_BUDGET, STATUS_FAIL, STATUS_PASS,
                      STATUS_PASS_BUT_VACUOUS, VacuityReport)

SCHEMA_VERSION = 4


def config_dict(cfg: ExploreConfig) -> dict:
    d = asdict(cfg)
    d["byte_domain"] = list(cfg.byte_domain)
    return d


def verdict_dict(report: RunReport) -> dict:
    v = report.verdict
    return {
        "status": v.status,
        "fault_kind": v.fault.kind.value if v.fault else None,
        "fault_detail": v.fault.detail if v.fault else None,
        "failed_site": v.failed_site,
        "message": v.message,
    }


def vacuity_dict(vac: VacuityReport) -> dict:
    return {
        "vacuous_groups": sorted(vac.vacuous_groups),
        "partially_hit_groups": sorted(vac.partially_hit_groups),
        "authoritative": vac.authoritative,
        "caveat": vac.caveat,
    }


def case_result_dict(result: CaseResult) -> dict:
    report = result.report
    tape = report.verdict.tape
    return {
        "name": result.entry.name,
        "category": result.entry.category,
        "case": result.case.label,
        "status": result.status,
        "expected_match": None if result.case.expected is None else result.matched,
        "mismatch_detail": result.detail,
        "verdict": verdict_dict(report),
        "counterexample_tape": tape.to_text() if tape is not None else None,
        "backend": report.backend,
        "complete": report.complete,
        "paths_explored": report.paths_explored,
        "paths_pruned_by_assume": report.paths_pruned_by_assume,
        "paths_truncated": report.paths_truncated,
        "max_choice_depth": report.max_choice_depth,
        "assertion_hits": dict(sorted(report.assertion_hits.items())),
        "vacuity": vacuity_dict(result.vacuity),
        "wall_time": report.wall_time,
    }


def matrix_dict(matrix: DetectionMatrix) -> dict:
    return {
        "backend": matrix.backend,
        "all_match": matrix.all_match,
        "detected": matrix.detected,
        "rows": [
            {
                "bug": r.bug_id,
                "alias": r.alias,
                "proof": r.entry_name,
                "counterexample": r.counterexample,
                "vacuity": r.vacuity,
                "expected_channel": r.expected_channel,
                "matched": r.matched,
                "note": r.note,
            }
            for r in matrix.rows
        ],
    }


def build_document(command: str, cfg: ExploreConfig, results: list[CaseResult],
                   matrix: DetectionMatrix | None = None) -> dict:
    summary = {
        "total": len(results),
        "passed": sum(1 for r in results if r.status == STATUS_PASS),
        "failed": sum(1 for r in results if r.status == STATUS_FAIL),
        "pass_but_vacuous": sum(1 for r in results
                                if r.status == STATUS_PASS_BUT_VACUOUS),
        "budget_exhausted": sum(1 for r in results if r.status == STATUS_BUDGET),
        "expected_mismatches": sorted(
            f"{r.entry.name}[{r.case.label}]: {r.detail}"
            for r in results if not r.matched),
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config_dict(cfg),
        "proofs": [case_result_dict(r) for r in results],
        "summary": summary,
    }
    if matrix is not None:
        doc["matrix"] = matrix_dict(matrix)
    return doc


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- markdown -----------------------------------------------------------------

def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def to_markdown(doc: dict) -> str:
    lines = ["# Verification report", ""]
    cfg = doc["config"]
    lines.append(
        f"backend={cfg['backend']} size_bound={cfg['size_bound']} "
        f"byte_domain={cfg['byte_domain']} seed={cfg['seed']} "
        f"malloc_can_fail={cfg['malloc_can_fail']}")
    lines.append("")

    lines.append("## Results")
    rows = []
    for p in doc["proofs"]:
        note = p["verdict"]["fault_kind"] or p["verdict"]["failed_site"] or ""
        if p["vacuity"]["vacuous_groups"]:
            note = (note + " " if note else "") + \
                "vacuous: " + ",".join(p["vacuity"]["vacuous_groups"])
        if p["expected_match"] is False:
            note = (note + " " if note else "") + "EXPECTED-MISMATCH"
        rows.append([p["name"], p["case"], p["status"],
                     str(p["paths_explored"]), str(p["paths_pruned_by_assume"]),
                     f"{p['wall_time']:.3f}", note])
    lines += _md_table(
        ["proof", "case", "status", "paths", "pruned", "time (s)", "notes"], rows)
    lines.append("")

    # Per-category timing, in the familiar category/count/avg/min/max shape.
    by_cat: dict[str, list[float]] = {}
    for p in doc["proofs"]:
        by_cat.setdefault(p["category"], []).append(p["wall_time"])
    lines.append("## Timing by category")
    rows = [[cat, str(len(ts)), f"{sum(ts) / len(ts):.3f}",
             f"{min(ts):.3f}", f"{max(ts):.3f}"]
            for cat, ts in sorted(by_cat.items())]
    lines += _md_table(["category", "count", "avg (s)", "min (s)", "max (s)"], rows)
    lines.append("")

    if "matrix" in doc:
        lines.append("## Detection matrix")
        lines += matrix_markdown_lines(doc["matrix"])
        lines.append("")

    s = doc["summary"]
    lines.append(
        f"summary: {s['total']} runs, {s['passed']} pass, {s['failed']} fail, "
        f"{s['pass_but_vacuous']} pass-but-vacuous, "
        f"{s['budget_exhausted']} budget-exhausted")
    for m in s["expected_mismatches"]:
        lines.append(f"- mismatch: {m}")
    return "\n".join(lines) + "\n"


def matrix_markdown_lines(matrix: dict) -> list[str]:
    rows = [[r["bug"], r["alias"], r["proof"], r["counterexample"], r["vacuity"],
             r["expected_channel"], "yes" if r["matched"] else "NO"]
            for r in matrix["rows"]]
    lines = _md_table(
        ["bug", "alias", "proof", "counterexample", "vacuity",
         "expected channel", "match"], rows)
    lines.append("")
    lines.append(f"{matrix['detected']}/{len(matrix['rows'])} bugs detected via "
                 f"their expected channel (backend: {matrix['backend']})")
    return lines
