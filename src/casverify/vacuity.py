"""Vacuity detection: flag assertion sites never reached on any surviving path.

Sites are grouped by group_key; a warning is raised only when every site in
a group went unhit, which silences duplicate-assert noise (the same helper
asserted from several call sites).  Pruned paths do not count as hits: an
assert sitting inside assume-dead code is exactly what must be flagged.

Proofs here are interpreted, never compiled, so no dead-code elimination
can delete an unreached assert before we see it; the analysis is complete
over the declared sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import (EXHAUSTIVE, VERDICT_BUDGET, VERDICT_FAIL, VERDICT_PASS,
                     AssertionSite, RunReport)

STATUS_PASS = VERDICT_PASS
STATUS_PASS_BUT_VACUOUS = "pass_but_vacuous"
STATUS_FAIL = VERDICT_FAIL
STATUS_BUDGET = VERDICT_BUDGET


class VacuityFrameworkError(Exception):
    """The report mentions assertion sites that were never declared."""


@dataclass
class VacuityReport:
    vacuous_groups: frozenset[str] = frozenset()
    partially_hit_groups: frozenset[str] = frozenset()
    authoritative: bool = True
    caveat: str = ""


def analyze(report: RunReport, sites: Iterable[AssertionSite]) -> VacuityReport:
    """Group declared sites and flag groups with zero hits everywhere.

    Only an exhaustive, completed pass is authoritative: a failing run
    short-circuits exploration and a random run samples it, so in both cases
    an unhit site may simply not have been reached yet."""
    declared = list(sites)
    known = {s.site_id for s in declared}
    unknown = sorted(set(report.assertion_hits) - known)
    if unknown:
        raise VacuityFrameworkError(f"hits recorded for undeclared sites: {unknown}")

    hits = {s.site_id: report.assertion_hits.get(s.site_id, 0) for s in declared}
    groups: dict[str, list[str]] = {}
    for s in declared:
        groups.setdefault(s.group_key, []).append(s.site_id)

    vacuous, partial = set(), set()
    for g, members in groups.items():
        unhit = [m for m in members if hits[m] == 0]
        if len(unhit) == len(members) and members:
            vacuous.add(g)
        elif unhit:
            partial.add(g)

    caveat = ""
    if report.backend != EXHAUSTIVE:
        caveat = "incomplete exploration: non-exhaustive backend"
    elif report.verdict.is_fail:
        caveat = "exploration stopped at first failure"
    elif not report.complete:
        caveat = "exploration budget exhausted before covering the space"
    return VacuityReport(
        vacuous_groups=frozenset(vacuous),
        partially_hit_groups=frozenset(partial),
        authoritative=not caveat,
        caveat=caveat,
    )


def overall_status(report: RunReport, vac: VacuityReport | None = None) -> str:
    """Collapse verdict + vacuity into one headline status.  A pass with a
    fully-unreached assert group is surfaced as its own status."""
    if report.verdict.is_fail:
        return STATUS_FAIL
    if report.verdict.status == VERDICT_BUDGET:
        return STATUS_BUDGET
    if vac is not None and vac.vacuous_groups:
        return STATUS_PASS_BUT_VACUOUS
    return STATUS_PASS
