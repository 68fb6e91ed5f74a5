import pytest

from casverify.corpus import (
    corpus_by_name,
    register_corpus,
    run_all_cases,
    run_case,
    run_matrix,
)
from casverify.engine import ExploreConfig, RunContext, replay
from casverify.heap import FaultKind
from casverify.report import build_document


def base_cfg(**kw):
    kw.setdefault("size_bound", 2)
    return ExploreConfig(**kw)


def test_registry_size_and_required_entries():
    entries = register_corpus()
    assert len(entries) >= 10
    names = {e.name for e in entries}
    assert {"array_list_get_at_ptr", "byte_buf_invariant",
            "assert_bytes_match_empty", "mul_size_checked_restricted",
            "mul_size_checked_unrestricted", "pq_s_swap",
            "hash_callback_string_eq", "hash_table_foreach", "is_mem_zeroed",
            "linked_list_front_stub", "linked_list_front_loop"} <= names
    assert len(names) == len(entries)


def test_duplicate_names_rejected():
    from casverify.corpus import _ensure_unique_names
    entries = register_corpus()
    with pytest.raises(ValueError, match="duplicate proof names"):
        _ensure_unique_names(entries + [entries[0]])


def test_every_fixed_case_passes_clean():
    cfg = base_cfg()
    for entry in register_corpus():
        result = run_case(entry, entry.case("fixed"), cfg)
        assert result.status == "pass", (entry.name, result.detail)
        assert not result.vacuity.vacuous_groups, entry.name


def test_all_registered_cases_match_expectations():
    for result in run_all_cases(base_cfg()):
        assert result.matched, (result.entry.name, result.case.label, result.detail)


def test_every_buggy_helper_is_asked(monkeypatch):
    # A misspelt helper name in a case's buggy set would run the fixed code
    # without notice.
    asked = set()
    is_buggy = RunContext.is_buggy

    def spy(ctx, helper_name):
        asked.add(helper_name)
        return is_buggy(ctx, helper_name)

    monkeypatch.setattr(RunContext, "is_buggy", spy)
    checked = 0
    for entry in register_corpus():
        for case in entry.cases:
            if case.buggy:
                asked.clear()
                run_case(entry, case, base_cfg())
                assert case.buggy <= asked, (entry.name, case.label, sorted(asked))
                checked += 1
    assert checked == 10


def test_free_runs_use_the_base_config():
    # A free run changes no setting, so every flag reaches every proof.
    base = base_cfg()
    for entry in register_corpus():
        for variant in ("fixed", "buggy"):
            assert entry.config_for(base, entry.free_case(variant)) is base, entry.name


def test_bug_masking_flag_flip():
    corpus = corpus_by_name()
    entry = corpus["byte_buf_invariant"]
    masked = run_case(entry, entry.case("buggy_nofail"), base_cfg())
    assert masked.status == "pass"
    exposed = run_case(entry, entry.case("buggy"), base_cfg())
    assert exposed.status == "fail"
    assert exposed.report.verdict.fault.kind is FaultKind.NULL_DEREF


def test_restricted_environment_masks_mul_bug():
    corpus = corpus_by_name()
    masked = run_case(corpus["mul_size_checked_restricted"],
                      corpus["mul_size_checked_restricted"].case("buggy"),
                      base_cfg())
    assert masked.status == "pass"
    exposed = run_case(corpus["mul_size_checked_unrestricted"],
                       corpus["mul_size_checked_unrestricted"].case("buggy"),
                       base_cfg())
    assert exposed.status == "fail"


def test_every_counterexample_tape_replays_to_same_fail():
    cfg = base_cfg()
    for entry in register_corpus():
        for case in entry.cases:
            result = run_case(entry, case, cfg)
            if not result.report.verdict.is_fail:
                continue
            rerun = replay(entry.body, result.tape, entry.config_for(cfg, case),
                           name=entry.name, sites=entry.sites, buggy=case.buggy)
            assert rerun.verdict.is_fail
            assert rerun.verdict.failed_site == result.report.verdict.failed_site
            lhs = result.report.verdict.fault
            rhs = rerun.verdict.fault
            assert (lhs.kind if lhs else None) == (rhs.kind if rhs else None)


def _failure(report):
    return report.verdict.failed_site, report.verdict.fault, report.verdict.message


def test_verdicts_agree_across_bounds():
    """The proof at the next bound is a second oracle.  `nd_size_t` draws
    `range(bound + 1)` and no other domain depends on the bound, so a tape
    at bound b is a tape at b + 1 with the same values.  For every
    registered case and each b in 0-2: (a) a failure at b is a failure at
    b + 1; (b) the bound-b counterexample replays at b + 1 to the same
    failure; (c) the bound-(b + 1) counterexample is lexicographically no
    greater than the bound-b one; (d) a complete pass at b + 1 explores no
    fewer paths than at b."""
    checked = 0
    for entry in register_corpus():
        for case in entry.cases:
            reports = [run_case(entry, case, base_cfg(size_bound=b)).report for b in range(4)]
            for b, (lo, hi) in enumerate(zip(reports, reports[1:])):
                where = (entry.name, case.label, b)
                if lo.verdict.is_fail:
                    assert hi.verdict.is_fail, where
                    rerun = replay(entry.body, lo.verdict.tape,
                                   entry.config_for(base_cfg(size_bound=b + 1), case),
                                   name=entry.name, sites=entry.sites, buggy=case.buggy)
                    assert _failure(rerun) == _failure(lo), where
                    assert [e.index for e in hi.verdict.tape] <= \
                        [e.index for e in lo.verdict.tape], where
                if hi.verdict.is_pass and hi.complete:
                    assert hi.paths_explored >= lo.paths_explored, where
                checked += 1
    assert checked == 21 * 3


def _matrix(cfg):
    return build_document("matrix", cfg, run_matrix(cfg))["matrix"]


def test_matrix_shape_and_channels():
    matrix = _matrix(base_cfg())
    assert len(matrix["rows"]) == 7
    assert matrix["all_match"]
    assert matrix["detected"] == 7
    by_bug = {r["bug"]: r for r in matrix["rows"]}
    assert by_bug["bug4"]["counterexample"] == "missed"
    assert by_bug["bug4"]["vacuity"] == "detected"
    assert by_bug["bug4"]["expected_channel"] == "vacuity"
    for bug in ("bug1", "bug2", "bug3", "bug5", "bug6", "bug7"):
        assert by_bug[bug]["counterexample"] == "detected"
        assert by_bug[bug]["vacuity"] == "n/a"
        assert by_bug[bug]["expected_channel"] == "counterexample"


def test_matrix_determinism():
    assert _matrix(base_cfg()) == _matrix(base_cfg())


def test_stub_proof_constant_paths_loop_proof_growing():
    corpus = corpus_by_name()
    stub = corpus["linked_list_front_stub"]
    loop = corpus["linked_list_front_loop"]
    stub_paths = [run_case(stub, stub.case("fixed"),
                           base_cfg(size_bound=k)).report.paths_explored
                  for k in (2, 4, 8)]
    loop_paths = [run_case(loop, loop.case("fixed"),
                           base_cfg(size_bound=k)).report.paths_explored
                  for k in (2, 4, 8)]
    assert stub_paths[0] == stub_paths[1] == stub_paths[2]
    assert loop_paths[0] < loop_paths[1] < loop_paths[2]
