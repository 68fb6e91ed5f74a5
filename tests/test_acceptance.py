"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criterion 1's configuration is pinned here: exhaustive backend,
size bound at most 4, a 3-value byte domain, and a 100k path budget.
"""

import itertools
import time
from dataclasses import replace

import pytest

from casverify import speclib as sl
from casverify.corpus import (
    corpus_by_name,
    register_corpus,
    run_case,
    run_matrix,
)
from casverify.engine import (
    RANDOM,
    ExploreConfig,
    U64_MAX,
    explore,
    replay,
)
from casverify.heap import FaultKind
from casverify.report import matrix_dict
from casverify.awsport import add_u64_checked, mul_u64_checked

from oracles import oracle_explore
from test_engine import ORACLE_PROOFS

ACCEPT_CFG = ExploreConfig(size_bound=3, byte_domain=(0x00, 0x01, 0xFF),
                           max_paths=100_000, malloc_can_fail=True)

assert ACCEPT_CFG.size_bound <= 4
assert len(ACCEPT_CFG.byte_domain) == 3


@pytest.fixture(scope="module")
def case_results():
    """Every registered case run once under the acceptance config."""
    t0 = time.perf_counter()
    results = {}
    for entry in register_corpus():
        for case in entry.cases:
            results[(entry.name, case.label)] = run_case(entry, case, ACCEPT_CFG)
    results["__elapsed__"] = time.perf_counter() - t0
    return results


def _passline(n, title):
    print(f"\nACCEPTANCE {n} ({title}): PASS")


def test_criterion_1_detection_matrix(case_results):
    """All seven seeded bugs detected through their expected channel."""
    r = case_results
    matrix = matrix_dict(ACCEPT_CFG.backend, [
        r[(e.name, "buggy")] for e in register_corpus() if e.bug_id is not None])
    assert matrix["all_match"], [row for row in matrix["rows"] if not row["matched"]]
    assert matrix["detected"] == len(matrix["rows"]) == 7

    # bug1: memory-fault counterexample, and only when malloc can fail
    bug1 = r[("byte_buf_invariant", "buggy")]
    assert bug1.status == "fail"
    assert bug1.report.verdict.fault.kind is FaultKind.NULL_DEREF
    assert r[("byte_buf_invariant", "buggy_nofail")].status == "pass"
    # bug2: assertion counterexample in the byte-match helper
    bug2 = r[("assert_bytes_match_empty", "buggy")]
    assert bug2.status == "fail"
    assert bug2.report.verdict.failed_site == "assert_bytes_match:null_eq"
    # bug3: counterexample only in the unrestricted environment
    assert r[("mul_size_checked_unrestricted", "buggy")].status == "fail"
    assert r[("mul_size_checked_restricted", "buggy")].status == "pass"
    # bug4: vacuity, and explicitly not a counterexample
    bug4 = r[("pq_s_swap", "buggy")]
    assert bug4.status == "pass_but_vacuous"
    assert not bug4.report.verdict.is_fail
    assert bug4.vacuity.vacuous_groups == frozenset({"pq_swap:equivalence"})
    # bug5: memory fault
    bug5 = r[("hash_callback_string_eq", "buggy")]
    assert bug5.status == "fail"
    assert bug5.report.verdict.fault is not None
    # bug6: invariant-violation counterexample (failed assertion, no fault)
    bug6 = r[("hash_table_foreach", "buggy")]
    assert bug6.status == "fail"
    assert bug6.report.verdict.fault is None
    assert bug6.report.verdict.failed_site == "hash_foreach:invariant_post"
    # bug7: typed-access violation, only with the check enabled
    bug7 = r[("is_mem_zeroed", "buggy")]
    assert bug7.status == "fail"
    assert bug7.report.verdict.fault.kind is FaultKind.TYPED_ACCESS_VIOLATION
    assert r[("is_mem_zeroed", "buggy_nocheck")].status == "pass"

    assert case_results["__elapsed__"] < 60.0
    _passline(1, "seeded-bug detection matrix")


def test_criterion_2_fixed_corpus_clean(case_results):
    """Every fixed-variant proof passes with zero vacuous groups."""
    for entry in register_corpus():
        result = case_results[(entry.name, "fixed")]
        assert result.status == "pass", (entry.name, result.detail)
        assert result.report.complete, entry.name
        assert not result.vacuity.vacuous_groups, entry.name
    _passline(2, "fixed corpus clean")


def test_criterion_3_bug_masking(case_results):
    """Never-failing allocation masks the invariant bug; flipping the flag
    flips the verdict."""
    assert case_results[("byte_buf_invariant", "buggy_nofail")].status == "pass"
    assert case_results[("byte_buf_invariant", "buggy")].status == "fail"
    entry = corpus_by_name()["byte_buf_invariant"]
    flipped = run_case(entry, entry.case("buggy"),
                       replace(ACCEPT_CFG, malloc_can_fail=False))
    assert flipped.status == "pass"
    _passline(3, "bug masking reproduction")


def test_criterion_4_oracle_equivalence(case_results):
    """Exhaustive verdict equals the brute-force cross-product oracle for
    every proof with at most 3 choice points (exact match)."""
    checked = 0
    for proof in ORACLE_PROOFS:
        report = explore(proof, ACCEPT_CFG)
        if report.max_choice_depth > 3:
            continue
        oracle, _ = oracle_explore(proof, ACCEPT_CFG, max_depth=6)
        assert ("fail" if report.verdict.is_fail else "pass") == oracle, proof.__name__
        checked += 1
    for entry in register_corpus():
        for case in entry.cases:
            result = case_results[(entry.name, case.label)]
            if result.report.max_choice_depth > 3:
                continue
            cfg = entry.config_for(ACCEPT_CFG, case)
            oracle, _ = oracle_explore(entry.body, cfg, buggy=case.buggy,
                                       max_depth=12)
            engine = "fail" if result.report.verdict.is_fail else "pass"
            assert engine == oracle, (entry.name, case.label)
            checked += 1
    assert checked >= 8
    _passline(4, f"oracle equivalence over {checked} proofs")


def test_criterion_5_stub_unboundedness():
    """Stub-style front proof explores the same number of paths at every
    size bound; the loop-style proof's path count strictly grows."""
    corpus = corpus_by_name()
    stub, loop = corpus["linked_list_front_stub"], corpus["linked_list_front_loop"]
    stub_paths, loop_paths = [], []
    for k in (2, 4, 8):
        cfg = replace(ACCEPT_CFG, size_bound=k)
        stub_paths.append(run_case(stub, stub.case("fixed"), cfg)
                          .report.paths_explored)
        loop_paths.append(run_case(loop, loop.case("fixed"), cfg)
                          .report.paths_explored)
    assert stub_paths[0] == stub_paths[1] == stub_paths[2]
    assert loop_paths[0] < loop_paths[1] < loop_paths[2]
    _passline(5, f"stub paths {stub_paths}, loop paths {loop_paths}")


def test_criterion_6_replay_determinism(case_results):
    """Every counterexample tape replays to the identical verdict and fault
    kind, 100 consecutive times."""
    replayed = 0
    for entry in register_corpus():
        for case in entry.cases:
            result = case_results[(entry.name, case.label)]
            verdict = result.report.verdict
            if not verdict.is_fail:
                continue
            cfg = entry.config_for(ACCEPT_CFG, case)
            for _ in range(100):
                rerun = replay(entry.body, verdict.tape, cfg, name=entry.name,
                               sites=entry.sites, buggy=case.buggy)
                assert rerun.verdict.is_fail
                assert rerun.verdict.failed_site == verdict.failed_site
                lhs = verdict.fault.kind if verdict.fault else None
                rhs = rerun.verdict.fault.kind if rerun.verdict.fault else None
                assert lhs == rhs
            replayed += 1
    assert replayed >= 5  # every seeded counterexample case
    _passline(6, f"replay determinism over {replayed} tapes x 100")


def test_criterion_7_arithmetic_oracle():
    """Checked multiply/add agree with exact integer arithmetic on the full
    boundary-domain cross product (36 pairs, exact)."""
    values = sl.U64_BOUNDARY.values
    pairs = list(itertools.product(values, repeat=2))
    assert len(pairs) == 36
    for a, b in pairs:
        ok, result = mul_u64_checked(a, b)
        exact = a * b
        assert ok == (exact <= U64_MAX)
        assert result == (exact if ok else None)
        ok, result = add_u64_checked(a, b)
        exact = a + b
        assert ok == (exact <= U64_MAX)
        assert result == (exact if ok else None)
    _passline(7, "checked arithmetic vs exact oracle, 36 pairs")


def test_criterion_8_random_backend_sanity():
    """Across 20 seeds with a 10k-run budget the random backend finds the
    allocation, byte-match, and hash-count bugs; other misses are recorded,
    not failed."""
    must_detect = {"bug1", "bug2", "bug6"}
    recorded_misses = {}
    for seed in range(20):
        cfg = replace(ACCEPT_CFG, backend=RANDOM, random_budget=10_000, seed=seed)
        results = run_matrix(cfg)
        found = {r.entry.bug_id for r in results if r.report.verdict.is_fail}
        assert must_detect <= found, (seed, must_detect - found)
        for r in results:
            if not r.report.verdict.is_fail:
                recorded_misses.setdefault(r.entry.bug_id, []).append(seed)
    summary = {bug: len(seeds) for bug, seeds in sorted(recorded_misses.items())}
    _passline(8, f"random sanity, misses recorded: {summary}")
