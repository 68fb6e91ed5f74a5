import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from casverify import speclib as sl
from casverify.engine import (
    KIND_BOOL,
    KIND_SIZET,
    KIND_U8,
    EXHAUSTIVE,
    RANDOM,
    AssertionSite,
    ChoiceTape,
    Domain,
    ExploreConfig,
    ReplayMismatchError,
    TapeEntry,
    _random_index,
    explore,
    replay,
)
from casverify.corpus import register_corpus
from casverify.heap import FaultKind
from casverify.vacuity import STATUS_PASS_BUT_VACUOUS, analyze, overall_status

from oracles import oracle_explore


def exh(**kw) -> ExploreConfig:
    return ExploreConfig(**kw)


def rnd(**kw) -> ExploreConfig:
    kw.setdefault("backend", RANDOM)
    return ExploreConfig(**kw)


# -- mini proofs shared with the oracle-equivalence acceptance check ------------

def proof_assert_true(ctx):
    sl.nd_bool(ctx)
    ctx.sassert("ok", True)


def proof_assert_nd_bool(ctx):
    ctx.sassert("b", sl.nd_bool(ctx))


def proof_pair_assume(ctx):
    length = ctx.choice(Domain.size_t(2))
    cap = ctx.choice(Domain.size_t(2))
    ctx.assume(length <= cap)
    ctx.sassert("bounded", length <= 2)


def proof_havoc_branch(ctx):
    p = ctx.heap.alloc(1)
    ctx.heap.havoc(p, 1)
    value = ctx.heap.read(p, 1)[0]
    ctx.sassert("nonzero_or_zero", value >= 0)


def proof_wild_deref(ctx):
    p = sl.nd_voidp(ctx)
    if not p.is_null:
        ctx.heap.read(p, 1)  # faults on the wild branch


def proof_assume_false(ctx):
    sl.nd_bool(ctx)
    ctx.assume(False)
    ctx.sassert("dead", True)


def proof_three_choices_fail_once(ctx):
    a = ctx.choice(Domain.size_t(1))
    b = ctx.choice(Domain.size_t(1))
    c = ctx.choice(Domain.size_t(1))
    ctx.sassert("not_all_ones", not (a == b == c == 1))


def proof_u8_compare(ctx):
    ctx.sassert("small", ctx.choice(ctx.cfg.byte_dom) <= 0xFF)


ORACLE_PROOFS = [
    proof_assert_true,
    proof_assert_nd_bool,
    proof_pair_assume,
    proof_havoc_branch,
    proof_wild_deref,
    proof_assume_false,
    proof_three_choices_fail_once,
    proof_u8_compare,
]


# -- exhaustive path counting ----------------------------------------------------

def test_bool_domain_two_paths():
    report = explore(proof_assert_true, exh())
    assert report.verdict.is_pass
    assert report.paths_explored == 2
    assert report.complete


def test_sizet_bound_path_count():
    def proof(ctx):
        ctx.choice(Domain.size_t(4))

    report = explore(proof, exh(size_bound=4))
    assert report.paths_explored == 5


def test_assume_pair_six_of_nine():
    report = explore(proof_pair_assume, exh())
    assert report.paths_explored == 6
    assert report.paths_pruned_by_assume == 3


def test_first_fail_is_lexicographically_minimal():
    report = explore(proof_assert_nd_bool, exh())
    assert report.verdict.is_fail
    assert report.verdict.failed_site == "b"
    assert [ (e.kind, e.index) for e in report.verdict.tape ] == [("bool", 0)]


def test_havoc_byte_paths_match_byte_domain():
    report = explore(proof_havoc_branch, exh(byte_domain=(0, 255)))
    assert report.paths_explored == 2
    report = explore(proof_havoc_branch, exh())
    assert report.paths_explored == 3


def test_fault_produces_fail_with_fault_kind():
    report = explore(proof_wild_deref, exh())
    assert report.verdict.is_fail
    assert report.verdict.fault.kind is FaultKind.WILD_DEREF


def test_all_paths_pruned_is_pass():
    report = explore(proof_assume_false, exh())
    assert report.verdict.is_pass
    assert report.paths_explored == 0
    assert report.paths_pruned_by_assume == 2
    assert report.assertion_hits == {}


def test_all_paths_pruned_leaves_declared_site_vacuous():
    site = AssertionSite("dead")
    report = explore(proof_assume_false, exh(), sites=(site,))
    vac = analyze(report, (site,))
    assert overall_status(report, vac) == STATUS_PASS_BUT_VACUOUS
    assert vac.vacuous_groups == {"dead"}


def test_prune_soundness_no_hits_from_pruned_paths():
    def proof(ctx):
        ctx.sassert("pre", True)
        ctx.assume(sl.nd_bool(ctx))
        ctx.sassert("post", True)

    report = explore(proof, exh())
    # Only the surviving path contributes, including its pre-prune hit.
    assert report.assertion_hits == {"pre": 1, "post": 1}


def test_declared_sites_seed_zero_hits():
    site = AssertionSite("never", description="in dead code")
    report = explore(proof_assert_true, exh(), sites=(site,))
    assert report.assertion_hits["never"] == 0
    assert report.assertion_hits["ok"] == 2


# -- budgets ----------------------------------------------------------------------

def test_max_paths_budget():
    def proof(ctx):
        ctx.choice(Domain.size_t(9))

    report = explore(proof, exh(size_bound=9, max_paths=5))
    assert report.verdict.status == "budget_exhausted"
    assert not report.complete


def test_choice_budget_truncates_path():
    def proof(ctx):
        while True:
            ctx.choice(Domain.custom((0,)))

    report = explore(proof, exh(max_choices_per_path=10, max_paths=50))
    assert report.verdict.status == "budget_exhausted"
    assert report.paths_truncated >= 1


def test_replayed_tape_past_choice_budget_truncates():
    # The budget holds on the tape's own entries too, not only past them.
    tape = ChoiceTape((TapeEntry(KIND_SIZET, 0),) * 3)
    rep = replay(proof_three_choices_fail_once, tape, exh(max_choices_per_path=2))
    assert (rep.verdict.status, rep.paths_truncated, rep.max_choice_depth) == (
        "budget_exhausted", 1, 2)


def test_truncated_run_hits_count_under_both_backends():
    def proof(ctx):
        while True:
            ctx.sassert("s", True)
            ctx.choice(Domain.custom((0,)))

    ex = explore(proof, exh(max_choices_per_path=3))
    rn = explore(proof, rnd(max_choices_per_path=3, random_budget=1))
    assert ex.paths_truncated == rn.paths_truncated == 1
    assert ex.assertion_hits == rn.assertion_hits == {"s": 4}


# -- determinism --------------------------------------------------------------------

def _strip_time(report):
    return dataclasses.replace(report, wall_time=0.0)


def test_exhaustive_determinism():
    a = explore(proof_three_choices_fail_once, exh())
    b = explore(proof_three_choices_fail_once, exh())
    assert _strip_time(a) == _strip_time(b)


def test_random_seed_determinism():
    a = explore(proof_three_choices_fail_once, rnd(seed=42))
    b = explore(proof_three_choices_fail_once, rnd(seed=42))
    assert _strip_time(a) == _strip_time(b)
    assert a.verdict.tape == b.verdict.tape


def test_random_rejects_counted_and_budget_verdict():
    report = explore(proof_assume_false, rnd(random_budget=50, seed=1))
    assert report.verdict.status == "budget_exhausted"
    assert report.paths_pruned_by_assume == 50


def test_random_pass_is_flagged_incomplete():
    report = explore(proof_assert_true, rnd(random_budget=20, seed=3))
    assert report.verdict.is_pass
    assert not report.complete
    assert "weaker" in report.verdict.message


def test_random_fail_replays_to_fail():
    report = explore(proof_three_choices_fail_once, rnd(seed=11, size_bound=1))
    assert report.verdict.is_fail
    again = replay(proof_three_choices_fail_once, report.verdict.tape,
                   rnd(seed=11, size_bound=1))
    assert again.verdict.is_fail
    assert again.verdict.failed_site == report.verdict.failed_site


def _randrange_index(rng, n):
    """Reference for `_random_index`: the same boundary bias, then
    `randrange(n)`."""
    if n > 1 and rng.random() < 0.25:
        return 0 if rng.random() < 0.5 else n - 1
    return rng.randrange(n)


@pytest.mark.parametrize("seed", range(10))
def test_random_extender_follows_randrange_stream(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    extend = _random_index(rng)
    sizes = [1 + i % 300 for i in range(1000)]  # every n in 1..300
    assert ([extend(pos, n) for pos, n in enumerate(sizes)]
            == [_randrange_index(twin, n) for n in sizes])
    assert rng.getstate() == twin.getstate()


# -- run lifetime -------------------------------------------------------------------------

def test_runs_are_freed_by_reference_counting():
    # The heap draws havocked bytes through its context, so each run's
    # context and heap form a cycle until the run ends.  With the cyclic
    # collector off, every heap must still be gone once its run is over.
    entry = next(e for e in register_corpus() if e.name == "pq_s_swap")
    heaps, tapes = [], []

    def body(ctx):
        heaps.append(weakref.ref(ctx.heap))
        tapes.append(ctx.taken)
        entry.body(ctx)

    def failing(ctx):
        heaps.append(weakref.ref(ctx.heap))
        proof_wild_deref(ctx)

    cfg = exh(size_bound=2)
    collecting = gc.isenabled()
    gc.disable()
    try:
        assert explore(body, cfg).paths_explored == 675
        explore(body, rnd(size_bound=2, random_budget=100))
        assert replay(body, ChoiceTape(tuple(tapes[-1])), cfg).verdict.is_pass
        assert explore(failing, cfg).verdict.is_fail
        assert len(heaps) == 678 + 100 + 1 + 2
        alive = sum(r() is not None for r in heaps)
        assert alive == 0, f"{alive} of {len(heaps)} heaps outlived their run"
    finally:
        if collecting:
            gc.enable()


# -- replay ---------------------------------------------------------------------------

def test_replay_reproduces_fail():
    report = explore(proof_wild_deref, exh())
    rep = replay(proof_wild_deref, report.verdict.tape, exh())
    assert rep.verdict.is_fail
    assert rep.verdict.fault.kind is FaultKind.WILD_DEREF


def test_replay_twice_identical_modulo_wall_time():
    report = explore(proof_three_choices_fail_once, exh(size_bound=1))
    a = replay(proof_three_choices_fail_once, report.verdict.tape, exh(size_bound=1))
    b = replay(proof_three_choices_fail_once, report.verdict.tape, exh(size_bound=1))
    assert _strip_time(a) == _strip_time(b)


def test_replay_index_out_of_domain_is_mismatch():
    tape = ChoiceTape((TapeEntry("bool", 7),))
    with pytest.raises(ReplayMismatchError):
        replay(proof_assert_nd_bool, tape, exh())


def test_replay_kind_mismatch():
    tape = ChoiceTape((TapeEntry("u64", 0),))
    with pytest.raises(ReplayMismatchError):
        replay(proof_assert_nd_bool, tape, exh())


def test_replay_past_tape_end_is_mismatch():
    with pytest.raises(ReplayMismatchError):
        replay(proof_assert_nd_bool, ChoiceTape(()), exh())


def test_replay_leftover_tape_is_legal():
    # e.g. replaying a buggy counterexample against a shorter fixed path
    tape = ChoiceTape((TapeEntry("bool", 1), TapeEntry("bool", 1)))
    rep = replay(proof_assert_nd_bool, tape, exh())
    assert rep.verdict.is_pass


def test_replay_of_pruned_path_counts_like_explore():
    tape = ChoiceTape((TapeEntry("bool", 0),))
    rep = replay(proof_assume_false, tape, exh())
    assert rep.verdict.is_pass
    assert (rep.paths_explored, rep.paths_pruned_by_assume) == (0, 1)
    assert rep.assertion_hits == {}


@pytest.mark.parametrize("first,later,message", [
    (Domain.size_t(2), Domain.size_t(0), "index 1 outside sizet domain of 1"),
    (Domain.bools(), Domain.u8((0, 1, 2)), "is bool, proof drew u8"),
    (Domain.custom((0, 1)), Domain.custom((0, 1, 2)),
     "tape entry #1: proof drew a custom domain of 3 values where the previous "
     "run on this prefix drew 2"),
], ids=["domain_shrinks", "bool_u8_kind_flip", "domain_grows"])
def test_nondeterministic_proof_is_mismatch_under_explore(first, later, message):
    # The second run follows the DFS successor of the first run's tape and
    # draws from a different domain at the same position.
    runs = []

    def proof(ctx):
        ctx.choice(later if runs else first)
        runs.append(1)

    with pytest.raises(ReplayMismatchError, match=message):
        explore(proof, exh())


def test_proof_that_stops_drawing_on_its_prefix_is_mismatch():
    # The first run draws two bools; the second follows its successor,
    # bool:0 bool:1, but draws only the first entry of that prefix.
    runs = []

    def proof(ctx):
        sl.nd_bool(ctx)
        if not runs:
            sl.nd_bool(ctx)
        runs.append(1)

    with pytest.raises(ReplayMismatchError,
                       match="tape entry #2: the proof stopped after 1 of the 2 draws"):
        explore(proof, exh())
    # A replay may leave its tape unconsumed.
    tape = ChoiceTape((TapeEntry(KIND_BOOL, 0), TapeEntry(KIND_BOOL, 1)))
    rep = replay(proof, tape, exh())
    assert rep.verdict.is_pass and rep.paths_explored == 1


def test_replay_reproduces_epoch_sequence():
    epochs = []

    def proof(ctx):
        p = ctx.heap.alloc(2)
        ctx.heap.write(p, b"ab")
        ctx.heap.havoc(p, 2)
        if sl.nd_bool(ctx):
            ctx.heap.write(p, b"cd")
        epochs.append(tuple(ctx.heap.allocations[p.alloc_id].epochs))
        ctx.sassert("done", not sl.nd_bool(ctx))

    report = explore(proof, exh())
    tape = report.verdict.tape
    epochs.clear()
    replay(proof, tape, exh())
    replay(proof, tape, exh())
    assert epochs[0] == epochs[1]


def test_materialized_bytes_match_tape_entries():
    # a havocked byte's value is exactly the byte-domain entry its draw
    # recorded on the tape
    cfg = exh(byte_domain=(0x10, 0x20, 0x30))
    seen = []

    def proof(ctx):
        p = ctx.heap.alloc(1)
        ctx.heap.havoc(p, 1)
        seen.append(ctx.heap.read(p, 1)[0])
        ctx.sassert("ok", True)

    report = explore(proof, cfg)
    assert report.paths_explored == 3
    assert seen == [0x10, 0x20, 0x30]


def test_config_bounds_validated():
    with pytest.raises(ValueError):
        ExploreConfig(max_paths=0)
    with pytest.raises(ValueError):
        ExploreConfig(random_budget=-1)
    with pytest.raises(ValueError):
        ExploreConfig(byte_domain=())
    with pytest.raises(ValueError):
        ExploreConfig(byte_domain=(0, 0))
    with pytest.raises(ValueError):
        ExploreConfig(byte_domain=(0, 256))
    with pytest.raises(ValueError):
        ExploreConfig(size_bound=-1)
    assert ExploreConfig(size_bound=0).size_bound == 0


def test_backend_validated():
    # Rejected when the config is built, as bad bounds are; replay is a
    # function, not a backend a config selects.
    with pytest.raises(ValueError, match="backend"):
        ExploreConfig(backend="bfs")
    with pytest.raises(ValueError, match="backend"):
        dataclasses.replace(ExploreConfig(), backend="replay")
    assert dataclasses.replace(ExploreConfig(), backend=RANDOM).backend == RANDOM


# -- monotonicity in the size bound ----------------------------------------------------

def proof_fails_at_two(ctx):
    ctx.sassert("lt2", sl.nd_size_t(ctx) < 2)


def test_enlarging_bound_never_turns_fail_into_pass():
    assert explore(proof_fails_at_two, exh(size_bound=2)).verdict.is_fail
    assert explore(proof_fails_at_two, exh(size_bound=4)).verdict.is_fail
    assert explore(proof_fails_at_two, exh(size_bound=8)).verdict.is_fail
    # below the bound the failure is out of scope
    assert explore(proof_fails_at_two, exh(size_bound=1)).verdict.is_pass


# -- usage errors ------------------------------------------------------------------------

def test_framework_usage_error_is_distinguished_fail():
    def proof(ctx):
        p = ctx.heap.alloc(1)
        ctx.heap.write(p, b"a")
        ctx.heap.is_mod(p, 1)  # tracking_on never called

    report = explore(proof, exh())
    assert report.verdict.is_fail
    assert report.verdict.fault is None
    assert report.verdict.message.startswith("framework usage error")


@pytest.mark.parametrize("backend", [EXHAUSTIVE, RANDOM])
def test_proof_exception_is_replayable_fail(backend):
    def proof(ctx):
        ctx.heap.alloc(sl.nd_size_t(ctx) - 1)  # negative size at 0

    cfg = exh(backend=backend)
    verdict = explore(proof, cfg).verdict
    assert verdict.is_fail and verdict.fault is None and verdict.failed_site is None
    assert verdict.message == "proof raised ValueError: negative allocation size"
    assert verdict.tape == ChoiceTape((TapeEntry(KIND_SIZET, 0),))
    trace = []
    assert replay(proof, verdict.tape, cfg, trace=trace).verdict == verdict
    assert trace[-1] == "ValueError: negative allocation size"  # the traceback


# -- proofs that catch Exception -----------------------------------------------------------
#
# Each proof wraps the step that ends its run in `try/except Exception`.  The
# run must still end as it would without the handler.

def proof_swallowed_assert(ctx):
    n = sl.nd_size_t(ctx)
    try:
        ctx.sassert("small", n < 2)
    except Exception:
        pass


def proof_swallowed_fault(ctx):
    n = sl.nd_size_t(ctx)
    p = ctx.heap.alloc(2)
    ctx.heap.write(p, b"ab")
    try:
        ctx.heap.read(p, n)  # out of bounds at n == 3
    except Exception:
        pass


def proof_swallowed_budget(ctx):
    try:
        while True:
            sl.nd_bool(ctx)
    except Exception:
        pass


def proof_swallowed_bounded_draw(ctx):
    try:
        sl.nd_size_t_below(ctx, 2)
    except Exception:
        pass
    ctx.sassert("small", ctx.taken[0].index < 2)  # the drawn size


def proof_swallowed_assume(ctx):
    n = sl.nd_size_t(ctx)
    try:
        ctx.assume(n < 2)
    except Exception:
        pass
    ctx.sassert("small", n < 2)


@pytest.mark.parametrize("backend", [EXHAUSTIVE, RANDOM])
@pytest.mark.parametrize("proof,failed_site,fault", [
    (proof_swallowed_assert, "small", None),
    (proof_swallowed_fault, None, FaultKind.OUT_OF_BOUNDS),
], ids=["assert", "fault"])
def test_swallowed_failure_still_fails(backend, proof, failed_site, fault):
    cfg = exh(backend=backend, size_bound=3)
    verdict = explore(proof, cfg).verdict
    assert verdict.is_fail and verdict.failed_site == failed_site
    assert (verdict.fault.kind if verdict.fault else None) is fault
    if backend == EXHAUSTIVE:
        index = 2 if fault is None else 3
        assert verdict.tape == ChoiceTape((TapeEntry(KIND_SIZET, index),))
    trace = []
    assert replay(proof, verdict.tape, cfg, trace=trace).verdict == verdict
    if fault is not None:
        assert verdict.message.endswith(" (caught by the proof)")
        assert trace[-1] == f"heap fault: {verdict.message}"


def test_fault_caught_before_another_escapes_is_marked_caught():
    def proof(ctx):
        p = ctx.heap.alloc(1)
        try:
            ctx.heap.read(p, 2)  # the run's first fault, caught
        except Exception:
            pass
        ctx.heap.free(p)
        ctx.heap.free(p)  # a second fault, not caught

    verdict = explore(proof, exh()).verdict
    assert verdict.fault.kind is FaultKind.OUT_OF_BOUNDS  # the first fault
    assert verdict.message.endswith(" (caught by the proof)")


@pytest.mark.parametrize("backend", [EXHAUSTIVE, RANDOM])
def test_swallowed_choice_budget_still_truncates(backend):
    cfg = exh(backend=backend, max_choices_per_path=4, random_budget=20)
    report = explore(proof_swallowed_budget, cfg)
    assert report.verdict.status == "budget_exhausted"
    assert report.paths_explored == 0
    assert report.paths_truncated == (16 if backend == EXHAUSTIVE else 20)
    rep = replay(proof_swallowed_budget, ChoiceTape((TapeEntry(KIND_BOOL, 1),) * 4), cfg)
    assert (rep.verdict.status, rep.paths_explored, rep.paths_truncated) == (
        "budget_exhausted", 0, 1)


@pytest.mark.parametrize("backend", [EXHAUSTIVE, RANDOM])
def test_swallowed_bounded_draw_prunes_like_its_assume_twin(backend):
    cfg = exh(backend=backend, size_bound=3)
    below = explore(proof_swallowed_bounded_draw, cfg)
    twin = explore(proof_swallowed_assume, cfg)
    assert below.verdict.is_pass and twin.verdict.is_pass
    assert (below.paths_explored, below.paths_pruned_by_assume, below.assertion_hits) == (
        twin.paths_explored, twin.paths_pruned_by_assume, twin.assertion_hits)
    if backend == EXHAUSTIVE:
        assert (below.paths_explored, below.paths_pruned_by_assume) == (2, 2)
    for index in range(4):
        tape = ChoiceTape((TapeEntry(KIND_SIZET, index),))
        reps = [replay(p, tape, cfg) for p in (proof_swallowed_bounded_draw,
                                               proof_swallowed_assume)]
        assert all(r.verdict.is_pass for r in reps)
        assert {(r.paths_explored, r.paths_pruned_by_assume) for r in reps} == {
            (1, 0) if index < 2 else (0, 1)}


def test_caught_tape_mismatch_still_raises():
    # The shrinking-domain proof of the explore mismatch test, with the
    # draw inside `try/except Exception`.
    runs = []

    def proof(ctx):
        try:
            ctx.choice(Domain.size_t(0) if runs else Domain.size_t(2))
        except Exception:
            pass
        runs.append(1)

    with pytest.raises(ReplayMismatchError, match="index 1 outside sizet domain of 1"):
        explore(proof, exh())
    with pytest.raises(ReplayMismatchError, match="index 2 outside sizet domain of 1"):
        replay(proof, ChoiceTape((TapeEntry(KIND_SIZET, 2),)), exh())
    with pytest.raises(ReplayMismatchError, match="tape has only 0 entries"):
        replay(proof, ChoiceTape(), exh())


# -- domains and tapes ----------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain.custom(())
    with pytest.raises(ValueError):
        Domain.custom((1, 1))
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError):
            Domain.size_t(-1)


def test_cached_domains_equal_fresh_ones():
    assert Domain.bools() is Domain.bools() == Domain(KIND_BOOL, (False, True))
    assert Domain.size_t(3) is Domain.size_t(3) == Domain(KIND_SIZET, (0, 1, 2, 3))
    cfg = exh(size_bound=3, byte_domain=(0x10, 0x20))
    assert cfg.byte_dom is cfg.byte_dom == Domain(KIND_U8, (0x10, 0x20))
    # The cached domains leave the config's value semantics alone.
    twin = exh(size_bound=3, byte_domain=(0x10, 0x20))
    assert cfg == twin and hash(cfg) == hash(twin)
    assert dataclasses.replace(cfg, byte_domain=(1,)).byte_dom == Domain(KIND_U8, (1,))


def test_tape_text_roundtrip():
    tape = ChoiceTape((TapeEntry("bool", 1), TapeEntry("sizet", 3),
                       TapeEntry("u8", 0), TapeEntry("custom", 0)))
    text = tape.to_text()
    assert text == "bool:1\nsizet:3\nu8:0\ncustom:0\n"
    assert ChoiceTape.from_text(text) == tape


def test_tape_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ChoiceTape.from_text("bool=1\n")
    with pytest.raises(ValueError):
        ChoiceTape.from_text("bool:x\n")
    # Only ASCII decimal digits index a tape entry.
    for line in ("sizet:\u0663", "bool:\u00b2"):
        with pytest.raises(ValueError, match="malformed tape line 2"):
            ChoiceTape.from_text("bool:1\n" + line + "\n")


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["bool", "u8", "u64", "sizet", "custom"]),
                          st.integers(0, 30)), max_size=12))
def test_tape_roundtrip_property(pairs):
    tape = ChoiceTape(tuple(TapeEntry(k, i) for k, i in pairs))
    assert ChoiceTape.from_text(tape.to_text()) == tape


# -- engine vs independent enumeration oracle -------------------------------------------------

@pytest.mark.parametrize("proof", ORACLE_PROOFS, ids=lambda p: p.__name__)
def test_exhaustive_matches_bruteforce_oracle(proof):
    cfg = exh()
    report = explore(proof, cfg)
    oracle, outcomes = oracle_explore(proof, cfg)
    engine = "fail" if report.verdict.is_fail else "pass"
    assert engine == oracle
    if engine == "pass":
        # completed path sets agree as well
        oracle_completed = sum(1 for o in outcomes if o[0] == "pass")
        assert report.paths_explored == oracle_completed
