"""The exhaustive backend's sibling fold (`RunContext.sassert_below`).

When a run ends right after `sassert_below`, the passing indices above the
drawn one are counted from `check` on the finished heap instead of being
run.  Each proof here comes in two forms: folded, with `sassert_below`, and
plain, with `nd_size_t_below` and `sassert`, which never folds.  Both must
report the same, `wall_time` aside, and agree with the enumeration oracle
and with the hits of replaying every leaf."""

import dataclasses

import pytest

from casverify import engine, speclib as sl
from casverify.corpus import register_corpus
from casverify.engine import RANDOM, ChoiceTape, ExploreConfig, TapeEntry, explore, replay

from oracles import OracleContext, oracle_explore

SIZE_BOUND = 3  # index domain 0..3: four values


def _proof(content: str, bound: int, after: str = "", *, folded: bool):
    """A proof that draws a bool, fills a region with `content` (one byte
    per character; `?` is a havocked byte) and asserts at an index below
    `bound` that the byte there is not `x`.  `after` names what the run
    does after the assert."""
    runs = []

    def proof(ctx):
        runs.append(1)
        heap = ctx.heap
        ctx.sassert("flag", sl.nd_bool(ctx) in (False, True))
        p = heap.alloc(len(content))
        for off, c in enumerate(content):
            if c == "?":
                heap.havoc(p.add(off), 1)
            else:
                heap.write(p, c.encode(), off=off)

        def check(i):
            return heap.read(p, 1, off=i) != b"x"

        if folded:
            ctx.sassert_below("byte", bound, check)
        else:
            i = sl.nd_size_t_below(ctx, bound)
            ctx.sassert("byte", check(i))
        if after == "assert":
            ctx.sassert("after", True)
        elif after == "write":
            heap.write(p, b"a")
        elif after == "draw":
            sl.nd_bool(ctx)
        elif after == "read":
            heap.read(p, 1)

    proof.runs = runs
    return proof


def _same(a, b):
    assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(b, wall_time=0.0)


def _leaf_tape(proof, cfg, forced) -> ChoiceTape:
    ctx = OracleContext(cfg, forced)
    try:
        proof(ctx)
    except Exception:
        pass
    return ChoiceTape(tuple(TapeEntry(k, i) for k, i in zip(ctx.kinds, forced)))


# (content, bound, after, proof runs, paths explored, verdict)
CASES = [
    ("abcd", 2, "", 2, 4, "pass"),        # bound below the domain size
    ("abcd", 4, "", 2, 8, "pass"),        # bound at the domain size
    ("abcd", 9, "", 2, 8, "pass"),        # bound above it
    ("abxd", 4, "", 2, 2, "fail"),        # a sibling's check fails
    ("ab", 4, "", 2, 2, "fail"),          # a sibling's read faults
    ("ab??", 4, "", 14, 16, "pass"),      # a sibling's byte is havocked
    ("a?cd", 4, "", 10, 12, "pass"),      # the drawn index's byte is havocked
    ("abcd", 4, "assert", 8, 8, "pass"),  # an assert after the assert
    ("abcd", 4, "write", 8, 8, "pass"),   # a heap store after the assert
    ("abcd", 4, "draw", 16, 16, "pass"),  # a draw after the assert
    ("abcd", 4, "read", 2, 8, "pass"),    # a read changes nothing
]


@pytest.mark.parametrize("content,bound,after,runs,explored,verdict", CASES,
                         ids=[f"{c}-{b}-{a or 'end'}" for c, b, a, *_ in CASES])
def test_fold_matches_plain_oracle_and_replay(content, bound, after, runs, explored,
                                              verdict):
    folded = _proof(content, bound, after, folded=True)
    plain = _proof(content, bound, after, folded=False)
    cfg = ExploreConfig(size_bound=SIZE_BOUND)

    report = explore(folded, cfg)
    _same(explore(plain, cfg), report)
    assert len(folded.runs) == runs
    assert (report.paths_explored, report.verdict.status) == (explored, verdict)

    oracle, outcomes = oracle_explore(folded, cfg)
    assert oracle == ("fail" if report.verdict.is_fail else "pass")
    failing = next((n for n, o in enumerate(outcomes) if o[0] in ("fail", "fault")),
                   None)
    judged = outcomes if failing is None else outcomes[:failing + 1]
    assert report.paths_explored == sum(o[0] == "pass" for o in judged)
    assert report.paths_pruned_by_assume == sum(o[0] == "prune" for o in judged)
    if failing is not None:
        assert tuple(e.index for e in report.verdict.tape) == outcomes[failing][1]

    hits = {}
    for o in judged:
        rep = replay(folded, _leaf_tape(folded, cfg, o[1]), cfg)
        for sid, n in rep.assertion_hits.items():
            hits[sid] = hits.get(sid, 0) + n
    assert report.assertion_hits == hits


@pytest.mark.parametrize("content,bound,after", [(c, b, a) for c, b, a, *_ in CASES],
                         ids=[f"{c}-{b}-{a or 'end'}" for c, b, a, *_ in CASES])
def test_every_budget_and_random_seed_matches_plain(content, bound, after):
    folded = _proof(content, bound, after, folded=True)
    plain = _proof(content, bound, after, folded=False)
    cfg = ExploreConfig(size_bound=SIZE_BOUND)
    leaves = len(oracle_explore(folded, cfg)[1])
    # Every budget up to one past the leaf count, so the budget also runs
    # out inside each fold.
    for max_paths in range(1, leaves + 2):
        run = dataclasses.replace(cfg, max_paths=max_paths)
        _same(explore(plain, run), explore(folded, run))
    for seed in range(3):
        run = dataclasses.replace(cfg, backend=RANDOM, seed=seed, random_budget=20)
        del folded.runs[:]
        report = explore(folded, run)
        _same(explore(plain, run), report)
        # Random runs never fold: one run per tape.
        assert len(folded.runs) == (report.paths_explored + report.paths_pruned_by_assume
                                    + report.paths_truncated + report.verdict.is_fail)


def test_max_paths_cuts_a_fold_midway():
    folded = _proof("abcd", 4, folded=True)
    report = explore(folded, ExploreConfig(size_bound=SIZE_BOUND, max_paths=3))
    assert len(folded.runs) == 1
    assert (report.paths_explored, report.verdict.status) == (3, "budget_exhausted")
    assert report.assertion_hits == {"flag": 3, "byte": 3}


def test_a_check_that_hits_draws_or_stores_stops_the_fold():
    # The drawn index passes cleanly; from index 2 on the check itself
    # asserts, draws or writes, which the real run of that index would do.
    for act in ("assert", "draw", "write"):
        runs = []

        def proof(ctx, act=act):
            runs.append(1)
            p = ctx.heap.alloc(4)
            ctx.heap.write(p, b"abcd")

            def check(i):
                if i >= 2:
                    if act == "assert":
                        ctx.sassert("inner", True)
                    elif act == "draw":
                        sl.nd_bool(ctx)
                    else:
                        ctx.heap.write(p, b"z", off=3)
                return ctx.heap.read(p, 1, off=i) != b"x"

            ctx.sassert_below("byte", 4, check)

        report = explore(proof, ExploreConfig(size_bound=SIZE_BOUND))
        # Index 0 folds index 1; index 2 and the rest run.
        assert len(runs) == report.paths_explored - 1
        oracle, outcomes = oracle_explore(proof, ExploreConfig(size_bound=SIZE_BOUND))
        assert report.verdict.is_pass and oracle == "pass"
        assert report.paths_explored == sum(o[0] == "pass" for o in outcomes)
        if act == "assert":
            assert report.assertion_hits == {"byte": 4, "inner": 2}
        elif act == "draw":
            assert report.assertion_hits == {"byte": 6}


def test_corpus_reports_equal_without_the_fold(monkeypatch):
    cfg = ExploreConfig(size_bound=3)
    entries = register_corpus()

    def reports():
        return [explore(e.body, e.config_for(cfg, c), name=e.name, sites=e.sites,
                        buggy=c.buggy) for e in entries for c in e.cases]

    folded = reports()
    monkeypatch.setattr(engine, "_passing_siblings", lambda ctx, room: 0)
    for a, b in zip(folded, reports(), strict=True):
        _same(a, b)


def test_hash_callback_string_eq_runs_fewer_bodies_than_tapes():
    entry = next(e for e in register_corpus() if e.name == "hash_callback_string_eq")
    case = entry.case("fixed")
    runs = []

    def body(ctx):
        runs.append(1)
        entry.body(ctx)

    report = explore(body, entry.config_for(ExploreConfig(size_bound=3), case),
                     sites=entry.sites, buggy=case.buggy)
    tapes = report.paths_explored + report.paths_pruned_by_assume + report.paths_truncated
    assert report.verdict.is_pass
    assert len(runs) < tapes
