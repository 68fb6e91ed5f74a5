"""The exhaustive and random backends against the enumeration oracle
(`oracles.py`) on generated programs (`perfbench.generate`), not only on the
corpus proofs.  `perfbench.workloads.oracle_behaviour` turns the oracle's
leaves into what the exhaustive backend must report: the verdict, the path
counts before the first failing leaf, and that leaf as the counterexample
tape.  Every random run must end on an oracle leaf with the same outcome."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from casverify.engine import RANDOM, ExploreConfig, PathPruned, explore  # noqa: E402
from oracles import oracle_explore  # noqa: E402
from perfbench.generate import generate_programs  # noqa: E402
from perfbench.workloads import oracle_behaviour  # noqa: E402

BOUND = 2
PROGRAMS = generate_programs(seed=5, count=40)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_exhaustive_matches_oracle_on_generated_program(program):
    expected = oracle_behaviour([program], BOUND)["cases"][f"{program.name}[fixed]"]
    rep = explore(program, ExploreConfig(size_bound=BOUND))
    v = rep.verdict
    assert {"verdict_status": v.status, "paths_explored": rep.paths_explored,
            "paths_pruned_by_assume": rep.paths_pruned_by_assume,
            "paths_truncated": rep.paths_truncated,
            "fault_kind": v.fault.kind.value if v.fault else None,
            "failed_site": v.failed_site,
            "tape_indices": None if v.tape is None else [e.index for e in v.tape]} == expected


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_random_tapes_are_oracle_leaves(program):
    # Each run records its tape and how it ended; the oracle's leaf for
    # that tape must end the same way.
    runs = []

    def body(ctx):
        outcome = "fail"
        try:
            program(ctx)
            outcome = "pass"
        except PathPruned:
            outcome = "prune"
            raise
        finally:
            runs.append((tuple(e.index for e in ctx.taken), outcome))

    cfg = ExploreConfig(backend=RANDOM, size_bound=BOUND, random_budget=12,
                        seed=PROGRAMS.index(program))
    rep = explore(body, cfg)
    oracle_verdict, outcomes = oracle_explore(program, ExploreConfig(size_bound=BOUND))
    leaves = {o[1]: "fail" if o[0] == "fault" else o[0] for o in outcomes}
    assert [(tape, leaves.get(tape)) for tape, _ in runs] == runs
    if rep.verdict.is_fail:
        assert oracle_verdict == "fail"
        assert tuple(e.index for e in rep.verdict.tape) == runs[-1][0]
