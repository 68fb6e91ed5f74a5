"""The exhaustive backend against the enumeration oracle (`oracles.py`) on
generated programs (`perfbench.generate`), not only on the corpus proofs.
`perfbench.workloads.oracle_behaviour` turns the oracle's leaves into what
the engine must report: the verdict, the path counts before the first
failing leaf, and that leaf as the counterexample tape."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from casverify.engine import ExploreConfig, explore  # noqa: E402
from perfbench.generate import generate_programs  # noqa: E402
from perfbench.workloads import oracle_behaviour  # noqa: E402

BOUND = 2


@pytest.mark.parametrize("program", generate_programs(seed=5, count=40),
                         ids=lambda p: p.name)
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
