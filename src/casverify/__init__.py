"""casverify: executable unit proofs over a modeled heap.

Proofs are plain callables that draw bounded nondeterministic values,
constrain them with assume, exercise code against a fault-detecting heap
model, and assert postconditions.  An exhaustive backend enumerates every
choice tape within small-scope bounds; a random backend samples them.
Counterexamples are replayable tapes, and unreached assertions are flagged
by vacuity analysis.
"""

from .engine import (
    AssertionSite,
    ChoiceTape,
    Domain,
    ExploreConfig,
    ReplayMismatchError,
    RunContext,
    RunReport,
    Verdict,
    explore,
    replay,
)
from .heap import (
    Fault,
    FaultKind,
    Heap,
    MemoryFaultError,
    Pointer,
    UsageError,
)
from .vacuity import VacuityReport, analyze, overall_status

__version__ = "0.1.0"

__all__ = [
    "AssertionSite", "ChoiceTape", "Domain", "ExploreConfig",
    "ReplayMismatchError", "RunContext", "RunReport", "Verdict",
    "explore", "replay",
    "Fault", "FaultKind", "Heap", "MemoryFaultError",
    "Pointer", "UsageError",
    "VacuityReport", "analyze", "overall_status",
    "__version__",
]
