"""Independent oracles used by the test suite.

The enumeration oracle re-implements proof execution over the full
cross-product of drawn domains with none of the engine's DFS machinery, so
engine verdicts can be checked against a second, independently written
exploration strategy.
"""

from casverify.engine import Domain
from casverify.heap import Heap, MemoryFaultError, Pointer, UsageError


class OraclePrune(Exception):
    pass


class OracleAssertFail(Exception):
    def __init__(self, site_id):
        super().__init__(site_id)
        self.site_id = site_id


class _NeedsChoice(Exception):
    def __init__(self, size):
        super().__init__()
        self.size = size


class OracleContext:
    """Minimal stand-in for the engine's run context.  Choices come from a
    fixed index tuple; drawing past its end aborts the run so the
    enumerator can widen the tuple by one position."""

    def __init__(self, cfg, forced, buggy=frozenset()):
        self.cfg = cfg
        self._forced = forced
        self._pos = 0
        self._buggy = buggy
        self._wilds = 0
        byte_dom = Domain.u8(cfg.byte_domain)
        self.heap = Heap(lambda: self.choice(byte_dom),
                         typed_access_check=cfg.typed_access_check,
                         zero_alloc_returns_null=cfg.zero_alloc_returns_null)

    def choice(self, domain):
        if self._pos >= len(self._forced):
            raise _NeedsChoice(len(domain.values))
        idx = self._forced[self._pos]
        self._pos += 1
        return domain.values[idx]

    def choice_below(self, domain, bound):
        value = self.choice(domain)
        self.assume(self._forced[self._pos - 1] < bound)
        return value

    def assume(self, cond):
        if not cond:
            raise OraclePrune()

    def sassert(self, site, cond):
        sid = site if isinstance(site, str) else site.site_id
        if not cond:
            raise OracleAssertFail(sid)

    def fresh_wild(self):
        self._wilds += 1
        return Pointer.wild(f"nd:{self._wilds}")

    def is_buggy(self, name):
        return name in self._buggy


def oracle_explore(proof, cfg, buggy=frozenset(), max_depth=10):
    """Enumerate every complete path by recursively widening the forced
    index tuple; returns (verdict, outcomes).  Verdict is "fail" iff any
    path failed an assertion or faulted, else "pass"."""
    outcomes = []

    def expand(forced):
        if len(forced) > max_depth:
            raise RuntimeError("oracle depth cap exceeded")
        ctx = OracleContext(cfg, forced, buggy)
        try:
            proof(ctx)
            outcomes.append(("pass", forced))
        except _NeedsChoice as need:
            for i in range(need.size):
                expand(forced + (i,))
        except OraclePrune:
            outcomes.append(("prune", forced))
        except OracleAssertFail as e:
            outcomes.append(("fail", forced, e.site_id))
        except (MemoryFaultError, UsageError) as e:
            outcomes.append(("fault", forced, e))

    expand(())
    statuses = {o[0] for o in outcomes}
    verdict = "fail" if ("fail" in statuses or "fault" in statuses) else "pass"
    return verdict, outcomes
