"""Choice-tape nondeterminism engine.

A proof body is an ordinary callable taking a `RunContext`.  Every
nondeterministic value it needs is drawn through `RunContext.choice` from a
finite `Domain`, which makes each run a deterministic function of the
sequence of chosen indices: the choice tape.  A counterexample is a tape.

One driver runs every backend: it re-executes the proof body once per
tape, from scratch, and folds each run's outcome into one set of
statistics.  The backends differ only in where each run's tape comes from:

* exhaustive: depth-first enumeration with first-value default.  The proof
  body is cheap to restart, so backtracking re-runs it with the DFS
  successor of the last tape as its prefix instead of capturing
  continuations.  Counterexamples are minimal in lexicographic tape order.
* random: independent seeded runs with boundary-biased draws; an `assume`
  failure aborts and rejects the run.  A random pass is explicitly weaker
  than an exhaustive pass and the report flags it.
* replay: one run on a recorded tape, with no draws past its end.

A run checks every prefix entry against the domain the proof draws, so a
proof that is not a deterministic function of its tape raises
ReplayMismatchError instead of being explored wrongly.

There is no constraint solving: the exhaustive backend substitutes
small-scope enumeration, stated honestly in reports.
"""

from __future__ import annotations

import functools
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from .heap import Fault, Heap, HeapConfig, MemoryFaultError, Pointer, UsageError

EXHAUSTIVE = "exhaustive"
RANDOM = "random"
REPLAY = "replay"

U64_MAX = (1 << 64) - 1

# Domain kinds as they appear in serialized tapes.
KIND_BOOL = "bool"
KIND_U8 = "u8"
KIND_U64 = "u64"
KIND_SIZET = "sizet"
KIND_WILD = "wildtoken"
KIND_CUSTOM = "custom"


@dataclass(frozen=True)
class Domain:
    """Finite ordered candidate set for one nondeterministic draw."""

    kind: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("domain must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("domain values must be duplicate-free")

    @staticmethod
    def bools() -> "Domain":
        return _BOOLS

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def size_t(bound: int) -> "Domain":
        return Domain(KIND_SIZET, tuple(range(bound + 1)))

    @staticmethod
    def u8(values: Iterable[int]) -> "Domain":
        return Domain(KIND_U8, tuple(values))

    @staticmethod
    def u64(values: Iterable[int]) -> "Domain":
        return Domain(KIND_U64, tuple(values))

    @staticmethod
    def wild_token() -> "Domain":
        return _WILD_TOKEN

    @staticmethod
    def custom(values: Iterable) -> "Domain":
        return Domain(KIND_CUSTOM, tuple(values))


# Domains are immutable, so the fixed ones are built and validated once.
_BOOLS = Domain(KIND_BOOL, (False, True))
# Single candidate: the draw marks creation of a fresh opaque token on the
# tape without multiplying paths.
_WILD_TOKEN = Domain(KIND_WILD, (0,))


class TapeEntry(NamedTuple):
    kind: str
    index: int


@dataclass(frozen=True)
class ChoiceTape:
    """Recorded sequence of draws; replaying it against the same proof and
    config reproduces the identical heap trace and verdict."""

    entries: tuple[TapeEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_text(self) -> str:
        return "".join(f"{e.kind}:{e.index}\n" for e in self.entries)

    @staticmethod
    def from_text(text: str) -> "ChoiceTape":
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind, sep, idx = line.partition(":")
            if not sep or not idx.strip().isdigit():
                raise ValueError(f"malformed tape line {lineno}: {line!r}")
            entries.append(TapeEntry(kind.strip(), int(idx)))
        return ChoiceTape(tuple(entries))


@dataclass(frozen=True)
class AssertionSite:
    """Stable identifier for one assert statement.  Sites sharing a
    group_key are semantic duplicates (the same helper asserted from several
    call sites); vacuity warns only when a whole group is unreached."""

    site_id: str
    group_key: str = ""
    description: str = ""

    def __post_init__(self):
        if not self.group_key:
            object.__setattr__(self, "group_key", self.site_id)


@dataclass(frozen=True)
class ExploreConfig:
    backend: str = EXHAUSTIVE
    size_bound: int = 4
    byte_domain: tuple[int, ...] = (0x00, 0x01, 0xFF)
    u64_values: tuple[int, ...] | None = None
    max_paths: int = 100_000
    max_choices_per_path: int = 64
    random_budget: int = 10_000
    seed: int = 0
    malloc_can_fail: bool = True
    warn_dead_assume: bool = False
    heap: HeapConfig = field(default_factory=HeapConfig)

    def __post_init__(self):
        if self.size_bound < 0:
            raise ValueError("size_bound must be non-negative")
        for name in ("max_paths", "max_choices_per_path", "random_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.byte_domain:
            raise ValueError("byte_domain must be non-empty")
        if len(set(self.byte_domain)) != len(self.byte_domain):
            raise ValueError("byte_domain values must be duplicate-free")
        if not all(0 <= b <= 0xFF for b in self.byte_domain):
            raise ValueError("byte_domain values must lie in 0..255")

    def u64_domain_values(self) -> tuple[int, ...]:
        if self.u64_values is not None:
            return self.u64_values
        return tuple(sorted({0, 1, 2, self.size_bound, (1 << 32) - 1, U64_MAX}))

    # The draw domains a config implies, built and validated on first use.
    # cached_property stores into the instance dict, past the frozen
    # __setattr__; fields, equality and hashing are unaffected.

    @functools.cached_property
    def byte_dom(self) -> Domain:
        return Domain.u8(self.byte_domain)

    @functools.cached_property
    def u64_dom(self) -> Domain:
        return Domain.u64(self.u64_domain_values())

    def with_overrides(self, **kw) -> "ExploreConfig":
        heap_kw = {k: kw.pop(k) for k in list(kw)
                   if k in HeapConfig.__dataclass_fields__}
        cfg = replace(self, **kw)
        if heap_kw:
            cfg = replace(cfg, heap=replace(cfg.heap, **heap_kw))
        return cfg


VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class Verdict:
    status: str
    tape: ChoiceTape | None = None
    fault: Fault | None = None
    failed_site: str | None = None
    message: str = ""

    @property
    def is_pass(self) -> bool:
        return self.status == VERDICT_PASS

    @property
    def is_fail(self) -> bool:
        return self.status == VERDICT_FAIL


@dataclass
class RunReport:
    """Outcome of exploring one proof plus exploration statistics.
    Immutable by convention once produced; wall_time is the only field not
    determined by (proof, config, seed)."""

    name: str
    backend: str
    verdict: Verdict
    paths_explored: int = 0
    paths_pruned_by_assume: int = 0
    paths_truncated: int = 0
    max_choice_depth: int = 0
    assertion_hits: dict = field(default_factory=dict)
    complete: bool = False
    dead_assume_warning: bool = False
    wall_time: float = 0.0


class PathPruned(Exception):
    pass


class AssertionFailed(Exception):
    def __init__(self, site_id: str, message: str = ""):
        super().__init__(message or f"assertion {site_id} failed")
        self.site_id = site_id


class ChoiceBudgetExceeded(Exception):
    pass


class ReplayMismatchError(Exception):
    """Tape and proof disagree: different domain kind, index out of range,
    or the proof drew past the end of the tape.  Under `explore` it means
    the proof drew differently on a prefix an earlier run recorded."""


# -- draw extenders ------------------------------------------------------------
#
# A run follows its tape prefix and asks an extender, `extend(pos, n)`, for
# the index of every draw past it: `pos` is the draw's position on the tape
# and `n` the size of its domain.

def _first_index(pos: int, n: int) -> int:
    return 0


def _past_tape_end(pos: int, n: int) -> int:
    raise ReplayMismatchError(
        f"proof drew choice #{pos + 1} but tape has only {pos} entries")


def _random_index(rng: random.Random) -> Callable[[int, int], int]:
    def extend(pos: int, n: int) -> int:
        # Boundary bias: a quarter of draws snap to a domain endpoint.
        if n > 1 and rng.random() < 0.25:
            return 0 if rng.random() < 0.5 else n - 1
        return rng.randrange(n)
    return extend


class RunContext:
    """Per-run state handed to a proof body.

    Exposes the heap, the draw/assume/assert primitives, and the per-helper
    fixed/buggy variant selection.  One context lives for exactly one path.
    Draws follow `prefix`, each entry checked against the drawn domain's
    kind and size, and `extend` picks every draw past it.
    """

    def __init__(self, cfg: ExploreConfig, *, buggy: frozenset[str] = frozenset(),
                 prefix: Sequence[TapeEntry] = (),
                 extend: Callable[[int, int], int] = _first_index,
                 trace: list | None = None):
        self.cfg = cfg
        self._buggy = buggy
        self._prefix = prefix
        self._extend = extend
        self._trace = trace
        self.taken: list[TapeEntry] = []
        self.sizes: list[int] = []
        self.hits: dict[str, int] = {}
        self._wild_count = 0
        # Havocked bytes are drawn from the configured byte domain.
        self.heap = Heap(cfg.heap, byte_source=functools.partial(self.choice, cfg.byte_dom))

    # -- draws --------------------------------------------------------------

    def choice(self, domain: Domain):
        pos = len(self.taken)
        if pos >= self.cfg.max_choices_per_path:
            raise ChoiceBudgetExceeded()
        n = len(domain.values)
        if pos < len(self._prefix):
            entry = self._prefix[pos]
            if entry.kind != domain.kind:
                raise ReplayMismatchError(
                    f"tape entry #{pos + 1} is {entry.kind}, proof drew {domain.kind}")
            if not 0 <= entry.index < n:
                raise ReplayMismatchError(
                    f"tape entry #{pos + 1} index {entry.index} outside "
                    f"{domain.kind} domain of {n} values")
        else:
            entry = TapeEntry(domain.kind, self._extend(pos, n))
        self.taken.append(entry)
        self.sizes.append(n)
        value = domain.values[entry.index]
        if self._trace is not None:
            self._trace.append(f"choice {pos + 1}: {domain.kind}[{n}] -> "
                               f"index {entry.index} ({value!r})")
        return value

    def fresh_wild(self) -> Pointer:
        self._wild_count += 1
        return Pointer.wild(f"nd:{self._wild_count}")

    # -- control ------------------------------------------------------------

    def assume(self, cond) -> None:
        if not cond:
            if self._trace is not None:
                self._trace.append("assume: false -> path pruned")
            raise PathPruned()
        if self._trace is not None:
            self._trace.append("assume: ok")

    def sassert(self, site, cond) -> None:
        site_id = site if isinstance(site, str) else site.site_id
        self.hits[site_id] = self.hits.get(site_id, 0) + 1
        if not cond:
            if self._trace is not None:
                self._trace.append(f"assert {site_id}: FAILED")
            raise AssertionFailed(site_id)
        if self._trace is not None:
            self._trace.append(f"assert {site_id}: ok")

    # -- variants -----------------------------------------------------------

    def is_buggy(self, helper_name: str) -> bool:
        return helper_name in self._buggy


# -- the exploration driver ------------------------------------------------------


def explore(proof: Callable, cfg: ExploreConfig, *, name: str = "",
            sites: Iterable[AssertionSite] = (),
            buggy: frozenset[str] = frozenset()) -> RunReport:
    """Explore a proof under the configured backend and return the report.

    `sites` declares the proof's assertion sites up front so that a site
    sitting in never-executed code still shows up (with zero hits) for
    vacuity analysis.

    Raises ReplayMismatchError when the exhaustive backend finds that the
    proof is not a deterministic function of its tape.
    """
    if cfg.backend == EXHAUSTIVE:
        return _drive(proof, cfg, EXHAUSTIVE, name, sites, buggy,
                      [], _first_index, cfg.max_paths)
    if cfg.backend == RANDOM:
        return _drive(proof, cfg, RANDOM, name, sites, buggy,
                      (), _random_index(random.Random(cfg.seed)), cfg.random_budget)
    raise ValueError(f"unknown backend {cfg.backend!r}")


def replay(proof: Callable, tape: ChoiceTape, cfg: ExploreConfig, *, name: str = "",
           sites: Iterable[AssertionSite] = (), buggy: frozenset[str] = frozenset(),
           trace: list | None = None) -> RunReport:
    """Deterministically re-run one recorded path.

    Raises ReplayMismatchError when the proof draws a different domain than
    recorded or runs past the end of the tape.  A tape may legally go
    unconsumed (e.g. replaying a buggy counterexample against the fixed
    variant)."""
    return _drive(proof, cfg, REPLAY, name, sites, buggy,
                  tape.entries, _past_tape_end, 1, trace)


def _dfs_successor(taken: list[TapeEntry], sizes: list[int]) -> list[TapeEntry] | None:
    """The prefix of the next tape in lexicographic DFS order, or None when
    the tape tree is exhausted."""
    i = len(taken) - 1
    while i >= 0 and taken[i].index + 1 >= sizes[i]:
        i -= 1
    if i < 0:
        return None
    return taken[:i] + [TapeEntry(taken[i].kind, taken[i].index + 1)]


def _drive(proof: Callable, cfg: ExploreConfig, backend: str, name: str,
           declared: Iterable[AssertionSite], buggy: frozenset[str],
           prefix: Sequence[TapeEntry] | None, extend: Callable[[int, int], int],
           max_runs: int, trace: list | None = None) -> RunReport:
    """The one exploration loop behind every backend.

    Each run follows `prefix` and takes draws past it from `extend`.  The
    exhaustive backend then moves to the DFS successor of the run's tape;
    random and replay runs all start from the same prefix.  The loop ends
    at the first failing run, when the tape tree is exhausted, or after
    `max_runs` runs.  Every run except a pruned one adds its assertion
    hits, a run cut off by max_choices_per_path included.  Any exception a
    proof raises, other than a tape mismatch, fails its run with that run's
    tape, so it replays like any other counterexample."""
    t0 = time.perf_counter()
    hits = {s.site_id: 0 for s in declared}
    explored = pruned = truncated = depth = 0
    failure = None
    while explored + pruned + truncated < max_runs:
        ctx = RunContext(cfg, buggy=buggy, prefix=prefix, extend=extend, trace=trace)
        try:
            proof(ctx)
            explored += 1
        except PathPruned:
            pruned += 1
            ctx.hits.clear()  # a pruned run contributes no verdict and no hits
        except ChoiceBudgetExceeded:
            truncated += 1
        except AssertionFailed as e:
            failure = Verdict(VERDICT_FAIL, failed_site=e.site_id, message=str(e))
        except MemoryFaultError as e:
            if trace is not None:
                trace.append(f"heap fault: {e.fault.kind.value} at {e.fault.location}: "
                             f"{e.fault.detail}")
            failure = Verdict(VERDICT_FAIL, fault=e.fault, message=str(e))
        except UsageError as e:
            failure = Verdict(VERDICT_FAIL, message=f"framework usage error: {e}")
        except ReplayMismatchError:
            raise
        except Exception as e:
            if trace is not None:
                trace.extend(traceback.format_exc().splitlines())
            failure = Verdict(VERDICT_FAIL, message=f"proof raised {type(e).__name__}: {e}")
        depth = max(depth, len(ctx.taken))
        for sid, n in ctx.hits.items():
            hits[sid] = hits.get(sid, 0) + n
        if failure is not None:
            break
        if backend == EXHAUSTIVE:
            prefix = _dfs_successor(ctx.taken, ctx.sizes)
            if prefix is None:
                break
    if failure is not None:
        verdict, complete = replace(failure, tape=ChoiceTape(tuple(ctx.taken))), True
    else:
        verdict, complete = _end_verdict(cfg, backend, explored, truncated,
                                         exhausted=prefix is None)
    dead = (backend == EXHAUSTIVE and cfg.warn_dead_assume and verdict.is_pass
            and explored == 0 and pruned > 0)
    return RunReport(name, backend, verdict, paths_explored=explored,
                     paths_pruned_by_assume=pruned, paths_truncated=truncated,
                     max_choice_depth=depth, assertion_hits=hits, complete=complete,
                     dead_assume_warning=dead, wall_time=time.perf_counter() - t0)


def _end_verdict(cfg: ExploreConfig, backend: str, explored: int, truncated: int,
                 exhausted: bool) -> tuple[Verdict, bool]:
    """Verdict and completeness of an exploration without a failing run."""
    if backend == EXHAUSTIVE:
        if not exhausted:
            return Verdict(VERDICT_BUDGET, message="max_paths exhausted"), False
        if truncated:
            return Verdict(VERDICT_BUDGET,
                           message="some paths hit max_choices_per_path"), False
        return Verdict(VERDICT_PASS), True
    if backend == RANDOM:
        if explored == 0:
            return Verdict(VERDICT_BUDGET, message=f"all {cfg.random_budget} runs "
                                                   "rejected or truncated"), False
        return Verdict(VERDICT_PASS,
                       message="random pass: no failing run found within budget "
                               "(weaker than exhaustive)"), False
    if truncated:
        return Verdict(VERDICT_BUDGET,
                       message="max_choices_per_path hit during replay"), True
    if explored == 0:
        return Verdict(VERDICT_PASS, message="replayed path pruned by assume"), True
    return Verdict(VERDICT_PASS), True


def standalone_context(cfg: ExploreConfig | None = None, *,
                       buggy: frozenset[str] = frozenset()) -> RunContext:
    """Context for direct-style use outside an exploration (tests, scripts).
    Draws take the first domain value, so behavior is deterministic."""
    return RunContext(cfg or ExploreConfig(), buggy=buggy)
