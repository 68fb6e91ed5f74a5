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
  A bounded draw (`RunContext.choice_below`) records its bound, and the
  successor steps past the siblings at or above it: they would be pruned
  at that draw, so they are counted as pruned without being run.
* random: independent seeded runs with boundary-biased draws; an `assume`
  failure aborts and rejects the run.  A random pass is explicitly weaker
  than an exhaustive pass and the report flags it.  Each index is drawn
  from the seeded `random.Random` exactly as `randrange` draws it.
* replay: one run on a recorded tape, with no draws past its end.  Only a
  replay traces its run: its context is a `RunContext` subclass that
  writes one line per draw, assume and assert, and `replay` itself adds
  the traceback or heap fault that ended the run.  Exploration runs carry
  no trace code.

Each run gets a fresh `RunContext` and `Heap`.  `_drive` breaks the
reference cycle between them when the run ends, so both are freed by
reference counting then, not by the cyclic garbage collector.

A proof must be a deterministic function of its tape.  Each draw on a run's
prefix is checked as it is made: the entry's kind must be the drawn
domain's and its index must lie in that domain.  Once an exhaustive run
ends, its prefix is checked against the shape the previous run recorded
there: the run must have drawn every prefix entry, each from a domain of
the same size and under the same bound.  Any difference raises
ReplayMismatchError naming the tape position, instead of the proof being
explored wrongly.  A replay may leave its tape unconsumed.  A
counterexample is not re-run, so a proof whose verdict depends on hidden
state (a global counter, a cache) while its draws stay the same is not
detected.

`_drive` judges each run once, after it ends, so a proof's `except
Exception` cannot turn a fault, a tape mismatch or an engine signal (these
derive from `BaseException`) into a normal return.

There is no constraint solving: the exhaustive backend substitutes
small-scope enumeration, stated honestly in reports.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from .heap import U64_MAX, Fault, Heap, MemoryFaultError, Pointer, UsageError

EXHAUSTIVE = "exhaustive"
RANDOM = "random"
REPLAY = "replay"

# Domain kinds as they appear in serialized tapes.
KIND_BOOL = "bool"
KIND_U8 = "u8"
KIND_U64 = "u64"
KIND_SIZET = "sizet"
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
    def custom(values: Iterable) -> "Domain":
        return Domain(KIND_CUSTOM, tuple(values))


# Domains are immutable, so the fixed ones are built and validated once.
_BOOLS = Domain(KIND_BOOL, (False, True))


class TapeEntry(NamedTuple):
    kind: str
    index: int


@dataclass(frozen=True)
class ChoiceTape:
    """Recorded sequence of draws; replaying it against the same proof and
    config reproduces the same draws, the same assume and assert outcomes
    and the same verdict.  Heap events are not part of a replay trace."""

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
            idx = idx.strip()
            # `str.isdigit` alone also accepts digits such as '٣' and '²'.
            if not sep or not (idx.isascii() and idx.isdigit()):
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
    """Every setting of an exploration.  The defaults are the semantics the
    corpus runs under: malloc may fail, 8-byte typed reads check effective
    types, and malloc(0) returns null."""

    backend: str = EXHAUSTIVE
    size_bound: int = 4
    byte_domain: tuple[int, ...] = (0x00, 0x01, 0xFF)
    max_paths: int = 100_000
    max_choices_per_path: int = 64
    random_budget: int = 10_000
    seed: int = 0
    malloc_can_fail: bool = True
    typed_access_check: bool = True
    zero_alloc_returns_null: bool = True

    def __post_init__(self):
        if self.backend not in (EXHAUSTIVE, RANDOM):
            raise ValueError(f"backend must be {EXHAUSTIVE!r} or {RANDOM!r}, "
                             f"not {self.backend!r}")
        if self.size_bound < 0:
            raise ValueError("size_bound must be non-negative")
        for name in ("max_paths", "max_choices_per_path", "random_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        values = self.byte_domain
        if not values:
            raise ValueError("byte_domain must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError("byte_domain values must be duplicate-free")
        if not all(0 <= v <= 0xFF for v in values):
            raise ValueError("byte_domain values must lie in 0..255")

    # The byte domain, built and validated on first use.  cached_property
    # stores into the instance dict, past the frozen __setattr__; fields,
    # equality and hashing are unaffected.
    @functools.cached_property
    def byte_dom(self) -> Domain:
        return Domain.u8(self.byte_domain)

    # The size domain `nd_size_t` draws.  `Domain.size_t` caches it too, so
    # configs with one size_bound share one domain.
    @functools.cached_property
    def size_dom(self) -> Domain:
        return Domain.size_t(self.size_bound)


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
    wall_time: float = 0.0


class PathPruned(BaseException):
    pass


class AssertionFailed(BaseException):
    def __init__(self, site_id: str, message: str = ""):
        super().__init__(message or f"assertion {site_id} failed")
        self.site_id = site_id


class ChoiceBudgetExceeded(BaseException):
    pass


class ReplayMismatchError(Exception):
    """Tape and proof disagree: different domain kind, index out of range,
    or the proof drew past the end of the tape.  Under `explore` it means
    the proof drew differently on a prefix an earlier run recorded: also a
    domain of another size, another bound, or fewer draws than the prefix
    holds."""


# -- draw extenders ------------------------------------------------------------
#
# A run follows its tape prefix and asks an extender, `extend(pos, n)`, for
# the index of every draw past it: `pos` is the draw's position on the tape
# and `n` the size of its domain.  A replay has no extender.

def _first_index(pos: int, n: int) -> int:
    return 0


# Builds a TapeEntry from its two fields without the keyword-argument
# handling of the generated constructor.
_new_entry = tuple.__new__


def _random_index(rng: random.Random) -> Callable[[int, int], int]:
    rand, getrandbits = rng.random, rng.getrandbits

    def extend(pos: int, n: int) -> int:
        # Boundary bias: a quarter of draws snap to a domain endpoint.
        if n > 1 and rand() < 0.25:
            return 0 if rand() < 0.5 else n - 1
        # `rng.randrange(n)`, drawn as `random.Random` draws it: the same
        # rng calls, so the same stream and the same tapes.
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return extend


class RunContext:
    """Per-run state handed to a proof body.

    Exposes the heap, the draw/assume/assert primitives, and the per-helper
    fixed/buggy variant selection.  One context lives for exactly one path.
    Draws follow `prefix`, each entry checked against the drawn domain's
    kind and size, and `extend` picks every draw past it; a replay has no
    `extend`.  A mismatch is recorded in `mismatch` before it is raised.

    The heap draws havocked bytes through `choice`, so the context and its
    heap refer to each other.  `_drive` breaks that cycle when the run
    ends, so both are freed by reference counting.
    """

    __slots__ = ("cfg", "_buggy", "_prefix", "_followed", "_stop", "_max_choices",
                 "_extend", "taken", "sizes", "hits", "_wild_count",
                 "mismatch", "heap")

    def __init__(self, cfg: ExploreConfig, *, buggy: frozenset[str] = frozenset(),
                 prefix: Sequence[TapeEntry] = (),
                 extend: Callable[[int, int], int] | None = _first_index):
        self.cfg = cfg
        self._buggy = buggy
        self._prefix = prefix
        self._max_choices = cfg.max_choices_per_path
        # Draws below `_followed` follow the prefix.  A draw at or past
        # `_stop` ends the run: at max_choices_per_path it exceeds the budget
        # before it reads the tape, and without an extender it is a mismatch.
        followed = len(prefix)
        self._followed = followed if followed < self._max_choices else self._max_choices
        self._stop = self._max_choices if extend is not None else self._followed
        self._extend = extend
        self.mismatch: ReplayMismatchError | None = None
        self.taken: list[TapeEntry] = []
        # Per position: the drawn domain's size, or (size, bound) for a
        # `choice_below` draw.
        self.sizes: list[int | tuple[int, int]] = []
        self.hits: dict[str, int] = {}
        self._wild_count = 0
        # Havocked bytes are drawn from the configured byte domain.
        self.heap = Heap(functools.partial(self.choice, cfg.byte_dom),
                         typed_access_check=cfg.typed_access_check,
                         zero_alloc_returns_null=cfg.zero_alloc_returns_null)

    # -- draws --------------------------------------------------------------

    def choice(self, domain: Domain):
        taken = self.taken
        pos = len(taken)
        values = domain.values
        n = len(values)
        if pos < self._followed:
            entry = self._prefix[pos]
            kind, index = entry
            if kind != domain.kind or not 0 <= index < n:
                self._mismatch(f"tape entry #{pos + 1} " + (
                    f"is {kind}, proof drew {domain.kind}" if kind != domain.kind
                    else f"index {index} outside {domain.kind} domain of {n} values"))
        elif pos >= self._stop:
            if pos >= self._max_choices:
                raise ChoiceBudgetExceeded()
            self._mismatch(f"proof drew choice #{pos + 1} but tape has only {pos} entries")
        else:
            index = self._extend(pos, n)
            entry = _new_entry(TapeEntry, (domain.kind, index))
        taken.append(entry)
        self.sizes.append(n)
        return values[index]

    def _mismatch(self, message: str):
        """Record a tape mismatch, for `_drive` to see, and raise it."""
        self.mismatch = ReplayMismatchError(message)
        raise self.mismatch

    def choice_below(self, domain: Domain, bound: int):
        """`choice(domain)` followed by `assume(index < bound)`: the same
        draw, trace lines and prune.  The bound is recorded for the draw's
        tape position, so the exhaustive backend counts the siblings at or
        above it as pruned without running them."""
        value = self.choice(domain)
        sizes = self.sizes
        sizes[-1] = (sizes[-1], bound)
        self.assume(self.taken[-1].index < bound)
        return value

    def fresh_wild(self) -> Pointer:
        self._wild_count += 1
        return Pointer.wild(f"nd:{self._wild_count}")

    # -- control ------------------------------------------------------------

    def assume(self, cond) -> None:
        if not cond:
            raise PathPruned()

    def sassert(self, site, cond) -> None:
        site_id = site if isinstance(site, str) else site.site_id
        self.hits[site_id] = self.hits.get(site_id, 0) + 1
        if not cond:
            raise AssertionFailed(site_id)

    # -- variants -----------------------------------------------------------

    def is_buggy(self, helper_name: str) -> bool:
        return helper_name in self._buggy


class _TracedContext(RunContext):
    """A `RunContext` that writes one line to `trace` for every draw,
    assume and assert of its run.  Only `replay` builds one.  Havocked
    bytes and bounded draws go through `choice` and `assume`, so they are
    traced too."""

    __slots__ = ("_trace",)

    def __init__(self, trace: list, cfg: ExploreConfig, **kw):
        self._trace = trace
        super().__init__(cfg, **kw)

    def choice(self, domain: Domain):
        value = super().choice(domain)
        pos, index = len(self.taken), self.taken[-1].index
        self._trace.append(f"choice {pos}: {domain.kind}[{len(domain.values)}] -> "
                           f"index {index} ({value!r})")
        return value

    def assume(self, cond) -> None:
        self._trace.append("assume: ok" if cond else "assume: false -> path pruned")
        super().assume(cond)

    def sassert(self, site, cond) -> None:
        site_id = site if isinstance(site, str) else site.site_id
        self._trace.append(f"assert {site_id}: " + ("ok" if cond else "FAILED"))
        super().sassert(site, cond)


# -- the exploration driver ------------------------------------------------------


def explore(proof: Callable, cfg: ExploreConfig, *, name: str = "",
            sites: Iterable[AssertionSite] = (),
            buggy: frozenset[str] = frozenset()) -> RunReport:
    """Explore a proof under the configured backend and return the report.

    `sites` declares the proof's assertion sites up front so that a site
    sitting in never-executed code still shows up (with zero hits) for
    vacuity analysis.

    Raises ReplayMismatchError when an exhaustive run leaves the tape
    prefix it follows: a draw of another kind than the recorded entry, an
    index outside the drawn domain, a domain of another size or another
    bound than the previous run drew there, or a prefix entry not drawn at
    all.  Random runs follow no prefix.  A counterexample is not re-run to
    confirm it.
    """
    if cfg.backend == EXHAUSTIVE:
        return _drive(proof, cfg, EXHAUSTIVE, name, sites, buggy,
                      [], _first_index, cfg.max_paths)
    return _drive(proof, cfg, RANDOM, name, sites, buggy,
                  (), _random_index(random.Random(cfg.seed)), cfg.random_budget)


def replay(proof: Callable, tape: ChoiceTape, cfg: ExploreConfig, *, name: str = "",
           sites: Iterable[AssertionSite] = (), buggy: frozenset[str] = frozenset(),
           trace: list | None = None) -> RunReport:
    """Deterministically re-run one recorded path.

    Appends the run's step-by-step trace to `trace`: one line per draw,
    assume and assert, then the traceback of an exception the proof raised
    or the heap fault that failed the run.

    Raises ReplayMismatchError when the proof draws a different domain than
    recorded or runs past the end of the tape.  A tape may legally go
    unconsumed (e.g. replaying a buggy counterexample against the fixed
    variant)."""
    if trace is None:
        trace = []

    def traced_proof(ctx: RunContext):
        try:
            proof(ctx)
        except Exception as e:
            if ctx.heap.fault is None and not isinstance(e, UsageError):
                import traceback  # only a replay that raised formats one
                trace.extend(traceback.format_exc().splitlines())
            raise

    report = _drive(traced_proof, cfg, REPLAY, name, sites, buggy, tape.entries, None, 1,
                    functools.partial(_TracedContext, trace))
    if report.verdict.fault is not None:
        trace.append("heap fault: " + report.verdict.message)
    return report


def _dfs_successor(taken: list[TapeEntry], sizes: list[int | tuple[int, int]]
                   ) -> tuple[list[TapeEntry] | None, int]:
    """The prefix of the next tape to run in lexicographic DFS order, or
    None when the tape tree is exhausted, and the number of leaves between
    the two that a bounded draw prunes: every index at or above the bound
    `sizes` records for a position.  Each such leaf ends at that draw, no
    deeper than `taken`."""
    skipped = 0
    i = len(taken) - 1
    while i >= 0:
        n = bound = sizes[i]
        if type(n) is tuple:
            n, bound = n
        nxt = taken[i].index + 1
        if nxt < n and nxt < bound:
            break
        skipped += n - nxt
        i -= 1
    if i < 0:
        return None, skipped
    successor = taken[:i + 1]
    successor[i] = _new_entry(TapeEntry, (taken[i].kind, nxt))
    return successor, skipped


def _domain_size(record: int | tuple[int, int]) -> int:
    return record[0] if type(record) is tuple else record


def _prefix_shape_error(prefix: Sequence[TapeEntry], sizes: list[int | tuple[int, int]],
                        ctx: RunContext) -> ReplayMismatchError:
    """Word how a run left the shape the previous run recorded on `prefix`:
    the first position it did not draw, drew from a domain of another size,
    or drew under another bound."""
    n = len(prefix)
    drawn = ctx.sizes
    for pos in range(n):
        if pos >= len(drawn):
            return ReplayMismatchError(
                f"tape entry #{pos + 1}: the proof stopped after {pos} of the {n} "
                f"draws on a recorded prefix")
        now, was = _domain_size(drawn[pos]), _domain_size(sizes[pos])
        if now != was:
            return ReplayMismatchError(
                f"tape entry #{pos + 1}: proof drew a {prefix[pos].kind} domain of "
                f"{now} values where the previous run on this prefix drew {was}")
    was, now = ({pos: s[1] for pos, s in enumerate(record[:n]) if type(s) is tuple}
                for record in (sizes, drawn))
    pos = min(p for p in was.keys() | now.keys() if was.get(p) != now.get(p))
    return ReplayMismatchError(
        f"tape entry #{pos + 1}: draw bounds (position: bound) on a recorded prefix "
        f"changed from {was} to {now}")


def _drive(proof: Callable, cfg: ExploreConfig, backend: str, name: str,
           declared: Iterable[AssertionSite], buggy: frozenset[str],
           prefix: Sequence[TapeEntry] | None, extend: Callable[[int, int], int] | None,
           max_runs: int, new_context: Callable[..., RunContext] = RunContext) -> RunReport:
    """The one exploration loop behind every backend.

    Each run gets a context from `new_context`, follows `prefix` and takes
    draws past it from `extend`.  The exhaustive backend then moves to the
    DFS successor of the run's tape; random and replay runs all start from
    the same prefix.  The leaves the successor steps past at a bounded draw
    count as pruned runs, up to the `max_runs` budget.  The loop ends at the
    first failing run, when the tape tree is exhausted, or after `max_runs`
    runs.  Each run is judged once, after it ends: a recorded tape mismatch
    is raised, even if the proof caught it; a fault the heap recorded fails
    the run, however the proof ended, and its message says so when the
    proof caught the fault; and any other exception fails it too.  A
    failing run carries its tape, so it replays like any other
    counterexample.  Every run except a pruned one adds its assertion hits,
    a run cut off by max_choices_per_path included.  An exhaustive run must
    keep the shape the previous run recorded on its prefix: it draws every
    prefix entry, each from a domain of the same size and under the same
    bound, or ReplayMismatchError is raised."""
    t0 = time.perf_counter()
    hits = {s.site_id: 0 for s in declared}
    explored = pruned = truncated = depth = 0
    failure = None
    exhausted = False
    exhaustive = backend == EXHAUSTIVE
    sizes: list[int | tuple[int, int]] = []  # recorded by the previous run
    while explored + pruned + truncated < max_runs:
        ctx = new_context(cfg, buggy=buggy, prefix=prefix, extend=extend)
        ended = escaped = None
        try:
            proof(ctx)
        except PathPruned:
            ended = PathPruned
        except ChoiceBudgetExceeded:
            ended = ChoiceBudgetExceeded
        except AssertionFailed as e:
            failure = Verdict(VERDICT_FAIL, failed_site=e.site_id, message=str(e))
        except UsageError as e:
            failure = Verdict(VERDICT_FAIL, message=f"framework usage error: {e}")
        except Exception as e:
            failure = Verdict(VERDICT_FAIL, message=f"proof raised {type(e).__name__}: {e}")
            if isinstance(e, MemoryFaultError):
                escaped = e.fault
        # Break the context <-> heap cycle, so the run is freed as soon as
        # `ctx` is rebound.
        ctx.heap.byte_source = None
        if ctx.mismatch is not None:
            raise ctx.mismatch
        fault = ctx.heap.fault
        if fault is not None:
            message = str(MemoryFaultError(fault))
            if fault is not escaped:
                message += " (caught by the proof)"
            failure = Verdict(VERDICT_FAIL, fault=fault, message=message)
        elif failure is None:
            if ended is None:
                explored += 1
            elif ended is PathPruned:
                pruned += 1
                ctx.hits.clear()  # a pruned run contributes no verdict and no hits
            else:
                truncated += 1
        taken = ctx.taken
        if exhaustive:
            # The run's shape on its prefix: what the previous run drew there.
            # Kind and index range were checked at each draw.
            followed = len(prefix)
            if ctx.sizes[:followed] != sizes[:followed]:
                raise _prefix_shape_error(prefix, sizes, ctx)
        if len(taken) > depth:
            depth = len(taken)
        if ctx.hits:
            for sid, n in ctx.hits.items():
                hits[sid] = hits.get(sid, 0) + n
        if failure is not None:
            break
        if exhaustive:
            sizes = ctx.sizes
            prefix, skipped = _dfs_successor(taken, sizes)
            if skipped:
                room = max_runs - (explored + pruned + truncated)
                if skipped > room:
                    pruned += room
                    break
                pruned += skipped
            if prefix is None:
                exhausted = True
                break
    if failure is not None:
        verdict, complete = replace(failure, tape=ChoiceTape(tuple(taken))), True
    else:
        verdict, complete = _end_verdict(cfg, backend, explored, truncated, exhausted)
    return RunReport(name, backend, verdict, paths_explored=explored,
                     paths_pruned_by_assume=pruned, paths_truncated=truncated,
                     max_choice_depth=depth, assertion_hits=hits, complete=complete,
                     wall_time=time.perf_counter() - t0)


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

