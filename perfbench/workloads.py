"""The benchmark's workloads, and one timed pass over a workload.

Every workload is a list of `verify` command lines run in process through
`casverify.cli.main`, one after the other (a closed loop with one caller).
Each command prints a JSON report; the pass keeps it for the correctness
gate, which runs after the timed region.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from casverify import cli, corpus
from casverify.engine import ExploreConfig
from casverify.heap import MemoryFaultError

from . import gate
from .generate import generate_programs
from .speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "perfbench" / "reference"
ORACLE_FILE = ROOT / "tests" / "oracles.py"


@dataclass
class CommandResult:
    argv: list[str]
    exit_code: int | None
    doc: dict | None
    error: str | None

    @property
    def behaviour(self) -> dict | None:
        return None if self.doc is None else gate.behaviour(self.exit_code, self.doc)

    @property
    def normalized(self) -> str:
        return self.error if self.doc is None else gate.normalized(self.doc)

    @property
    def tapes(self) -> int:
        """Tapes executed: explored, pruned and truncated tapes, and the
        failing tape of a failed case."""
        if self.doc is None:
            return 0
        return sum(p["paths_explored"] + p["paths_pruned_by_assume"]
                   + p["paths_truncated"] + (p["verdict"]["status"] == "fail")
                   for p in self.doc["proofs"])


@dataclass
class PassResult:
    wall_s: float
    case_s: list[float]
    commands: list[CommandResult]
    # Turns the pass's times into nominal seconds; see `speed.py`.
    scale: float = 1.0
    speed_samples_s: list[float] = field(default_factory=list)

    @property
    def tapes(self) -> int:
        return sum(c.tapes for c in self.commands)

    @property
    def digest(self) -> str:
        return gate.digest([c.normalized for c in self.commands])


@contextlib.contextmanager
def _case_timer(samples: list[float], probe=None):
    """Time every call into a case, from the call to its result.  A speed
    probe, if given, samples after the case, outside its time."""
    original = corpus.run_case

    def timed_run_case(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)
            if probe is not None:
                probe.maybe_sample()

    corpus.run_case = cli.run_case = timed_run_case
    try:
        yield
    finally:
        corpus.run_case = cli.run_case = original


def run_pass(commands: list[list[str]], tracer=None, scaled=False) -> PassResult:
    """Run every command once, in order, and time the whole pass.  With a
    tracer, its wrappers are installed for the pass.  If `scaled`, a speed
    probe samples before the pass and between its cases, its time is left
    out of the pass's wall time, and the result carries the pass's scale."""
    case_s: list[float] = []
    raw = []
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    probe = SpeedProbe() if scaled else None
    if probe is not None:
        probe.sample()
    probe_spent = probe.spent if probe is not None else 0.0
    with _case_timer(case_s, probe), traced:
        t0 = time.perf_counter()
        for argv in commands:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
                raw.append((argv, code, out.getvalue(), None))
            except Exception:  # a crash is a failed check, not a lost run
                raw.append((argv, None, "", traceback.format_exc()))
        wall = time.perf_counter() - t0
        if probe is not None:
            wall -= probe.spent - probe_spent
    results = []
    for argv, code, text, error in raw:
        doc = None
        if error is None:
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as e:
                error = f"report is not JSON: {e}"
        results.append(CommandResult(list(argv), code, doc, error))
    if probe is None:
        return PassResult(wall, case_s, results)
    return PassResult(wall, case_s, results, probe.scale(), probe.samples)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    @contextlib.contextmanager
    def inputs(self):
        """Make the workload's inputs visible to the CLI for the block."""
        yield

    def expected(self, argv: list[str]) -> dict:
        raise NotImplementedError

    def check(self, result: CommandResult) -> tuple[int, list[str]]:
        """(checks made, failures) for one command of one pass."""
        if result.doc is None:
            return 1, [f"{' '.join(result.argv)}: {result.error}"]
        return gate.compare(self.expected(result.argv), result.behaviour)

    def metadata(self) -> dict:
        return {}


class _StoredReference(Workload):
    """A workload whose expected behaviour is stored in `reference/`."""

    _reference: dict | None = None

    def expected(self, argv: list[str]) -> dict:
        if self._reference is None:
            with open(REFERENCE_DIR / f"{self.name}.json") as fh:
                self._reference = json.load(fh)["commands"]
        return self._reference[" ".join(argv)]


class CorpusExhaustive(_StoredReference):
    """The headline command: every registered case, exhaustive at bound 5.
    Heap reads dominate and every tape is distinct.  Exhaustive exploration
    does not depend on a seed, so neither does this workload."""

    name = "corpus_exhaustive_b5"

    def commands(self):
        return [["run", "--check-expected", "--backend", "exhaustive",
                 "--max-bound", "5"]]


class RandomMatrix(_StoredReference):
    """The random-backend detection matrix for matrix seeds 0-19, the
    configuration of acceptance criterion 8.  Draws, domains and per-run
    set-up dominate, and most runs repeat an earlier tape.  The benchmark
    seed orders the matrix seeds, so the stored reference covers every run."""

    name = "random_matrix"
    matrix_seeds = tuple(range(20))

    def order(self) -> list[int]:
        seeds = list(self.matrix_seeds)
        random.Random(f"random_matrix:{self.seed}").shuffle(seeds)
        return seeds

    def commands(self):
        return [["matrix", "--backend", "random", "--random-budget", "10000",
                 "--max-bound", "3", "--seed", str(s), "--report", "json"]
                for s in self.order()]

    def metadata(self):
        return {"matrix_seeds": self.order()}


class GeneratedWrites(Workload):
    """Seeded generated programs, exhaustive at bound 3: wide heap writes
    dominate and reads are rare, the reverse of the corpus.  The enumeration
    oracle gives the expected verdicts and path counts."""

    name = "generated_writes"
    programs = 600
    bound = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self._programs = generate_programs(seed, self.programs)
        self._entries = [p.entry() for p in self._programs]
        self._oracle: dict | None = None

    def commands(self):
        return [["run", "--proofs", "all", "--backend", "exhaustive",
                 "--max-bound", str(self.bound)]]

    @contextlib.contextmanager
    def inputs(self):
        # The CLI runs whatever the registry returns; the generated programs
        # stand in for the corpus for the duration of the workload.
        original = cli.register_corpus
        cli.register_corpus = lambda: list(self._entries)
        try:
            yield
        finally:
            cli.register_corpus = original

    def expected(self, argv):
        if self._oracle is None:
            self._oracle = oracle_behaviour(self._programs, self.bound)
        return self._oracle

    def check(self, result):
        if result.doc is None:
            return super().check(result)
        actual = result.behaviour
        for rec in actual["cases"].values():
            tape = rec["counterexample_tape"]
            rec["tape_indices"] = None if tape is None else [
                int(line.rsplit(":", 1)[1]) for line in tape.splitlines()]
        return gate.compare(self.expected(result.argv), actual)

    def metadata(self):
        return {"programs": self.programs, "generator_seed": self.seed}


WORKLOADS = {w.name: w for w in (CorpusExhaustive, RandomMatrix, GeneratedWrites)}


def _load_oracle():
    spec = importlib.util.spec_from_file_location("casverify_oracles", ORACLE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_explore


def oracle_behaviour(programs, bound: int) -> dict:
    """What `verify run` must report for the programs, computed by the
    independent enumeration oracle in `tests/oracles.py`.

    The engine stops at the first failing tape in DFS order, so its path
    counts are the oracle's outcomes before that tape."""
    oracle_explore = _load_oracle()
    cfg = ExploreConfig(size_bound=bound)
    cases = {}
    for program in programs:
        verdict, outcomes = oracle_explore(program, cfg)
        first = next((i for i, o in enumerate(outcomes)
                      if o[0] in ("fail", "fault")), len(outcomes))
        before = [o[0] for o in outcomes[:first]]
        rec = {"verdict_status": verdict,
               "paths_explored": before.count("pass"),
               "paths_pruned_by_assume": before.count("prune"),
               "paths_truncated": 0, "fault_kind": None, "failed_site": None,
               "tape_indices": None}
        if first < len(outcomes):
            outcome = outcomes[first]
            rec["tape_indices"] = list(outcome[1])
            if outcome[0] == "fail":
                rec["failed_site"] = outcome[2]
            elif isinstance(outcome[2], MemoryFaultError):
                rec["fault_kind"] = outcome[2].fault.kind.value
        cases[f"{program.name}[fixed]"] = rec
    failing = any(r["verdict_status"] == "fail" for r in cases.values())
    return {"exit_code": 1 if failing else 0, "cases": cases}
