"""Whole replay traces, pinned line by line.

A replay trace is what a user reads to understand a counterexample, so its
text is pinned here: literal traces for three corpus counterexamples and
one small proof, and one digest over the traces of every bound-2 and
bound-3 counterexample.  Traceback frame lines name files and line
numbers, so they are left out of every comparison.
"""

import hashlib

from casverify import speclib as sl
from casverify.corpus import corpus_by_name, run_all_cases
from casverify.engine import (
    KIND_SIZET,
    KIND_U8,
    ChoiceTape,
    ExploreConfig,
    ReplayMismatchError,
    TapeEntry,
    explore,
    replay,
)


def _without_frames(trace: list[str]) -> list[str]:
    """A trace without its traceback frame lines, which are indented."""
    return [line for line in trace if not line.startswith("  ")]


def _corpus_trace(name: str, size_bound: int, buggy: bool) -> tuple[list[str], str]:
    """The replay trace and verdict status of `name`'s buggy counterexample,
    replayed against the buggy or the fixed variant."""
    entry = corpus_by_name()[name]
    case = entry.free_case("buggy")
    cfg = entry.config_for(ExploreConfig(size_bound=size_bound), case)
    tape = explore(entry.body, cfg, sites=entry.sites, buggy=case.buggy).verdict.tape
    trace = []
    rep = replay(entry.body, tape, cfg, sites=entry.sites,
                 buggy=case.buggy if buggy else frozenset(), trace=trace)
    return trace, rep.verdict.status


def test_byte_buf_invariant_buggy_trace_ends_with_heap_fault():
    trace, status = _corpus_trace("byte_buf_invariant", 2, buggy=True)
    assert status == "fail"
    assert trace == [
        "choice 1: sizet[3] -> index 0 (0)",
        "choice 2: sizet[3] -> index 1 (1)",
        "assume: ok",
        "assume: ok",
        "choice 3: bool[2] -> index 1 (True)",
        "assume: ok",
        "heap fault: NullDeref at byte_buf_append: 1-byte access through null",
    ]


def test_byte_buf_invariant_fixed_trace_ends_with_prune():
    trace, status = _corpus_trace("byte_buf_invariant", 2, buggy=False)
    assert status == "pass"
    assert trace == [
        "choice 1: sizet[3] -> index 0 (0)",
        "choice 2: sizet[3] -> index 1 (1)",
        "assume: ok",
        "assume: ok",
        "choice 3: bool[2] -> index 1 (True)",
        "assume: false -> path pruned",
    ]


def test_mul_checked_unrestricted_buggy_trace_ends_with_failed_assert():
    trace, status = _corpus_trace("mul_size_checked_unrestricted", 2, buggy=True)
    assert status == "fail"
    assert trace == [
        "choice 1: u64[6] -> index 3 (4294967295)",
        "choice 2: u64[6] -> index 4 (8589934592)",
        "assert mul_checked:overflow_classified: FAILED",
    ]


def _proof_havoc_bounded_raise(ctx):
    p = ctx.heap.alloc(1)
    sl.memhavoc(ctx, p, 1)
    byte = ctx.heap.read(p, 1)[0]  # the heap draws the havocked byte
    n = sl.nd_size_t_below(ctx, 2)
    raise ValueError(f"byte {byte}, size {n}")


def test_havocked_byte_bounded_draw_and_traceback_are_traced():
    tape = ChoiceTape((TapeEntry(KIND_U8, 2), TapeEntry(KIND_SIZET, 1)))
    trace = []
    rep = replay(_proof_havoc_bounded_raise, tape, ExploreConfig(size_bound=2), trace=trace)
    assert rep.verdict.message == "proof raised ValueError: byte 255, size 1"
    assert _without_frames(trace) == [
        "choice 1: u8[3] -> index 2 (255)",
        "choice 2: sizet[3] -> index 1 (1)",
        "assume: ok",
        "Traceback (most recent call last):",
        "ValueError: byte 255, size 1",
    ]
    assert len(trace) > 5  # the frames are there


def _counterexample_traces() -> str:
    """Every bound-2 and bound-3 counterexample of the checked cases,
    replayed against its own buggy set and against the fixed variant: a
    header, the trace without frame lines and the verdict of each."""
    out = []
    for size_bound in (2, 3):
        for res in run_all_cases(ExploreConfig(size_bound=size_bound)):
            tape = res.report.verdict.tape
            if tape is None:
                continue
            entry, case = res.entry, res.case
            cfg = entry.config_for(ExploreConfig(size_bound=size_bound), case)
            for variant, buggy in (("buggy", case.buggy), ("fixed", frozenset())):
                out.append(f"== {size_bound} {entry.name} {case.label} {variant}")
                trace = []
                try:
                    v = replay(entry.body, tape, cfg, sites=entry.sites,
                               buggy=buggy, trace=trace).verdict
                    end = f"verdict: {v.status} {v.message}"
                except ReplayMismatchError as e:
                    end = f"mismatch: {e}"
                out.extend(_without_frames(trace))
                out.append(end)
    return "\n".join(out) + "\n"


def test_every_counterexample_trace_is_pinned():
    text = _counterexample_traces()
    assert text.count("== ") == 24  # 12 counterexamples, two variants each
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f4f8cc04571f38b282a27c73bfa398306f048715e5ac264a3ffa09ee8e845044")
