"""Bounded draws (`RunContext.choice_below`, `speclib.nd_size_t_below`)
against the `nd_size_t` + `assume(i < k)` they stand for.

Each generated program is run twice: once with a plain draw and an
`assume`, once with the bounded draw.  Every backend must report the same,
`wall_time` aside, although the exhaustive backend counts the siblings a
bounded draw prunes without running them."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from casverify import speclib as sl
from casverify.engine import (
    KIND_BOOL,
    KIND_SIZET,
    RANDOM,
    ChoiceTape,
    ExploreConfig,
    ReplayMismatchError,
    TapeEntry,
    explore,
    replay,
)

from oracles import oracle_explore

# One draw: ("bool" | "size" | "below", bound of a "below" draw, and the
# constant c of an `sassert(sum of the values so far != c)` after it, or None).
_DRAW = st.tuples(st.sampled_from(["bool", "size", "below"]), st.integers(-1, 4),
                  st.none() | st.integers(0, 6))


def _proof(program, bounded: bool):
    def proof(ctx):
        total = 0
        for j, (kind, k, c) in enumerate(program):
            if kind == "bool":
                total += sl.nd_bool(ctx)
            elif kind == "size":
                total += sl.nd_size_t(ctx)
            elif bounded:
                total += sl.nd_size_t_below(ctx, k)
            else:
                i = sl.nd_size_t(ctx)
                ctx.assume(i < k)
                total += i
            if c is not None:
                ctx.sassert(f"s{j}", total != c)
    return proof


def _same(plain, bounded):
    assert dataclasses.replace(plain, wall_time=0.0) == \
        dataclasses.replace(bounded, wall_time=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_DRAW, min_size=1, max_size=4), st.integers(1, 2))
def test_bounded_draw_reports_equal_plain_draw_and_assume(program, size_bound):
    plain, bounded = _proof(program, False), _proof(program, True)
    cfg = ExploreConfig(size_bound=size_bound)
    _, leaves = oracle_explore(plain, cfg)
    assert oracle_explore(bounded, cfg)[1] == leaves
    # Every budget up to one past the leaf count, so the budget also runs
    # out inside each block of skipped siblings.
    for max_paths in range(1, len(leaves) + 2):
        run = dataclasses.replace(cfg, max_paths=max_paths)
        _same(explore(plain, run), explore(bounded, run))
    for seed in range(3):
        run = dataclasses.replace(cfg, backend=RANDOM, seed=seed, random_budget=20)
        _same(explore(plain, run), explore(bounded, run))
    kinds = [KIND_BOOL if kind == "bool" else KIND_SIZET for kind, _, _ in program]
    for leaf in leaves:
        tape = ChoiceTape(tuple(TapeEntry(kinds[j], i) for j, i in enumerate(leaf[1])))
        plain_trace, bounded_trace = [], []
        _same(replay(plain, tape, cfg, trace=plain_trace),
              replay(bounded, tape, cfg, trace=bounded_trace))
        assert plain_trace == bounded_trace


def test_pruned_siblings_are_counted_without_running():
    runs = []

    def proof(ctx):
        runs.append(1)
        sl.nd_size_t_below(ctx, 2)

    rep = explore(proof, ExploreConfig(size_bound=5))
    assert len(runs) == 2
    assert (rep.paths_explored, rep.paths_pruned_by_assume) == (2, 4)
    assert rep.verdict.is_pass and rep.complete


@pytest.mark.parametrize("later", [3, None], ids=["bound_changes", "bound_dropped"])
def test_bound_changing_on_a_prefix_is_mismatch(later):
    # The second run follows the first run's DFS successor, so its first
    # draw lies on the recorded prefix, where the first run drew below 2.
    runs = []

    def proof(ctx):
        if not runs:
            sl.nd_size_t_below(ctx, 2)
        elif later is None:
            sl.nd_size_t(ctx)
        else:
            sl.nd_size_t_below(ctx, later)
        runs.append(1)
        sl.nd_bool(ctx)

    now = {} if later is None else {0: later}
    with pytest.raises(ReplayMismatchError, match=re.escape(
            "tape entry #1: draw bounds (position: bound) on a recorded prefix "
            f"changed from {{0: 2}} to {now}")):
        explore(proof, ExploreConfig(size_bound=3))
