"""Verification library: the primitives unit proofs are written against.

Nondet constructors (`nd_*`), memory helpers (`memhavoc`,
`can_fail_malloc`), and helpers that exist in both fixed and buggy
variants for the seeded-bug corpus.

Variant selection is run configuration, not separate code copies: a helper
with a seeded bug asks `ctx.is_buggy("<helper name>")`, and the run's
buggy set (`explore(..., buggy=...)`, `standalone_context(buggy=...)`)
answers.  That keeps fixed/buggy pairs structurally aligned.
"""

from __future__ import annotations

import functools

from .engine import AssertionSite, Domain, RunContext
from .heap import NULL_PTR, U64_MAX, Pointer

# The 64-bit values `nd_u64` draws: the small values, both sides of the
# 32-bit boundary and the maximum.  Two mid-sized factors overflow a product
# without overflowing their sum.
U64_BOUNDARY = Domain.u64((0, 1, 2, (1 << 32) - 1, 1 << 33, U64_MAX))


# -- nondet constructors ----------------------------------------------------

def nd_size_t(ctx: RunContext) -> int:
    """Arbitrary size value within the engine's small-scope bound."""
    return ctx.choice(Domain.size_t(ctx.cfg.size_bound))


def nd_size_t_below(ctx: RunContext, n: int) -> int:
    """`nd_size_t` followed by `assume(i < n)`, with the same draw, trace
    and prune.  The exhaustive backend counts the values at or above `n` as
    pruned without running them."""
    return ctx.choice_below(Domain.size_t(ctx.cfg.size_bound), n)


def nd_u64(ctx: RunContext) -> int:
    """Arbitrary 64-bit value drawn from `U64_BOUNDARY`."""
    return ctx.choice(U64_BOUNDARY)


def nd_u8(ctx: RunContext) -> int:
    return ctx.choice(ctx.cfg.byte_dom)


def nd_bool(ctx: RunContext) -> bool:
    return ctx.choice(Domain.bools())


def nd_voidp(ctx: RunContext) -> Pointer:
    """Potentially invalid pointer: one branch null, one branch a fresh wild
    pointer.  Never a pointer into an existing allocation, so touching it is
    always a detectable fault."""
    if ctx.choice(Domain.bools()):
        ctx.choice(Domain.wild_token())
        return ctx.fresh_wild()
    return NULL_PTR


# -- memory helpers -----------------------------------------------------------

def memhavoc(ctx: RunContext, p: Pointer, length: int) -> None:
    """Fill a memory region with nondeterministic bytes."""
    ctx.heap.havoc(p, length, loc="memhavoc")


def can_fail_malloc(ctx: RunContext, size: int) -> Pointer:
    """Allocation that (when configured) nondeterministically fails.

    The success branch havocs the region, so reading freshly allocated
    memory is well-defined and never an uninitialized read."""
    if ctx.cfg.malloc_can_fail and ctx.choice(Domain.bools()):
        return NULL_PTR
    p = ctx.heap.alloc(size)
    if not p.is_null:
        ctx.heap.havoc(p, size, loc="can_fail_malloc")
    return p


# -- byte comparison helper (fixed and buggy) ---------------------------------

@functools.lru_cache(maxsize=64)
def bytes_match_sites(label: str = "assert_bytes_match") -> tuple[AssertionSite, AssertionSite]:
    """Assertion sites registered by assert_bytes_match under `label`.
    Distinct call sites get distinct site ids but share group keys, which is
    what lets vacuity treat them as duplicates.  Sites are immutable, so
    each label's pair is built once."""
    return (
        AssertionSite(f"{label}:null_eq", group_key="assert_bytes_match:null_eq",
                      description="regions agree on being null"),
        AssertionSite(f"{label}:byte_eq", group_key="assert_bytes_match:byte_eq",
                      description="bytes agree at a nondet index"),
    )


def assert_bytes_match(ctx: RunContext, a: Pointer, b: Pointer, length: int,
                       label: str = "assert_bytes_match") -> None:
    """Assert two byte regions are equivalent.

    The content check draws a single nondet index instead of looping, which
    keeps the helper O(1) and exercises assume-pruning.  The buggy variant
    drops the zero-length escape and wrongly requires an empty string and an
    empty (null) buffer to agree on nullness."""
    null_site, byte_site = bytes_match_sites(label)
    null_eq = a.is_null == b.is_null
    if ctx.is_buggy("assert_bytes_match"):
        ctx.sassert(null_site, null_eq)
    else:
        ctx.sassert(null_site, length == 0 or null_eq)
    if length > 0 and not a.is_null and not b.is_null:
        i = nd_size_t_below(ctx, length)
        ctx.sassert(byte_site,
                    ctx.heap.read(a, 1, off=i) == ctx.heap.read(b, 1, off=i))
