import pytest

from casverify import speclib as sl
from casverify.engine import KIND_BOOL, ExploreConfig, explore
from casverify.heap import FaultKind


BUGGY_MATCH = frozenset({"assert_bytes_match"})


def exh(**kw):
    return ExploreConfig(**kw)


# -- nd constructors -------------------------------------------------------------

def test_nd_bool_branches():
    seen = []

    def proof(ctx):
        seen.append(sl.nd_bool(ctx))

    report = explore(proof, exh())
    assert report.paths_explored == 2
    assert seen == [False, True]


def test_nd_size_t_covers_bound():
    seen = []

    def proof(ctx):
        seen.append(sl.nd_size_t(ctx))

    explore(proof, exh(size_bound=4))
    assert seen == [0, 1, 2, 3, 4]


def test_nd_voidp_two_shapes():
    seen = []

    def proof(ctx):
        seen.append(sl.nd_voidp(ctx))

    report = explore(proof, exh())
    assert report.paths_explored == 2
    assert seen[0].is_null
    assert seen[1].is_wild


def test_nd_voidp_wild_tokens_fresh():
    tapes = []  # the run's tape after each of its two calls

    def proof(ctx):
        a = sl.nd_voidp(ctx)
        after_a = list(ctx.taken)
        b = sl.nd_voidp(ctx)
        tapes.append((after_a, list(ctx.taken)))
        if a.is_wild and b.is_wild:
            ctx.sassert("distinct", a != b)

    report = explore(proof, exh())
    assert report.verdict.is_pass
    assert report.assertion_hits == {"distinct": 1}
    # Each call draws one bool and nothing else.
    assert report.paths_explored == len(tapes) == 4
    for after_a, after_b in tapes:
        assert [e.kind for e in after_a] == [KIND_BOOL]
        assert after_b[0] == after_a[0] and [e.kind for e in after_b] == [KIND_BOOL] * 2


def test_nd_u64_uses_configured_values():
    seen = []

    def proof(ctx):
        seen.append(sl.nd_u64(ctx))

    explore(proof, exh())
    assert seen == list(sl.U64_BOUNDARY.values)
    assert sl.U64_BOUNDARY.values == (0, 1, 2, 2**32 - 1, 2**33, 2**64 - 1)


# -- heap.havoc, the library's memhavoc (SeaHorn's name) ---------------------------

def test_memhavoc_null_zero_noop():
    def proof(ctx):
        ctx.heap.havoc(ctx.heap.alloc(0), 0)

    assert explore(proof, exh()).verdict.is_pass


def test_memhavoc_branching_matches_byte_domain():
    def proof(ctx):
        p = ctx.heap.alloc(1)
        ctx.heap.havoc(p, 1)
        ctx.sassert("read", ctx.heap.read(p, 1) is not None)

    report = explore(proof, exh(byte_domain=(0, 1, 255)))
    assert report.paths_explored == 3


def test_memhavoc_out_of_bounds():
    def proof(ctx):
        p = ctx.heap.alloc(2)
        ctx.heap.havoc(p, 4)

    report = explore(proof, exh())
    assert report.verdict.fault.kind is FaultKind.OUT_OF_BOUNDS


# -- can_fail_malloc ------------------------------------------------------------------

def test_can_fail_malloc_two_branches():
    seen = []

    def proof(ctx):
        seen.append(sl.can_fail_malloc(ctx, 4))

    report = explore(proof, exh())
    assert report.paths_explored == 2
    kinds = {p.is_null for p in seen}
    assert kinds == {True, False}


def test_can_fail_malloc_zero_always_null():
    seen = []

    def proof(ctx):
        seen.append(sl.can_fail_malloc(ctx, 0))

    report = explore(proof, exh())
    assert report.paths_explored == 2
    assert all(p.is_null for p in seen)


def test_malloc_cannot_fail_when_disabled():
    seen = []

    def proof(ctx):
        seen.append(sl.can_fail_malloc(ctx, 4))

    report = explore(proof, exh(malloc_can_fail=False))
    assert report.paths_explored == 1
    assert not seen[0].is_null


def test_can_fail_malloc_success_region_fully_readable():
    # the success branch havocs, so no uninitialized read is possible
    def proof(ctx):
        p = sl.can_fail_malloc(ctx, 3)
        ctx.assume(not p.is_null)
        ctx.heap.read(p, 3)

    assert explore(proof, exh(byte_domain=(0,))).verdict.is_pass


# -- sassert bookkeeping -----------------------------------------------------------------

def test_sassert_hit_counting_and_fail_site():
    def proof(ctx):
        ctx.sassert("a", True)
        ctx.sassert("a", True)
        ctx.sassert("b", sl.nd_bool(ctx))

    report = explore(proof, exh())
    assert report.verdict.is_fail
    assert report.verdict.failed_site == "b"


def test_total_hits_equal_sassert_evaluations_on_surviving_paths():
    evaluations = [0]

    def proof(ctx):
        b = sl.nd_bool(ctx)
        ctx.sassert("pre", True)
        evaluations[0] += 1
        ctx.assume(b)
        ctx.sassert("post", True)
        evaluations[0] += 1

    evaluations[0] = 0
    report = explore(proof, exh())
    # one surviving path (b=True) evaluated two asserts
    assert sum(report.assertion_hits.values()) == 2


# -- assert_bytes_match --------------------------------------------------------------------

def _two_buffers(ctx, a_bytes, b_bytes):
    pa = ctx.heap.alloc(max(len(a_bytes), 1))
    ctx.heap.write(pa, a_bytes) if a_bytes else None
    pb = ctx.heap.alloc(max(len(b_bytes), 1))
    ctx.heap.write(pb, b_bytes) if b_bytes else None
    return pa, pb


def test_bytes_match_empty_string_vs_null_buffer():
    def proof(ctx):
        p = ctx.heap.alloc(1)
        ctx.heap.write(p, b"\x00")
        sl.assert_bytes_match(ctx, ctx.heap.alloc(0), p, 0)

    assert explore(proof, exh()).verdict.is_pass
    report = explore(proof, exh(), buggy=BUGGY_MATCH)
    assert report.verdict.is_fail
    assert report.verdict.failed_site == "assert_bytes_match:null_eq"


@pytest.mark.parametrize("buggy", [frozenset(), BUGGY_MATCH], ids=["fixed", "buggy"])
def test_bytes_match_identical_buffers(buggy):
    def proof(ctx):
        pa, pb = _two_buffers(ctx, b"abc", b"abc")
        sl.assert_bytes_match(ctx, pa, pb, 3)

    assert explore(proof, exh(size_bound=4), buggy=buggy).verdict.is_pass


def test_bytes_match_finds_single_differing_index():
    def proof(ctx):
        pa, pb = _two_buffers(ctx, b"axc", b"abc")
        sl.assert_bytes_match(ctx, pa, pb, 3)

    report = explore(proof, exh(size_bound=4))
    assert report.verdict.is_fail
    assert report.verdict.failed_site == "assert_bytes_match:byte_eq"
    # the failing tape drew exactly the differing index
    assert report.verdict.tape.entries[-1].index == 1


def test_bytes_match_reflexive_property():
    def proof(ctx):
        n = sl.nd_size_t(ctx)
        p = ctx.heap.alloc(max(n, 1))
        if n:
            ctx.heap.havoc(p, n)
        sl.assert_bytes_match(ctx, p, p, n)

    assert explore(proof, exh(size_bound=3)).verdict.is_pass


def test_bytes_match_custom_label_sites():
    null_site, byte_site = sl.bytes_match_sites("call_one")
    assert null_site.site_id == "call_one:null_eq"
    assert null_site.group_key == "assert_bytes_match:null_eq"
    assert byte_site.site_id == "call_one:byte_eq"

