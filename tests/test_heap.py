import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from casverify import speclib as sl
from casverify.engine import ChoiceTape, ExploreConfig, explore, replay
from casverify.heap import (
    _HAVOC,
    _INIT,
    _UNINIT,
    NULL_PTR,
    FaultKind,
    Heap,
    HeapConfig,
    MemoryFaultError,
    Pointer,
    PtrKind,
    UsageError,
)


def make_heap(**cfg_kw):
    byte_source = cfg_kw.pop("byte_source", None)
    return Heap(HeapConfig(**cfg_kw), byte_source=byte_source)


def fault_of(excinfo) -> FaultKind:
    return excinfo.value.fault.kind


# -- allocation ---------------------------------------------------------------

def test_alloc_zero_returns_null():
    h = make_heap()
    assert h.alloc(0).is_null


def test_alloc_zero_config_off_returns_valid():
    h = make_heap(zero_alloc_returns_null=False)
    p = h.alloc(0)
    assert not p.is_null
    assert h.is_deref(p, 0)


def test_alloc_fresh_uninit():
    h = make_heap()
    p = h.alloc(8)
    assert p.kind.value == "valid" and p.offset == 0
    assert not h.is_init(p, 8)
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 1)
    assert fault_of(e) is FaultKind.UNINIT_READ


def test_alloc_ids_distinct():
    h = make_heap()
    assert h.alloc(4).alloc_id != h.alloc(4).alloc_id


# -- free ---------------------------------------------------------------------

def test_free_null_noop():
    make_heap().free(NULL_PTR)


def test_double_free():
    h = make_heap()
    p = h.alloc(4)
    h.free(p)
    with pytest.raises(MemoryFaultError) as e:
        h.free(p)
    assert fault_of(e) is FaultKind.USE_AFTER_FREE


def test_free_wild():
    h = make_heap()
    with pytest.raises(MemoryFaultError) as e:
        h.free(Pointer.wild("t"))
    assert fault_of(e) is FaultKind.WILD_DEREF


def test_free_interior_pointer():
    h = make_heap()
    p = h.alloc(4)
    with pytest.raises(MemoryFaultError) as e:
        h.free(p.add(1))
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


def test_use_after_free_read():
    h = make_heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    h.free(p)
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 4)
    assert fault_of(e) is FaultKind.USE_AFTER_FREE


# -- read / write -------------------------------------------------------------

def test_zero_length_access_never_faults():
    h = make_heap()
    assert h.read(NULL_PTR, 0) == b""
    assert h.read(Pointer.wild("w"), 0) == b""
    h.write(NULL_PTR, b"")
    h.havoc(NULL_PTR, 0)


def test_zero_size_access_fault_config():
    h = make_heap(zero_size_access_is_fault=True)
    with pytest.raises(MemoryFaultError) as e:
        h.read(NULL_PTR, 0)
    assert fault_of(e) is FaultKind.ZERO_SIZE_ACCESS
    h2 = make_heap(zero_size_access_is_fault=True)
    q = h2.alloc(4)
    assert h2.read(q.add(2), 0) == b""  # in-bounds zero access stays fine


def test_write_read_roundtrip():
    h = make_heap()
    p = h.alloc(4)
    h.write(p, [7])
    assert h.read(p, 1) == b"\x07"


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=32), st.integers(min_value=0, max_value=8))
def test_write_read_identity(data, pad):
    h = make_heap()
    p = h.alloc(len(data) + pad)
    h.write(p, data)
    assert h.read(p, len(data)) == data


def test_read_null_and_wild():
    h = make_heap()
    with pytest.raises(MemoryFaultError) as e:
        h.read(NULL_PTR, 1)
    assert fault_of(e) is FaultKind.NULL_DEREF
    h = make_heap()
    with pytest.raises(MemoryFaultError) as e:
        h.write(Pointer.wild("x"), b"a")
    assert fault_of(e) is FaultKind.WILD_DEREF


def test_out_of_bounds():
    h = make_heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 5)
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS
    h = make_heap()
    p = h.alloc(4)
    with pytest.raises(MemoryFaultError) as e:
        h.write(p.add(-1), b"a")
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


def test_uninit_read_config_off_reads_zeros():
    h = make_heap(uninit_read_is_fault=False)
    p = h.alloc(3)
    assert h.read(p, 3) == b"\x00\x00\x00"


@settings(max_examples=40)
@given(st.text(min_size=1, max_size=6), st.integers(min_value=1, max_value=16))
def test_wild_never_dereferenceable(token, length):
    h = make_heap()
    w = Pointer.wild(token)
    assert not h.is_deref(w, length)
    with pytest.raises(MemoryFaultError) as e:
        h.read(w, length)
    assert fault_of(e) is FaultKind.WILD_DEREF


# -- havoc and lazy materialization ---------------------------------------------

def test_havoc_reads_come_from_source():
    drawn = iter([0xAA, 0xBB, 0xCC])
    h = make_heap(byte_source=lambda: next(drawn))
    p = h.alloc(3)
    h.havoc(p, 3)
    assert h.is_init(p, 3)
    assert h.read(p, 2) == b"\xaa\xbb"
    # second read returns the already-materialized values, no new draws
    assert h.read(p, 2) == b"\xaa\xbb"
    assert h.read(p.add(2), 1) == b"\xcc"


def reference_read(state: bytearray, data: bytearray, lo: int, hi: int,
                   source, uninit_is_fault: bool) -> int | None:
    """Per-byte model of `Heap.read` on one allocation: havocked bytes are
    drawn in ascending order and become initialized; returns the first
    uninitialized byte when that faults, else None."""
    for i in range(lo, hi):
        if state[i] == _HAVOC:
            data[i] = source() & 0xFF
            state[i] = _INIT
        elif state[i] == _UNINIT and uninit_is_fault:
            return i
    return None


def logging_source(log: list):
    values = itertools.count(0x40)  # distinct values, so draw order shows in the data

    def draw():
        log.append(next(values))
        return log[-1]
    return draw


@settings(max_examples=300)
@given(st.lists(st.sampled_from([_UNINIT, _INIT, _HAVOC]), min_size=1, max_size=24),
       st.booleans(), st.data())
def test_read_matches_per_byte_reference(states, uninit_is_fault, data):
    size = len(states)
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo + 1, size))
    content = data.draw(st.binary(min_size=size, max_size=size))
    heap_draws, ref_draws = [], []
    h = make_heap(uninit_read_is_fault=uninit_is_fault,
                  byte_source=logging_source(heap_draws))
    p = h.alloc(size)
    a = h.allocations[p.alloc_id]
    a.state[:], a.data[:] = bytes(states), content
    ref_state, ref_data = bytearray(states), bytearray(content)
    assert h.is_init(p.add(lo), hi - lo) == (_UNINIT not in states[lo:hi])
    ref_fault = reference_read(ref_state, ref_data, lo, hi,
                               logging_source(ref_draws), uninit_is_fault)
    if ref_fault is None:
        assert h.read(p.add(lo), hi - lo) == bytes(ref_data[lo:hi])
    else:
        with pytest.raises(MemoryFaultError) as e:
            h.read(p.add(lo), hi - lo)
        assert fault_of(e) is FaultKind.UNINIT_READ
        assert e.value.fault.detail.startswith(f"byte {ref_fault} of ")
    assert heap_draws == ref_draws
    assert a.state == ref_state and a.data == ref_data


def test_havoc_without_source_is_usage_error():
    h = make_heap()
    p = h.alloc(1)
    h.havoc(p, 1)
    with pytest.raises(UsageError):
        h.read(p, 1)


def test_havoc_counts_as_write_for_tracking():
    h = make_heap(byte_source=lambda: 0)
    p = h.alloc(2)
    h.write(p, b"ab")
    h.tracking_on()
    h.havoc(p, 2)
    assert h.is_mod(p, 2)


def test_havoc_out_of_bounds():
    h = make_heap()
    p = h.alloc(2)
    with pytest.raises(MemoryFaultError) as e:
        h.havoc(p, 3)
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


def test_materialization_does_not_bump_epoch():
    h = make_heap(byte_source=lambda: 5)
    p = h.alloc(1)
    h.havoc(p, 1)
    h.tracking_on()
    h.read(p, 1)
    assert not h.is_mod(p, 1)


# -- is_deref -------------------------------------------------------------------

def test_is_deref_bounds():
    h = make_heap()
    p = h.alloc(4)
    assert h.is_deref(p, 4)
    assert not h.is_deref(p, 5)
    assert h.is_deref(p.add(4), 0)
    assert h.is_deref(NULL_PTR, 0)
    assert not h.is_deref(NULL_PTR, 1)


def test_is_deref_ignores_uninit_and_never_faults():
    h = make_heap()
    p = h.alloc(2)
    assert h.is_deref(p, 2)  # uninit content does not matter
    h.free(p)
    assert not h.is_deref(p, 1)


@settings(max_examples=80)
@given(st.integers(0, 3), st.integers(-2, 6), st.integers(0, 6),
       st.booleans(), st.booleans())
def test_is_deref_sound_for_read(size, offset, length, freed, null):
    # is_deref true implies read raises no validity fault; uninitialized
    # reads are outside the claim by definition
    h = make_heap()
    base = h.alloc(size) if size else NULL_PTR
    if freed and not base.is_null:
        h.free(base)
    p = NULL_PTR if null else base.add(offset)
    if not h.is_deref(p, length):
        return
    try:
        h.read(p, length)
    except MemoryFaultError as e:
        assert e.fault.kind is FaultKind.UNINIT_READ


# -- tracking / is_mod ----------------------------------------------------------

def test_is_mod_requires_tracking_on():
    h = make_heap()
    p = h.alloc(1)
    h.write(p, b"a")
    with pytest.raises(UsageError):
        h.is_mod(p, 1)


def test_is_mod_basic():
    h = make_heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    h.tracking_on()
    assert not h.is_mod(p, 4)
    h.write(p.add(1), b"X")
    assert h.is_mod(p, 4)
    assert h.is_mod(p.add(1), 1)
    assert not h.is_mod(p.add(2), 2)  # adjacent bytes untouched


def test_is_mod_second_tracking_wins():
    h = make_heap()
    p = h.alloc(1)
    h.write(p, b"a")
    h.tracking_on()
    h.write(p, b"b")
    h.tracking_on()
    assert not h.is_mod(p, 1)


def test_is_mod_epoch_semantics_counts_same_value_rewrite():
    # Pinned: epoch semantics, not byte-comparison semantics.  A write that
    # restores the old value still counts as a modification, while a
    # value-snapshot oracle would say nothing changed.
    h = make_heap()
    p = h.alloc(1)
    h.write(p, b"a")
    h.tracking_on()
    snapshot = bytes(h.allocations[p.alloc_id].data)
    h.write(p, b"a")
    assert bytes(h.allocations[p.alloc_id].data) == snapshot  # oracle: unchanged
    assert h.is_mod(p, 1)  # engine: modified


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 255)), max_size=8),
       st.integers(0, 7), st.integers(1, 8))
def test_is_mod_matches_written_set_oracle(writes, lo, length):
    # Brute-force oracle: remember which offsets were written after
    # tracking_on and compare range intersection against is_mod.
    h = make_heap()
    p = h.alloc(8)
    h.write(p, bytes(8))
    h.tracking_on()
    written = set()
    for off, val in writes:
        h.write(p.add(off), bytes([val]))
        written.add(off)
    length = min(length, 8 - lo)
    if length == 0:
        return
    expected = bool(written & set(range(lo, lo + length)))
    assert h.is_mod(p.add(lo), length) == expected


# -- typed access ---------------------------------------------------------------

def test_typed_write_then_typed_read():
    h = make_heap(typed_access_check=True)
    p = h.alloc(8)
    h.typed_write_u64(p, 0x0102030405060708)
    assert h.typed_read_u64(p) == 0x0102030405060708


def test_byte_writes_then_typed_read_violates():
    h = make_heap(typed_access_check=True)
    p = h.alloc(8)
    h.write(p, bytes(8))
    with pytest.raises(MemoryFaultError) as e:
        h.typed_read_u64(p)
    assert fault_of(e) is FaultKind.TYPED_ACCESS_VIOLATION


def test_typed_read_check_off_returns_value():
    h = make_heap()
    p = h.alloc(8)
    h.write(p, (123456789).to_bytes(8, "little"))
    assert h.typed_read_u64(p) == 123456789


def test_havoc_clears_tags():
    h = make_heap(typed_access_check=True, byte_source=lambda: 1)
    p = h.alloc(8)
    h.write(p, bytes(8))
    h.havoc(p, 8)
    assert h.typed_read_u64(p) == int.from_bytes(bytes([1] * 8), "little")


def test_untyped_u64_helpers_roundtrip():
    h = make_heap()
    p = h.alloc(8)
    h.write_u64(p, 2**63 + 17)
    assert h.read_u64(p) == 2**63 + 17


# -- pointer fields --------------------------------------------------------------

def test_ptr_store_roundtrip():
    h = make_heap()
    slot = h.alloc(8)
    target = h.alloc(4)
    for value in (target, target.add(3), NULL_PTR, Pointer.wild("w1")):
        h.write_ptr(slot, value)
        assert h.read_ptr(slot) == value


def test_scribbled_pointer_decodes_wild():
    h = make_heap()
    slot = h.alloc(8)
    h.write(slot, (0xDEAD).to_bytes(8, "little"))
    decoded = h.read_ptr(slot)
    assert decoded.is_wild
    with pytest.raises(MemoryFaultError) as e:
        h.read(decoded, 1)
    assert fault_of(e) is FaultKind.WILD_DEREF


def live_slot(h: Heap):
    """A 16-byte table whose first slot holds a live pointer (handle 1)."""
    target = h.alloc(4)
    table = h.alloc(16)
    h.write_ptr(table, target)
    return table, target


def test_read_ptr_decodes_only_single_write_ptr_bytes():
    handle = (1).to_bytes(8, "little")
    scribbles = (
        lambda h, t: h.write(t.add(8), handle),
        lambda h, t: h.typed_write_u64(t.add(8), 1),
        lambda h, t: h.write(t.add(8), h.read(t, 8)),  # a byte copy carries no provenance
    )
    for scribble in scribbles:
        h = make_heap()
        table, target = live_slot(h)
        scribble(h, table)
        assert h.read(table.add(8), 8) == handle
        assert h.read_ptr(table.add(8)).is_wild
        assert h.read_ptr(table) == target


def test_read_ptr_of_a_partly_overwritten_pointer_is_wild():
    h = make_heap()
    table, _ = live_slot(h)
    h.write(table, b"\x01")  # same value, new epoch and tag
    assert h.read_ptr(table).is_wild
    # Pointer tags throughout, but from two write_ptr calls.
    h = make_heap()
    table, _ = live_slot(h)
    h.write_ptr(table.add(1), NULL_PTR)
    assert h.read(table, 8) == (1).to_bytes(8, "little")
    assert h.read_ptr(table).is_wild


def test_read_ptr_of_zero_bytes_is_null():
    h = make_heap(byte_source=lambda: 0)
    table, _ = live_slot(h)
    h.write(table.add(8), bytes(8))
    assert h.read_ptr(table.add(8)) is NULL_PTR
    h.havoc(table.add(8), 8)
    assert h.read_ptr(table.add(8)) is NULL_PTR


def havocked_slot_proof(ctx):
    """A havocked slot never aliases a live pointer."""
    table, _ = live_slot(ctx.heap)
    slot = table.add(8)
    sl.memhavoc(ctx, slot, 8)
    q = ctx.heap.read_ptr(slot)
    ctx.sassert("no_alias", q.is_null or q.is_wild)


def test_havocked_slot_never_aliases_a_live_pointer():
    cfg = ExploreConfig()
    report = explore(havocked_slot_proof, cfg)
    assert report.verdict.is_pass and report.complete
    assert report.paths_explored == len(cfg.byte_domain) ** 8
    handle_bytes = ChoiceTape.from_text("u8:1\n" + "u8:0\n" * 7)
    assert replay(havocked_slot_proof, handle_bytes, cfg).verdict.is_pass


# -- Pointer values -----------------------------------------------------------------

def test_pointer_value_semantics():
    p, q = Pointer.valid(3, 2), Pointer.valid(3, 1).add(1)
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != Pointer.valid(3, 1) and p != Pointer.valid(4, 2)
    assert Pointer.wild("t") == Pointer.wild("t") != Pointer.wild("u")
    assert NULL_PTR == Pointer.null() == Pointer(PtrKind.NULL) == NULL_PTR.add(0)
    assert {p: "p"}[q] == "p"
    assert len({NULL_PTR, p, q, Pointer.wild("t"), Pointer.wild("t")}) == 3


def test_equal_pointers_share_one_handle():
    h = make_heap()
    table, target = live_slot(h)
    h.write_ptr(table.add(8), target.add(1).add(-1))
    assert h.read(table, 8) == h.read(table.add(8), 8)
    assert list(h._handle_by_ptr) == [target]
    assert h.read_ptr(table.add(8)) == target


@pytest.mark.parametrize("field", ["kind", "alloc_id", "offset", "token"])
def test_pointer_is_immutable(field):
    p = Pointer.valid(1, 2)
    with pytest.raises(AttributeError):
        setattr(p, field, 0)
    assert p == Pointer.valid(1, 2)


def test_pointer_repr():
    assert repr(NULL_PTR) == "null"
    assert repr(Pointer.valid(2, 5)) == "&a2+5"
    assert repr(Pointer.valid(2).add(-1)) == "&a2+-1"
    assert repr(Pointer.wild("nd:1")) == "wild(nd:1)"
    assert repr(NULL_PTR.add(3)) == "wild(null+3)"


# -- ptr_cmp ----------------------------------------------------------------------

def test_ptr_cmp_sorts_null_valid_wild():
    order = [NULL_PTR, Pointer.valid(1, -1), Pointer.valid(1, 0), Pointer.valid(1, 7),
             Pointer.valid(2, 0), Pointer.wild("a"), Pointer.wild("b")]
    shuffled = order[3:] + order[:3]
    assert sorted(shuffled, key=functools.cmp_to_key(Heap.ptr_cmp)) == order


def test_ptr_cmp_reflexive_and_ordered():
    h = make_heap()
    p = h.alloc(4)
    assert Heap.ptr_cmp(p, p) == 0
    assert Heap.ptr_cmp(NULL_PTR, p) == -1
    assert Heap.ptr_cmp(p, Pointer.wild("t")) == -1
    assert Heap.ptr_cmp(p, p.add(1)) == -1


_pointers = st.one_of(
    st.just(NULL_PTR),
    st.builds(Pointer.valid, st.integers(1, 3), st.integers(-2, 4)),
    st.builds(Pointer.wild, st.sampled_from(["a", "b", "c"])),
)


@settings(max_examples=100)
@given(_pointers, _pointers, _pointers)
def test_ptr_cmp_total_order(p, q, r):
    cmp = Heap.ptr_cmp
    assert cmp(p, q) == -cmp(q, p)
    if cmp(p, q) <= 0 and cmp(q, r) <= 0:
        assert cmp(p, r) <= 0
    assert (cmp(p, q) == 0) == (p == q)


# -- fault latching ----------------------------------------------------------------

def test_fault_latching():
    h = make_heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    with pytest.raises(MemoryFaultError) as first:
        h.read(p, 5)
    kind = fault_of(first)
    snapshot = bytes(h.allocations[p.alloc_id].data)
    for op in (lambda: h.write(p, b"zzzz"), lambda: h.read(p, 4),
               lambda: h.alloc(4), lambda: h.free(p), lambda: h.havoc(p, 4)):
        with pytest.raises(MemoryFaultError) as again:
            op()
        assert again.value.fault == first.value.fault
    assert fault_of(first) is kind
    assert bytes(h.allocations[p.alloc_id].data) == snapshot  # nothing mutated


# -- epochs --------------------------------------------------------------------------

def test_global_epoch_strictly_increases():
    h = make_heap()
    p = h.alloc(4)
    seen = [h.global_epoch]
    h.write(p, b"ab")
    seen.append(h.global_epoch)
    h.havoc(p, 4)
    seen.append(h.global_epoch)
    h.write(p.add(2), b"c")
    seen.append(h.global_epoch)
    assert seen == sorted(set(seen))


def test_write_epoch_never_decreases_per_byte():
    h = make_heap()
    p = h.alloc(2)
    a = h.allocations[p.alloc_id]
    last = list(a.epochs)
    for data in (b"xy", b"ab", b"qq"):
        h.write(p, data)
        assert all(n >= o for n, o in zip(a.epochs, last))
        last = list(a.epochs)
