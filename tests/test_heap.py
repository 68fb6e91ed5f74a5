import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from casverify.awsport import Record
from casverify.engine import ChoiceTape, ExploreConfig, explore, replay
from casverify.heap import (
    _HAVOC,
    _INIT,
    _UNINIT,
    NULL_PTR,
    TAG_NONE,
    TAG_PTR,
    TAG_U8,
    TAG_U64,
    U64_MAX,
    FaultKind,
    Heap,
    MemoryFaultError,
    Pointer,
    PtrKind,
    UsageError,
    ptr_field,
    u64_field,
)


def valid_ptr(alloc_id: int, offset: int = 0) -> Pointer:
    return Pointer(PtrKind.VALID, alloc_id, offset)


def fault_of(excinfo) -> FaultKind:
    return excinfo.value.fault.kind


# -- allocation ---------------------------------------------------------------

def test_alloc_zero_returns_null():
    h = Heap()
    assert h.alloc(0).is_null


def test_alloc_zero_config_off_returns_valid():
    h = Heap(zero_alloc_returns_null=False)
    p = h.alloc(0)
    assert not p.is_null
    assert h.is_deref(p, 0)


def test_alloc_fresh_uninit():
    h = Heap()
    p = h.alloc(8)
    assert p.kind.value == "valid" and p.offset == 0
    assert not h.is_init(p, 8)
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 1)
    assert fault_of(e) is FaultKind.UNINIT_READ


def test_alloc_ids_distinct():
    h = Heap()
    assert h.alloc(4).alloc_id != h.alloc(4).alloc_id


# -- free ---------------------------------------------------------------------

def test_free_null_noop():
    Heap().free(NULL_PTR)


def test_double_free():
    h = Heap()
    p = h.alloc(4)
    h.free(p)
    with pytest.raises(MemoryFaultError) as e:
        h.free(p)
    assert fault_of(e) is FaultKind.USE_AFTER_FREE


def test_free_wild():
    h = Heap()
    with pytest.raises(MemoryFaultError) as e:
        h.free(Pointer.wild("t"))
    assert fault_of(e) is FaultKind.WILD_DEREF


def test_free_interior_pointer():
    h = Heap()
    p = h.alloc(4)
    with pytest.raises(MemoryFaultError) as e:
        h.free(p.add(1))
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


def test_use_after_free_read():
    h = Heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    h.free(p)
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 4)
    assert fault_of(e) is FaultKind.USE_AFTER_FREE


# -- read / write -------------------------------------------------------------

def test_zero_length_access_never_faults():
    h = Heap()
    assert h.read(NULL_PTR, 0) == b""
    assert h.read(Pointer.wild("w"), 0) == b""
    h.write(NULL_PTR, b"")
    h.havoc(NULL_PTR, 0)


def test_write_read_roundtrip():
    h = Heap()
    p = h.alloc(4)
    h.write(p, [7])
    assert h.read(p, 1) == b"\x07"


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=32), st.integers(min_value=0, max_value=8))
def test_write_read_identity(data, pad):
    h = Heap()
    p = h.alloc(len(data) + pad)
    h.write(p, data)
    assert h.read(p, len(data)) == data


def test_read_null_and_wild():
    h = Heap()
    with pytest.raises(MemoryFaultError) as e:
        h.read(NULL_PTR, 1)
    assert fault_of(e) is FaultKind.NULL_DEREF
    h = Heap()
    with pytest.raises(MemoryFaultError) as e:
        h.write(Pointer.wild("x"), b"a")
    assert fault_of(e) is FaultKind.WILD_DEREF


def test_out_of_bounds():
    h = Heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    with pytest.raises(MemoryFaultError) as e:
        h.read(p, 5)
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS
    h = Heap()
    p = h.alloc(4)
    with pytest.raises(MemoryFaultError) as e:
        h.write(p.add(-1), b"a")
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


@settings(max_examples=40)
@given(st.text(min_size=1, max_size=6), st.integers(min_value=1, max_value=16))
def test_wild_never_dereferenceable(token, length):
    h = Heap()
    w = Pointer.wild(token)
    assert not h.is_deref(w, length)
    with pytest.raises(MemoryFaultError) as e:
        h.read(w, length)
    assert fault_of(e) is FaultKind.WILD_DEREF


# -- havoc and lazy materialization ---------------------------------------------

def test_havoc_reads_come_from_source():
    drawn = iter([0xAA, 0xBB, 0xCC])
    h = Heap(byte_source=lambda: next(drawn))
    p = h.alloc(3)
    h.havoc(p, 3)
    assert h.is_init(p, 3)
    assert h.read(p, 2) == b"\xaa\xbb"
    # second read returns the already-materialized values, no new draws
    assert h.read(p, 2) == b"\xaa\xbb"
    assert h.read(p.add(2), 1) == b"\xcc"


def reference_read(state: bytearray, data: bytearray, lo: int, hi: int,
                   source) -> int | None:
    """Per-byte model of `Heap.read` on one allocation: havocked bytes are
    drawn in ascending order and become initialized; returns the first
    uninitialized byte, which faults, else None."""
    for i in range(lo, hi):
        if state[i] == _HAVOC:
            data[i] = source() & 0xFF
            state[i] = _INIT
        elif state[i] == _UNINIT:
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
       st.data())
def test_read_matches_per_byte_reference(states, data):
    size = len(states)
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo + 1, size))
    content = data.draw(st.binary(min_size=size, max_size=size))
    heap_draws, ref_draws = [], []
    h = Heap(byte_source=logging_source(heap_draws))
    p = h.alloc(size)
    a = h.allocations[p.alloc_id]
    a.state[:], a.data[:] = bytes(states), content
    ref_state, ref_data = bytearray(states), bytearray(content)
    assert h.is_init(p.add(lo), hi - lo) == (_UNINIT not in states[lo:hi])
    ref_fault = reference_read(ref_state, ref_data, lo, hi,
                               logging_source(ref_draws))
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
    h = Heap()
    p = h.alloc(1)
    h.havoc(p, 1)
    with pytest.raises(UsageError):
        h.read(p, 1)


def test_havoc_counts_as_write_for_tracking():
    h = Heap(byte_source=lambda: 0)
    p = h.alloc(2)
    h.write(p, b"ab")
    h.tracking_on()
    h.havoc(p, 2)
    assert h.is_mod(p, 2)


def test_havoc_out_of_bounds():
    h = Heap()
    p = h.alloc(2)
    with pytest.raises(MemoryFaultError) as e:
        h.havoc(p, 3)
    assert fault_of(e) is FaultKind.OUT_OF_BOUNDS


def test_materialization_does_not_bump_epoch():
    h = Heap(byte_source=lambda: 5)
    p = h.alloc(1)
    h.havoc(p, 1)
    h.tracking_on()
    h.read(p, 1)
    assert not h.is_mod(p, 1)


# -- is_deref -------------------------------------------------------------------

def test_is_deref_bounds():
    h = Heap()
    p = h.alloc(4)
    assert h.is_deref(p, 4)
    assert not h.is_deref(p, 5)
    assert h.is_deref(p.add(4), 0)
    assert h.is_deref(NULL_PTR, 0)
    assert not h.is_deref(NULL_PTR, 1)


def test_is_deref_ignores_uninit_and_never_faults():
    h = Heap()
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
    h = Heap()
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
    h = Heap()
    p = h.alloc(1)
    h.write(p, b"a")
    with pytest.raises(UsageError):
        h.is_mod(p, 1)


def test_is_mod_basic():
    h = Heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    h.tracking_on()
    assert not h.is_mod(p, 4)
    h.write(p.add(1), b"X")
    assert h.is_mod(p, 4)
    assert h.is_mod(p.add(1), 1)
    assert not h.is_mod(p.add(2), 2)  # adjacent bytes untouched


def test_is_mod_second_tracking_wins():
    h = Heap()
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
    h = Heap()
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
    h = Heap()
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
    h = Heap(typed_access_check=True)
    p = h.alloc(8)
    h.typed_write_u64(p, 0x0102030405060708)
    assert h.typed_read_u64(p) == 0x0102030405060708


def test_byte_writes_then_typed_read_violates():
    h = Heap(typed_access_check=True)
    p = h.alloc(8)
    h.write(p, bytes(8))
    with pytest.raises(MemoryFaultError) as e:
        h.typed_read_u64(p)
    assert fault_of(e) is FaultKind.TYPED_ACCESS_VIOLATION


def test_typed_read_check_off_returns_value():
    h = Heap(typed_access_check=False)
    p = h.alloc(8)
    h.write(p, (123456789).to_bytes(8, "little"))
    assert h.typed_read_u64(p) == 123456789


def test_havoc_clears_tags():
    h = Heap(typed_access_check=True, byte_source=lambda: 1)
    p = h.alloc(8)
    h.write(p, bytes(8))
    h.havoc(p, 8)
    assert h.typed_read_u64(p) == int.from_bytes(bytes([1] * 8), "little")


def test_untyped_u64_helpers_roundtrip():
    h = Heap()
    p = h.alloc(8)
    h.write_u64(p, 2**63 + 17)
    assert h.read_u64(p) == 2**63 + 17


# -- pointer fields --------------------------------------------------------------

def test_ptr_store_roundtrip():
    h = Heap()
    slot = h.alloc(8)
    target = h.alloc(4)
    for value in (target, target.add(3), NULL_PTR, Pointer.wild("w1")):
        h.write_ptr(slot, value)
        assert h.read_ptr(slot) == value


def test_scribbled_pointer_decodes_wild():
    h = Heap()
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
        h = Heap()
        table, target = live_slot(h)
        scribble(h, table)
        assert h.read(table.add(8), 8) == handle
        assert h.read_ptr(table.add(8)).is_wild
        assert h.read_ptr(table) == target


def test_read_ptr_of_a_partly_overwritten_pointer_is_wild():
    h = Heap()
    table, _ = live_slot(h)
    h.write(table, b"\x01")  # same value, new epoch and tag
    assert h.read_ptr(table).is_wild
    # Pointer tags throughout, but from two write_ptr calls.
    h = Heap()
    table, _ = live_slot(h)
    h.write_ptr(table.add(1), NULL_PTR)
    assert h.read(table, 8) == (1).to_bytes(8, "little")
    assert h.read_ptr(table).is_wild


def test_ptr_field_keeps_provenance():
    def field(h, q):
        return FieldRecord(SimpleNamespace(heap=h), q.add(-_PTR_MEMBER_OFF)).ptr_member

    h = Heap()
    table, target = live_slot(h)
    h.write(table.add(8), (1).to_bytes(8, "little"))
    assert field(h, table) == target
    assert field(h, table.add(8)).is_wild  # the handle's bytes, not its tag
    # Pointer tags throughout, but from two write_ptr calls.
    h = Heap()
    table, _ = live_slot(h)
    h.write_ptr(table.add(1), NULL_PTR)
    assert field(h, table).is_wild


def test_read_ptr_of_zero_bytes_is_null():
    h = Heap(byte_source=lambda: 0)
    table, _ = live_slot(h)
    h.write(table.add(8), bytes(8))
    assert h.read_ptr(table.add(8)) is NULL_PTR
    h.havoc(table.add(8), 8)
    assert h.read_ptr(table.add(8)) is NULL_PTR


# -- fused accessors against the per-byte reference ------------------------------

def ref_read(h: Heap, p: Pointer, length: int, loc: str) -> bytes:
    """`Heap.read` as the per-byte loop behind `_checked_alloc`."""
    if length < 0:
        raise ValueError("negative read length")
    if length == 0:
        return b""
    a = h._checked_alloc(p, length, loc)
    for i in range(p.offset, p.offset + length):
        if a.state[i] == _HAVOC:
            h._materialize(a, i, loc)
        elif a.state[i] == _UNINIT:
            h._raise_fault(FaultKind.UNINIT_READ, loc,
                           f"byte {i} of allocation {a.id} read before any write")
    return bytes(a.data[p.offset:p.offset + length])


def ref_is_deref(h: Heap, p: Pointer, length: int) -> bool:
    """`Heap.is_deref` byte by byte: every byte of the region lies inside
    a live allocation, and a negative length is the empty region at `p`."""
    if length == 0:
        return True
    if p.kind is not PtrKind.VALID:
        return False
    a = h.allocations.get(p.alloc_id)
    if a is None or a.freed:
        return False
    return 0 <= p.offset <= a.size and all(
        0 <= i < a.size for i in range(p.offset, p.offset + length))


def ref_is_init(h: Heap, p: Pointer, length: int) -> bool:
    return ref_is_deref(h, p, length) and (length == 0 or all(
        h.allocations[p.alloc_id].state[i] != _UNINIT
        for i in range(p.offset, p.offset + length)))


def ref_read_u64(h: Heap, p: Pointer, loc: str = "read_u64") -> int:
    return int.from_bytes(ref_read(h, p, 8, loc), "little")


def ref_read_ptr(h: Heap, p: Pointer, loc: str = "read_ptr") -> Pointer:
    raw = ref_read_u64(h, p, loc)
    if raw == 0:
        return NULL_PTR
    a = h.allocations[p.alloc_id]
    span = range(p.offset, p.offset + 8)
    if all(a.tags[i] == TAG_PTR for i in span) and len({a.epochs[i] for i in span}) == 1:
        return h._ptr_by_handle[raw]
    return Pointer.wild(f"bits:{raw:#x}")


def ref_store(h: Heap, p: Pointer, buf: bytes, tag: int, loc: str):
    a = h._checked_alloc(p, len(buf), loc)
    h.global_epoch += 1
    for j, v in enumerate(buf):
        i = p.offset + j
        a.data[i], a.state[i], a.epochs[i], a.tags[i] = v, _INIT, h.global_epoch, tag


def ref_write(h: Heap, p: Pointer, data: bytes, loc: str):
    if data:
        ref_store(h, p, data, TAG_U8, loc)


def ref_write_u64(h: Heap, p: Pointer, value: int, loc: str = "write_u64"):
    ref_store(h, p, (value & U64_MAX).to_bytes(8, "little"), TAG_U8, loc)


def ref_write_ptr(h: Heap, p: Pointer, value: Pointer, loc: str = "write_ptr"):
    handle = 0
    if not value.is_null:
        if value not in h._handle_by_ptr:
            h._handle_by_ptr[value] = h._next_handle
            h._ptr_by_handle[h._next_handle] = value
            h._next_handle += 1
        handle = h._handle_by_ptr[value]
    ref_store(h, p, handle.to_bytes(8, "little"), TAG_PTR, loc)


# Members off the base, so that an access that drops the offset differs.
_PTR_MEMBER_OFF, _U64_MEMBER_OFF = 5, 3


class FieldRecord(Record):
    ptr_member = ptr_field(_PTR_MEMBER_OFF)
    u64_member = u64_field(_U64_MEMBER_OFF)


def _fused_ops(h, p, arg):
    rec = FieldRecord(SimpleNamespace(heap=h), p)
    return {
        "read1": lambda: h.read(p, 1, "r"),
        "readn": lambda: h.read(p, arg, "r"),
        # `arg` is the offset, or a (length or data, offset) pair.
        "read1_off": lambda: h.read(p, 1, "r", off=arg),
        "readn_off": lambda: h.read(p, arg[0], "r", off=arg[1]),
        "write_off": lambda: h.write(p, arg[0], "w", off=arg[1]),
        "read_u64": lambda: h.read_u64(p),
        "read_ptr": lambda: h.read_ptr(p),
        "write_u64": lambda: h.write_u64(p, arg),
        "typed_write_u64": lambda: h.typed_write_u64(p, arg),
        "write_ptr": lambda: h.write_ptr(p, arg),
        "get_u64_field": lambda: rec.u64_member,
        "get_ptr_field": lambda: rec.ptr_member,
        "set_u64_field": lambda: setattr(rec, "u64_member", arg),
        "set_ptr_field": lambda: setattr(rec, "ptr_member", arg),
    }


def _reference_ops(h, p, arg):
    return {
        "read1": lambda: ref_read(h, p, 1, "r"),
        "readn": lambda: ref_read(h, p, arg, "r"),
        "read1_off": lambda: ref_read(h, p.add(arg), 1, "r"),
        "readn_off": lambda: ref_read(h, p.add(arg[1]), arg[0], "r"),
        "write_off": lambda: ref_write(h, p.add(arg[1]), arg[0], "w"),
        "read_u64": lambda: ref_read_u64(h, p),
        "read_ptr": lambda: ref_read_ptr(h, p),
        "write_u64": lambda: ref_write_u64(h, p, arg),
        "typed_write_u64": lambda: ref_store(
            h, p, (arg & U64_MAX).to_bytes(8, "little"), TAG_U64, "typed_write_u64"),
        "write_ptr": lambda: ref_write_ptr(h, p, arg),
        "get_u64_field": lambda: ref_read_u64(h, p.add(_U64_MEMBER_OFF)),
        "get_ptr_field": lambda: ref_read_ptr(h, p.add(_PTR_MEMBER_OFF)),
        "set_u64_field": lambda: ref_write_u64(h, p.add(_U64_MEMBER_OFF), arg),
        "set_ptr_field": lambda: ref_write_ptr(h, p.add(_PTR_MEMBER_OFF), arg),
    }


def _outcome(op):
    try:
        return ("ok", op())
    except MemoryFaultError as e:
        return ("fault", e.fault)
    except (ValueError, UsageError) as e:
        return (type(e).__name__, str(e))


def _heap_state(h: Heap):
    return (h.fault, h.global_epoch, dict(h._ptr_by_handle), h._next_handle,
            [(a.id, a.size, a.freed, bytes(a.data), bytes(a.state), list(a.epochs),
              bytes(a.tags)) for a in h.allocations.values()])


_ARG_KIND = {"write_u64": "u64", "typed_write_u64": "u64",
             "set_u64_field": "u64", "write_ptr": "ptr", "set_ptr_field": "ptr",
             "read1_off": "off", "readn_off": "read_off", "write_off": "write_off"}
_OPS = sorted(_fused_ops(None, NULL_PTR, None))
_STORE_OPS = ["typed_write_u64", "write_ptr", "write_u64"]
_ARGS = {
    # Stores wrap values modulo 2**64, negative ones and those past U64_MAX.
    "u64": st.integers(-2**65, 2**65) | st.sampled_from([-1, U64_MAX + 1]),
    "ptr": st.sampled_from([NULL_PTR, valid_ptr(1, 3), valid_ptr(4, 0),
                            Pointer.wild("w")]),
    "off": st.integers(-3, 10),
    "read_off": st.tuples(st.integers(-1, 10), st.integers(-3, 10)),
    "write_off": st.tuples(st.binary(max_size=10), st.integers(-3, 10)),
}


def _check_same(fused, ref, op, at, offset, arg):
    """Runs one access on both heaps and compares everything it can touch."""
    (fused_heap, fused_targets, fused_draws), (ref_heap, ref_targets, ref_draws) = fused, ref
    p, q = fused_targets[at].add(offset), ref_targets[at].add(offset)
    assert _outcome(_fused_ops(fused_heap, p, arg)[op]) == \
        _outcome(_reference_ops(ref_heap, q, arg)[op])
    assert fused_draws == ref_draws
    assert _heap_state(fused_heap) == _heap_state(ref_heap)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_accessors_match_per_byte_reference(data):
    """Two heaps built alike run the same accesses, one through the fused
    methods and record fields, one through the per-byte reference.  Up to
    three random 8-byte stores come first.  Then every access, with reads
    of several lengths and byte accesses at an `off`, is tried on freshly
    built heaps: through a valid and a freed allocation at the edge offsets,
    at the offsets that put a record member at byte -1 and at two random
    ones, and through an unknown, a null and a wild pointer.
    Last, `is_deref` and `is_init` answer as the reference does through
    the same pointers, at lengths -1, 0 and those ending at or next to the
    allocation's end."""
    size = data.draw(st.integers(1, 24), label="size")
    states = data.draw(st.one_of(
        st.sampled_from([_INIT, _HAVOC, _UNINIT]).map(lambda s: [s] * size),
        st.lists(st.sampled_from([_INIT] * 4 + [_HAVOC, _UNINIT]),
                 min_size=size, max_size=size)), label="states")
    content = data.draw(st.binary(min_size=size, max_size=size))
    tags = data.draw(st.lists(st.sampled_from([TAG_NONE, TAG_U8, TAG_U64, TAG_PTR]),
                              min_size=size, max_size=size))
    epochs = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    live_at = data.draw(st.integers(0, size - 8) if size >= 8 else st.none(),
                        label="write_ptr offset")
    has_source = data.draw(st.booleans(), label="has byte source")
    prefix = []
    if size >= 8:
        for _ in range(data.draw(st.integers(0, 3), label="stores")):
            op = data.draw(st.sampled_from(_STORE_OPS))
            prefix.append((op, data.draw(st.sampled_from(["valid", "freed"])),
                           data.draw(st.integers(0, size - 8)),
                           data.draw(_ARGS[_ARG_KIND[op]])))
    calls = [(op, data.draw(_ARGS[_ARG_KIND[op]], label=op) if op in _ARG_KIND else None)
             for op in _OPS if op != "readn"]
    calls += [("readn", n) for n in (-1, 0, 2, 8, data.draw(st.integers(3, 10)))]
    # The last two put each record member one byte below the allocation.
    offsets = {-1, 0, size - 8, size - 7, size - 1, size, live_at or 0,
               data.draw(st.integers(-3, size + 2)), data.draw(st.integers(-3, size + 2)),
               -_U64_MEMBER_OFF - 1, -_PTR_MEMBER_OFF - 1}

    def build():
        draws = []
        h = Heap(byte_source=logging_source(draws) if has_source else None)
        allocs = [h.alloc(size), h.alloc(size)]  # the second is freed below
        for p in allocs:
            a = h.allocations[p.alloc_id]
            a.state[:], a.data[:], a.tags[:] = bytes(states), content, bytes(tags)
            a.epochs[:] = epochs
        h.global_epoch = 2
        if live_at is not None:
            for p in allocs:
                ref_write_ptr(h, p.add(live_at), allocs[0].add(live_at))
        return h, {"valid": allocs[0], "freed": allocs[1], "unknown": valid_ptr(99, 0),
                   "null": NULL_PTR, "wild": Pointer.wild("t")}, draws

    sweep = [(t, o) for t in ("valid", "freed") for o in sorted(offsets)]
    sweep += [("unknown", 0), ("null", 0), ("wild", 0)]
    for op, arg in calls:
        for target, offset in sweep:
            fused, ref = build(), build()
            for access in prefix:
                _check_same(fused, ref, *access)
            for h, targets, _ in (fused, ref):
                h.free(targets["freed"])
            _check_same(fused, ref, op, target, offset, arg)

    h, targets, _ = build()
    h.free(targets["freed"])
    before = _heap_state(h)
    for target, offset in sweep:
        p = targets[target].add(offset)
        for length in {-1, 0, 1, size - offset - 1, size - offset, size - offset + 1}:
            assert h.is_deref(p, length) == ref_is_deref(h, p, length), (p, length)
            assert h.is_init(p, length) == ref_is_init(h, p, length), (p, length)
    assert _heap_state(h) == before


def havocked_slot_proof(ctx):
    """A havocked slot never aliases a live pointer."""
    table, _ = live_slot(ctx.heap)
    slot = table.add(8)
    ctx.heap.havoc(slot, 8)
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
    p, q = valid_ptr(3, 2), valid_ptr(3, 1).add(1)
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != valid_ptr(3, 1) and p != valid_ptr(4, 2)
    assert Pointer.wild("t") == Pointer.wild("t") != Pointer.wild("u")
    assert NULL_PTR == Pointer(PtrKind.NULL) == NULL_PTR.add(0)
    assert {p: "p"}[q] == "p"
    assert len({NULL_PTR, p, q, Pointer.wild("t"), Pointer.wild("t")}) == 3


def test_equal_pointers_share_one_handle():
    h = Heap()
    table, target = live_slot(h)
    h.write_ptr(table.add(8), target.add(1).add(-1))
    assert h.read(table, 8) == h.read(table.add(8), 8)
    assert list(h._handle_by_ptr) == [target]
    assert h.read_ptr(table.add(8)) == target


@pytest.mark.parametrize("field", ["kind", "alloc_id", "offset", "token"])
def test_pointer_is_immutable(field):
    p = valid_ptr(1, 2)
    with pytest.raises(AttributeError):
        setattr(p, field, 0)
    assert p == valid_ptr(1, 2)


def test_pointer_repr():
    assert repr(NULL_PTR) == "null"
    assert repr(valid_ptr(2, 5)) == "&a2+5"
    assert repr(valid_ptr(2).add(-1)) == "&a2+-1"
    assert repr(Pointer.wild("nd:1")) == "wild(nd:1)"
    assert repr(NULL_PTR.add(3)) == "wild(null+3)"


# -- the recorded fault -------------------------------------------------------------

def test_heap_keeps_the_first_fault():
    h = Heap()
    p = h.alloc(4)
    h.write(p, b"abcd")
    with pytest.raises(MemoryFaultError) as first:
        h.read(p, 5)
    assert h.fault == first.value.fault
    assert h.read(p, 4) == b"abcd"  # the heap goes on working
    with pytest.raises(MemoryFaultError) as second:
        h.free(p.add(1))
    assert fault_of(second) is FaultKind.OUT_OF_BOUNDS
    assert second.value.fault != first.value.fault
    assert h.fault == first.value.fault


# -- epochs --------------------------------------------------------------------------

def test_global_epoch_strictly_increases():
    h = Heap()
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
    h = Heap()
    p = h.alloc(2)
    a = h.allocations[p.alloc_id]
    last = list(a.epochs)
    for data in (b"xy", b"ab", b"qq"):
        h.write(p, data)
        assert all(n >= o for n, o in zip(a.epochs, last))
        last = list(a.epochs)
