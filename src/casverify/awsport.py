"""Ports of the verified data-structure subset, stored in the modeled heap.

Structures are not native records: their fields are serialized at fixed
little-endian offsets inside heap allocations, because the interesting bugs
(out-of-bounds string reads, strict-aliasing violations, the wild-pointer
stub trick) are only expressible through the heap.  Each struct is a
`Record` subclass that declares its layout once, as a size and a field
table.

Helpers with a seeded bug exist in fixed and buggy variants selected per
run (see speclib.VariantFlag).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import Domain, RunContext, U64_MAX
from .heap import NULL_PTR, Pointer, PtrKind
from . import speclib as sl
from .speclib import BUGGY, FIXED, VariantFlag, resolve_variant

ALLOCATOR_TAG = 0xA110C


# =========================================================================
# records
# =========================================================================

class Record:
    """View over one heap-resident struct at `ptr`.  A subclass declares
    its layout once: `SIZE` plus one field per member, built by `u64_field`
    or `ptr_field` at the member's offset.  A record keeps only the run's
    heap, which every field access goes through."""

    def __init__(self, ctx: RunContext, ptr: Pointer):
        self.heap = ctx.heap
        self.ptr = ptr


# Field accessors build the member pointer of a valid base inline, as
# `Pointer.add` builds it, and send any other base through `add`, so a null
# or wild base faults with the same message.
_VALID = PtrKind.VALID
_new_ptr = tuple.__new__


def u64_field(off: int) -> property:
    """Untyped 8-byte unsigned member at `off`.  Stores wrap modulo 2**64,
    so decrementing a zero counter yields U64_MAX."""

    def get(rec):
        kind, alloc_id, offset, _ = p = rec.ptr
        return rec.heap.read_u64(_new_ptr(Pointer, (_VALID, alloc_id, offset + off, ""))
                                 if kind is _VALID else p.add(off))

    def set_(rec, value):
        kind, alloc_id, offset, _ = p = rec.ptr
        rec.heap.write_u64(_new_ptr(Pointer, (_VALID, alloc_id, offset + off, ""))
                           if kind is _VALID else p.add(off), value)

    return property(get, set_, doc=f"u64 at offset {off}")


def ptr_field(off: int) -> property:
    """Pointer member at `off`, stored in the heap's pointer encoding."""

    def get(rec):
        kind, alloc_id, offset, _ = p = rec.ptr
        return rec.heap.read_ptr(_new_ptr(Pointer, (_VALID, alloc_id, offset + off, ""))
                                 if kind is _VALID else p.add(off))

    def set_(rec, value):
        kind, alloc_id, offset, _ = p = rec.ptr
        rec.heap.write_ptr(_new_ptr(Pointer, (_VALID, alloc_id, offset + off, ""))
                           if kind is _VALID else p.add(off), value)

    return property(get, set_, doc=f"pointer at offset {off}")


# =========================================================================
# byte_buf
# =========================================================================

class ByteBuf(Record):
    SIZE = 32
    buffer = ptr_field(0)
    len = u64_field(8)
    capacity = u64_field(16)
    allocator = u64_field(24)


def byte_buf_is_valid(ctx: RunContext, bufp: Pointer,
                      variant: VariantFlag | None = None) -> bool:
    """Representation invariant of byte_buf.

    Fixed: null buffer iff zero capacity, len bounded by capacity, and the
    whole capacity is dereferenceable.  Buggy: only the first `len` bytes
    are required dereferenceable, which wrongly admits a null buffer with
    len == 0 and capacity > 0.  Pure predicate; never faults."""
    v = resolve_variant(ctx, "byte_buf_is_valid", variant)
    h = ctx.heap
    if not h.is_init(bufp, ByteBuf.SIZE):
        return False
    b = ByteBuf(ctx, bufp)
    cap, length, buf = b.capacity, b.len, b.buffer
    if cap == 0 and length == 0 and buf.is_null:
        return True
    writable = length if v is BUGGY else cap
    return cap > 0 and length <= cap and h.is_deref(buf, writable)


def init_byte_buf(ctx: RunContext, bufp: Pointer) -> None:
    """Factored-out precondition: fill a byte_buf slot with a nondet state
    consistent with the representation invariant.  Fields are drawn first
    and constrained with assume."""
    b = ByteBuf(ctx, bufp)
    length = sl.nd_size_t(ctx)
    cap = sl.nd_size_t(ctx)
    ctx.assume(length <= cap)
    ctx.assume(cap <= ctx.cfg.size_bound)
    b.len = length
    b.capacity = cap
    b.buffer = sl.can_fail_malloc(ctx, cap)
    b.allocator = ALLOCATOR_TAG


def byte_buf_append_byte(ctx: RunContext, bufp: Pointer, value: int) -> bool:
    """Append one byte if capacity allows; True on success."""
    b = ByteBuf(ctx, bufp)
    length = b.len
    if length >= b.capacity:
        return False
    ctx.heap.write(b.buffer.add(length), bytes([value & 0xFF]), loc="byte_buf_append")
    b.len = length + 1
    return True


# =========================================================================
# array_list
# =========================================================================

class ArrayList(Record):
    SIZE = 40
    data = ptr_field(0)
    length = u64_field(8)
    current_size = u64_field(16)
    item_size = u64_field(24)
    allocator = u64_field(32)


def array_list_is_valid(ctx: RunContext, listp: Pointer) -> bool:
    h = ctx.heap
    if not h.is_init(listp, ArrayList.SIZE):
        return False
    lst = ArrayList(ctx, listp)
    item_size, length, size = lst.item_size, lst.length, lst.current_size
    if item_size == 0 or length * item_size > size:
        return False
    return size == 0 or h.is_deref(lst.data, size)


def init_array_list(ctx: RunContext, listp: Pointer) -> None:
    """Nondet array list bounded by the engine's size bound (the bound of
    `is_bounded`-style assumptions is the one configured scope bound)."""
    lst = ArrayList(ctx, listp)
    bound = ctx.cfg.size_bound
    item_size = sl.nd_size_t(ctx)
    ctx.assume(1 <= item_size)
    length = sl.nd_size_t(ctx)
    ctx.assume(length * item_size <= bound)
    lst.item_size = item_size
    lst.length = length
    lst.current_size = length * item_size
    lst.data = sl.can_fail_malloc(ctx, length * item_size)
    lst.allocator = ALLOCATOR_TAG


OP_SUCCESS = 0
OP_ERROR = -1


def array_list_get_at_ptr(ctx: RunContext, listp: Pointer, out: Pointer,
                          index: int) -> int:
    """Store the address of item `index` into `out`; error when out of
    range, leaving `out` untouched."""
    lst = ArrayList(ctx, listp)
    if index >= lst.length:
        return OP_ERROR
    item = lst.data.add(index * lst.item_size)
    ctx.heap.write_ptr(out, item, loc="array_list_get_at_ptr")
    return OP_SUCCESS


# =========================================================================
# priority queue (only the container byte-swap is ported)
# =========================================================================

def pq_s_swap(ctx: RunContext, containerp: Pointer, a: int, b: int) -> None:
    """Exchange items a and b of the backing array list byte-wise."""
    lst = ArrayList(ctx, containerp)
    sz = lst.item_size
    data = lst.data
    pa, pb = data.add(a * sz), data.add(b * sz)
    bytes_a = ctx.heap.read(pa, sz, loc="pq_s_swap")
    bytes_b = ctx.heap.read(pb, sz, loc="pq_s_swap")
    ctx.heap.write(pa, bytes_b, loc="pq_s_swap")
    ctx.heap.write(pb, bytes_a, loc="pq_s_swap")


def pq_s_swap_postcondition(ob_i: int, a: int, b: int, item_sz: int,
                            variant: VariantFlag) -> bool:
    """Guard meant to select bytes outside the swapped items.  The buggy
    form conjoins `below item` with `at-or-above item end`, which no byte
    index satisfies, so whatever it guards can never execute."""
    if variant is BUGGY:
        return (ob_i < a * item_sz and ob_i >= (a + 1) * item_sz) and \
               (ob_i < b * item_sz and ob_i >= (b + 1) * item_sz)
    return (ob_i < a * item_sz or ob_i >= (a + 1) * item_sz) and \
           (ob_i < b * item_sz or ob_i >= (b + 1) * item_sz)


# =========================================================================
# checked arithmetic
# =========================================================================

def mul_u64_checked(a: int, b: int) -> tuple[bool, int | None]:
    """64-bit checked multiply: (True, product) when exact, else (False, None)."""
    product = a * b
    if product > U64_MAX:
        return False, None
    return True, product


def add_u64_checked(a: int, b: int) -> tuple[bool, int | None]:
    total = a + b
    if total > U64_MAX:
        return False, None
    return True, total


def mul_overflows(a: int, b: int) -> bool:
    """Exact multiplication-overflow predicate (the corrected postcondition)."""
    return b != 0 and a > U64_MAX // b


def add_overflow_predicate(a: int, b: int) -> bool:
    """Addition-overflow predicate; asserting this after a failed multiply
    is the seeded postcondition bug."""
    return b > 0 and a > U64_MAX - b


# =========================================================================
# linked list stubs
# =========================================================================

NODE_SIZE = 16           # prev @0, next @8
LIST_SIZE = 32           # head node @0, tail node @16
_HEAD_OFF, _TAIL_OFF = 0, 16
_NEXT_OFF, _PREV_OFF = 8, 0


class StubShape(Enum):
    FROM_HEAD = "from_head"
    FROM_TAIL = "from_tail"
    BOTH_ENDS = "both_ends"


@dataclass(frozen=True)
class SizeToken:
    """Opaque stand-in for the unknown length of a partially built list."""
    shape: StubShape
    empty: bool


@dataclass(frozen=True)
class SavedNode:
    ptr: Pointer
    prev: Pointer
    next: Pointer


@dataclass(frozen=True)
class SavedNodes:
    nodes: tuple[SavedNode, ...]


def head_node(listp: Pointer) -> Pointer:
    return listp.add(_HEAD_OFF)


def tail_node(listp: Pointer) -> Pointer:
    return listp.add(_TAIL_OFF)


def node_next(ctx: RunContext, nodep: Pointer) -> Pointer:
    return ctx.heap.read_ptr(nodep.add(_NEXT_OFF))


def node_prev(ctx: RunContext, nodep: Pointer) -> Pointer:
    return ctx.heap.read_ptr(nodep.add(_PREV_OFF))


def set_node_next(ctx: RunContext, nodep: Pointer, value: Pointer):
    ctx.heap.write_ptr(nodep.add(_NEXT_OFF), value)


def set_node_prev(ctx: RunContext, nodep: Pointer, value: Pointer):
    ctx.heap.write_ptr(nodep.add(_PREV_OFF), value)


def nd_init_linked_list(ctx: RunContext, listp: Pointer,
                        shape: StubShape = StubShape.FROM_HEAD
                        ) -> tuple[Pointer, SizeToken]:
    """Build a partially defined list stub of nondeterministic length.

    At each accessed end one concrete node is attached; the link leading
    onward is a nondet pointer (null or wild), so any operation that walks
    past the concrete frontier either never touches it or raises a memory
    fault.  The proof stays loop-free and its cost is independent of the
    list length being modeled.  One extra boolean selects the empty shape
    so that a `not empty` precondition is exercisable."""
    head, tail = head_node(listp), tail_node(listp)
    set_node_prev(ctx, head, NULL_PTR)
    set_node_next(ctx, tail, NULL_PTR)
    empty = sl.nd_bool(ctx)
    if empty:
        set_node_next(ctx, head, tail)
        set_node_prev(ctx, tail, head)
        return node_next(ctx, head), SizeToken(shape, True)
    if shape in (StubShape.FROM_HEAD, StubShape.BOTH_ENDS):
        n = ctx.heap.alloc(NODE_SIZE)
        set_node_prev(ctx, n, head)
        set_node_next(ctx, n, sl.nd_voidp(ctx))
        set_node_next(ctx, head, n)
    else:
        set_node_next(ctx, head, sl.nd_voidp(ctx))
    if shape in (StubShape.FROM_TAIL, StubShape.BOTH_ENDS):
        m = ctx.heap.alloc(NODE_SIZE)
        set_node_next(ctx, m, tail)
        set_node_prev(ctx, m, sl.nd_voidp(ctx))
        set_node_prev(ctx, tail, m)
    else:
        set_node_prev(ctx, tail, sl.nd_voidp(ctx))
    first = node_next(ctx, head) if shape is not StubShape.FROM_TAIL \
        else node_prev(ctx, tail)
    return first, SizeToken(shape, False)


def nd_init_linked_list_from_head(ctx, listp):
    return nd_init_linked_list(ctx, listp, StubShape.FROM_HEAD)


def _walk_concrete(ctx: RunContext, start: Pointer) -> list[SavedNode]:
    """Record (identity, prev, next) of nodes reachable over next links
    without ever dereferencing a nondet pointer."""
    h = ctx.heap
    nodes: list[SavedNode] = []
    seen: set[Pointer] = set()
    cur = start
    while h.is_deref(cur, NODE_SIZE) and cur not in seen:
        seen.add(cur)
        prev = node_prev(ctx, cur)
        nxt = node_next(ctx, cur)
        nodes.append(SavedNode(cur, prev, nxt))
        cur = nxt
        if cur.is_null or cur.is_wild:
            break
    return nodes


def linked_list_save_to_tail(ctx: RunContext, listp: Pointer, size: SizeToken,
                             start: Pointer) -> SavedNodes:
    """Snapshot the concrete head-side nodes and start modification
    tracking; the matching is_unchanged check closes the frame."""
    nodes = _walk_concrete(ctx, start)
    ctx.heap.tracking_on()
    return SavedNodes(tuple(nodes))


def linked_list_is_unchanged(ctx: RunContext, listp: Pointer,
                             saved: SavedNodes) -> bool:
    """True iff no saved node's bytes were written since the save (epoch
    check: rewriting a link with its old value counts as a change) and the
    recorded links still hold."""
    for rec in saved.nodes:
        if ctx.heap.is_mod(rec.ptr, NODE_SIZE):
            return False
        if node_prev(ctx, rec.ptr) != rec.prev or node_next(ctx, rec.ptr) != rec.next:
            return False
    return True


linked_list_is_unchanged_to_tail = linked_list_is_unchanged


def linked_list_empty(ctx: RunContext, listp: Pointer) -> bool:
    return node_next(ctx, head_node(listp)) == tail_node(listp)


def linked_list_front(ctx: RunContext, listp: Pointer) -> Pointer:
    """Return the first node.  Reads head.next and nothing else; the stub's
    wild frontier turns any deeper touch into a fault."""
    return node_next(ctx, head_node(listp))


def linked_list_node_prev_is_valid(ctx: RunContext, nodep: Pointer) -> bool:
    p = node_prev(ctx, nodep)
    return (not p.is_null) and ctx.heap.is_deref(p, NODE_SIZE) \
        and node_next(ctx, p) == nodep


# =========================================================================
# hash table state
# =========================================================================

class HashEntry(Record):
    SIZE = 24
    hash_code = u64_field(0)
    key = ptr_field(8)
    value = ptr_field(16)


class HashState(Record):
    SIZE = 24
    entry_count = u64_field(0)
    num_slots = u64_field(8)
    slots = ptr_field(16)

    def entry(self, i: int) -> Pointer:
        return self.slots.add(i * HashEntry.SIZE)

    def entry_hash(self, i: int) -> int:
        return self.heap.read_u64(self.entry(i))


def nd_init_hash_table(ctx: RunContext, num_slots: int) -> Pointer:
    """Nondet table state: per-slot hash codes drawn from {0, nonzero},
    entry_count drawn independently.  Nothing ties the two together; the
    caller assumes the representation invariant when it wants a consistent
    table."""
    st = HashState(ctx, ctx.heap.alloc(HashState.SIZE))
    slotsp = ctx.heap.alloc(num_slots * HashEntry.SIZE)
    for i in range(num_slots):
        e = HashEntry(ctx, slotsp.add(i * HashEntry.SIZE))
        e.hash_code = ctx.choice(Domain.custom((0, 1)))
        e.key = NULL_PTR
        e.value = NULL_PTR
    st.entry_count = sl.nd_size_t(ctx)
    st.num_slots = num_slots
    st.slots = slotsp
    return st.ptr


def hash_table_is_valid(ctx: RunContext, statep: Pointer) -> bool:
    """Representation invariant: entry_count equals the number of slots with
    a nonzero hash code and never exceeds num_slots.  Underflow of the
    unsigned counter shows up as a violation of both conjuncts."""
    h = ctx.heap
    if not h.is_init(statep, HashState.SIZE):
        return False
    st = HashState(ctx, statep)
    n = st.num_slots
    if not h.is_deref(st.slots, n * HashEntry.SIZE):
        return False
    nonzero = sum(1 for i in range(n) if st.entry_hash(i) != 0)
    return st.entry_count == nonzero and st.entry_count <= n


@dataclass(frozen=True)
class HashIter:
    statep: Pointer
    slot: int


class IterDecision(Enum):
    CONTINUE = "continue"
    DELETE = "delete"


def hash_iter_delete(ctx: RunContext, it: HashIter,
                     variant: VariantFlag | None = None) -> None:
    """Delete the entry under the iterator.  The buggy stub clears the hash
    code but forgets to decrement entry_count.  Entry payloads are not
    modeled."""
    v = resolve_variant(ctx, "hash_iter_delete", variant)
    st = HashState(ctx, it.statep)
    ctx.heap.write_u64(st.entry(it.slot), 0, loc="hash_iter_delete")
    if v is FIXED:
        st.entry_count = st.entry_count - 1


def hash_table_foreach(ctx: RunContext, statep: Pointer, callback,
                       variant: VariantFlag | None = None) -> None:
    """Visit every occupied entry; a DELETE decision routes through the
    hash_iter_delete stub."""
    st = HashState(ctx, statep)
    for i in range(st.num_slots):
        if st.entry_hash(i) != 0:
            it = HashIter(statep, i)
            if callback(ctx, it) is IterDecision.DELETE:
                hash_iter_delete(ctx, it, variant=variant)


# =========================================================================
# strings
# =========================================================================

class AwsString(Record):
    SIZE = 16
    len = u64_field(0)
    bytes = ptr_field(8)


def nd_init_aws_string(ctx: RunContext) -> Pointer:
    """String satisfying the strong invariant: storage for len + 1 bytes,
    arbitrary content, zero terminator in place."""
    s = AwsString(ctx, ctx.heap.alloc(AwsString.SIZE))
    length = sl.nd_size_t(ctx)
    storage = ctx.heap.alloc(length + 1)
    if length:
        ctx.heap.havoc(storage, length)
    ctx.heap.write(storage.add(length), b"\x00")
    s.len = length
    s.bytes = storage
    return s.ptr


def nd_init_aws_string_weak(ctx: RunContext) -> Pointer:
    """String whose fields are merely filled in, with no relation between
    the recorded length and the actual allocation: all the plain C-string
    invariant can promise."""
    s = AwsString(ctx, ctx.heap.alloc(AwsString.SIZE))
    length = sl.nd_size_t(ctx)
    storage_size = sl.nd_size_t(ctx)
    s.len = length
    s.bytes = sl.can_fail_malloc(ctx, storage_size)
    return s.ptr


def aws_string_is_valid(ctx: RunContext, sp: Pointer) -> bool:
    h = ctx.heap
    if not h.is_init(sp, AwsString.SIZE):
        return False
    s = AwsString(ctx, sp)
    storage = s.bytes
    return h.is_deref(storage, s.len + 1) \
        and h.read(storage.add(s.len), 1) == b"\x00"


def c_string_is_valid(ctx: RunContext, p: Pointer) -> bool:
    """The deliberately weak C-string invariant: the pointer is not null."""
    return not p.is_null


def hash_callback_string_eq(ctx: RunContext, s1p: Pointer, s2p: Pointer) -> bool:
    """Equality callback: lengths equal and all bytes equal, read through
    the heap.  Faults when a string's recorded length exceeds its actual
    storage, which is precisely what a weak precondition permits."""
    s1, s2 = AwsString(ctx, s1p), AwsString(ctx, s2p)
    n = s1.len
    if n != s2.len:
        return False
    b1, b2 = s1.bytes, s2.bytes
    for i in range(n):
        if ctx.heap.read(b1.add(i), 1) != ctx.heap.read(b2.add(i), 1):
            return False
    return True


# =========================================================================
# zeroed-memory check
# =========================================================================

def is_mem_zeroed(ctx: RunContext, p: Pointer, bufsize: int,
                  variant: VariantFlag | None = None) -> bool:
    """True iff all bufsize bytes are zero.

    The buggy variant reads 8-byte chunks through a u64-typed access, which
    trips the effective-type check when the buffer was written byte-wise;
    the fixed variant copies chunks with untyped reads."""
    v = resolve_variant(ctx, "is_mem_zeroed", variant)
    h = ctx.heap
    if v is BUGGY:
        for i in range(bufsize // 8):
            if h.typed_read_u64(p.add(i * 8), loc="is_mem_zeroed") != 0:
                return False
        tail_start = (bufsize // 8) * 8
        tail = h.read(p.add(tail_start), bufsize - tail_start, loc="is_mem_zeroed")
    else:
        tail = h.read(p, bufsize, loc="is_mem_zeroed")
    return all(x == 0 for x in tail)
