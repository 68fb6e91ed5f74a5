"""Ports of the verified data-structure subset, stored in the modeled heap.

Structures are not native records: their fields are serialized at fixed
little-endian offsets inside heap allocations, because the interesting bugs
(out-of-bounds string reads, strict-aliasing violations, the wild-pointer
stub trick) are only expressible through the heap.  Each struct is a
`Record` subclass that declares its layout once, as a size and a field
table.

Helpers with a seeded bug exist in fixed and buggy variants: each asks
`ctx.is_buggy("<helper name>")`, so the run's buggy set selects the
variant.

Each function plays one role in a proof:

* implementation under test, the code a proof exercises and a mutation
  tool would target: `byte_buf_append_byte`, `array_list_get_at_ptr`,
  `pq_s_swap`, `mul_u64_checked`, `linked_list_front`,
  `hash_table_foreach`, `hash_callback_string_eq`, `is_mem_zeroed`;
* specification predicates, which proofs assume or assert:
  `byte_buf_is_valid`, `array_list_is_valid`, `pq_s_swap_postcondition`,
  `mul_overflows`, `add_u64_checked` (whose failure is the addition-overflow
  predicate the seeded multiply bug asserts), `linked_list_save` with
  `linked_list_is_unchanged`, `linked_list_empty`,
  `linked_list_prev_is_valid`, `hash_table_is_valid`,
  `aws_string_is_valid`, `c_string_is_valid`;
* environment, the nondet inputs and stubbed callees around the code under
  test: `init_byte_buf`, `init_array_list`, `nd_init_linked_list`,
  `nd_init_hash_table`, `nd_init_aws_string`, `nd_init_aws_string_weak`,
  and the `hash_iter_delete` stub.

`head_node` and `tail_node` only locate a list's sentinel nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import Domain, RunContext, U64_MAX
from .heap import NULL_PTR, Pointer, ptr_field, u64_field
from . import speclib as sl

ALLOCATOR_TAG = 0xA110C


# =========================================================================
# records
# =========================================================================

class Record:
    """View over one heap-resident struct at `ptr`.  A subclass declares
    its layout once: `SIZE` plus one field per member, built by
    `heap.u64_field` or `heap.ptr_field` at the member's offset.  A record
    keeps only the run's heap, which every field access goes through."""

    __slots__ = ("heap", "ptr")

    def __init__(self, ctx: RunContext, ptr: Pointer):
        self.heap = ctx.heap
        self.ptr = ptr


# =========================================================================
# byte_buf
# =========================================================================

class ByteBuf(Record):
    __slots__ = ()
    SIZE = 32
    buffer = ptr_field(0)
    len = u64_field(8)
    capacity = u64_field(16)
    allocator = u64_field(24)


def byte_buf_is_valid(ctx: RunContext, bufp: Pointer) -> bool:
    """Representation invariant of byte_buf.

    Fixed: null buffer iff zero capacity, len bounded by capacity, and the
    whole capacity is dereferenceable.  Buggy: only the first `len` bytes
    are required dereferenceable, which wrongly admits a null buffer with
    len == 0 and capacity > 0.  Pure predicate; never faults."""
    h = ctx.heap
    if not h.is_init(bufp, ByteBuf.SIZE):
        return False
    b = ByteBuf(ctx, bufp)
    cap, length, buf = b.capacity, b.len, b.buffer
    if cap == 0 and length == 0 and buf.is_null:
        return True
    writable = length if ctx.is_buggy("byte_buf_is_valid") else cap
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
    ctx.heap.write(b.buffer, bytes([value & 0xFF]), loc="byte_buf_append", off=length)
    b.len = length + 1
    return True


# =========================================================================
# array_list
# =========================================================================

class ArrayList(Record):
    __slots__ = ()
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
    h = ctx.heap
    bytes_a = h.read(data, sz, loc="pq_s_swap", off=a * sz)
    bytes_b = h.read(data, sz, loc="pq_s_swap", off=b * sz)
    h.write(data, bytes_b, loc="pq_s_swap", off=a * sz)
    h.write(data, bytes_a, loc="pq_s_swap", off=b * sz)


def pq_s_swap_postcondition(ctx: RunContext, ob_i: int, a: int, b: int,
                            item_sz: int) -> bool:
    """Guard meant to select bytes outside the swapped items.  The buggy
    form (`pq_swap_postcondition` in the buggy set) conjoins `below item`
    with `at-or-above item end`, which no byte index satisfies, so whatever
    it guards can never execute."""
    if ctx.is_buggy("pq_swap_postcondition"):
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


# =========================================================================
# linked list stubs
# =========================================================================

LIST_SIZE = 32           # head node @0, tail node @16
_HEAD_OFF, _TAIL_OFF = 0, 16


class Node(Record):
    __slots__ = ()
    SIZE = 16
    prev = ptr_field(0)
    next = ptr_field(8)


@dataclass(frozen=True)
class SavedNode:
    ptr: Pointer
    prev: Pointer
    next: Pointer


def head_node(listp: Pointer) -> Pointer:
    return listp.add(_HEAD_OFF)


def tail_node(listp: Pointer) -> Pointer:
    return listp.add(_TAIL_OFF)


def nd_init_linked_list(ctx: RunContext, listp: Pointer) -> Pointer:
    """Build a partially defined list stub of nondeterministic length and
    return its first node (the tail sentinel when the list is empty).

    One concrete node is attached after the head; the link leading onward
    and the tail's prev link are nondet pointers (null or wild), so any
    operation that walks past the concrete frontier either never touches
    it or raises a memory fault.  The proof stays loop-free and its cost
    is independent of the list length being modeled.  One extra boolean
    selects the empty shape so that a `not empty` precondition is
    exercisable."""
    head, tail = Node(ctx, head_node(listp)), Node(ctx, tail_node(listp))
    head.prev = NULL_PTR
    tail.next = NULL_PTR
    if sl.nd_bool(ctx):
        head.next = tail.ptr
        tail.prev = head.ptr
        return tail.ptr
    n = Node(ctx, ctx.heap.alloc(Node.SIZE))
    n.prev = head.ptr
    n.next = sl.nd_voidp(ctx)
    head.next = n.ptr
    tail.prev = sl.nd_voidp(ctx)
    return n.ptr


def linked_list_save(ctx: RunContext, start: Pointer) -> tuple[SavedNode, ...]:
    """Snapshot (identity, prev, next) of the nodes reachable from `start`
    over next links, without ever dereferencing a nondet pointer, and start
    modification tracking; the matching is_unchanged check closes the
    frame."""
    h = ctx.heap
    nodes: list[SavedNode] = []
    seen: set[Pointer] = set()
    cur = start
    while h.is_deref(cur, Node.SIZE) and cur not in seen:
        seen.add(cur)
        node = Node(ctx, cur)
        prev = node.prev
        cur = node.next
        nodes.append(SavedNode(node.ptr, prev, cur))
        if cur.is_null or cur.is_wild:
            break
    h.tracking_on()
    return tuple(nodes)


def linked_list_is_unchanged(ctx: RunContext, saved: tuple[SavedNode, ...]) -> bool:
    """True iff no saved node's bytes were written since the save (epoch
    check: rewriting a link with its old value counts as a change) and the
    recorded links still hold."""
    for rec in saved:
        if ctx.heap.is_mod(rec.ptr, Node.SIZE):
            return False
        node = Node(ctx, rec.ptr)
        if node.prev != rec.prev or node.next != rec.next:
            return False
    return True


def linked_list_empty(ctx: RunContext, listp: Pointer) -> bool:
    return Node(ctx, head_node(listp)).next == tail_node(listp)


def linked_list_front(ctx: RunContext, listp: Pointer) -> Pointer:
    """Return the first node.  Reads head.next and nothing else; the stub's
    wild frontier turns any deeper touch into a fault."""
    return Node(ctx, head_node(listp)).next


def linked_list_prev_is_valid(ctx: RunContext, nodep: Pointer) -> bool:
    """True iff the node's prev link leads to a live node whose next link
    points back to it."""
    p = Node(ctx, nodep).prev
    return (not p.is_null) and ctx.heap.is_deref(p, Node.SIZE) \
        and Node(ctx, p).next == nodep


# =========================================================================
# hash table state
# =========================================================================

class HashEntry(Record):
    __slots__ = ()
    SIZE = 24
    hash_code = u64_field(0)
    key = ptr_field(8)
    value = ptr_field(16)


class HashState(Record):
    __slots__ = ()
    SIZE = 24
    entry_count = u64_field(0)
    num_slots = u64_field(8)
    slots = ptr_field(16)

    def entry_hash(self, i: int) -> int:
        return self.heap.read_u64(self.slots, off=i * HashEntry.SIZE)


# Per-slot hash code: empty or occupied.
_HASH_CODES = Domain.custom((0, 1))


def nd_init_hash_table(ctx: RunContext, num_slots: int) -> Pointer:
    """Nondet table state: per-slot hash codes drawn from {0, nonzero},
    entry_count drawn independently.  Nothing ties the two together; the
    caller assumes the representation invariant when it wants a consistent
    table."""
    st = HashState(ctx, ctx.heap.alloc(HashState.SIZE))
    slotsp = ctx.heap.alloc(num_slots * HashEntry.SIZE)
    for i in range(num_slots):
        e = HashEntry(ctx, slotsp.add(i * HashEntry.SIZE))
        e.hash_code = ctx.choice(_HASH_CODES)
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


def hash_iter_delete(ctx: RunContext, it: HashIter) -> None:
    """Delete the entry under the iterator.  The buggy stub clears the hash
    code but forgets to decrement entry_count.  Entry payloads are not
    modeled."""
    st = HashState(ctx, it.statep)
    ctx.heap.write_u64(st.slots, 0, loc="hash_iter_delete", off=it.slot * HashEntry.SIZE)
    if not ctx.is_buggy("hash_iter_delete"):
        st.entry_count = st.entry_count - 1


def hash_table_foreach(ctx: RunContext, statep: Pointer, callback) -> None:
    """Visit every occupied entry; a DELETE decision routes through the
    hash_iter_delete stub."""
    st = HashState(ctx, statep)
    for i in range(st.num_slots):
        if st.entry_hash(i) != 0:
            it = HashIter(statep, i)
            if callback(ctx, it) is IterDecision.DELETE:
                hash_iter_delete(ctx, it)


# =========================================================================
# strings
# =========================================================================

class AwsString(Record):
    __slots__ = ()
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
    ctx.heap.write(storage, b"\x00", off=length)
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
    n = s.len
    return h.is_deref(storage, n + 1) and h.read(storage, 1, off=n) == b"\x00"


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
    read = ctx.heap.read
    for i in range(n):
        if read(b1, 1, off=i) != read(b2, 1, off=i):
            return False
    return True


# =========================================================================
# zeroed-memory check
# =========================================================================

def is_mem_zeroed(ctx: RunContext, p: Pointer, bufsize: int) -> bool:
    """True iff all bufsize bytes are zero.

    The buggy variant reads 8-byte chunks through a u64-typed access, which
    trips the effective-type check when the buffer was written byte-wise;
    the fixed variant copies chunks with untyped reads."""
    h = ctx.heap
    if ctx.is_buggy("is_mem_zeroed"):
        for i in range(bufsize // 8):
            if h.typed_read_u64(p.add(i * 8), loc="is_mem_zeroed") != 0:
                return False
        tail_start = (bufsize // 8) * 8
        tail = h.read(p, bufsize - tail_start, loc="is_mem_zeroed", off=tail_start)
    else:
        tail = h.read(p, bufsize, loc="is_mem_zeroed")
    return all(x == 0 for x in tail)
