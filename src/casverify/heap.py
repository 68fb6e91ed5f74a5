"""Modeled heap with memory-safety semantics.

Every proof runs against a `Heap`: an allocation-id indexed store with
per-byte initialization state, per-byte write epochs, and optional per-byte
effective-type tags.  Pointers are tagged values (null / valid / wild)
rather than flat addresses, which gives exact bounds, use-after-free and
wild-dereference detection without address arithmetic ambiguity.

Invalid accesses raise `MemoryFaultError`; `Heap.fault` keeps the run's
first, which fails the run once it ends, even if the proof caught the
exception.  Reading a byte that was never written is a fault, and a
zero-length access is a no-op, even through an invalid pointer.

Content written by `havoc` is nondeterministic and materialized lazily: a
havocked byte draws its concrete value from `byte_source` only when first
read, so path counts stay proportional to the bytes a proof inspects.

Every accessor, byte or 8-byte, takes an `off` and works at `p + off`, so a
caller indexing from a base pointer passes the index instead of building
the member pointer; only a slow or fault path builds `p.add(off)`, so
faults read as they would through the member pointer.  An 8-byte word is
encoded and decoded in place by one `struct` call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple


class PtrKind(Enum):
    NULL = "null"
    VALID = "valid"
    WILD = "wild"

    # Members are singletons, so identity hashing is consistent with
    # equality and keeps pointer hashing in C.  No code iterates a set or
    # dict of pointers in hash order.
    __hash__ = object.__hash__


class Pointer(NamedTuple):
    """Tagged pointer value.

    A valid pointer may carry an out-of-bounds offset; existence is legal,
    dereference is not.  Wild pointers are never dereferenceable and compare
    equal iff their tokens are equal.  Pointers are immutable tuples, so
    equality and hashing are by value and cost no Python-level call.
    """

    kind: PtrKind
    alloc_id: int = 0
    offset: int = 0
    token: str = ""

    @staticmethod
    def wild(token: str) -> "Pointer":
        return _new_ptr(Pointer, (_WILD, 0, 0, token))

    @property
    def is_null(self) -> bool:
        return self.kind is _NULL

    @property
    def is_wild(self) -> bool:
        return self.kind is _WILD

    def add(self, delta: int) -> "Pointer":
        """Pointer arithmetic.  Garbage stays garbage: shifting a null or
        wild pointer yields a never-dereferenceable value instead of failing,
        so that faults surface at the access, like they would in compiled
        code."""
        kind = self.kind
        if kind is _VALID:
            return _new_ptr(Pointer, (_VALID, self.alloc_id, self.offset + delta, ""))
        if kind is _NULL:
            return self if delta == 0 else Pointer.wild(f"null+{delta}")
        return self

    def __repr__(self) -> str:
        if self.kind is _NULL:
            return "null"
        if self.kind is _VALID:
            return f"&a{self.alloc_id}+{self.offset}"
        return f"wild({self.token})"


# Builds a Pointer from its four fields without the keyword-argument
# handling of the generated constructor.
_new_ptr = tuple.__new__
_NULL, _VALID, _WILD = PtrKind.NULL, PtrKind.VALID, PtrKind.WILD
NULL_PTR = Pointer(_NULL)


class FaultKind(Enum):
    NULL_DEREF = "NullDeref"
    WILD_DEREF = "WildDeref"
    OUT_OF_BOUNDS = "OutOfBounds"
    USE_AFTER_FREE = "UseAfterFree"
    UNINIT_READ = "UninitRead"
    TYPED_ACCESS_VIOLATION = "TypedAccessViolation"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    location: str
    detail: str


class MemoryFaultError(Exception):
    """Raised on an invalid memory access; carries that access's fault."""

    def __init__(self, fault: Fault):
        super().__init__(f"{fault.kind.value} at {fault.location}: {fault.detail}")
        self.fault = fault


class UsageError(Exception):
    """Framework misuse (e.g. is_mod before tracking_on), distinct from a
    memory fault found in the code under proof."""


U64_MAX = (1 << 64) - 1

# Byte initialization states.
_UNINIT, _INIT, _HAVOC = 0, 1, 2

# Effective-type tags (recorded per byte, checked only when enabled).
TAG_NONE, TAG_U8, TAG_U64, TAG_PTR = 0, 1, 2, 3

# `_FILL8[v]` is eight bytes of value `v`, for 8-byte state and tag stores.
_FILL8 = tuple(bytes((v,)) * 8 for v in range(4))
# `_BYTE[v]` is the 1-byte string of value `v`.
_BYTE = tuple(bytes((v,)) for v in range(256))
# An 8-byte little-endian word, decoded from and encoded into a bytearray at
# an offset.  Both count a negative offset from the end of the buffer, so
# every caller tests `0 <= lo` first.
_WORD = struct.Struct("<Q")
_unpack_word, _pack_word = _WORD.unpack_from, _WORD.pack_into


class Allocation:
    """One allocation's bytes, per-byte state, write epochs and tags."""

    __slots__ = ("id", "size", "freed", "data", "state", "epochs", "tags")

    def __init__(self, id: int, size: int):
        self.id = id
        self.size = size
        self.freed = False
        self.data = bytearray(size)
        self.state = bytearray(size)  # all _UNINIT
        self.epochs = [0] * size
        self.tags = bytearray(size)  # all TAG_NONE


class Heap:
    """Single-proof-run heap.  Not safe for concurrent mutation; a run owns
    its heap wholesale.

    `typed_access_check` makes `typed_read_u64` fault on bytes last written
    with a narrower type; `zero_alloc_returns_null` makes `alloc(0)` return
    null instead of a distinct 0-byte block."""

    # A run builds one heap; `__weakref__` lets tests watch it being freed.
    __slots__ = ("byte_source", "typed_access_check", "zero_alloc_returns_null",
                 "allocations", "global_epoch", "tracking_epoch", "fault", "_next_id",
                 "_ptr_by_handle", "_handle_by_ptr", "_next_handle", "__weakref__")

    def __init__(self, byte_source: Callable[[], int] | None = None, *,
                 typed_access_check: bool = True, zero_alloc_returns_null: bool = True):
        self.byte_source = byte_source
        self.typed_access_check = typed_access_check
        self.zero_alloc_returns_null = zero_alloc_returns_null
        self.allocations: dict[int, Allocation] = {}
        self.global_epoch = 0
        self.tracking_epoch: int | None = None
        self.fault: Fault | None = None
        self._next_id = 1
        self._ptr_by_handle: dict[int, Pointer] = {}
        self._handle_by_ptr: dict[Pointer, int] = {}
        self._next_handle = 1

    # -- fault plumbing ---------------------------------------------------

    def _raise_fault(self, kind: FaultKind, loc: str, detail: str):
        fault = Fault(kind, loc, detail)
        if self.fault is None:
            self.fault = fault
        raise MemoryFaultError(fault)

    # -- allocation -------------------------------------------------------

    def alloc(self, size: int) -> Pointer:
        if size < 0:
            raise ValueError("negative allocation size")
        if size == 0 and self.zero_alloc_returns_null:
            return NULL_PTR
        alloc_id = self._next_id
        self._next_id = alloc_id + 1
        self.allocations[alloc_id] = Allocation(alloc_id, size)
        return _new_ptr(Pointer, (_VALID, alloc_id, 0, ""))

    def free(self, p: Pointer, loc: str = "free"):
        if p.is_null:
            return
        if p.is_wild:
            self._raise_fault(FaultKind.WILD_DEREF, loc, f"free of {p!r}")
        a = self.allocations.get(p.alloc_id)
        if a is None or a.freed:
            self._raise_fault(FaultKind.USE_AFTER_FREE, loc,
                              f"free of already-freed or unknown {p!r}")
        if p.offset != 0:
            self._raise_fault(FaultKind.OUT_OF_BOUNDS, loc, f"free of interior pointer {p!r}")
        a.freed = True

    # -- access checking --------------------------------------------------

    def _checked_alloc(self, p: Pointer, length: int, loc: str) -> Allocation:
        """Validity gate shared by read/write/havoc; length > 0 here.  The
        fast paths test validity inline and call this only when the test
        fails, so every validity fault is raised and worded here."""
        kind, alloc_id, offset, _ = p
        if kind is not _VALID:
            if kind is _NULL:
                self._raise_fault(FaultKind.NULL_DEREF, loc,
                                  f"{length}-byte access through null")
            self._raise_fault(FaultKind.WILD_DEREF, loc, f"{length}-byte access through {p!r}")
        a = self.allocations.get(alloc_id)
        if a is None:
            self._raise_fault(FaultKind.USE_AFTER_FREE, loc, f"access through unknown {p!r}")
        if a.freed:
            self._raise_fault(FaultKind.USE_AFTER_FREE, loc, f"access after free through {p!r}")
        if offset < 0 or offset + length > a.size:
            self._raise_fault(
                FaultKind.OUT_OF_BOUNDS, loc,
                f"[{offset},{offset + length}) outside allocation of {a.size} bytes")
        return a

    def is_deref(self, p: Pointer, length: int) -> bool:
        """Pure query: would a read of `length` bytes raise a validity
        fault?  Never faults itself; uninitialized content is not
        considered.  A negative length asks about zero bytes at `p`."""
        if length == 0:
            return True
        kind, alloc_id, lo, _ = p
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        return (a is not None and not a.freed and 0 <= lo
                and lo + (length if length > 0 else 0) <= a.size)

    def is_init(self, p: Pointer, length: int) -> bool:
        """Pure query: region dereferenceable and every byte carries content
        (written or havocked)."""
        if length == 0:
            return True
        kind, alloc_id, lo, _ = p
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if a is None or a.freed or lo < 0:
            return False
        hi = lo + length if length > 0 else lo
        return hi <= a.size and a.state.count(_UNINIT, lo, hi) == 0

    # -- data movement ----------------------------------------------------

    def _materialize(self, a: Allocation, i: int, loc: str):
        if self.byte_source is None:
            raise UsageError(
                f"read of havocked byte at {loc} with no nondeterminism source attached")
        a.data[i] = self.byte_source() & 0xFF
        a.state[i] = _INIT  # epoch unchanged: content was written at havoc time

    def read(self, p: Pointer, length: int, loc: str = "read", off: int = 0) -> bytes:
        kind, alloc_id, lo, _ = p
        lo += off
        if kind is _VALID and length > 0:
            a = self.allocations.get(alloc_id)
            hi = lo + length
            if a is None or a.freed or lo < 0 or hi > a.size:
                a = self._checked_alloc(p.add(off), length, loc)
        elif length < 0:
            raise ValueError("negative read length")
        elif length == 0:
            return b""
        else:
            a = self._checked_alloc(p.add(off), length, loc)
        state = a.state
        if length == 1:
            s = state[lo]
            if s == _INIT:
                return _BYTE[a.data[lo]]
            if s == _HAVOC and self.byte_source is not None:
                v = self.byte_source() & 0xFF
                a.data[lo] = v
                state[lo] = _INIT  # epoch unchanged, as in _materialize
                return _BYTE[v]
        elif state.count(_INIT, lo, hi) == length:
            # written or already materialized bytes are copied as they are
            return bytes(a.data[lo:hi])
        # Havocked bytes are drawn in ascending order and the first
        # uninitialized byte faults.
        for i in range(lo, hi):
            s = state[i]
            if s == _HAVOC:
                self._materialize(a, i, loc)
            elif s == _UNINIT:
                self._raise_fault(FaultKind.UNINIT_READ, loc,
                                  f"byte {i} of allocation {a.id} read before any write")
        return bytes(a.data[lo:hi])

    # The generic `write` and `havoc` keep their per-byte loops: slice
    # stores make wide-write workloads run more passes per benchmark window,
    # and the benchmark's peak RSS grows with the pass count.  Deriving the
    # effective-type tag from the write epoch, instead of storing it, hits
    # the same wall: it cut `generated_writes` wall time by 16%, and its peak
    # RSS rose from 38.3 to 42.6 MB and from 39.3 to 45.0 MB (16 and 19
    # passes against 12 and 13).  Both wait for ROADMAP item 1, which stops
    # the benchmark's RSS from following the pass count.

    def write(self, p: Pointer, data: Iterable[int] | bytes, loc: str = "write",
              off: int = 0):
        self._store(p, bytes(data), TAG_U8, loc, off)

    def _store(self, p: Pointer, buf: bytes, tag: int, loc: str, off: int = 0):
        """Write `buf` at `p + off` in one write epoch, tagging every byte
        `tag`."""
        if len(buf) == 0:
            return
        kind, alloc_id, lo, _ = p
        lo += off
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if a is None or a.freed or lo < 0 or lo + len(buf) > a.size:
            a = self._checked_alloc(p.add(off), len(buf), loc)
        self.global_epoch += 1
        for j, v in enumerate(buf):
            i = lo + j
            a.data[i] = v
            a.state[i] = _INIT
            a.epochs[i] = self.global_epoch
            a.tags[i] = tag

    def _store_word(self, p: Pointer, value: int, tag: int, loc: str, off: int = 0):
        """`_store` of `value` modulo 2**64 as 8 little-endian bytes at
        `p + off`: one struct call and three slice assignments."""
        kind, alloc_id, lo, _ = p
        lo += off
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        hi = lo + 8
        if a is None or a.freed or lo < 0 or hi > a.size:
            a = self._checked_alloc(p.add(off), 8, loc)
        self.global_epoch = epoch = self.global_epoch + 1
        _pack_word(a.data, lo, value & U64_MAX)
        a.state[lo:hi] = _FILL8[_INIT]
        a.epochs[lo:hi] = (epoch,) * 8
        a.tags[lo:hi] = _FILL8[tag]

    def havoc(self, p: Pointer, length: int, loc: str = "havoc"):
        """Fill a region with nondeterministic content (drawn lazily on
        first read).  Counts as a write: epochs bump, tags clear."""
        if length < 0:
            raise ValueError("negative havoc length")
        if length == 0:
            return
        a = self._checked_alloc(p, length, loc)
        self.global_epoch += 1
        for i in range(p.offset, p.offset + length):
            a.state[i] = _HAVOC
            a.epochs[i] = self.global_epoch
            a.tags[i] = TAG_NONE

    # -- modification tracking --------------------------------------------

    def tracking_on(self):
        self.tracking_epoch = self.global_epoch

    def is_mod(self, p: Pointer, length: int, loc: str = "is_mod") -> bool:
        """True iff any byte in range was written after the last
        tracking_on.  Epoch semantics: rewriting a byte with its old value
        still counts as a modification."""
        if self.tracking_epoch is None:
            raise UsageError("is_mod called before tracking_on")
        if length == 0:
            return False
        a = self._checked_alloc(p, length, loc)
        te = self.tracking_epoch
        return any(a.epochs[i] > te for i in range(p.offset, p.offset + length))

    # -- typed access -----------------------------------------------------

    def typed_read_u64(self, p: Pointer, loc: str = "typed_read_u64") -> int:
        a = self._checked_alloc(p, 8, loc)
        if self.typed_access_check:
            for i in range(p.offset, p.offset + 8):
                if a.tags[i] not in (TAG_NONE, TAG_U64):
                    self._raise_fault(
                        FaultKind.TYPED_ACCESS_VIOLATION, loc,
                        f"8-byte typed read of byte {i} last written with a narrower type")
        return _unpack_word(self.read(p, 8, loc))[0]

    def typed_write_u64(self, p: Pointer, value: int, loc: str = "typed_write_u64"):
        self._store_word(p, value, TAG_U64, loc)

    # -- scalar / pointer field helpers ------------------------------------
    #
    # A record field passes its member's offset as `off`.

    def read_u64(self, p: Pointer, loc: str = "read_u64", off: int = 0) -> int:
        """Untyped little-endian 8-byte read (no effective-type check)."""
        # Eight written bytes of a live allocation decode in place; anything
        # else goes through `read`, which draws or faults.
        kind, alloc_id, lo, _ = p
        lo += off
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            return _unpack_word(a.data, lo)[0]
        return _unpack_word(self.read(p.add(off), 8, loc))[0]

    def write_u64(self, p: Pointer, value: int, loc: str = "write_u64", off: int = 0):
        self._store_word(p, value, TAG_U8, loc, off)

    def write_ptr(self, p: Pointer, value: Pointer, loc: str = "write_ptr", off: int = 0):
        """Store a pointer value as 8 little-endian bytes of an interned
        handle.  Handles are per-heap and deterministic."""
        if value.is_null:
            handle = 0
        else:
            handle = self._handle_by_ptr.get(value)
            if handle is None:
                handle = self._next_handle
                self._next_handle += 1
                self._handle_by_ptr[value] = handle
                self._ptr_by_handle[handle] = value
        self._store_word(p, handle, TAG_PTR, loc, off)

    def read_ptr(self, p: Pointer, loc: str = "read_ptr", off: int = 0) -> Pointer:
        """Decode 8 bytes as a pointer.

        All-zero bytes decode to null.  Other bytes decode to the pointer
        they hold only when all 8 carry the pointer tag of one `write_ptr`,
        that is, one write epoch.  Anything else, such as havocked,
        scribbled, byte-copied or partly overwritten storage, yields a wild
        pointer, so a later dereference faults instead of silently
        aliasing a live allocation."""
        kind, alloc_id, lo, _ = p
        lo += off
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            raw = _unpack_word(a.data, lo)[0]
        else:
            raw = _unpack_word(self.read(p.add(off), 8, loc))[0]
            a = self.allocations[alloc_id]
        if raw == 0:
            return NULL_PTR
        if (a.tags.count(TAG_PTR, lo, lo + 8) == 8
                and a.epochs[lo:lo + 8].count(a.epochs[lo]) == 8):
            return self._ptr_by_handle[raw]
        return Pointer.wild(f"bits:{raw:#x}")


# -- record fields ---------------------------------------------------------------
#
# A record is a view with a `heap` and a base pointer `ptr` (see
# `awsport.Record`); its members are properties built by `u64_field` and
# `ptr_field`.  A getter decodes a live word itself, as `read_u64` and
# `read_ptr` do, and hands anything else to them; a setter passes the
# member's offset to `write_u64` or `write_ptr`.  Either way a field access
# costs one Python frame less than a call through the heap.


def u64_field(off: int) -> property:
    """Untyped 8-byte unsigned member at `off`.  Stores wrap modulo 2**64,
    so decrementing a zero counter yields U64_MAX."""

    def get(rec):
        heap, p = rec.heap, rec.ptr
        kind, alloc_id, lo, _ = p
        lo += off
        a = heap.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            return _unpack_word(a.data, lo)[0]
        return heap.read_u64(p, "read_u64", off)

    def set_(rec, value):
        rec.heap.write_u64(rec.ptr, value, "write_u64", off)

    return property(get, set_, doc=f"u64 at offset {off}")


def ptr_field(off: int) -> property:
    """Pointer member at `off`, stored in the heap's pointer encoding."""

    def get(rec):
        heap, p = rec.heap, rec.ptr
        kind, alloc_id, lo, _ = p
        lo += off
        a = heap.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            raw = _unpack_word(a.data, lo)[0]
            if raw == 0:
                return NULL_PTR
            if (a.tags.count(TAG_PTR, lo, lo + 8) == 8
                    and a.epochs[lo:lo + 8].count(a.epochs[lo]) == 8):
                return heap._ptr_by_handle[raw]
        return heap.read_ptr(p, "read_ptr", off)

    def set_(rec, value):
        rec.heap.write_ptr(rec.ptr, value, "write_ptr", off)

    return property(get, set_, doc=f"pointer at offset {off}")
