"""Modeled heap with memory-safety semantics.

Every proof runs against a `Heap`: an allocation-id indexed store with
per-byte initialization state, per-byte write epochs, and optional per-byte
effective-type tags.  Pointers are tagged values (null / valid / wild)
rather than flat addresses, which gives exact bounds, use-after-free and
wild-dereference detection without address arithmetic ambiguity.

Invalid accesses raise `MemoryFaultError` and latch the heap: once a fault
occurred, every subsequent heap operation re-raises the same fault and
mutates nothing.

Content written by `havoc` is nondeterministic and materialized lazily: a
havocked byte draws its concrete value from `byte_source` only when first
read, so path counts stay proportional to the bytes a proof inspects.
"""

from __future__ import annotations

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
    def valid(alloc_id: int, offset: int = 0) -> "Pointer":
        return _new_ptr(Pointer, (_VALID, alloc_id, offset, ""))

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
    ZERO_SIZE_ACCESS = "ZeroSizeAccess"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    location: str
    detail: str


class MemoryFaultError(Exception):
    """Raised on an invalid memory access; carries the latched fault."""

    def __init__(self, fault: Fault):
        super().__init__(f"{fault.kind.value} at {fault.location}: {fault.detail}")
        self.fault = fault


class UsageError(Exception):
    """Framework misuse (e.g. is_mod before tracking_on), distinct from a
    memory fault found in the code under proof."""


@dataclass(frozen=True)
class HeapConfig:
    typed_access_check: bool = False
    uninit_read_is_fault: bool = True
    zero_alloc_returns_null: bool = True
    # Gates the ZeroSizeAccess fault kind: off by default, zero-length
    # accesses are no-ops even through invalid pointers.
    zero_size_access_is_fault: bool = False


# Byte initialization states.
_UNINIT, _INIT, _HAVOC = 0, 1, 2

# Effective-type tags (recorded per byte, checked only when enabled).
TAG_NONE, TAG_U8, TAG_U64, TAG_PTR = 0, 1, 2, 3

# `_FILL8[v]` is eight bytes of value `v`, for 8-byte state and tag stores.
_FILL8 = tuple(bytes((v,)) * 8 for v in range(4))
# `_BYTE[v]` is the 1-byte string of value `v`.
_BYTE = tuple(bytes((v,)) for v in range(256))


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
    its heap wholesale."""

    def __init__(self, config: HeapConfig | None = None,
                 byte_source: Callable[[], int] | None = None):
        self.config = config or HeapConfig()
        self.byte_source = byte_source
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
        if self.fault is None:
            self.fault = Fault(kind, loc, detail)
        raise MemoryFaultError(self.fault)

    def _check_latch(self):
        if self.fault is not None:
            raise MemoryFaultError(self.fault)

    # -- allocation -------------------------------------------------------

    def alloc(self, size: int) -> Pointer:
        self._check_latch()
        if size < 0:
            raise ValueError("negative allocation size")
        if size == 0 and self.config.zero_alloc_returns_null:
            return NULL_PTR
        a = Allocation(self._next_id, size)
        self._next_id += 1
        self.allocations[a.id] = a
        return Pointer.valid(a.id, 0)

    def free(self, p: Pointer, loc: str = "free"):
        self._check_latch()
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

    def _zero_len_gate(self, p: Pointer, loc: str) -> bool:
        """Returns True when a zero-length access should be treated as a
        no-op.  Under the strict config, zero-length access through an
        invalid pointer is itself a fault."""
        if self.config.zero_size_access_is_fault and not self._derefable(p, 0, strict=True):
            self._raise_fault(FaultKind.ZERO_SIZE_ACCESS, loc,
                              f"zero-length access through {p!r}")
        return True

    def _derefable(self, p: Pointer, length: int, strict: bool = False) -> bool:
        if length == 0 and not strict:
            return True
        if p.kind is not _VALID:
            return False
        a = self.allocations.get(p.alloc_id)
        if a is None or a.freed:
            return False
        return 0 <= p.offset and p.offset + max(length, 0) <= a.size

    def is_deref(self, p: Pointer, length: int) -> bool:
        """Pure query: would a read of `length` bytes raise a validity
        fault?  Never faults itself; uninitialized content is not
        considered."""
        return self._derefable(p, length)

    def is_init(self, p: Pointer, length: int) -> bool:
        """Pure query: region dereferenceable and every byte carries content
        (written or havocked)."""
        if not self._derefable(p, length):
            return False
        if length == 0:
            return True
        a = self.allocations[p.alloc_id]
        return a.state.count(_UNINIT, p.offset, p.offset + length) == 0

    # -- data movement ----------------------------------------------------

    def _materialize(self, a: Allocation, i: int, loc: str):
        if self.byte_source is None:
            raise UsageError(
                f"read of havocked byte at {loc} with no nondeterminism source attached")
        a.data[i] = self.byte_source() & 0xFF
        a.state[i] = _INIT  # epoch unchanged: content was written at havoc time

    def read(self, p: Pointer, length: int, loc: str = "read") -> bytes:
        if self.fault is not None:
            raise MemoryFaultError(self.fault)
        kind, alloc_id, lo, _ = p
        if kind is _VALID and length > 0:
            a = self.allocations.get(alloc_id)
            hi = lo + length
            if a is None or a.freed or lo < 0 or hi > a.size:
                a = self._checked_alloc(p, length, loc)
        elif length < 0:
            raise ValueError("negative read length")
        elif length == 0:
            self._zero_len_gate(p, loc)
            return b""
        else:
            a = self._checked_alloc(p, length, loc)
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
            elif s == _UNINIT and self.config.uninit_read_is_fault:
                self._raise_fault(FaultKind.UNINIT_READ, loc,
                                  f"byte {i} of allocation {a.id} read before any write")
        return bytes(a.data[lo:hi])

    # The generic `write` and `havoc` keep their per-byte loops: slice
    # stores make wide-write workloads run more passes per benchmark window,
    # and the benchmark's peak RSS grows with the pass count.

    def write(self, p: Pointer, data: Iterable[int] | bytes, loc: str = "write"):
        self._store(p, bytes(data), TAG_U8, loc)

    def _store(self, p: Pointer, buf: bytes, tag: int, loc: str):
        """Write `buf` at `p` in one write epoch, tagging every byte `tag`."""
        self._check_latch()
        if len(buf) == 0:
            self._zero_len_gate(p, loc)
            return
        a = self._checked_alloc(p, len(buf), loc)
        self.global_epoch += 1
        lo = p.offset
        for j, v in enumerate(buf):
            i = lo + j
            a.data[i] = v
            a.state[i] = _INIT
            a.epochs[i] = self.global_epoch
            a.tags[i] = tag

    def _store8(self, p: Pointer, buf: bytes, tag: int, loc: str):
        """`_store` of exactly 8 bytes, as slice assignments."""
        if self.fault is not None:
            raise MemoryFaultError(self.fault)
        kind, alloc_id, lo, _ = p
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        hi = lo + 8
        if a is None or a.freed or lo < 0 or hi > a.size:
            a = self._checked_alloc(p, 8, loc)
        self.global_epoch = epoch = self.global_epoch + 1
        a.data[lo:hi] = buf
        a.state[lo:hi] = _FILL8[_INIT]
        a.epochs[lo:hi] = (epoch,) * 8
        a.tags[lo:hi] = _FILL8[tag]

    def havoc(self, p: Pointer, length: int, loc: str = "havoc"):
        """Fill a region with nondeterministic content (drawn lazily on
        first read).  Counts as a write: epochs bump, tags clear."""
        self._check_latch()
        if length < 0:
            raise ValueError("negative havoc length")
        if length == 0:
            self._zero_len_gate(p, loc)
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
        self._check_latch()
        if self.tracking_epoch is None:
            raise UsageError("is_mod called before tracking_on")
        if length == 0:
            return False
        a = self._checked_alloc(p, length, loc)
        te = self.tracking_epoch
        return any(a.epochs[i] > te for i in range(p.offset, p.offset + length))

    # -- typed access -----------------------------------------------------

    def typed_read_u64(self, p: Pointer, loc: str = "typed_read_u64") -> int:
        self._check_latch()
        a = self._checked_alloc(p, 8, loc)
        if self.config.typed_access_check:
            for i in range(p.offset, p.offset + 8):
                if a.tags[i] not in (TAG_NONE, TAG_U64):
                    self._raise_fault(
                        FaultKind.TYPED_ACCESS_VIOLATION, loc,
                        f"8-byte typed read of byte {i} last written with a narrower type")
        return int.from_bytes(self.read(p, 8, loc), "little")

    def typed_write_u64(self, p: Pointer, value: int, loc: str = "typed_write_u64"):
        self._store8(p, (value & U64_MASK).to_bytes(8, "little"), TAG_U64, loc)

    # -- scalar / pointer field helpers ------------------------------------

    def read_u64(self, p: Pointer, loc: str = "read_u64") -> int:
        """Untyped little-endian 8-byte read (no effective-type check)."""
        # Eight written bytes of a live allocation decode in place; anything
        # else goes through `read`, which draws, faults or re-raises.
        kind, alloc_id, lo, _ = p
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and self.fault is None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            return int.from_bytes(a.data[lo:lo + 8], "little")
        return int.from_bytes(self.read(p, 8, loc), "little")

    def write_u64(self, p: Pointer, value: int, loc: str = "write_u64"):
        self._store8(p, (value & U64_MASK).to_bytes(8, "little"), TAG_U8, loc)

    def write_ptr(self, p: Pointer, value: Pointer, loc: str = "write_ptr"):
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
        self._store8(p, handle.to_bytes(8, "little"), TAG_PTR, loc)

    def read_ptr(self, p: Pointer, loc: str = "read_ptr") -> Pointer:
        """Decode 8 bytes as a pointer.

        All-zero bytes decode to null.  Other bytes decode to the pointer
        they hold only when all 8 carry the pointer tag of one `write_ptr`,
        that is, one write epoch.  Anything else, such as havocked,
        scribbled, byte-copied or partly overwritten storage, yields a wild
        pointer, so a later dereference faults instead of silently
        aliasing a live allocation."""
        kind, alloc_id, lo, _ = p
        a = self.allocations.get(alloc_id) if kind is _VALID else None
        if (a is not None and self.fault is None and not a.freed
                and 0 <= lo and lo + 8 <= a.size and a.state.count(_INIT, lo, lo + 8) == 8):
            raw = int.from_bytes(a.data[lo:lo + 8], "little")
        else:
            raw = int.from_bytes(self.read(p, 8, loc), "little")
            a = self.allocations[alloc_id]
        if raw == 0:
            return NULL_PTR
        if (a.tags.count(TAG_PTR, lo, lo + 8) == 8
                and a.epochs[lo:lo + 8].count(a.epochs[lo]) == 8):
            return self._ptr_by_handle[raw]
        return Pointer.wild(f"bits:{raw:#x}")

    # -- ordering ----------------------------------------------------------

    @staticmethod
    def ptr_cmp(p: Pointer, q: Pointer) -> int:
        """Total, run-consistent order: null < valid (by id, offset) < wild
        (by token)."""
        kp, kq = _cmp_key(p), _cmp_key(q)
        return -1 if kp < kq else (0 if kp == kq else 1)


def _cmp_key(p: Pointer):
    if p.kind is PtrKind.NULL:
        return (0, 0, 0, "")
    if p.kind is PtrKind.VALID:
        return (1, p.alloc_id, p.offset, "")
    return (2, 0, 0, p.token)


U64_MASK = (1 << 64) - 1
