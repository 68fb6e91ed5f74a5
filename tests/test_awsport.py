import itertools

import pytest

from casverify import speclib as sl
from casverify.awsport import (
    ALLOCATOR_TAG,
    ArrayList,
    AwsString,
    ByteBuf,
    HashEntry,
    HashIter,
    HashState,
    IterDecision,
    LIST_SIZE,
    Node,
    OP_ERROR,
    OP_SUCCESS,
    Record,
    add_u64_checked,
    array_list_get_at_ptr,
    array_list_is_valid,
    aws_string_is_valid,
    byte_buf_append_byte,
    byte_buf_is_valid,
    c_string_is_valid,
    hash_callback_string_eq,
    hash_iter_delete,
    hash_table_foreach,
    hash_table_is_valid,
    head_node,
    init_byte_buf,
    is_mem_zeroed,
    linked_list_empty,
    linked_list_front,
    linked_list_is_unchanged,
    linked_list_prev_is_valid,
    linked_list_save,
    mul_overflows,
    mul_u64_checked,
    nd_init_linked_list,
    pq_s_swap,
    pq_s_swap_postcondition,
    tail_node,
)
from casverify.engine import ExploreConfig, RunContext, U64_MAX, explore
from casverify.heap import NULL_PTR, FaultKind, MemoryFaultError


def exh(**kw):
    return ExploreConfig(**kw)


def fixed_and_buggy(helper, cfg=None):
    """A fixed and a buggy context for `helper`, in that order, for direct
    calls outside an exploration: draws take the first domain value."""
    cfg = cfg or ExploreConfig()
    return RunContext(cfg), RunContext(cfg, buggy=frozenset({helper}))


def make_buf(ctx, cap, length, buffer):
    bufp = ctx.heap.alloc(ByteBuf.SIZE)
    b = ByteBuf(ctx, bufp)
    b.capacity = cap
    b.len = length
    b.buffer = buffer
    b.allocator = ALLOCATOR_TAG
    return bufp


# -- record layouts ---------------------------------------------------------------

# Only the ported structs: a test module may define records of its own.
_RECORDS = pytest.mark.parametrize(
    "cls", [c for c in Record.__subclasses__() if c.__module__ == Record.__module__],
    ids=lambda c: c.__name__)


@_RECORDS
def test_record_fields_lie_inside_size_and_do_not_overlap(cls):
    ctx = RunContext(exh())
    rec = cls(ctx, ctx.heap.alloc(cls.SIZE))  # a field past SIZE faults
    fields = {n: f for n, f in vars(cls).items() if isinstance(f, property)}
    assert fields
    covered = set()
    for name, field in fields.items():
        value = ctx.heap.alloc(1) if field.__doc__.startswith("pointer") else U64_MAX
        ctx.heap.tracking_on()
        setattr(rec, name, value)
        assert getattr(rec, name) == value
        touched = {i for i in range(cls.SIZE) if ctx.heap.is_mod(rec.ptr.add(i), 1)}
        assert len(touched) == 8 and not touched & covered, name
        covered |= touched


@_RECORDS
def test_records_keep_no_instance_dict(cls):
    # A subclass without `__slots__ = ()` would give every instance a dict.
    ctx = RunContext(exh())
    assert not hasattr(cls(ctx, ctx.heap.alloc(cls.SIZE)), "__dict__")


# -- byte_buf -------------------------------------------------------------------

def test_byte_buf_is_valid_empty_state_both_variants():
    for ctx in fixed_and_buggy("byte_buf_is_valid"):
        assert byte_buf_is_valid(ctx, make_buf(ctx, 0, 0, NULL_PTR))


def test_byte_buf_is_valid_null_buffer_nonzero_capacity():
    # the seeded-bug crux: capacity 4, len 0, null buffer
    fixed, buggy = fixed_and_buggy("byte_buf_is_valid")
    assert byte_buf_is_valid(buggy, make_buf(buggy, 4, 0, NULL_PTR))
    assert not byte_buf_is_valid(fixed, make_buf(fixed, 4, 0, NULL_PTR))


def test_byte_buf_is_valid_null_record():
    for ctx in fixed_and_buggy("byte_buf_is_valid"):
        assert not byte_buf_is_valid(ctx, NULL_PTR)


def test_byte_buf_is_valid_normal_state(ctx):
    store = ctx.heap.alloc(4)
    bufp = make_buf(ctx, 4, 2, store)
    assert byte_buf_is_valid(ctx, bufp)
    bad = make_buf(ctx, 4, 5, store)
    assert not byte_buf_is_valid(ctx, bad)  # len > capacity


def test_buggy_invariant_weaker_than_fixed():
    # every fixed-valid state is buggy-valid
    fixed, buggy = fixed_and_buggy("byte_buf_is_valid")
    for cap, length in itertools.product(range(3), range(3)):
        for null_buffer in (True, False):
            valid = []
            for ctx in (fixed, buggy):
                buffer = NULL_PTR if null_buffer else ctx.heap.alloc(max(cap, 1))
                valid.append(byte_buf_is_valid(ctx, make_buf(ctx, cap, length, buffer)))
            if valid[0]:
                assert valid[1]


def test_init_byte_buf_assume_style_enumerates_exact_pairs():
    pairs = set()

    def proof(ctx):
        bufp = ctx.heap.alloc(ByteBuf.SIZE)
        init_byte_buf(ctx, bufp)
        b = ByteBuf(ctx, bufp)
        pairs.add((b.len, b.capacity))

    report = explore(proof, exh(size_bound=2, malloc_can_fail=False))
    assert report.verdict.is_pass
    assert pairs == {(l, c) for l in range(3) for c in range(3) if l <= c}
    assert len(pairs) == 6


def test_append_preserves_fixed_invariant():
    def proof(ctx):
        bufp = ctx.heap.alloc(ByteBuf.SIZE)
        init_byte_buf(ctx, bufp)
        ctx.assume(byte_buf_is_valid(ctx, bufp))
        byte_buf_append_byte(ctx, bufp, 0x41)
        ctx.sassert("post", byte_buf_is_valid(ctx, bufp))

    assert explore(proof, exh(size_bound=2)).verdict.is_pass


# -- array_list ------------------------------------------------------------------

def make_list(ctx, item_size, length, data=None):
    listp = ctx.heap.alloc(ArrayList.SIZE)
    lst = ArrayList(ctx, listp)
    lst.item_size = item_size
    lst.length = length
    lst.current_size = item_size * length
    if data is None:
        data = ctx.heap.alloc(max(item_size * length, 1))
    lst.data = data
    lst.allocator = ALLOCATOR_TAG
    return listp


def test_get_at_ptr_success_and_boundary(ctx):
    listp = make_list(ctx, item_size=4, length=2)
    out = ctx.heap.alloc(8)
    assert array_list_get_at_ptr(ctx, listp, out, 1) == OP_SUCCESS
    lst = ArrayList(ctx, listp)
    assert ctx.heap.read_ptr(out) == lst.data.add(4)
    assert array_list_get_at_ptr(ctx, listp, out, 2) == OP_ERROR
    assert ctx.heap.read_ptr(out) == lst.data.add(4)  # out untouched on error


def test_array_list_is_valid_requires_item_size(ctx):
    listp = make_list(ctx, item_size=1, length=2)
    assert array_list_is_valid(ctx, listp)
    ArrayList(ctx, listp).item_size = 0
    assert not array_list_is_valid(ctx, listp)


# -- priority queue swap ------------------------------------------------------------

def fill_container(ctx, item_sz, length):
    data = ctx.heap.alloc(item_sz * length)
    pattern = bytes((7 * i + 1) % 256 for i in range(item_sz * length))
    ctx.heap.write(data, pattern)
    listp = make_list(ctx, item_sz, length, data)
    return listp, data, pattern


def test_pq_swap_self_swap_leaves_bytes(ctx):
    listp, data, pattern = fill_container(ctx, 2, 2)
    pq_s_swap(ctx, listp, 0, 0)
    assert ctx.heap.read(data, 4) == pattern


def test_pq_swap_is_involution(ctx):
    listp, data, pattern = fill_container(ctx, 3, 3)
    pq_s_swap(ctx, listp, 0, 2)
    assert ctx.heap.read(data, 9) != pattern
    pq_s_swap(ctx, listp, 0, 2)
    assert ctx.heap.read(data, 9) == pattern


def test_pq_swap_frame_property_epoch_oracle():
    # bytes outside items a and b are unmodified, for all small shapes
    for item_sz, length in itertools.product((1, 2, 4), (1, 2, 3)):
        for a, b in itertools.product(range(length), repeat=2):
            ctx = RunContext(exh())
            listp, data, pattern = fill_container(ctx, item_sz, length)
            ctx.heap.tracking_on()
            pq_s_swap(ctx, listp, a, b)
            for c in range(length):
                if c in (a, b):
                    continue
                assert not ctx.heap.is_mod(data.add(c * item_sz), item_sz)
            # swapped content really moved
            after = ctx.heap.read(data, item_sz * length)
            assert after[a * item_sz:(a + 1) * item_sz] == \
                pattern[b * item_sz:(b + 1) * item_sz]


def test_pq_postcondition_buggy_unsatisfiable():
    _, buggy = fixed_and_buggy("pq_swap_postcondition")
    for ob_i, a, b, sz in itertools.product(range(12), range(3), range(3), (1, 2, 4)):
        assert not pq_s_swap_postcondition(buggy, ob_i, a, b, sz)


def test_pq_postcondition_fixed_examples(ctx):
    assert pq_s_swap_postcondition(ctx, 9, 0, 1, 4)
    assert not pq_s_swap_postcondition(ctx, 2, 0, 1, 4)  # inside item a
    assert not pq_s_swap_postcondition(ctx, 5, 0, 1, 4)  # inside item b


# -- checked arithmetic ----------------------------------------------------------------

def test_mul_checked_examples():
    assert mul_u64_checked(0, U64_MAX) == (True, 0)
    assert mul_u64_checked(U64_MAX, 1) == (True, U64_MAX)
    ok, _ = mul_u64_checked(2**33, 2**33)
    assert not ok
    # the seeded-bug counterexample: product overflows, sum does not
    assert add_u64_checked(2**33, 2**33)[0]
    assert mul_overflows(2**33, 2**33)


def test_checked_arithmetic_matches_exact_oracle():
    values = sl.U64_BOUNDARY.values
    assert len(values) == 6
    for a, b in itertools.product(values, repeat=2):
        ok, result = mul_u64_checked(a, b)
        assert ok == (a * b <= U64_MAX)
        assert result == (a * b if ok else None)
        assert mul_overflows(a, b) == (a * b > U64_MAX)
        ok, result = add_u64_checked(a, b)
        assert ok == (a + b <= U64_MAX)
        assert result == (a + b if ok else None)


# -- hash table --------------------------------------------------------------------------

def make_table(ctx, hashes, entry_count):
    st = HashState(ctx, ctx.heap.alloc(HashState.SIZE))
    st.entry_count = entry_count
    st.num_slots = len(hashes)
    st.slots = ctx.heap.alloc(len(hashes) * HashEntry.SIZE)
    for i, code in enumerate(hashes):
        entry = HashEntry(ctx, st.slots.add(i * HashEntry.SIZE))
        entry.hash_code = code
        entry.key = NULL_PTR
        entry.value = NULL_PTR
    return st.ptr


def test_hash_iter_delete_fixed_vs_buggy():
    fixed, buggy = fixed_and_buggy("hash_iter_delete")
    statep = make_table(fixed, [1], entry_count=1)
    assert hash_table_is_valid(fixed, statep)
    hash_iter_delete(fixed, HashIter(statep, 0))
    st = HashState(fixed, statep)
    assert st.entry_count == 0
    assert hash_table_is_valid(fixed, statep)

    statep = make_table(buggy, [1], entry_count=1)
    hash_iter_delete(buggy, HashIter(statep, 0))
    st = HashState(buggy, statep)
    assert st.entry_count == 1
    assert not hash_table_is_valid(buggy, statep)


def test_hash_iter_delete_underflow_wraps(ctx):
    # decrementing delete on a table whose count was already inconsistent:
    # more nonzero-hash entries than entry_count records
    statep = make_table(ctx, [1], entry_count=0)
    assert not hash_table_is_valid(ctx, statep)
    hash_iter_delete(ctx, HashIter(statep, 0))
    st = HashState(ctx, statep)
    assert st.entry_count == U64_MAX  # wrapped below zero
    assert not hash_table_is_valid(ctx, statep)


def test_foreach_all_continue_leaves_table(ctx):
    statep = make_table(ctx, [1, 0, 1], entry_count=2)
    hash_table_foreach(ctx, statep, lambda c, it: IterDecision.CONTINUE)
    st = HashState(ctx, statep)
    assert st.entry_count == 2
    assert hash_table_is_valid(ctx, statep)


def test_foreach_delete_all_enumerated_two_slot_tables():
    for hashes in itertools.product((0, 1), repeat=2):
        fixed, buggy = fixed_and_buggy("hash_iter_delete")
        for ctx, should_hold in ((fixed, True), (buggy, sum(hashes) == 0)):
            statep = make_table(ctx, list(hashes), entry_count=sum(hashes))
            hash_table_foreach(ctx, statep, lambda c, it: IterDecision.DELETE)
            if ctx is fixed:
                assert HashState(ctx, statep).entry_count == 0
            assert hash_table_is_valid(ctx, statep) == should_hold


# -- strings -----------------------------------------------------------------------------

def make_string(ctx, content: bytes):
    s = AwsString(ctx, ctx.heap.alloc(AwsString.SIZE))
    s.len = len(content)
    s.bytes = ctx.heap.alloc(len(content) + 1)
    ctx.heap.write(s.bytes, content + b"\x00")
    return s.ptr


def test_string_eq_equal_and_unequal(ctx):
    s1 = make_string(ctx, b"ab")
    s2 = make_string(ctx, b"ab")
    s3 = make_string(ctx, b"ax")
    s4 = make_string(ctx, b"abc")
    assert hash_callback_string_eq(ctx, s1, s2)
    assert not hash_callback_string_eq(ctx, s1, s3)
    assert not hash_callback_string_eq(ctx, s1, s4)


def test_string_eq_faults_when_len_exceeds_storage(ctx):
    s = AwsString(ctx, ctx.heap.alloc(AwsString.SIZE))
    s.len = 3  # claims 3 bytes, storage holds 1
    s.bytes = ctx.heap.alloc(1)
    ctx.heap.write(s.bytes, b"a")
    sp = s.ptr
    other = make_string(ctx, b"abc")  # matching first byte reaches the overrun
    assert c_string_is_valid(ctx, sp)          # the weak invariant accepts it
    assert not aws_string_is_valid(ctx, sp)    # the strong one does not
    with pytest.raises(MemoryFaultError) as e:
        hash_callback_string_eq(ctx, sp, other)
    assert e.value.fault.kind is FaultKind.OUT_OF_BOUNDS


def test_strong_invariant_guarantees_no_fault():
    # under the strong precondition no exploration path can fault
    from casverify.awsport import nd_init_aws_string

    def proof(ctx):
        s1 = nd_init_aws_string(ctx)
        s2 = nd_init_aws_string(ctx)
        ctx.assume(aws_string_is_valid(ctx, s1) and aws_string_is_valid(ctx, s2))
        hash_callback_string_eq(ctx, s1, s2)

    assert explore(proof, exh(size_bound=2)).verdict.is_pass


# -- zeroed-memory check ---------------------------------------------------------------

def zeroed_buffer(ctx, size):
    p = ctx.heap.alloc(size)
    ctx.heap.write(p, bytes(size))
    return p


def test_is_mem_zeroed_fixed(ctx):
    p = zeroed_buffer(ctx, 16)
    assert is_mem_zeroed(ctx, p, 16)
    ctx.heap.write(p.add(9), b"\x01")
    assert not is_mem_zeroed(ctx, p, 16)


def test_is_mem_zeroed_handles_tail():
    fixed, buggy = fixed_and_buggy("is_mem_zeroed", exh(typed_access_check=False))
    assert is_mem_zeroed(fixed, zeroed_buffer(fixed, 11), 11)
    p = zeroed_buffer(buggy, 11)
    assert is_mem_zeroed(buggy, p, 11)
    buggy.heap.write(p.add(10), b"\x02")
    assert not is_mem_zeroed(buggy, p, 11)


def test_is_mem_zeroed_buggy_trips_typed_check():
    fixed, buggy = fixed_and_buggy("is_mem_zeroed")  # typed check on by default
    assert is_mem_zeroed(fixed, zeroed_buffer(fixed, 16), 16)  # untyped reads stay fine
    p = zeroed_buffer(buggy, 16)
    with pytest.raises(MemoryFaultError) as e:
        is_mem_zeroed(buggy, p, 16)
    assert e.value.fault.kind is FaultKind.TYPED_ACCESS_VIOLATION


# -- linked list stubs --------------------------------------------------------------------

def build_stub_states():
    states = []

    def proof(ctx):
        listp = ctx.heap.alloc(LIST_SIZE)
        first = nd_init_linked_list(ctx, listp)
        states.append((ctx, listp, first))

    explore(proof, exh())
    return states


def test_stub_from_head_shapes():
    states = build_stub_states()
    empties = [s for s in states if linked_list_empty(s[0], s[1])]
    concrete = [s for s in states if not linked_list_empty(s[0], s[1])]
    # one empty shape; four concrete ones, two null-or-wild links each
    assert (len(empties), len(concrete)) == (1, 4)
    for ctx, listp, first in empties:
        assert first == tail_node(listp)
    nexts = set()
    for ctx, listp, first in concrete:
        assert ctx.heap.is_deref(first, Node.SIZE)
        assert Node(ctx, first).prev == head_node(listp)
        frontier = Node(ctx, first).next
        nexts.add("null" if frontier.is_null else
                  ("wild" if frontier.is_wild else "other"))
    assert nexts == {"null", "wild"}


def test_walking_past_frontier_faults_on_wild_branch():
    def proof(ctx):
        listp = ctx.heap.alloc(LIST_SIZE)
        nd_init_linked_list(ctx, listp)
        ctx.assume(not linked_list_empty(ctx, listp))
        front = linked_list_front(ctx, listp)
        ctx.heap.read(Node(ctx, front).next, 1)  # touches the frontier

    report = explore(proof, exh())
    assert report.verdict.is_fail
    assert report.verdict.fault.kind in (FaultKind.WILD_DEREF, FaultKind.NULL_DEREF)


def _stub_with_saved(ctx):
    listp = ctx.heap.alloc(LIST_SIZE)
    head, tail = Node(ctx, head_node(listp)), Node(ctx, tail_node(listp))
    n = Node(ctx, ctx.heap.alloc(Node.SIZE))
    head.prev = NULL_PTR
    head.next = n.ptr
    n.prev = head.ptr
    n.next = NULL_PTR
    tail.prev = NULL_PTR
    tail.next = NULL_PTR
    saved = linked_list_save(ctx, head.ptr)
    return listp, n, saved


def test_save_then_no_mutation_is_unchanged(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    linked_list_front(ctx, listp)
    assert linked_list_is_unchanged(ctx, saved)


def test_rewrite_same_value_pins_epoch_semantics(ctx):
    # structural snapshot says nothing changed; epoch semantics disagrees
    listp, n, saved = _stub_with_saved(ctx)
    old = n.next
    n.next = old
    assert n.next == old                          # value-comparison oracle
    assert not linked_list_is_unchanged(ctx, saved)


def test_malicious_pop_detected(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    Node(ctx, head_node(listp)).next = n.next  # pops front
    assert not linked_list_is_unchanged(ctx, saved)


def test_unrelated_write_is_fine(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    other = ctx.heap.alloc(8)
    ctx.heap.write(other, b"12345678")
    assert linked_list_is_unchanged(ctx, saved)


def test_save_on_empty_shape_records_head_and_tail(ctx):
    listp = ctx.heap.alloc(LIST_SIZE)
    head, tail = Node(ctx, head_node(listp)), Node(ctx, tail_node(listp))
    head.prev = NULL_PTR
    head.next = tail.ptr
    tail.prev = head.ptr
    tail.next = NULL_PTR
    saved = linked_list_save(ctx, head.ptr)
    assert [rec.ptr for rec in saved] == [head.ptr, tail.ptr]


def test_node_prev_is_valid(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    assert linked_list_prev_is_valid(ctx, n.ptr)
    Node(ctx, head_node(listp)).next = NULL_PTR
    assert not linked_list_prev_is_valid(ctx, n.ptr)
