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
    NODE_SIZE,
    OP_ERROR,
    OP_SUCCESS,
    Record,
    StubShape,
    add_overflow_predicate,
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
    linked_list_is_unchanged_to_tail,
    linked_list_node_prev_is_valid,
    linked_list_save_to_tail,
    mul_overflows,
    mul_u64_checked,
    nd_init_linked_list,
    node_next,
    node_prev,
    pq_s_swap,
    pq_s_swap_postcondition,
    set_node_next,
    set_node_prev,
    tail_node,
)
from casverify.engine import ExploreConfig, U64_MAX, explore, standalone_context
from casverify.heap import NULL_PTR, FaultKind, MemoryFaultError
from casverify.speclib import BUGGY, FIXED


def exh(**kw):
    return ExploreConfig(**kw)


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
@pytest.mark.parametrize("cls", [c for c in Record.__subclasses__()
                                 if c.__module__ == Record.__module__],
                         ids=lambda c: c.__name__)
def test_record_fields_lie_inside_size_and_do_not_overlap(cls):
    ctx = standalone_context()
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


# -- byte_buf -------------------------------------------------------------------

def test_byte_buf_is_valid_empty_state_both_variants(ctx):
    bufp = make_buf(ctx, 0, 0, NULL_PTR)
    assert byte_buf_is_valid(ctx, bufp, FIXED)
    assert byte_buf_is_valid(ctx, bufp, BUGGY)


def test_byte_buf_is_valid_null_buffer_nonzero_capacity(ctx):
    # the seeded-bug crux: capacity 4, len 0, null buffer
    bufp = make_buf(ctx, 4, 0, NULL_PTR)
    assert byte_buf_is_valid(ctx, bufp, BUGGY)
    assert not byte_buf_is_valid(ctx, bufp, FIXED)


def test_byte_buf_is_valid_null_record(ctx):
    assert not byte_buf_is_valid(ctx, NULL_PTR, FIXED)
    assert not byte_buf_is_valid(ctx, NULL_PTR, BUGGY)


def test_byte_buf_is_valid_normal_state(ctx):
    store = ctx.heap.alloc(4)
    bufp = make_buf(ctx, 4, 2, store)
    assert byte_buf_is_valid(ctx, bufp, FIXED)
    bad = make_buf(ctx, 4, 5, store)
    assert not byte_buf_is_valid(ctx, bad, FIXED)  # len > capacity


def test_buggy_invariant_weaker_than_fixed(ctx):
    # every fixed-valid state is buggy-valid
    for cap, length in itertools.product(range(3), range(3)):
        for null_buffer in (True, False):
            buffer = NULL_PTR if null_buffer else ctx.heap.alloc(max(cap, 1))
            bufp = make_buf(ctx, cap, length, buffer)
            if byte_buf_is_valid(ctx, bufp, FIXED):
                assert byte_buf_is_valid(ctx, bufp, BUGGY)


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
        ctx.assume(byte_buf_is_valid(ctx, bufp, FIXED))
        byte_buf_append_byte(ctx, bufp, 0x41)
        ctx.sassert("post", byte_buf_is_valid(ctx, bufp, FIXED))

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
            ctx = standalone_context()
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
    for ob_i, a, b, sz in itertools.product(range(12), range(3), range(3), (1, 2, 4)):
        assert not pq_s_swap_postcondition(ob_i, a, b, sz, BUGGY)


def test_pq_postcondition_fixed_examples():
    assert pq_s_swap_postcondition(9, 0, 1, 4, FIXED)
    assert not pq_s_swap_postcondition(2, 0, 1, 4, FIXED)  # inside item a
    assert not pq_s_swap_postcondition(5, 0, 1, 4, FIXED)  # inside item b


# -- checked arithmetic ----------------------------------------------------------------

def test_mul_checked_examples():
    assert mul_u64_checked(0, U64_MAX) == (True, 0)
    assert mul_u64_checked(U64_MAX, 1) == (True, U64_MAX)
    ok, _ = mul_u64_checked(2**33, 2**33)
    assert not ok
    # the seeded-bug counterexample: product overflows, sum does not
    assert not add_overflow_predicate(2**33, 2**33)
    assert mul_overflows(2**33, 2**33)


def test_checked_arithmetic_matches_exact_oracle():
    values = ExploreConfig(size_bound=4).u64_domain_values()
    assert len(values) == 6
    for a, b in itertools.product(values, repeat=2):
        ok, result = mul_u64_checked(a, b)
        assert ok == (a * b <= U64_MAX)
        assert result == (a * b if ok else None)
        assert mul_overflows(a, b) == (a * b > U64_MAX)
        ok, result = add_u64_checked(a, b)
        assert ok == (a + b <= U64_MAX)
        assert result == (a + b if ok else None)
        assert add_overflow_predicate(a, b) == (a + b > U64_MAX)


# -- hash table --------------------------------------------------------------------------

def make_table(ctx, hashes, entry_count):
    st = HashState(ctx, ctx.heap.alloc(HashState.SIZE))
    st.entry_count = entry_count
    st.num_slots = len(hashes)
    st.slots = ctx.heap.alloc(len(hashes) * HashEntry.SIZE)
    for i, code in enumerate(hashes):
        entry = HashEntry(ctx, st.entry(i))
        entry.hash_code = code
        entry.key = NULL_PTR
        entry.value = NULL_PTR
    return st.ptr


def test_hash_iter_delete_fixed_vs_buggy(ctx):
    statep = make_table(ctx, [1], entry_count=1)
    assert hash_table_is_valid(ctx, statep)
    hash_iter_delete(ctx, HashIter(statep, 0), variant=FIXED)
    st = HashState(ctx, statep)
    assert st.entry_count == 0
    assert hash_table_is_valid(ctx, statep)

    statep = make_table(ctx, [1], entry_count=1)
    hash_iter_delete(ctx, HashIter(statep, 0), variant=BUGGY)
    st = HashState(ctx, statep)
    assert st.entry_count == 1
    assert not hash_table_is_valid(ctx, statep)


def test_hash_iter_delete_underflow_wraps(ctx):
    # decrementing delete on a table whose count was already inconsistent:
    # more nonzero-hash entries than entry_count records
    statep = make_table(ctx, [1], entry_count=0)
    assert not hash_table_is_valid(ctx, statep)
    hash_iter_delete(ctx, HashIter(statep, 0), variant=FIXED)
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
        for variant, should_hold in ((FIXED, True), (BUGGY, sum(hashes) == 0)):
            ctx = standalone_context()
            statep = make_table(ctx, list(hashes), entry_count=sum(hashes))
            hash_table_foreach(ctx, statep,
                               lambda c, it: IterDecision.DELETE, variant=variant)
            if variant is FIXED:
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

def test_is_mem_zeroed_fixed(ctx):
    p = ctx.heap.alloc(16)
    ctx.heap.write(p, bytes(16))
    assert is_mem_zeroed(ctx, p, 16, FIXED)
    ctx.heap.write(p.add(9), b"\x01")
    assert not is_mem_zeroed(ctx, p, 16, FIXED)


def test_is_mem_zeroed_handles_tail(ctx):
    p = ctx.heap.alloc(11)
    ctx.heap.write(p, bytes(11))
    assert is_mem_zeroed(ctx, p, 11, FIXED)
    assert is_mem_zeroed(ctx, p, 11, BUGGY)  # typed check off in this ctx
    ctx.heap.write(p.add(10), b"\x02")
    assert not is_mem_zeroed(ctx, p, 11, BUGGY)


def test_is_mem_zeroed_buggy_trips_typed_check():
    cfg = ExploreConfig().with_overrides(typed_access_check=True)
    ctx = standalone_context(cfg)
    p = ctx.heap.alloc(16)
    ctx.heap.write(p, bytes(16))
    assert is_mem_zeroed(ctx, p, 16, FIXED)  # untyped reads stay fine
    with pytest.raises(MemoryFaultError) as e:
        is_mem_zeroed(ctx, p, 16, BUGGY)
    assert e.value.fault.kind is FaultKind.TYPED_ACCESS_VIOLATION


# -- linked list stubs --------------------------------------------------------------------

def build_stub_states(shape):
    states = []

    def proof(ctx):
        listp = ctx.heap.alloc(LIST_SIZE)
        first, token = nd_init_linked_list(ctx, listp, shape)
        states.append((ctx, listp, first, token))

    explore(proof, exh())
    return states


def test_stub_from_head_shapes():
    states = build_stub_states(StubShape.FROM_HEAD)
    empties = [s for s in states if s[3].empty]
    concrete = [s for s in states if not s[3].empty]
    assert empties and concrete
    for ctx, listp, first, _ in empties:
        assert linked_list_empty(ctx, listp)
        assert first == tail_node(listp)
    nexts = set()
    for ctx, listp, first, _ in concrete:
        assert not linked_list_empty(ctx, listp)
        assert ctx.heap.is_deref(first, NODE_SIZE)
        assert node_prev(ctx, first) == head_node(listp)
        frontier = node_next(ctx, first)
        nexts.add("null" if frontier.is_null else
                  ("wild" if frontier.is_wild else "other"))
    assert nexts == {"null", "wild"}


def test_stub_from_tail_and_both_ends():
    for ctx, listp, first, token in build_stub_states(StubShape.FROM_TAIL):
        if token.empty:
            continue
        assert ctx.heap.is_deref(first, NODE_SIZE)
        assert node_next(ctx, first) == tail_node(listp)
        head_frontier = node_next(ctx, head_node(listp))
        assert head_frontier.is_null or head_frontier.is_wild
    for ctx, listp, first, token in build_stub_states(StubShape.BOTH_ENDS):
        if token.empty:
            continue
        assert node_prev(ctx, first) == head_node(listp)
        last = node_prev(ctx, tail_node(listp))
        assert ctx.heap.is_deref(last, NODE_SIZE)
        assert node_next(ctx, last) == tail_node(listp)


def test_walking_past_frontier_faults_on_wild_branch():
    def proof(ctx):
        listp = ctx.heap.alloc(LIST_SIZE)
        first, token = nd_init_linked_list(ctx, listp, StubShape.FROM_HEAD)
        ctx.assume(not linked_list_empty(ctx, listp))
        front = linked_list_front(ctx, listp)
        ctx.heap.read(node_next(ctx, front), 1)  # touches the frontier

    report = explore(proof, exh())
    assert report.verdict.is_fail
    assert report.verdict.fault.kind in (FaultKind.WILD_DEREF, FaultKind.NULL_DEREF)


def _stub_with_saved(ctx):
    listp = ctx.heap.alloc(LIST_SIZE)
    head, tail = head_node(listp), tail_node(listp)
    n = ctx.heap.alloc(NODE_SIZE)
    set_node_prev(ctx, head, NULL_PTR)
    set_node_next(ctx, head, n)
    set_node_prev(ctx, n, head)
    set_node_next(ctx, n, NULL_PTR)
    set_node_prev(ctx, tail, NULL_PTR)
    set_node_next(ctx, tail, NULL_PTR)
    from casverify.awsport import SizeToken
    token = SizeToken(StubShape.FROM_HEAD, False)
    saved = linked_list_save_to_tail(ctx, listp, token, head)
    return listp, n, saved


def test_save_then_no_mutation_is_unchanged(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    linked_list_front(ctx, listp)
    assert linked_list_is_unchanged_to_tail(ctx, listp, saved)


def test_rewrite_same_value_pins_epoch_semantics(ctx):
    # structural snapshot says nothing changed; epoch semantics disagrees
    listp, n, saved = _stub_with_saved(ctx)
    old = node_next(ctx, n)
    set_node_next(ctx, n, old)
    assert node_next(ctx, n) == old               # value-comparison oracle
    assert not linked_list_is_unchanged_to_tail(ctx, listp, saved)


def test_malicious_pop_detected(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    set_node_next(ctx, head_node(listp), node_next(ctx, n))  # pops front
    assert not linked_list_is_unchanged_to_tail(ctx, listp, saved)


def test_unrelated_write_is_fine(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    other = ctx.heap.alloc(8)
    ctx.heap.write(other, b"12345678")
    assert linked_list_is_unchanged_to_tail(ctx, listp, saved)


def test_save_on_empty_shape_records_head_and_tail(ctx):
    listp = ctx.heap.alloc(LIST_SIZE)
    head, tail = head_node(listp), tail_node(listp)
    set_node_prev(ctx, head, NULL_PTR)
    set_node_next(ctx, head, tail)
    set_node_prev(ctx, tail, head)
    set_node_next(ctx, tail, NULL_PTR)
    from casverify.awsport import SizeToken
    saved = linked_list_save_to_tail(
        ctx, listp, SizeToken(StubShape.FROM_HEAD, True), head)
    assert [rec.ptr for rec in saved.nodes] == [head, tail]


def test_node_prev_is_valid(ctx):
    listp, n, saved = _stub_with_saved(ctx)
    assert linked_list_node_prev_is_valid(ctx, n)
    set_node_next(ctx, head_node(listp), NULL_PTR)
    assert not linked_list_node_prev_is_valid(ctx, n)
