"""Named unit proofs, fixed and seeded-buggy, with expected verdicts.

Each entry is a runnable proof body plus a set of cases: a helper-variant
assignment, config overrides, and the verdict the case must produce.  The
expected verdicts are code, not documentation; running the corpus against
them is the framework's own regression suite.

Seeded bugs (the detection channel of each is vacuity if its buggy case
expects pass_but_vacuous, and a counterexample otherwise):

  bug1  byte_buf invariant requires writability of len instead of capacity;
        a failing allocation then admits a null buffer with capacity > 0 and
        the next append faults.  Masked entirely when malloc never fails.
  bug2  assert_bytes_match lacks the zero-length escape, so an empty
        (non-null) string never matches an empty (null) buffer.
  bug3  a checked-multiply proof asserts the addition-overflow predicate on
        the error branch; true by luck for inputs restricted to {0, max},
        falsified once the restriction is lifted.
  bug4  a swap postcondition guard uses `and` where `or` was meant, is
        unsatisfiable, and the guarded assert can never run: found by
        vacuity, not by counterexample.
  bug5  string-equality proof assumes only the weak C-string invariant, so
        the recorded length can exceed the actual storage and the callback
        faults.  (Detected here as a memory fault.)
  bug6  the hash_iter_delete stub forgets to decrement entry_count, so a
        delete leaves the table violating its representation invariant.
  bug7  zeroed-memory check reads byte-written storage through a u64-typed
        access, a typed-access violation under the default effective-type
        checking.  Invisible when the check is off (case buggy_nocheck).

Bugs 1, 4 and 6 are also the three headline specification-bug shapes
(invariant-too-weak, dead postcondition guard, stale stub).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import speclib as sl
from .awsport import (
    ALLOCATOR_TAG,
    ArrayList,
    ByteBuf,
    LIST_SIZE,
    Node,
    OP_SUCCESS,
    array_list_get_at_ptr,
    array_list_is_valid,
    byte_buf_append_byte,
    byte_buf_is_valid,
    hash_callback_string_eq,
    hash_table_foreach,
    hash_table_is_valid,
    head_node,
    init_array_list,
    init_byte_buf,
    is_mem_zeroed,
    linked_list_empty,
    linked_list_front,
    linked_list_is_unchanged,
    linked_list_prev_is_valid,
    linked_list_save,
    nd_init_aws_string,
    nd_init_aws_string_weak,
    nd_init_hash_table,
    nd_init_linked_list,
    tail_node,
    AwsString,
    IterDecision,
    add_u64_checked,
    aws_string_is_valid,
    c_string_is_valid,
    mul_overflows,
    mul_u64_checked,
    pq_s_swap,
    pq_s_swap_postcondition,
)
from .engine import (
    AssertionSite,
    ChoiceTape,
    ExploreConfig,
    RunContext,
    RunReport,
    U64_MAX,
    explore,
)
from .heap import NULL_PTR, FaultKind
from .vacuity import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_PASS_BUT_VACUOUS,
    VacuityReport,
    analyze,
    overall_status,
)

@dataclass(frozen=True)
class Expected:
    """Verdict a case must produce.  A run with a vacuous group has status
    pass_but_vacuous, so a plain pass also means zero vacuous groups;
    failures name either a fault kind or an assertion site."""

    status: str
    fault_kind: FaultKind | None = None
    failed_site: str | None = None
    vacuous_groups: frozenset[str] = frozenset()

    def check(self, actual: str, report: RunReport,
              vac: VacuityReport) -> tuple[bool, str]:
        """Compare a run's status `actual` (from `overall_status`), verdict
        and vacuity with this expectation."""
        if actual != self.status:
            return False, f"expected {self.status}, got {actual} ({report.verdict.message})"
        if self.status == STATUS_FAIL:
            fk = report.verdict.fault.kind if report.verdict.fault else None
            if self.fault_kind is not None and fk != self.fault_kind:
                return False, f"expected fault {self.fault_kind.value}, got {fk}"
            if self.failed_site is not None and report.verdict.failed_site != self.failed_site:
                return False, (f"expected failed site {self.failed_site}, "
                               f"got {report.verdict.failed_site!r}")
        if self.status == STATUS_PASS_BUT_VACUOUS \
                and vac.vacuous_groups != self.vacuous_groups:
            return False, (f"expected vacuous groups {sorted(self.vacuous_groups)}, "
                           f"got {sorted(vac.vacuous_groups)}")
        return True, ""


@dataclass(frozen=True)
class ProofCase:
    label: str
    expected: Expected | None  # None: free run, no expectation to compare
    buggy: frozenset[str] = frozenset()
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProofEntry:
    name: str
    category: str
    description: str
    body: callable
    sites: tuple[AssertionSite, ...]
    cases: tuple[ProofCase, ...]
    bug_id: str | None = None             # set: the "buggy" case must expose it
    bug_alias: str | None = None

    def case(self, label: str) -> ProofCase:
        for c in self.cases:
            if c.label == label:
                return c
        raise KeyError(f"{self.name} has no case {label!r}")

    @property
    def buggy_names(self) -> frozenset[str]:
        """Canonical buggy-helper assignment: the one the "buggy" case uses."""
        if self.bug_id is None:
            return frozenset()
        return self.case("buggy").buggy

    def free_case(self, variant: str) -> ProofCase:
        """Unchecked case for CLI free runs: fixed or the entry's buggy set."""
        buggy = self.buggy_names if variant == "buggy" else frozenset()
        return ProofCase(variant, None, buggy=buggy)

    def config_for(self, base: ExploreConfig, case: ProofCase) -> ExploreConfig:
        return replace(base, **case.overrides) if case.overrides else base


# -- assertion sites ----------------------------------------------------------

S_GET_BOUNDS = AssertionSite("get_at_ptr:success_bounds",
                             description="success implies data set and index in range")
S_GET_POST = AssertionSite("get_at_ptr:post_valid",
                           description="list invariant preserved")
S_BB_POST = AssertionSite("byte_buf:post_valid",
                          description="byte_buf invariant preserved by append")
S_MUL_EXACT = AssertionSite("mul_checked:exact_product",
                            description="success branch returns the exact product")
S_MUL_OVF = AssertionSite("mul_checked:overflow_classified",
                          description="error branch really overflowed")
S_PQ_EQUIV = AssertionSite("pq_swap:untouched_byte_equal",
                           group_key="pq_swap:equivalence",
                           description="byte outside both swapped items is unchanged")
S_PQ_POST = AssertionSite("pq_swap:post_valid",
                          description="container invariant preserved")
S_HCS_LEN = AssertionSite("hash_string_eq:len_eq",
                          description="equal strings report equal lengths")
S_HT_POST = AssertionSite("hash_foreach:invariant_post",
                          description="hash table invariant preserved by foreach")
S_ZERO_RESULT = AssertionSite("is_mem_zeroed:result",
                              description="zero check matches the written content")
S_LLF_EQ = AssertionSite("list_front:returns_head_next",
                         description="front is the node after head")
S_LLF_PREV = AssertionSite("list_front:prev_valid",
                           description="front's prev link is consistent")
S_LLF_UNCH = AssertionSite("list_front:nodes_unchanged",
                           description="no concrete node modified")
S_LLB_EQ = AssertionSite("list_front_loop:returns_head_next")
S_LLB_TAIL = AssertionSite("list_front_loop:walk_reaches_tail")


# -- proof bodies -------------------------------------------------------------

def _proof_array_list_get_at_ptr(ctx: RunContext):
    listp = ctx.heap.alloc(ArrayList.SIZE)
    init_array_list(ctx, listp)
    val = sl.can_fail_malloc(ctx, 8)
    index = sl.nd_size_t(ctx)
    ctx.assume(array_list_is_valid(ctx, listp) and not val.is_null)
    lst = ArrayList(ctx, listp)
    if array_list_get_at_ptr(ctx, listp, val, index) == OP_SUCCESS:
        ctx.sassert(S_GET_BOUNDS, (not lst.data.is_null) and index < lst.length)
    ctx.sassert(S_GET_POST, array_list_is_valid(ctx, listp))


def _proof_byte_buf_invariant(ctx: RunContext):
    bufp = ctx.heap.alloc(ByteBuf.SIZE)
    init_byte_buf(ctx, bufp)
    ctx.assume(byte_buf_is_valid(ctx, bufp))
    byte_buf_append_byte(ctx, bufp, 0x41)
    ctx.sassert(S_BB_POST, byte_buf_is_valid(ctx, bufp))


def _proof_assert_bytes_match_empty(ctx: RunContext):
    n = sl.nd_size_t(ctx)
    # Zero-terminated string storage: non-null even when empty.
    strbytes = ctx.heap.alloc(n + 1)
    if n:
        ctx.heap.havoc(strbytes, n)
    ctx.heap.write(strbytes, b"\x00", off=n)
    # Byte buffer carrying the same content; empty allocation is null.
    bufp = ctx.heap.alloc(ByteBuf.SIZE)
    buf = ByteBuf(ctx, bufp)
    buf.len = n
    buf.capacity = n
    buf.buffer = sl.can_fail_malloc(ctx, n)
    buf.allocator = ALLOCATOR_TAG
    ctx.assume(byte_buf_is_valid(ctx, bufp))
    if n:
        ctx.heap.write(buf.buffer, ctx.heap.read(strbytes, n))
    sl.assert_bytes_match(ctx, strbytes, buf.buffer, n)


def _mul_checked_body(ctx: RunContext, restricted: bool):
    if restricted:
        # Scalability workaround kept from the original harness: only the
        # two extreme values are considered.
        a = 0 if sl.nd_bool(ctx) else U64_MAX
    else:
        a = sl.nd_u64(ctx)
    b = sl.nd_u64(ctx)
    ok, product = mul_u64_checked(a, b)
    if ok:
        ctx.sassert(S_MUL_EXACT, product == (a * b) & U64_MAX)
    else:
        if ctx.is_buggy("mul_checked_postcondition"):
            classified = not add_u64_checked(a, b)[0]
        else:
            classified = mul_overflows(a, b)
        ctx.sassert(S_MUL_OVF, classified)


def _proof_mul_checked_restricted(ctx: RunContext):
    _mul_checked_body(ctx, restricted=True)


def _proof_mul_checked_unrestricted(ctx: RunContext):
    _mul_checked_body(ctx, restricted=False)


def _proof_pq_s_swap(ctx: RunContext):
    qp = ctx.heap.alloc(ArrayList.SIZE)
    lst = ArrayList(ctx, qp)
    item_sz = sl.nd_size_t(ctx)
    ctx.assume(1 <= item_sz <= 2)
    length = sl.nd_size_t(ctx)
    ctx.assume(1 <= length <= 2)
    total = item_sz * length
    lst.item_size = item_sz
    lst.length = length
    lst.current_size = total
    data = ctx.heap.alloc(total)
    ctx.heap.havoc(data, total)
    lst.data = data
    lst.allocator = ALLOCATOR_TAG
    a = sl.nd_size_t_below(ctx, length)
    b = sl.nd_size_t_below(ctx, length)
    ob_i = sl.nd_size_t_below(ctx, total)
    old = ctx.heap.read(data, 1, off=ob_i)
    pq_s_swap(ctx, qp, a, b)
    if pq_s_swap_postcondition(ctx, ob_i, a, b, item_sz):
        ctx.sassert(S_PQ_EQUIV, ctx.heap.read(data, 1, off=ob_i) == old)
    ctx.sassert(S_PQ_POST, array_list_is_valid(ctx, qp))


def _proof_hash_callback_string_eq(ctx: RunContext):
    weak = ctx.is_buggy("hash_string_precondition")
    if weak:
        s1 = nd_init_aws_string_weak(ctx)
        s2 = nd_init_aws_string_weak(ctx)
        ctx.assume(c_string_is_valid(ctx, s1) and c_string_is_valid(ctx, s2))
    else:
        s1 = nd_init_aws_string(ctx)
        s2 = nd_init_aws_string(ctx)
        ctx.assume(aws_string_is_valid(ctx, s1) and aws_string_is_valid(ctx, s2))
    if hash_callback_string_eq(ctx, s1, s2):
        v1, v2 = AwsString(ctx, s1), AwsString(ctx, s2)
        ctx.sassert(S_HCS_LEN, v1.len == v2.len)
        sl.assert_bytes_match(ctx, v1.bytes, v2.bytes, v1.len, label="hash_string_eq")


def _decide_delete(ctx: RunContext, it) -> IterDecision:
    return IterDecision.DELETE if sl.nd_bool(ctx) else IterDecision.CONTINUE


def _proof_hash_table_foreach(ctx: RunContext):
    statep = nd_init_hash_table(ctx, num_slots=2)
    ctx.assume(hash_table_is_valid(ctx, statep))
    hash_table_foreach(ctx, statep, _decide_delete)
    ctx.sassert(S_HT_POST, hash_table_is_valid(ctx, statep))


def _proof_is_mem_zeroed(ctx: RunContext):
    bufp = ctx.heap.alloc(16)
    ctx.heap.write(bufp, bytes(16))
    dirty = sl.nd_bool(ctx)
    if dirty:
        pos = sl.nd_size_t(ctx)  # size bound stays below the buffer size
        ctx.heap.write(bufp, b"\x01", off=pos)
    result = is_mem_zeroed(ctx, bufp, 16)
    ctx.sassert(S_ZERO_RESULT, result == (not dirty))


def _proof_linked_list_front_stub(ctx: RunContext):
    listp = ctx.heap.alloc(LIST_SIZE)
    first = nd_init_linked_list(ctx, listp)
    saved = linked_list_save(ctx, head_node(listp))
    # function under proof does not accept an empty list
    ctx.assume(not linked_list_empty(ctx, listp))
    front = linked_list_front(ctx, listp)
    ctx.sassert(S_LLF_EQ, front == first
                and front == Node(ctx, head_node(listp)).next)
    ctx.sassert(S_LLF_PREV, linked_list_prev_is_valid(ctx, front))
    ctx.sassert(S_LLF_UNCH, linked_list_is_unchanged(ctx, saved))


def _proof_linked_list_front_loop(ctx: RunContext):
    listp = ctx.heap.alloc(LIST_SIZE)
    head, tail = Node(ctx, head_node(listp)), Node(ctx, tail_node(listp))
    size = sl.nd_size_t(ctx)
    ctx.assume(size >= 1)
    head.prev = NULL_PTR
    tail.next = NULL_PTR
    prev = head
    for _ in range(size):
        node = Node(ctx, ctx.heap.alloc(Node.SIZE))
        prev.next = node.ptr
        node.prev = prev.ptr
        prev = node
    prev.next = tail.ptr
    tail.prev = prev.ptr
    first = head.next
    front = linked_list_front(ctx, listp)
    ctx.sassert(S_LLB_EQ, front == first)
    cur = first
    for _ in range(size):
        cur = Node(ctx, cur).next
    ctx.sassert(S_LLB_TAIL, cur == tail.ptr)


# -- registry -----------------------------------------------------------------

_PASS = Expected(STATUS_PASS)


def register_corpus() -> list[ProofEntry]:
    """Build the corpus.  Raises on duplicate proof names."""
    entries = [
        ProofEntry(
            name="array_list_get_at_ptr",
            category="array_list",
            description="get_at_ptr returns in-range item addresses and "
                        "preserves the list invariant",
            body=_proof_array_list_get_at_ptr,
            sites=(S_GET_BOUNDS, S_GET_POST),
            cases=(ProofCase("fixed", _PASS),),
        ),
        ProofEntry(
            name="byte_buf_invariant",
            category="byte_buf",
            description="append preserves the byte_buf invariant; the buggy "
                        "invariant admits a null buffer with nonzero capacity "
                        "once allocation can fail",
            body=_proof_byte_buf_invariant,
            sites=(S_BB_POST,),
            bug_id="bug1",
            bug_alias="invariant too weak",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL, fault_kind=FaultKind.NULL_DEREF),
                          buggy=frozenset({"byte_buf_is_valid"})),
                ProofCase("buggy_nofail", _PASS,
                          buggy=frozenset({"byte_buf_is_valid"}),
                          overrides={"malloc_can_fail": False}),
            ),
        ),
        ProofEntry(
            name="assert_bytes_match_empty",
            category="byte_buf",
            description="empty string vs empty (null) buffer comparison; the "
                        "buggy helper lacks the zero-length escape",
            body=_proof_assert_bytes_match_empty,
            sites=sl.bytes_match_sites(),
            bug_id="bug2",
            bug_alias="missing zero-length case",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL,
                                   failed_site="assert_bytes_match:null_eq"),
                          buggy=frozenset({"assert_bytes_match"})),
            ),
        ),
        ProofEntry(
            name="mul_size_checked_restricted",
            category="arithmetic",
            description="checked multiply with inputs restricted to the two "
                        "extremes; the wrong overflow predicate happens to "
                        "hold for them",
            body=_proof_mul_checked_restricted,
            sites=(S_MUL_EXACT, S_MUL_OVF),
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy", _PASS,
                          buggy=frozenset({"mul_checked_postcondition"})),
            ),
        ),
        ProofEntry(
            name="mul_size_checked_unrestricted",
            category="arithmetic",
            description="checked multiply over the full boundary domain; "
                        "mid-sized factors overflow the product without "
                        "overflowing the sum, falsifying the buggy predicate",
            body=_proof_mul_checked_unrestricted,
            sites=(S_MUL_EXACT, S_MUL_OVF),
            bug_id="bug3",
            bug_alias="wrong overflow predicate",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL,
                                   failed_site=S_MUL_OVF.site_id),
                          buggy=frozenset({"mul_checked_postcondition"})),
            ),
        ),
        ProofEntry(
            name="pq_s_swap",
            category="priority_queue",
            description="swap leaves bytes outside both items unchanged; the "
                        "buggy guard is unsatisfiable so its assert never "
                        "runs (found by vacuity, not by counterexample; the "
                        "fixed variant encodes the intended disjunction)",
            body=_proof_pq_s_swap,
            sites=(S_PQ_EQUIV, S_PQ_POST),
            bug_id="bug4",
            bug_alias="dead postcondition guard",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_PASS_BUT_VACUOUS,
                                   vacuous_groups=frozenset({"pq_swap:equivalence"})),
                          buggy=frozenset({"pq_swap_postcondition"})),
            ),
        ),
        ProofEntry(
            name="hash_callback_string_eq",
            category="hash_callback",
            description="string equality under the strong invariant is safe; "
                        "under the weak C-string precondition the recorded "
                        "length can exceed the storage and the callback "
                        "faults (detected as a memory fault)",
            body=_proof_hash_callback_string_eq,
            sites=(S_HCS_LEN,) + sl.bytes_match_sites("hash_string_eq"),
            bug_id="bug5",
            bug_alias="weak string precondition",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL, fault_kind=FaultKind.NULL_DEREF),
                          buggy=frozenset({"hash_string_precondition"})),
            ),
        ),
        ProofEntry(
            name="hash_table_foreach",
            category="hash_table",
            description="foreach with conditional deletes preserves the table "
                        "invariant; the buggy delete stub forgets to "
                        "decrement entry_count",
            body=_proof_hash_table_foreach,
            sites=(S_HT_POST,),
            bug_id="bug6",
            bug_alias="stale specification stub",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL, failed_site=S_HT_POST.site_id),
                          buggy=frozenset({"hash_iter_delete"})),
            ),
        ),
        ProofEntry(
            name="is_mem_zeroed",
            category="zero",
            description="zero check over byte-written storage; the buggy "
                        "u64-typed read trips the effective-type check and is "
                        "invisible with the check off",
            body=_proof_is_mem_zeroed,
            sites=(S_ZERO_RESULT,),
            bug_id="bug7",
            bug_alias="type-punned read",
            cases=(
                ProofCase("fixed", _PASS),
                ProofCase("buggy",
                          Expected(STATUS_FAIL,
                                   fault_kind=FaultKind.TYPED_ACCESS_VIOLATION),
                          buggy=frozenset({"is_mem_zeroed"})),
                ProofCase("buggy_nocheck", _PASS,
                          buggy=frozenset({"is_mem_zeroed"}),
                          overrides={"typed_access_check": False}),
            ),
        ),
        ProofEntry(
            name="linked_list_front_stub",
            category="linked_list",
            description="front over a partial stub: loop-free, wild-pointer "
                        "frontier, cost independent of the modeled length",
            body=_proof_linked_list_front_stub,
            sites=(S_LLF_EQ, S_LLF_PREV, S_LLF_UNCH),
            cases=(ProofCase("fixed", _PASS),),
        ),
        ProofEntry(
            name="linked_list_front_loop",
            category="linked_list",
            description="front over a fully built bounded list; path count "
                        "grows with the size bound",
            body=_proof_linked_list_front_loop,
            sites=(S_LLB_EQ, S_LLB_TAIL),
            cases=(ProofCase("fixed", _PASS),),
        ),
    ]
    _ensure_unique_names(entries)
    return entries


def _ensure_unique_names(entries: list[ProofEntry]):
    names = [e.name for e in entries]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValueError(f"duplicate proof names: {sorted(dupes)}")


def corpus_by_name() -> dict[str, ProofEntry]:
    return {e.name: e for e in register_corpus()}


# -- running cases ------------------------------------------------------------

@dataclass
class CaseResult:
    entry: ProofEntry
    case: ProofCase
    report: RunReport
    vacuity: VacuityReport
    status: str
    matched: bool
    detail: str

    @property
    def tape(self) -> ChoiceTape | None:
        return self.report.verdict.tape


def run_case(entry: ProofEntry, case: ProofCase, base_cfg: ExploreConfig) -> CaseResult:
    cfg = entry.config_for(base_cfg, case)
    report = explore(entry.body, cfg, name=entry.name,
                     sites=entry.sites, buggy=case.buggy)
    vac = analyze(report, entry.sites)
    status = overall_status(report, vac)
    if case.expected is None:
        ok, detail = True, ""
    else:
        ok, detail = case.expected.check(status, report, vac)
    return CaseResult(entry, case, report, vac, status, ok, detail)


def run_all_cases(base_cfg: ExploreConfig,
                  entries: list[ProofEntry] | None = None) -> list[CaseResult]:
    results = []
    for entry in entries or register_corpus():
        for case in entry.cases:
            results.append(run_case(entry, case, base_cfg))
    return results


# -- detection matrix ----------------------------------------------------------

def run_matrix(base_cfg: ExploreConfig,
               entries: list[ProofEntry] | None = None) -> list[CaseResult]:
    """Run the "buggy" case of every seeded-bug entry.  The detection
    matrix is a view of these results (`report.matrix_dict`)."""
    return [run_case(entry, entry.case("buggy"), base_cfg)
            for entry in entries or register_corpus() if entry.bug_id is not None]
