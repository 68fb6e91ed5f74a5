"""Per-layer microbenchmarks through public APIs only.

Heap operations run against `casverify.heap.Heap`; the engine tree runs
`casverify.engine.explore` on a synthetic proof of k `nd_bool` draws, whose
tape tree has exactly 2**k leaves.  Every benchmark checks what it got back
after its timed loop and raises `CheckFailed` on a wrong result.

Widths follow the workloads: reads and pointer fields are 8 bytes, like the
u64 and pointer fields the corpus reads; writes are 64 bytes and havoc
regions 64 bytes, like the wide ranges the generated programs write.
"""

from __future__ import annotations

import itertools
import statistics
import time

from casverify import speclib as sl
from casverify.engine import ExploreConfig, explore
from casverify.heap import Heap

BATCH = 2000
WRITE_WIDTH = 64
HAVOC_WIDTH = 64
TREE_DEPTH = 10


class CheckFailed(Exception):
    """A microbenchmark got a wrong result back."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _rate(run_batch, units: int, seconds: float) -> float:
    """Median units per second over batches run for about `seconds`."""
    rates = []
    deadline = time.perf_counter() + seconds
    while len(rates) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        run_batch()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


def _pattern(n: int, salt: int) -> bytes:
    return bytes((salt + 31 * i) & 0xFF for i in range(n))


def bench_read(seconds: float) -> float:
    h = Heap()
    p = h.alloc(256)
    content = _pattern(256, 7)
    h.write(p, content)
    offsets = [(8 * i) % 248 for i in range(BATCH)]
    ptrs = [p.add(o) for o in offsets]
    got = []

    def batch():
        got[:] = [h.read(q, 8) for q in ptrs]

    rate = _rate(batch, BATCH, seconds)
    _check(got == [content[o:o + 8] for o in offsets], "heap.read bytes")
    return rate


def bench_write(seconds: float) -> float:
    h = Heap()
    p = h.alloc(1024)
    slots = 1024 // WRITE_WIDTH
    ptrs = [p.add(WRITE_WIDTH * (i % slots)) for i in range(BATCH)]
    data = [_pattern(WRITE_WIDTH, i) for i in range(BATCH)]

    def batch():
        for q, d in zip(ptrs, data):
            h.write(q, d)

    rate = _rate(batch, BATCH, seconds)
    last = {i % slots: data[i] for i in range(BATCH)}
    _check(h.read(p, 1024) == b"".join(last[s] for s in range(slots)),
           "heap.write bytes")
    return rate


def _pointer_heap():
    h = Heap()
    targets = [h.alloc(16).add(i % 4) for i in range(8)]
    table = h.alloc(8 * len(targets))
    slots = [table.add(8 * i) for i in range(len(targets))]
    return h, targets, slots


def bench_write_ptr(seconds: float) -> float:
    h, targets, slots = _pointer_heap()
    n = len(slots)
    pairs = [(slots[i % n], targets[(3 * i) % n]) for i in range(BATCH)]

    def batch():
        for s, t in pairs:
            h.write_ptr(s, t)

    rate = _rate(batch, BATCH, seconds)
    last = {i % n: targets[(3 * i) % n] for i in range(BATCH)}
    _check(all(h.read_ptr(slots[s]) == t for s, t in last.items()),
           "heap.write_ptr round trip")
    return rate


def bench_read_ptr(seconds: float) -> float:
    h, targets, slots = _pointer_heap()
    for s, t in zip(slots, targets):
        h.write_ptr(s, t)
    n = len(slots)
    reads = [slots[i % n] for i in range(BATCH)]
    got = []

    def batch():
        got[:] = [h.read_ptr(s) for s in reads]

    rate = _rate(batch, BATCH, seconds)
    _check(got == [targets[i % n] for i in range(BATCH)], "heap.read_ptr round trip")
    return rate


def bench_alloc(seconds: float) -> float:
    got = []

    def batch():
        h = Heap()
        got[:] = [h.alloc(16) for _ in range(BATCH)]

    rate = _rate(batch, BATCH, seconds)
    _check([(q.alloc_id, q.offset) for q in got] == [(i + 1, 0) for i in range(BATCH)],
           "heap.alloc pointers")
    return rate


def bench_havoc(seconds: float) -> float:
    """Havoc a region, then materialize it with one read: bytes per second."""
    source = itertools.cycle(range(256))
    h = Heap(byte_source=lambda: next(source))
    p = h.alloc(HAVOC_WIDTH)
    rounds = BATCH // 8
    got = []

    def batch():
        got.clear()
        for _ in range(rounds):
            h.havoc(p, HAVOC_WIDTH)
            got.append(h.read(p, HAVOC_WIDTH))

    # The source cycles through 0..255, so the bytes of the last batch are
    # consecutive values modulo 256.
    rate = _rate(batch, rounds * HAVOC_WIDTH, seconds)
    drawn = b"".join(got)
    first = drawn[0]
    _check(drawn == bytes((first + i) & 0xFF for i in range(len(drawn))),
           "heap.havoc materialized bytes")
    return rate


def _tree_proof(ctx) -> None:
    for _ in range(TREE_DEPTH):
        sl.nd_bool(ctx)


def bench_engine_tree(seconds: float) -> float:
    """Paths per second exploring a proof of TREE_DEPTH boolean draws."""
    cfg = ExploreConfig(max_paths=1 << (TREE_DEPTH + 1))
    reports = []

    def batch():
        reports.append(explore(_tree_proof, cfg, name="tree"))

    rate = _rate(batch, 1 << TREE_DEPTH, seconds)
    _check(all(r.verdict.is_pass and r.complete
               and r.paths_explored == 1 << TREE_DEPTH
               and r.paths_pruned_by_assume == 0 for r in reports),
           f"engine tree: expected exactly {1 << TREE_DEPTH} paths")
    return rate


SUITE = (
    ("heap.read.ops_per_s", bench_read),
    ("heap.write.ops_per_s", bench_write),
    ("heap.read_ptr.ops_per_s", bench_read_ptr),
    ("heap.write_ptr.ops_per_s", bench_write_ptr),
    ("heap.alloc.ops_per_s", bench_alloc),
    ("heap.havoc.bytes_per_s", bench_havoc),
    ("engine.tree.paths_per_s", bench_engine_tree),
)
