"""Seeded generator of small proof programs that use the heap write-first.

Each program allocates two or three regions, then runs a short sequence of
nondeterministic draws (`nd_bool`, `nd_size_t`), `assume`, `sassert` and heap
operations.  Wide `write`, `havoc` and `write_ptr` operations over 32-256
byte ranges dominate; narrow reads are rare.  That is the opposite of the
corpus, whose cost is in reads, so a change that trades one heap path for
the other shows on one of the two workloads.

Every region starts with a pointer area of `SLOTS` 8-byte slots; data
operations use the bytes after it.  Offsets of data operations may be
shifted by a drawn value, so some tapes run out of bounds and end in a
memory fault.  A program draws at most `MAX_CHOICES` values on any path,
which keeps it inside the reach of the enumeration oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from casverify import speclib as sl
from casverify.corpus import ProofCase, ProofEntry
from casverify.engine import AssertionSite

SLOTS = 4
DATA_LO = 8 * SLOTS
REGION_SIZES = (160, 224, 288)
WIDTHS = (32, 48, 64, 96, 128, 160, 192, 256)
DRAW_PATTERNS = tuple(itertools.product(("bool", "size"), repeat=3))
# Every program runs these operations besides its draws; "check" is an
# assume or an assert.  Only `read` can draw (one havocked byte).
OP_MIX = ("write", "write", "write", "havoc", "havoc", "write_ptr",
          "read_ptr", "check", "read")
MAX_CHOICES = 3 + 1


@dataclass(frozen=True)
class Program:
    """A generated proof body: a tuple of operations over a few regions.

    Calling it with a run context executes the operations in order; the
    engine and the enumeration oracle both accept it as a proof."""

    name: str
    sizes: tuple[int, ...]
    ops: tuple[tuple, ...]

    def __call__(self, ctx) -> None:
        heap = ctx.heap
        ptrs = [heap.alloc(n) for n in self.sizes]
        vals: list[int] = []
        for op in self.ops:
            kind = op[0]
            if kind == "bool":
                vals.append(int(sl.nd_bool(ctx)))
            elif kind == "size":
                vals.append(sl.nd_size_t(ctx))
            elif kind == "write":
                _, r, off, k, data = op
                heap.write(ptrs[r].add(off + _shift(vals, k)), data, loc="gen_write")
            elif kind == "havoc":
                _, r, off, k, width = op
                heap.havoc(ptrs[r].add(off + _shift(vals, k)), width, loc="gen_havoc")
            elif kind == "write_ptr":
                _, r, slot, target = op
                heap.write_ptr(ptrs[r].add(8 * slot), ptrs[target], loc="gen_write_ptr")
            elif kind == "read_ptr":
                _, r, slot, off = op
                q = heap.read_ptr(ptrs[r].add(8 * slot), loc="gen_read_ptr")
                heap.write(q.add(off), b"\x5a", loc="gen_store_through")
            elif kind == "assume":
                _, j, c = op
                ctx.assume(vals[j] != c)
            elif kind == "assert":
                _, site, j, k, c = op
                ctx.sassert(site, vals[j] + vals[k] != c)
            elif kind == "read":
                _, r, off = op
                byte = heap.read(ptrs[r].add(off), 1, loc="gen_read")[0]
                ctx.assume(byte != 0xFF)
            else:
                raise ValueError(f"unknown operation {kind!r}")

    @property
    def sites(self) -> tuple[AssertionSite, ...]:
        return tuple(AssertionSite(op[1]) for op in self.ops if op[0] == "assert")

    def entry(self) -> ProofEntry:
        """The program as a registry entry with one unchecked case, the shape
        `verify run` expects."""
        return ProofEntry(name=self.name, category="generated",
                          description="generated write-heavy program",
                          body=self, sites=self.sites,
                          cases=(ProofCase("fixed", None),))


def _shift(vals: list[int], k: int | None) -> int:
    return 0 if k is None else 8 * vals[k]


def _op_kinds(rng: random.Random, draws: tuple[str, ...]) -> list[str]:
    """The fixed operation mix in a seeded order: a draw first, `read_ptr`
    after `write_ptr`, and the narrow `read` after some data operation."""
    body = list(OP_MIX)
    rng.shuffle(body)
    if body.index("read_ptr") < body.index("write_ptr"):
        i, j = body.index("read_ptr"), body.index("write_ptr")
        body[i], body[j] = body[j], body[i]
    first_data = min(body.index("write"), body.index("havoc"))
    if body.index("read") < first_data:
        body.remove("read")
        body.append("read")
    for kind in draws[1:]:
        body.insert(rng.randrange(len(body) + 1), kind)
    return [draws[0]] + body


def generate_program(rng: random.Random, name: str,
                     draws: tuple[str, ...]) -> Program:
    """One program whose draws have the kinds `draws`, in that order; the
    seeded `rng` places them and chooses every operand."""
    sizes = tuple(rng.choice(REGION_SIZES) for _ in range(rng.choice((2, 3))))
    widths = rng.sample(WIDTHS, OP_MIX.count("write") + OP_MIX.count("havoc"))
    written_slots: list[tuple[int, int]] = []
    touched: list[tuple[int, int, int]] = []
    ops: list[tuple] = []
    ndraws = nsites = 0
    for kind in _op_kinds(rng, draws):
        r = rng.randrange(len(sizes))
        if kind in ("bool", "size"):
            ops.append((kind,))
            ndraws += 1
        elif kind in ("write", "havoc"):
            width = min(widths.pop(), sizes[r] - DATA_LO - 24)
            # Room for the largest drawn shift (8 * size bound 3) on most
            # ranges; about one range in thirty can overrun the region.
            if rng.random() < 1 / 30:
                off = sizes[r] - width - rng.randrange(0, 24, 8)
            else:
                off = DATA_LO + rng.randrange(sizes[r] - DATA_LO - width - 23)
            k = rng.randrange(ndraws) if rng.random() < 0.5 else None
            touched.append((r, off, width))
            if kind == "write":
                base = rng.randrange(256)
                data = bytes((base + 7 * j) & 0xFF for j in range(width))
                ops.append(("write", r, off, k, data))
            else:
                ops.append(("havoc", r, off, k, width))
        elif kind == "write_ptr":
            slot = rng.randrange(SLOTS)
            ops.append(("write_ptr", r, slot, rng.randrange(len(sizes))))
            written_slots.append((r, slot))
        elif kind == "read_ptr":
            r, slot = rng.choice(written_slots)
            ops.append(("read_ptr", r, slot, DATA_LO + rng.randrange(64)))
        elif kind == "check":
            if rng.random() < 0.5:
                ops.append(("assume", rng.randrange(ndraws), rng.randrange(4)))
            else:
                nsites += 1
                ops.append(("assert", f"{name}:a{nsites}", rng.randrange(ndraws),
                            rng.randrange(ndraws), rng.randrange(12)))
        else:
            # A narrow read inside a range written or havocked earlier; a
            # drawn shift can still leave the byte uninitialized on some tapes.
            r, off, width = rng.choice(touched)
            ops.append(("read", r, off + rng.randrange(width)))
    return Program(name, sizes, tuple(ops))


def generate_programs(seed: int, count: int) -> list[Program]:
    """`count` programs, a pure function of (seed, count).

    Program i draws the kinds `DRAW_PATTERNS[i % 8]`, so the shape of the
    tape tree does not depend on the seed; the seed picks everything else.
    That keeps the work of a pass nearly the same from seed to seed."""
    rng = random.Random(f"generated_writes:{seed}")
    return [generate_program(rng, f"gen{seed}_{i:03d}",
                             DRAW_PATTERNS[i % len(DRAW_PATTERNS)])
            for i in range(count)]
