"""Traced runs: spans and counts recorded around calls into each layer.

`Tracer.installed()` wraps the public functions of `casverify.heap`,
`engine`, `corpus`, `vacuity`, `report` and `cli`, and every proof body the
registry hands out, for the duration of a `with` block.  No file of the
package changes; the wrappers replace module and class attributes and are
removed on exit.  Untraced runs never install them.

Each call records one span: name, start, end and the span it was called
from.  Spans live in flat arrays in memory and are written out at the end.
A layer's self time is the time of its spans minus the time of their
children.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

from casverify import cli, corpus, engine, heap, report, vacuity

# (owner, attribute names, layer).  Module functions are also replaced
# wherever another casverify module imported them by name.
_FUNCTIONS = (
    (cli, ("main",), "cli"),
    (corpus, ("register_corpus", "run_case", "run_all_cases", "run_matrix"), "corpus"),
    (vacuity, ("analyze", "overall_status"), "vacuity"),
    (report, ("build_document", "to_json", "to_markdown",
              "matrix_markdown_lines"), "report"),
    (engine, ("explore", "replay"), "engine"),
)
_METHODS = (
    (heap.Heap, ("alloc", "free", "is_deref", "is_init", "read", "write", "havoc",
                 "tracking_on", "is_mod", "typed_read_u64", "typed_write_u64",
                 "read_u64", "write_u64", "write_ptr", "read_ptr"), "heap"),
    (heap.Pointer, ("add",), "heap"),
    (engine.RunContext, ("choice", "assume", "sassert", "fresh_wild"), "engine"),
)
BODY = "corpus.body"
EXPLORE = "engine.explore"


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._prefixes: set = set()
        self._tapes: set = set()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """`fn` wrapped to record one span per call.  `after(result)` runs
        when the call returns normally."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _traced_body(self, body):
        spanned = self.span(BODY, body)

        def traced_body(ctx):
            try:
                return spanned(ctx)
            except engine.PathPruned:
                self.counts["engine.pruned"] += 1
                raise
            finally:
                self._record_tape(ctx.taken)

        return traced_body

    def _record_tape(self, taken) -> None:
        # Prefixes are identified by a hash chain, so the cost per run is
        # linear in its tape length.
        h = 0
        prefixes = self._prefixes
        for e in taken:
            h = hash((h, e.kind, e.index))
            prefixes.add(h)
        self._tapes.add((h, len(taken)))
        self.counts["engine.choices_executed"] += len(taken)

    def _explore(self, fn):
        spanned = self.span(EXPLORE, fn)

        def traced_explore(*args, **kwargs):
            # Distinct prefixes and tapes are counted per exploration: the
            # same tape of two different proofs is two different paths.
            self._prefixes, self._tapes = set(), set()
            try:
                return spanned(*args, **kwargs)
            finally:
                self.counts["engine.distinct_prefixes"] += len(self._prefixes)
                self.counts["engine.distinct_tapes"] += len(self._tapes)

        return traced_explore

    def _register(self, fn):
        def with_traced_bodies(entries):
            return [dataclasses.replace(e, body=self._traced_body(e.body))
                    for e in entries]
        return self.span("corpus.register_corpus",
                         lambda *a, **k: with_traced_bodies(fn(*a, **k)))

    def _count_domain(self, fn):
        def counted(domain):
            self.counts["engine.domain.builds"] += 1
            return fn(domain)
        return counted

    def _count_json(self, text: str) -> None:
        self.counts["report.json_bytes"] += len(text.encode())

    def _wrapper(self, layer: str, name: str, fn):
        if name == "explore":
            return self._explore(fn)
        if name == "register_corpus":
            return self._register(fn)
        return self.span(f"{layer}.{name}", fn,
                         after=self._count_json if name == "to_json" else None)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the `with` block, then restore the
        original attributes."""
        saved = []

        def replace(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "casverify" or n.startswith("casverify.")]
        done = set()
        for module, attrs, layer in _FUNCTIONS:
            for attr in attrs:
                fn = getattr(module, attr)
                if id(fn) in done:
                    continue
                wrapped = self._wrapper(layer, attr, fn)
                done.add(id(wrapped))
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            replace(m, k, wrapped)
        # The CLI's own binding of register_corpus may differ from the
        # corpus module's, e.g. when a workload supplies its own registry.
        if id(cli.register_corpus) not in done:
            replace(cli, "register_corpus",
                    self._register(cli.register_corpus))
        for cls, attrs, layer in _METHODS:
            for attr in attrs:
                replace(cls, attr, self.span(f"{layer}.{attr}", cls.__dict__[attr]))
        replace(engine.Domain, "__post_init__",
                self._count_domain(engine.Domain.__post_init__))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- derived metrics -----------------------------------------------------

    def summary(self) -> dict:
        """Calls, total time and self time per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        outer: Counter = Counter()
        layer_of = [_layer(name) for name in self.names]
        for i in range(n):
            nid = self.name[i]
            name = self.names[nid]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer_of[nid]:
                outer[layer_of[nid]] += dur[i]
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "layer_total_s": outer}

    def write(self, path) -> None:
        """Spans as a gzip file: one JSON header line, then the raw arrays
        in the order the header lists them."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder, "counts": dict(self.counts)}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of `Tracer.write`: the header and the four span arrays."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays[field] = arr
    return header, arrays


def _layer(name: str) -> str:
    return BODY if name == BODY else name.split(".", 1)[0]
