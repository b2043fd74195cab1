"""Span tracing of panweird's layers from outside the package.

The tracer replaces each traced function by a wrapper at every name its
callers use: a function bound into several modules (``enumerate`` and
``weird`` import from ``primes`` by name) is patched in each of them, and a
method is patched on its class.  Each call records a span (name, start,
end, parent) in one flat in-memory array; nothing is written until the run
ends.  Calls made in forked pool workers are not traced: the patches are
undone in the child right after the fork.

Span names that are chosen per call (prime counts by the magnitude of the
bound, subset sums by the size of the target) use thresholds fixed here,
not the package's own, so the buckets mean the same thing across versions.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from array import array

import numpy as np

CACHE_BOUND = 1 << 26  # prime counts up to here are "cached" lookups
BITSET_BOUND = 1 << 24  # subset-sum targets up to here are "bitset" sweeps


def _count_bucket(args, kwargs):
    hi = args[1] if len(args) > 1 else kwargs["hi"]
    if hi <= CACHE_BOUND:
        return "primes.count.cached"
    if hi < 10**8:
        return "primes.count.segmented.e7"
    if hi < 10**9:
        return "primes.count.segmented.e8"
    return "primes.count.segmented.e9plus"


def _subset_bucket(args, kwargs):
    target = args[1] if len(args) > 1 else kwargs["target"]
    return "weird.subset_sum.bitset" if target <= BITSET_BOUND else "weird.subset_sum.bnb"


# (span name or bucket function, module, attribute); "Class.attr" patches a method
SPAN_TARGETS = (
    ("cli.serialize", "panweird.cli", "_enum_record_line"),
    ("cli.serialize", "panweird.cli", "_pwn_record_line"),
    ("cli.write", "panweird.cli", "_Output.write"),
    ("arith.factorization", "panweird.arith", "Factorization.__init__"),
    ("primes.list", "panweird.primes", "primes_in_closed"),
    (_count_bucket, "panweird.primes", "count_in_closed"),
    ("primes.sieve", "panweird.primes", "_sieve_primes"),
    ("primes.step", "panweird.primes", "next_prime"),
    ("primes.step", "panweird.primes", "kth_prime_above"),
    ("primes.step", "panweird.primes", "kth_prime_below"),
    ("primes.is_prime", "panweird.primes", "is_prime"),
    ("enumerate.walk", "panweird.enumerate", "pndn"),
    ("enumerate.walk", "panweird.enumerate", "sfpan"),
    (_subset_bucket, "panweird.weird", "subset_sums_to"),
    ("weird.divisors", "panweird.weird", "divisors_up_to"),
    ("weird.codec", "panweird.weird", "encode_index_sequence"),
    ("weird.codec", "panweird.weird", "decode_index_sequence"),
    ("weird.search", "panweird.weird", "pwn_search_squarefree"),
    ("weird.search", "panweird.weird", "pwn_search_general"),
)

# calls counted without a span: (counter name, module, attribute)
COUNT_TARGETS = (
    ("enumerate.records", "panweird.enumerate", "EnumRecord.__init__"),
)

SPAN_NAMES = (
    "cli.serialize", "cli.write", "arith.factorization", "primes.list",
    "primes.count.cached", "primes.count.segmented.e7",
    "primes.count.segmented.e8", "primes.count.segmented.e9plus",
    "primes.sieve", "primes.step", "primes.is_prime", "enumerate.walk",
    "weird.subset_sum.bitset", "weird.subset_sum.bnb", "weird.divisors",
    "weird.codec", "weird.search",
)


class Tracer:
    """Records spans for the duration of a ``with`` block.

    A span is stored when it closes, as five doubles (name id, span id,
    parent id, start, end) in one flat array; span ids are handed out when
    spans open, so children can name their parent.  Self time and nesting
    are worked out from these after the run, off the clock.
    """

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.spans = array("d")
        self.stack = [-1]
        self.next_id = itertools.count().__next__
        self.counters = {name: 0 for name, _, _ in COUNT_TARGETS}
        self.write_bytes = 0
        self.semiperfect = 0
        self._patches = []  # (owner, attribute, original)

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for name, module, attr in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, attr in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._count_wrapper(name, fn))
        os.register_at_fork(after_in_child=self._unpatch)
        return self

    def __exit__(self, *exc):
        self._unpatch()

    def _patch(self, module, attr, make):
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            self._patches.append((owner, meth, orig))
            setattr(owner, meth, make(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "panweird" and not mod_name.startswith("panweird."):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._patches.append((other, key, orig))
                    setattr(other, key, wrapper)

    def _unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        store = self.spans.extend
        stack = self.stack
        push, pop = stack.append, stack.pop
        next_id = self.next_id
        clock = time.perf_counter
        if isinstance(name, str) and name != "cli.write":
            nid = self.ids[name]

            def wrapper(*args, **kwargs):
                i = next_id()
                parent = stack[-1]
                push(i)
                t = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    e = clock()
                    pop()
                    store((nid, i, parent, t, e))

            return wrapper

        # per-call names and result hooks: the few targets that need them
        ids = self.ids
        if name == "cli.write":
            pick = lambda args, kwargs: ids[name]  # noqa: E731
            on_result = self._count_bytes
        else:
            pick = lambda args, kwargs: ids[name(args, kwargs)]  # noqa: E731
            on_result = self._count_semiperfect if name is _subset_bucket else None

        def hooked(*args, **kwargs):
            nid = pick(args, kwargs)
            i = next_id()
            parent = stack[-1]
            push(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                e = clock()
                pop()
                store((nid, i, parent, t, e))
            if on_result is not None:
                on_result(args, result)
            return result

        return hooked

    def _count_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_bytes(self, args, result):
        out, line = args[0], args[1]
        if out.stream is not None:
            self.write_bytes += len(line) + 1

    def _count_semiperfect(self, args, result):
        self.semiperfect += bool(result)

    # -- results -----------------------------------------------------------

    def _table(self):
        """Spans as columns indexed by span id: name, parent, start, end."""
        raw = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 5)
        order = np.argsort(raw[:, 1], kind="stable")
        raw = raw[order]
        return (raw[:, 0].astype(np.int64), raw[:, 2].astype(np.int64),
                raw[:, 3], raw[:, 4])

    def save(self, path):
        """Write every span to an .npz file (name ids index span_names)."""
        name, parent, start, end = self._table()
        np.savez(path, span_names=np.array(SPAN_NAMES), name=name.astype(np.uint16),
                 parent=parent.astype(np.int32), start=start, end=end)

    def layer_metrics(self) -> dict:
        """Per-layer calls, busy time and self time from the recorded spans.

        ``<name>.calls`` counts every span; ``<name>.s`` sums the spans not
        nested in another span of the same name, so recursion through one
        layer is not counted twice; ``<name>.self_s`` subtracts the time of
        direct child spans.
        """
        name, parent, start, end = self._table()
        n = len(name)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while True:  # walk every span's ancestors one level at a time
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        out = {}
        for span, nid in self.ids.items():
            sel = name == nid
            out[span + ".calls"] = int(np.count_nonzero(sel))
            out[span + ".s"] = float(dur[sel & ~nested].sum())
            out[span + ".self_s"] = float(own[sel].sum())
        out.update(self.counters)
        out["cli.write.bytes"] = self.write_bytes
        out["weird.subset_sum.semiperfect"] = self.semiperfect
        out["trace.spans"] = n
        return out
