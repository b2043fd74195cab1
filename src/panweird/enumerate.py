"""Depth-first enumeration of primitive non-deficient numbers with a fixed
number of prime factors.

Two recursions share one engine.  The square-free walk (sfpan) appends
strictly increasing new primes only; the general walk (pndn) may also deepen
the exponent of the last prime.  Interior primes are chosen strictly above
both the last prime used and center(m), in increasing order; the loop over
them stops at the first prime whose whole subtree comes back empty (sfpan)
or reports no completion at all (pndn).  Leaves take one final prime up to
center(m), above the primitivity lower bound, so every emitted number is
primitive: removing any single prime leaves a deficient number.

pndn and sfpan are the only entry points, one per recursion.  A leaf's
totals always come from prime counts over its interval [lo, upper], so
they come out without touching individual numbers: called without a sink,
either walk counts and builds no records, and a sink only adds the loop
that lists the interval's primes.  The sink receives every completion the
walk counts, perfect ones included, so a record run emits count_abundant +
count_perfect records.

A leaf parent (two factors left) closes its new-prime children in rows of
consecutive primes.  A new prime above 2*sigma(m)/deficiency(m) always
closes a barren leaf, so the scan stops by then and the rows end there.  A
row that ends below 2^16, as nearly all do, is one slice of the floor's
prime array, and one that ends inside the prime table one decode of it.
A walk makes the prime table the 2^26 cap table before its first row, so
only a leaf whose bound lies past 2^26 waits for a count past the table.
Every row closes in one array kernel, _Batch, whose docstring holds the
leaf contract: one call takes the rows of several parents, and its
in-order scan then does all that has effects, its counts past the table
in one count_in_closed_many call per row.  Calls are sized by leaves.
The leaf parents under a node with three factors left, its deepened child
first (pndn) and then its new primes, share batches: the first holds two
of them when pndn has a last prime to deepen and one otherwise, each next
one twice as many parents, and a batch ends early once its first rows
hold _BATCH leaves.  Every row, first or further, holds up to _BATCH
primes; a node with one or two factors left and each further row are
batches of one.  A parent's further rows close before the next parent is
scanned, then on_stop, and a parent past the node's first barren
new-prime child does nothing at all.  So the benchmark's count-k7
repetition makes 182 kernel calls (84 on its held-out inputs) and
unseeded pndn(7) makes 846.  The deepened leaf of a leaf parent (pndn)
joins the parent's first row as its head; a seed with one factor left is
a row of just that head.  Records come from a plain in-order loop over
the closed leaves, which lists each interval's primes.

A seed pins the walk to the subtree of its multiples.  Larger campaigns
run disjoint seed shards as separate processes and add up their totals.

A node is (left, v, s, pairs, sigpps), as in the searches; pairs and
sigpps are tuples, so a child is built anew and nothing is undone, by
classify.children, the searches' child step too, which also gives each
leaf parent its head.  Every predicate is decided by integer
cross-multiplication: delta(m*p) = sigma(m) - p*deficiency(m) for a new
prime p makes the leaf trichotomy one multiply.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .arith import Factorization, seed_state
from .classify import NumberClass, center_floor, children, same_prime_abundance
from .errors import CeilingExceeded
from .primes import (
    _DEFAULT_CEILING,
    PI_BOUND,
    _floor,
    _table,
    count_in_closed,  # noqa: F401  (perfbench's tracer test patches and calls it by this name)
    count_in_closed_many,
    is_prime,
    iter_primes_above,
    next_prime,
    prime_table,
    primes_in_closed,
)


@dataclass(frozen=True)
class EnumRecord:
    """One emitted primitive non-deficient number."""

    factorization: Factorization
    number_class: NumberClass
    abundance: int


@dataclass
class EnumOutcome:
    """Totals of one run.

    found is true when some completion with the requested factor count
    exists, primitive or not.  It is the pndn stop signal: an interior pndn
    scan stops at the first new prime whose subtree has none.  sfpan stops
    on count_abundant == 0 instead, the subtree having no primitive
    completion.
    """

    count_abundant: int = 0
    count_perfect: int = 0
    found: bool = False


# Leaves per batch of first rows, which bounds its arrays' memory: a batch
# takes leaf parents until their rows and heads fill this, and every row,
# first or further, takes up to this many new primes.  A count-k7
# repetition makes 182 kernel calls so (84 held out), against 204 (96) when
# first rows took 512 primes and further rows doubled up to this
# (BENCH_one_table.json).
_BATCH = 4096
# A row computes in int64 when (P + 1) * (P*d + s), for its largest prime P
# and its parent's s and d, stays below this, and (p + 1) * (s + d) does for
# its head: those bound every intermediate of the kernel.  Otherwise its
# batch computes on Python ints, in object arrays.
_INT64_SAFE = 1 << 62


class _Batch:
    """The rows of several leaf parents, closed in one vectorised pass over
    their concatenation; row i holds leaves first[i] to first[i + 1] - 1 of
    every column.

    Each row is (ps, s, d, omax, head).  Its leaf j is m * ps[j], for the
    row's parent m: deficient, with sigma(m) = s, deficiency d, and omax
    the largest sigma of its prime powers (1 for m = 1); ps holds new
    primes above s // d, increasing.  head, when not None, is one more leaf
    (p, s, d, spp, omax), closed first and never a stop: its last prime p
    has sigma(p^alpha) = spp, and omax bounds the sigma of its other prime
    powers.  A leaf closes with each new prime q in [lo, upper], upper the
    largest integer at or below its center (below it for sfpan) and lo the
    least above p and above reduced_center_floor; in pndn also with p once
    more, as same_prime_extension decides; both rules run on the arrays
    through classify's center_floor and same_prime_abundance.  A leaf is
    barren when no prime above p completes it at all (pndn) or it closes
    nothing (sfpan).

    The pass has no side effects, and its columns run past every row's
    stop.  One pi call on table answers pi(p), pi(lo - 1) and pi(upper)
    for every leaf whose upper lies in it, each bound in [2, table.limit];
    for a pending leaf, whose upper lies past it, the same call with each
    bound cut at the limit tells whether the table holds a prime of its
    intervals (held).  scan(i) then closes row i in order through its first
    barren leaf, deciding whether a pending leaf stops the row before it
    counts any, so a row never counts, nor reports a ceiling, past its
    stop.

    acc holds each leaf's (ca, cp, found), read for closed leaves only.
    cols are the emission loop's columns (p, s, d, lo, upper, delta, prim):
    leaf j has last prime p[j], sigma s[j] and deficiency d[j]; it closes
    with each new prime in [lo[j], upper[j]] and, when prim[j], with p[j]
    once more, of abundance delta[j] (prim is all false for sfpan).
    """

    def __init__(self, general, rows, ceiling, table):
        self.general = general
        self.first, parts, cols, lens, heads, at = [0], [], [], [], [], []
        top = 0  # the largest bound on a row's intermediates
        for ps, s, d, omax, head in rows:
            if head is not None:
                at.append(self.first[-1])
                heads.append(head[1:])
                parts.append(head[:1])
                top = max(top, (head[0] + 1) * (head[1] + head[2]))
            if len(ps):
                top = max(top, (int(ps[-1]) + 1) * (int(ps[-1]) * d + s))
                parts.append(ps)
            lens.append(len(ps) + (head is not None))
            self.first.append(self.first[-1] + lens[-1])
            cols.append((s, d, omax))
        self.heads = set(at)
        dt = object if top >= _INT64_SAFE else np.int64
        p = np.concatenate(parts).astype(dt, copy=False)
        s, d, om = np.array(cols, dtype=dt).repeat(lens, axis=0).T
        p1 = p + 1
        sl, dl, spp, om = quad = np.array((s * p1, p * d - s, p1, om))
        if heads:
            quad[:, at] = np.array(heads, dtype=dt).T
        upper = (sl if general else sl - 1) // dl
        lo = np.maximum(center_floor(sl, dl, np.maximum(spp, om)) + 1, p1)
        live = upper > p
        tab = live & (upper <= table.limit)
        r = np.zeros((3, len(p)), np.int64)  # pi(p), pi(lo - 1), pi(upper), each cut at the limit
        if table.limit:
            bounds = np.array((p, np.minimum(lo - 1, upper), upper))
            r = table.pi(np.maximum(np.minimum(bounds, table.limit), 2)).astype(np.int64)
        # a prime in (p, upper], and one in [lo, upper], that the table holds
        self.held = r[2] > r[0], r[2] > r[1]
        self.limit = table.limit
        r *= tab
        n_all = r[2] - r[0]  # the primes in (p, upper]
        self.acc = np.zeros((3, len(p)), np.int64)
        ca, cp, found = self.acc
        ca += r[2] - r[1]  # the primes in [lo, upper], then the leaf's count
        if general:
            delta = same_prime_abundance(sl, dl, p, spp)
            gain = delta >= 0
            # om = 1 makes the floor 0: nothing else to clear
            prim = gain & (p * spp > center_floor(sl, dl, om))
            perfect = prim & (delta == 0)
            cp += perfect
            # a prime at the center completes m perfectly; never for sfpan,
            # whose upper sits strictly below the center
            self.centered = upper * dl == sl
            for j in (self.centered & (ca > 0)).nonzero()[0].tolist():
                if is_prime(int(upper[j])):
                    ca[j] -= 1
                    cp[j] += 1
            ca += prim ^ perfect
            barren = (n_all == 0) & ~gain
        else:
            delta = prim = gain = np.zeros(len(p), dtype=bool)
            barren = ca == 0
        found += (n_all > 0) | gain
        barren[at] = False  # a head never stops its row
        self.pend, self.over = live ^ tab, upper > ceiling
        self.events = (barren | self.pend | self.over).nonzero()[0].tolist()
        self.cols = (p, sl, dl, lo, upper, delta, prim)

    def scan(self, i):
        """Close row i in order; returns (n, stop, over, ca, cp, found).
        Its first n leaves are closed: through the barren leaf of prime
        stop, or the whole row when none is barren, or up to the leaf whose
        bound over lies above the ceiling, which the caller raises once it
        has emitted the closed leaves.  ca, cp and found are the row's
        totals over its closed leaves.

        A pending leaf stops the row, unless it is the head, when no prime
        completes it: in pndn when it has no same-prime gain and no prime
        lies in (p, upper], in sfpan when none lies in [lo, upper].  The
        table's share of the interval or one next_prime decides that; then
        one count_in_closed_many call counts the pending leaves through the
        stop, (p, upper] and then (p, lo - 1] of each in turn."""
        a, b = self.first[i], self.first[i + 1]
        ca, cp, found = self.acc
        p, _, _, lo, upper, _, _ = self.cols
        n, stop, over = b - a, None, None
        pending = []
        for j in self.events[bisect_left(self.events, a):]:
            if j >= b:
                break
            if self.over[j]:
                n, over = j - a, int(upper[j])
                break
            if self.pend[j]:
                x, y, z = int(p[j]) + 1, int(lo[j]), int(upper[j])
                pending.append((j, x, y, z))
                if j in self.heads:
                    continue  # the head never stops the row
                if self.general:
                    if found[j] or self.held[0][j] or next_prime(max(x - 1, self.limit)) <= z:
                        continue
                elif y <= z and (self.held[1][j] or next_prime(max(y - 1, self.limit)) <= z):
                    continue
            n, stop = j - a + 1, int(p[j])
            break
        if pending:
            intervals = []
            for _, x, y, z in pending:
                intervals += ((x, z), (x, y - 1)) if y <= z else ((x, z),)
            counts = iter(count_in_closed_many(intervals))
        for j, x, y, z in pending:
            n_all = next(counts)
            n_in = n_all - next(counts) if y <= z else 0
            if n_in and self.general and self.centered[j] and is_prime(z):
                n_in -= 1
                cp[j] += 1
            ca[j] += n_in
            found[j] |= n_all > 0
        sca, scp, sfound = self.acc[:, a : a + n].sum(axis=1).tolist()
        return n, stop, over, sca, scp, sfound > 0


def _row_primes(start, bound):
    """A leaf parent's row: up to _BATCH primes above start, increasing,
    through the first one past bound.  A row that ends in the floor's
    array, as nearly all do, is one slice of it.  Past the floor, the table
    (the cap table in a walk) is decoded once, up to _BATCH past bound or
    past start + _BATCH * log2(start), whichever is less: that spans about
    1.44 times _BATCH primes.  When the decode holds _BATCH primes or one
    past bound, it gives the row; any other row is stepped with
    iter_primes_above, into a list of ints."""
    floor = _floor()
    i = int(floor.searchsorted(start, side="right"))
    j = int(floor.searchsorted(max(start, bound), side="right"))  # the first prime past bound
    if j < len(floor) or i + _BATCH <= len(floor):
        return floor[i : min(i + _BATCH, j + 1)]
    table = prime_table()
    end = min(max(start, bound), start + _BATCH * start.bit_length()) + _BATCH
    if end <= table.limit:
        row = table.primes(start + 1, end)
        j = int(row.searchsorted(bound, side="right"))
        if j < len(row) or len(row) >= _BATCH:
            return row[: min(_BATCH, j + 1)]
    row = []
    for q in iter_primes_above(start):
        row.append(q)
        if q > bound or len(row) == _BATCH:
            return row


def walk_start(general, k, seed, odd_only, ceiling):
    """seed_state's (left, v, s, pairs, sigpps), unchanged, once the ceiling,
    k and the seed, then odd_only against an even seed pass every check a
    walk makes.  Costs no prime counting, so callers check before output."""
    if not isinstance(ceiling, int) or not 1 <= ceiling <= PI_BOUND:
        raise ValueError("ceiling must be an integer from 1 to %d" % PI_BOUND)
    state = seed_state(seed, k, general)
    if odd_only and state[1] % 2 == 0:  # state[1] is the seed's value
        raise ValueError("odd_only conflicts with an even seed")
    return state


def _run(general, k, seed, sink, odd_only, on_stop, ceiling):
    left, v, s, pairs, sigpps = walk_start(general, k, seed, odd_only, ceiling)
    _table()  # the cap table, before the first row: only leaves past it pend
    emit = None
    if sink is not None:
        def emit(pairs, delta):  # every completion has delta >= 0
            sink(EnumRecord(Factorization._trusted(pairs),
                            NumberClass.from_abundance(delta), delta))

    def above(s, d, pairs):
        """The node's new primes lie above this: above s // d, so above
        center(m), and above its last prime."""
        # odd_only starts above 2; any odd_only node with primes holds odd ones
        return max(s // d, pairs[-1][0] if pairs else (2 if odd_only else 1))

    def as_head(v, s, pairs, sigpps):
        """The leaf (pairs, sigpps) as a row's head: closed by its last
        prime once more and by new primes above it."""
        return pairs[-1][0], s, 2 * v - s, sigpps[-1], max(sigpps[:-1], default=1)

    def leaf_parent(v, s, pairs, sigpps):
        """A node with two factors left as closed() takes it: its pairs,
        its first row as _Batch takes it, the bound 2s/d by which its rows
        end, and its head's pairs.  Its deepened leaf (pndn) joins the
        first row as its head, closed first and never a stop, so it pays no
        row of its own."""
        d = 2 * v - s
        deeper = next(children(general, v, s, pairs, sigpps, ()), (None, None))[1]
        # A new prime p > 2s/d leaves upper <= p and a deficient m*p^2, so its
        # leaf is barren: the rows end at the first such prime at the latest.
        bound = 2 * s // d
        row = (_row_primes(above(s, d, pairs), bound), s, d, max(sigpps, default=1),
               deeper and as_head(*deeper))
        return pairs, row, bound, deeper and deeper[2]

    def close(batch, i, pairs, hpairs):
        """Close row i of batch and emit its leaves in order; hpairs are the
        pairs of its head, or None.  Returns the row's (ca, cp, found) and
        the p of its barren leaf, or None."""
        n, stop, over, ca, cp, found = batch.scan(i)
        if emit is not None:
            a = batch.first[i]
            cols = zip(*(c[a : a + n].tolist() for c in batch.cols))
            for j, (p, ls, ld, lo, upper, delta, prim) in enumerate(cols):
                if j == 0 and hpairs is not None:
                    prefix, e = hpairs[:-1], hpairs[-1][1]
                else:
                    prefix, e = pairs, 1
                if lo <= upper:
                    leaf = prefix + ((p, e),)
                    for q in primes_in_closed(lo, upper):
                        emit(leaf + ((q, 1),), ls - q * ld)  # q <= ls // ld: delta >= 0
                if prim:
                    emit(prefix + ((p, e + 1),), delta)
        if over is not None:
            raise CeilingExceeded("leaf bound %d above ceiling %d" % (over, ceiling))
        return ca, cp, found, stop

    def closed(parents):
        """Close the first rows of parents, as leaf_parent gives them and in
        walk order, in one kernel call; then yield each parent's
        (ca, cp, found) in turn, once all it does is done: its counts past
        the table, its records, the ceiling it may reach, its further rows,
        each closed before the next parent, and its on_stop.  A parent the
        caller does not draw does nothing at all."""
        batch = _Batch(general, [row for _, row, _, _ in parents], ceiling, prime_table())
        for i, (pairs, (ps, s, d, omax, _), bound, hpairs) in enumerate(parents):
            ca, cp, found, stop = close(batch, i, pairs, hpairs)
            while stop is None:
                ps = _row_primes(int(ps[-1]), bound)
                more = _Batch(general, [(ps, s, d, omax, None)], ceiling, prime_table())
                sca, scp, sfound, stop = close(more, 0, pairs, None)
                ca, cp, found = ca + sca, cp + scp, found or sfound
            if on_stop is not None:
                on_stop(pairs, stop, 2)
            yield ca, cp, found

    def batched(kids, size):
        """Yield (p, totals) for each of kids, leaf parents as children
        yields them, in order: closed in batches of size of them, then of
        twice as many each time, a batch ending early once its first rows
        hold _BATCH leaves."""
        while True:
            ps, parents, leaves = [], [], 0
            for p, c in kids:
                ps.append(p)
                parents.append(leaf_parent(*c))
                row = parents[-1][1]
                leaves += len(row[0]) + (row[4] is not None)
                if len(ps) == size or leaves >= _BATCH:
                    break
            yield from zip(ps, closed(parents))
            size *= 2

    def walk(k, v, s, pairs, sigpps):
        """One level.  A node with one factor left is a lone head, a leaf
        parent a batch of one.  Any other level draws its children, the
        deepened last prime (pndn) and then new primes above center(m), up
        to the first barren subtree; at k == 3 they are leaf parents,
        closed in batches."""
        if k == 1:
            if not pairs:
                return 0, 0, False  # m = 1: no prime lies at or below center(1) = 1
            row = ((), s, 2 * v - s, 1, as_head(v, s, pairs, sigpps))
            return close(_Batch(general, [row], ceiling, prime_table()), 0, pairs, pairs)[:3]
        if k == 2:
            return next(closed([leaf_parent(v, s, pairs, sigpps)]))
        kids = children(general, v, s, pairs, sigpps,
                        iter_primes_above(above(s, 2 * v - s, pairs)))
        if k == 3:
            kids = batched(kids, 2 if general and pairs else 1)
        else:
            kids = ((p, walk(k - 1, *child)) for p, child in kids)
        ca = cp = 0
        found = False
        stop = None  # the first prime whose subtree is barren
        for p, (sca, scp, sfound) in kids:
            ca += sca
            cp += scp
            found |= sfound
            if p is not None and (not sfound if general else sca == 0):
                stop = p
                break
        if on_stop is not None:
            on_stop(pairs, stop, k)
        return ca, cp, found

    return EnumOutcome(*walk(left, v, s, pairs, sigpps))


def pndn(k, seed=None, sink=None, *, odd_only=False, on_stop=None,
         ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every primitive non-deficient number with k prime factors
    (counted with multiplicity) divisible by the deficient seed, seed's
    factors included in the count.  Without a sink the walk only counts and
    builds no records.

    Perfect completions reach the sink too, with class PERFECT; they are
    counted in count_perfect, never in count_abundant.
    """
    return _run(True, k, seed, sink, odd_only, on_stop, ceiling)


def sfpan(k, seed=None, sink=None, *, odd_only=False, on_stop=None,
          ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every square-free-beyond-the-seed primitive abundant number with
    k distinct primes, the seed's counted too.  Without a sink the walk only
    counts and builds no records.

    The seed may carry prime powers; the new primes are distinct and larger.
    Perfect numbers cannot appear here: the final prime sits strictly below
    the center.
    """
    return _run(False, k, seed, sink, odd_only, on_stop, ceiling)
