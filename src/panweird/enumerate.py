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
closes a barren leaf, so the scan stops by then and the rows end there.
One array kernel, close_leaves, closes a whole row for counting and record
runs alike: with numpy it computes every leaf's upper, lo, same-prime
closing and barren test at once, and one rank call on the prime table,
PrimeTable.pi, answers pi(p), pi(lo - 1) and pi(upper) for the leaves
whose upper lies in the table.  It then sums the leaves through the first
barren one.  A leaf whose upper lies past the table still counts with
count_in_closed (Lucy's pi), once the in-order scan reaches it, so a row
neither counts nor raises past its stop.  A row computes in int64 when one
bound, taken from its largest prime, shows every intermediate fits below
2^62, and otherwise in object arrays of Python ints.  The deepened leaf of
a leaf parent (pndn) joins the parent's first row as its head, closed
first and never a stop, so it pays no kernel call of its own; a seed with
one factor left is a row of just that head.  Records come from a plain
in-order loop over the closed leaves, which lists each interval's primes.

A seed pins the walk to the subtree of its multiples.  Larger campaigns
run disjoint seed shards as separate processes and add up their totals.

A node is (left, v, s, pairs, sigpps), as in the searches; pairs and
sigpps are tuples, so a child is built anew and nothing is undone.  Every
predicate is decided by integer cross-multiplication: delta(m*p) =
sigma(m) - p*deficiency(m) for a new prime p makes the leaf trichotomy one
multiply, and classify.same_prime_extension decides m*p's class and
primitivity when p already divides m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .arith import Factorization, seed_state
from .classify import NumberClass, center_floor, same_prime_abundance, same_prime_extension
from .errors import CeilingExceeded
from .primes import (
    _DEFAULT_CEILING,
    PI_BOUND,
    count_in_closed,
    is_prime,
    iter_primes_above,
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


_ROW = 256  # new primes per row at most, to bound its memory; most leaf parents fit in one
# A row computes in int64 when (P + 1) * (P*d + s), for its largest prime P
# and its parent's s and d, stays below this, and (p + 1) * (s + d) does for
# its head: those bound every intermediate of close_leaves.  Otherwise it
# computes on Python ints, in object arrays.
_INT64_SAFE = 1 << 62


class LeafRow(NamedTuple):
    """close_leaves' answer, leaf by leaf.

    Leaves [0, n) are closed, in order: through the barren leaf of prime
    stop, or the whole row when none is barren, or up to leaf n when its
    bound over lies above the ceiling; the caller raises that once it has
    emitted the closed leaves.  ca, cp and found hold each leaf's totals,
    read for the closed leaves only.  cols are the emission loop's columns
    (p, s, d, lo, upper, delta, prim): leaf i has last prime p[i], sigma
    s[i] and deficiency d[i]; it closes with each new prime in
    [lo[i], upper[i]] and, when prim[i], with p[i] once more, of abundance
    delta[i] (prim is all false for sfpan).
    """

    n: int
    stop: int | None
    over: int | None
    ca: np.ndarray
    cp: np.ndarray
    found: np.ndarray
    cols: tuple

    def totals(self):
        """The row's (ca, cp, found) over its closed leaves."""
        n = self.n
        return int(self.ca[:n].sum()), int(self.cp[:n].sum()), bool(self.found[:n].any())


def close_leaves(general, ps, s, d, omax, ceiling, table, head=None) -> LeafRow:
    """Close a row of sibling leaves at once, in order, through the first
    barren one.

    Leaf i is m * ps[i], for the row's parent m: deficient, with
    sigma(m) = s, deficiency d, and omax the largest sigma of its prime
    powers (1 for m = 1); ps holds new primes above s // d, increasing.
    head, when given, is one more leaf (p, s, d, spp, omax), closed first
    and never a stop: its last prime p has sigma(p^alpha) = spp, and omax
    bounds the sigma of its other prime powers.  A leaf closes with each
    new prime q in [lo, upper], upper the largest integer at or below its
    center (below it for sfpan) and lo the least above p and above
    reduced_center_floor; in pndn also with p once more, as
    same_prime_extension decides; both rules run on the row's arrays
    through classify's center_floor and same_prime_abundance.  A leaf is
    barren when no prime above p completes it at all (pndn) or it closes
    nothing (sfpan).

    One pi call on table answers pi(p), pi(lo - 1) and pi(upper) for every
    leaf whose upper lies in it, each bound in [2, table.limit].  A leaf
    past the table counts with count_in_closed once the in-order scan
    reaches it, so the row never counts, nor reports a ceiling, past its
    stop.
    """
    n = len(ps) + (head is not None)
    big = bool(ps) and (ps[-1] + 1) * (ps[-1] * d + s) >= _INT64_SAFE
    if head is not None:
        hp, hs, hd, hspp, homax = head
        big = big or (hp + 1) * (hs + hd) >= _INT64_SAFE
        ps = [hp, *ps]
    p = np.array(ps, dtype=object if big else np.int64)
    p1 = p + 1
    sl = s * p1
    dl = p * d - s
    spp = p1
    om = omax
    if head is not None:
        spp = p1.copy()
        sl[0], dl[0], spp[0] = hs, hd, hspp
        om = np.full(n, omax, dtype=p.dtype)
        om[0] = homax
    upper = sl // dl if general else (sl - 1) // dl
    if head is None and omax <= ps[0] + 1:
        # each leaf's largest sigma is its new prime's, p + 1: its reduced
        # centers are center(m) = s/d and below, all under p
        lo = p1
    else:
        lo = np.maximum(center_floor(sl, dl, np.maximum(spp, om)) + 1, p1)
    live = upper > p
    tab = live & (upper <= table.limit)
    pend = live ^ tab
    n_all = np.zeros(n, np.int64)  # the primes in (p, upper]
    ca = np.zeros(n, np.int64)  # the primes in [lo, upper], then the leaf's count
    i = tab.nonzero()[0]
    if len(i):
        hi = upper[i]
        r = table.pi(np.concatenate((p[i], np.minimum(lo[i] - 1, hi), hi))).reshape(3, -1)
        n_all[i] = r[2] - r[0]
        ca[i] = r[2] - r[1]
    if general:
        delta = same_prime_abundance(sl, dl, p, spp)
        gain = delta >= 0
        # om = 1 makes the floor 0: nothing else to clear
        prim = gain & (p * spp > center_floor(sl, dl, om))
        found = (n_all > 0) | gain
        barren = ~found
    else:
        delta = prim = np.zeros(n, dtype=bool)
        found = n_all > 0
        barren = ca == 0
    if head is not None:
        barren[0] = False
    over = upper > ceiling
    k, stop, bound = n, None, None
    for j in (barren | pend | over).nonzero()[0].tolist():
        if over[j]:
            k, bound = j, int(upper[j])
            break
        if pend[j]:
            a, b, c = int(p[j]) + 1, int(lo[j]), int(upper[j])
            n_all[j] = count_in_closed(a, c)
            ca[j] = n_all[j] - count_in_closed(a, b - 1) if b <= c else 0
            found[j] = n_all[j] > 0 or general and delta[j] >= 0
            if (head is not None and j == 0) or (found[j] if general else ca[j]):
                continue  # the head never stops the row, nor does a leaf with a completion
        k, stop = j + 1, int(p[j])
        break
    if general:
        perfect = prim & (delta == 0)
        cp = perfect.astype(np.int64)
        # a prime at the center completes m perfectly; never for sfpan,
        # whose upper sits strictly below the center
        for j in (upper[:k] * dl[:k] == sl[:k]).nonzero()[0].tolist():
            if ca[j] and is_prime(int(upper[j])):
                ca[j] -= 1
                cp[j] += 1
        ca += prim ^ perfect
    else:
        cp = np.zeros(n, np.int64)
    return LeafRow(k, stop, bound, ca, cp, found, (p, sl, dl, lo, upper, delta, prim))


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
    emit = None
    if sink is not None:
        def emit(pairs, delta):  # every completion has delta >= 0
            sink(EnumRecord(Factorization._trusted(pairs),
                            NumberClass.from_abundance(delta), delta))

    def close_row(pairs, sigpps, s, d, row, head=None):
        """Close the leaves pairs * p for the new primes p of row, with
        close_leaves, and emit them in order.  head is one more leaf, the
        node (pairs, sigpps, s, d) whose last prime power it closes, placed
        first.  Returns the row's (ca, cp, found) and the p of its barren
        leaf, or None."""
        if head is not None:
            hpairs, hsigpps, hs, hd = head
            head = (hpairs[-1][0], hs, hd, hsigpps[-1], max(hsigpps[:-1], default=1))
        r = close_leaves(general, row, s, d, max(sigpps, default=1), ceiling,
                         prime_table(), head)
        if emit is not None:
            cols = zip(*(c[: r.n].tolist() for c in r.cols))
            for i, (p, ls, ld, lo, upper, delta, prim) in enumerate(cols):
                if i == 0 and head is not None:
                    prefix, e = hpairs[:-1], hpairs[-1][1]
                else:
                    prefix, e = pairs, 1
                if lo <= upper:
                    leaf = prefix + ((p, e),)
                    for q in primes_in_closed(lo, upper):
                        emit(leaf + ((q, 1),), ls - q * ld)  # q <= ls // ld: delta >= 0
                if prim:
                    emit(prefix + ((p, e + 1),), delta)
        if r.over is not None:
            raise CeilingExceeded("leaf bound %d above ceiling %d" % (r.over, ceiling))
        return (*r.totals(), r.stop)

    def walk(k, v, s, pairs, sigpps):
        """One level.  A lone leaf (k == 1, a seed with one factor left) is
        a row of its own; any other level deepens the last prime (pndn) and
        then scans new primes above center(m) up to the first barren
        subtree.  At k == 2 those subtrees are leaves, closed in rows, and
        the deepened node, a leaf too, joins the first row as its head."""
        d = 2 * v - s
        if k == 1:
            if not pairs:
                return 0, 0, False  # m = 1: no prime lies at or below center(1) = 1
            return close_row((), (), s, d, [], (pairs, sigpps, s, d))[:3]
        ca = cp = 0
        found = False
        head = None
        # odd_only starts above 2; any odd_only node with primes holds odd ones
        pr = pairs[-1][0] if pairs else (2 if odd_only else 1)
        if general and pairs:
            p, e = pairs[-1]
            spp = sigpps[-1]
            delta, _ = same_prime_extension(s, d, p, spp, sigpps[:-1])
            if delta < 0:  # m*p stays deficient; perfect or abundant would be sterile
                deeper = (pairs[:-1] + ((p, e + 1),), sigpps[:-1] + (spp * p + 1,))
                if k == 2:
                    head = (*deeper, 2 * v * p + delta, -delta)
                else:
                    ca, cp, found = walk(k - 1, v * p, 2 * v * p + delta, *deeper)
        primes = iter_primes_above(max(s // d, pr))  # above s // d: above center(m)
        stop = None  # the first prime whose subtree is barren
        if k == 2:
            # A new prime p > 2s/d leaves upper <= p and a deficient m*p^2, so its
            # leaf is barren: the last row ends at the first such prime at the latest.
            bound = 2 * s // d
            while stop is None:
                row = []
                for p in islice(primes, _ROW):
                    row.append(p)
                    if p > bound:
                        break
                sca, scp, sfound, stop = close_row(pairs, sigpps, s, d, row, head)
                head = None
                ca += sca
                cp += scp
                found |= sfound
        else:
            for p in primes:
                sca, scp, sfound = walk(k - 1, v * p, s * (p + 1),
                                        pairs + ((p, 1),), sigpps + (p + 1,))
                ca += sca
                cp += scp
                found |= sfound
                if not sfound if general else sca == 0:
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
