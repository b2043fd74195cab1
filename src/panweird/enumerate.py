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
One vectorised rank call on the prime table, PrimeTable.pi, answers
pi(p), pi(lo - 1) and pi(upper) for every leaf of a row whose upper lies in
the table: a rank per word plus one popcount, which answers 300,000
random bounds up to 2^26 in 0.012 s where a searchsorted on an int64 array
of the primes took 0.19 s.  A leaf whose upper lies past the table still
counts with count_in_closed (Lucy's pi), once the in-order scan reaches
it, so a row neither counts nor raises past the scan's stop.  A lone leaf
(the deepened last prime, or a seed with one factor left) is a row of one.

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

from .arith import Factorization, seed_state
from .classify import NumberClass, reduced_center_floor, same_prime_extension
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


_ROW = 256  # leaves per row at most, to bound its memory; most leaf parents fit in one


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

    def close_row(prefix, e, others, row):
        """Close a row of sibling leaves in order, through the first barren one.

        Leaf i is m = prefix * p^e with (p, s, d, spp) = row[i]: sigma(m) = s,
        deficiency d and sigma(p^e) = spp; others holds sigma of each prime
        power of prefix.  A leaf closes with one new prime in [lo, upper] and,
        in pndn, with p once more.  Returns the row's (ca, cp, found) and the p
        of its barren leaf, or None.
        """
        omax = max(others, default=0)
        table = prime_table()
        limit = table.limit
        leaves = []
        query = []
        for p, s, d, spp in row:
            # largest integer q with q <= center(m), or q < center(m) for sfpan
            upper = s // d if general else (s - 1) // d
            lo = p + 1
            if upper > p:
                # only the largest sigma(q^alpha) matters; for sfpan the bound binds
                # only when the prefix carries prime powers (seeded runs)
                lb = reduced_center_floor(s, d, (omax, spp)) + 1
                if lb > lo:
                    lo = lb
                if upper <= limit:
                    # pi(p), pi(lo - 1) and pi(upper); an empty [lo, upper] counts 0
                    query += (p, lo - 1 if lo <= upper else upper, upper)
            leaves.append((p, s, d, spp, upper, lo))
        counts = iter(table.pi(query).reshape(-1, 3).tolist())
        ca = cp = 0
        found = False
        for p, s, d, spp, upper, lo in leaves:
            if upper > ceiling:
                raise CeilingExceeded("leaf bound %d above ceiling %d" % (upper, ceiling))
            lca = lcp = 0
            lfound = False
            if upper > p:
                if upper <= limit:
                    pi_p, pi_lo, pi_upper = next(counts)
                    lfound = pi_upper > pi_p
                    lca = pi_upper - pi_lo
                else:
                    n_all = count_in_closed(p + 1, upper)
                    lfound = n_all > 0
                    if lo <= upper:
                        lca = n_all - count_in_closed(p + 1, lo - 1)
                # never true for sfpan, whose upper sits strictly below the center
                if lca and upper * d == s and is_prime(upper):
                    lca -= 1
                    lcp = 1  # the completion sitting exactly at the center
                if emit is not None and lo <= upper:
                    leaf = prefix + ((p, e),)
                    for q in primes_in_closed(lo, upper):
                        emit(leaf + ((q, 1),), s - q * d)  # q <= s // d: delta >= 0
            if general:
                delta, primitive = same_prime_extension(s, d, p, spp, others)
                lfound |= delta >= 0
                if primitive:
                    if delta > 0:
                        lca += 1
                    else:
                        lcp += 1
                    if emit is not None:
                        emit(prefix + ((p, e + 1),), delta)
            ca += lca
            cp += lcp
            found |= lfound
            if not lfound if general else lca == 0:
                return ca, cp, found, p
        return ca, cp, found, None

    def walk(k, v, s, pairs, sigpps):
        """One level.  A leaf (k == 1) is a row of one; any other level
        deepens the last prime (pndn) and then scans new primes above
        center(m) up to the first barren subtree.  At k == 2 those subtrees
        are leaves, closed in rows."""
        d = 2 * v - s
        if k == 1:
            if not pairs:
                return 0, 0, False  # m = 1: no prime lies at or below center(1) = 1
            p, e = pairs[-1]
            return close_row(pairs[:-1], e, sigpps[:-1], [(p, s, d, sigpps[-1])])[:3]
        ca = cp = 0
        found = False
        # odd_only starts above 2; any odd_only node with primes holds odd ones
        pr = pairs[-1][0] if pairs else (2 if odd_only else 1)
        if general and pairs:
            p, e = pairs[-1]
            spp = sigpps[-1]
            delta, _ = same_prime_extension(s, d, p, spp, sigpps[:-1])
            if delta < 0:  # m*p stays deficient; perfect or abundant would be sterile
                ca, cp, found = walk(
                    k - 1, v * p, 2 * v * p + delta,
                    pairs[:-1] + ((p, e + 1),), sigpps[:-1] + (spp * p + 1,))
        primes = iter_primes_above(max(s // d, pr))  # above s // d: above center(m)
        stop = None  # the first prime whose subtree is barren
        if k == 2:
            # A new prime p > 2s/d leaves upper <= p and a deficient m*p^2, so its
            # leaf is barren: the last row ends at the first such prime at the latest.
            bound = 2 * s // d
            while stop is None:
                row = []
                for p in islice(primes, _ROW):
                    row.append((p, s * (p + 1), p * d - s, p + 1))
                    if p > bound:
                        break
                sca, scp, sfound, stop = close_row(pairs, 1, sigpps, row)
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
