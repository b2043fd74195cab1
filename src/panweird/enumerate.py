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

Counting mode replaces each leaf loop with a prime-interval count, so the
totals come out without touching individual numbers.

With jobs > 1 this process walks the first two levels of new primes itself
(deepening an exponent stays at the level of its prime) and hands each
subtree below them to a worker process.  Siblings are
evaluated speculatively in windows of jobs and reduced strictly in prime
order, so counts, found and the record sequence equal a single-process
run's; results past a stop point are dropped.  jobs is capped at the CPU
count.

The recursion state is kept in plain integers: value, sigma, the factor
stack and sigma of each prime power.  Every predicate is decided by integer
cross-multiplication; note delta(m*p) = sigma(m) - p*deficiency(m) for a new
prime p, which makes the leaf trichotomy a single multiply.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

from .arith import MAX_FACTORS, Factorization, sigma, sigma_prime_power
from .classify import NumberClass, clears_reduced_centers, first_above_reduced_centers
from .errors import CeilingExceeded, NotDeficient
from .primes import (
    _DEFAULT_CEILING,
    PI_BOUND,
    count_in_closed,
    is_prime,
    iter_primes_above,
    primes_in_closed,
)


@dataclass(frozen=True)
class EnumRecord:
    """One emitted primitive non-deficient number."""

    factorization: Factorization
    number_class: NumberClass
    abundance: int

    @property
    def omega(self) -> int:
        return self.factorization.omega

    @property
    def big_omega(self) -> int:
        return self.factorization.big_omega


@dataclass
class EnumOutcome:
    """Totals of one run; found mirrors the recursion's stopping signal.

    found is true when some completion with the requested factor count
    exists, primitive or not; it is what interior levels use to decide
    that larger sibling primes cannot work either.
    """

    count_abundant: int = 0
    count_perfect: int = 0
    found: bool = False


def _leaf_pndn(v, s, factors, sigpps, emit, include_perfect, ceiling):
    """Final level: close with one more prime p <= center, or the last prime."""
    d = 2 * v - s
    ca = cp = 0
    found = False
    pr = factors[-1][0] if factors else 1
    upper = s // d  # largest integer p with p <= center(m)
    if upper > ceiling:
        raise CeilingExceeded("leaf bound %d above ceiling %d" % (upper, ceiling))
    if upper > pr:
        n_all = count_in_closed(pr + 1, upper)
        if n_all:
            found = True
        lo = pr + 1
        if factors:
            lb = first_above_reduced_centers(s, d, sigpps)
            if lb > lo:
                lo = lb
        if lo <= upper:
            if emit is None:
                n = n_all - count_in_closed(pr + 1, lo - 1)
                if n and s % d == 0 and is_prime(upper):
                    cp += 1  # the completion sitting exactly at the center
                    ca += n - 1
                else:
                    ca += n
            else:
                base = tuple((q, e) for q, e in factors)
                for p in primes_in_closed(lo, upper):
                    delta = s - p * d
                    if delta > 0:
                        ca += 1
                        emit(base + ((p, 1),), delta)
                    else:
                        cp += 1
                        if include_perfect:
                            emit(base + ((p, 1),), 0)
    if factors:
        p, e = factors[-1]
        spp = sigpps[-1]
        q = s // spp
        delta = q - p * d  # abundance of m*p when p already divides m
        if delta >= 0:
            found = True
            if clears_reduced_centers(p * spp, 1, s, d, sigpps[:-1]):
                if delta > 0:
                    ca += 1
                    if emit is not None:
                        emit(
                            tuple((x, y) for x, y in factors[:-1]) + ((p, e + 1),),
                            delta,
                        )
                else:
                    cp += 1
                    if emit is not None and include_perfect:
                        emit(
                            tuple((x, y) for x, y in factors[:-1]) + ((p, e + 1),),
                            0,
                        )
    return ca, cp, found


def _leaf_sfpan(v, s, factors, sigpps, emit, ceiling):
    """Final level, square-free flavor: one new prime strictly below center."""
    d = 2 * v - s
    pr = factors[-1][0] if factors else 1
    upper = (s - 1) // d  # largest integer p with p < center(m), strictly
    if upper > ceiling:
        raise CeilingExceeded("leaf bound %d above ceiling %d" % (upper, ceiling))
    n_all = count_in_closed(pr + 1, upper)
    found = n_all > 0
    lo = pr + 1
    if factors:
        # binding only when the stack carries prime powers (seeded runs)
        lb = first_above_reduced_centers(s, d, sigpps)
        if lb > lo:
            lo = lb
    ca = 0
    if lo <= upper:
        if emit is None:
            ca = n_all - count_in_closed(pr + 1, lo - 1)
        else:
            base = tuple((q, e) for q, e in factors)
            for p in primes_in_closed(lo, upper):
                ca += 1
                emit(base + ((p, 1),), s - p * d)
    return ca, 0, found


def _walk(general, k, v, s, factors, sigpps, emit, include_perfect, on_stop,
          start_floor, ceiling, pool=None, jobs=1, level=0):
    """Interior level: deepen the last prime (pndn) and scan new primes.

    level counts the new primes chosen since the root; pool, when given,
    walks the subtrees rooted at level 2 (see _subtrees).
    """
    if k == 1:
        if general:
            return _leaf_pndn(v, s, factors, sigpps, emit, include_perfect, ceiling)
        return _leaf_sfpan(v, s, factors, sigpps, emit, ceiling)
    d = 2 * v - s
    ca = cp = 0
    found = False
    if general and factors:
        p, e = factors[-1]
        spp = sigpps[-1]
        q = s // spp
        if p * d > q:  # m*p stays deficient; perfect or abundant would be sterile
            nspp = spp * p + 1
            factors[-1][1] = e + 1
            sigpps[-1] = nspp
            sca, scp, sfound = _walk(
                general, k - 1, v * p, q * nspp, factors, sigpps,
                emit, include_perfect, on_stop, 0, ceiling, pool, jobs, level,
            )
            factors[-1][1] = e
            sigpps[-1] = spp
            ca += sca
            cp += scp
            found |= sfound
    pr = factors[-1][0] if factors else 1
    start = s // d  # primes strictly above this are strictly above center(m)
    if pr > start:
        start = pr
    if start_floor > start:
        start = start_floor
    for p, (sca, scp, sfound) in _subtrees(
        general, k, v, s, factors, sigpps, emit, include_perfect, on_stop,
        start, ceiling, pool, jobs, level,
    ):
        ca += sca
        cp += scp
        if sfound:
            found = True
        barren = not sfound if general else sca == 0
        if barren:
            if on_stop is not None:
                on_stop(tuple((q, e) for q, e in factors), p, k)
            break
    return ca, cp, found


def _subtrees(general, k, v, s, factors, sigpps, emit, include_perfect, on_stop,
              start, ceiling, pool, jobs, level):
    """Yield (p, subtree totals) for each new prime p above start, in order.

    Inline, each subtree is walked when its turn comes.  With a pool, the
    children of a level-1 node that are not leaves go to workers in windows
    of jobs siblings; a window's records are re-emitted in prime order, and
    results past the first barren sibling are dropped when the caller stops.
    """
    primes = iter_primes_above(start)
    if pool is None or level != 1 or k < 3:
        for p in primes:
            factors.append([p, 1])
            sigpps.append(p + 1)
            totals = _walk(
                general, k - 1, v * p, s * (p + 1), factors, sigpps,
                emit, include_perfect, on_stop, 0, ceiling, pool, jobs, level + 1,
            )
            factors.pop()
            sigpps.pop()
            yield p, totals
        return
    base = tuple((q, e) for q, e in factors)
    want_records = emit is not None
    while True:
        window = [
            (p, pool.submit(_subtree_task, (
                general, k - 1, base + ((p, 1),), include_perfect, want_records, ceiling,
            )))
            for p in islice(primes, jobs)
        ]
        for p, (ca, cp, found, records) in [(p, f.result()) for p, f in window]:
            for pairs, delta in records or ():
                emit(pairs, delta)
            yield p, (ca, cp, found)


def _subtree_task(args):
    """Walk one subtree in a worker; records come back as (pairs, delta)."""
    general, k, pairs, include_perfect, want_records, ceiling = args
    v, s, factors, sigpps = _prepare(Factorization(pairs), k)
    records = [] if want_records else None
    emit = (lambda pairs_r, delta: records.append((pairs_r, delta))) if want_records else None
    ca, cp, found = _walk(
        general, k, v, s, factors, sigpps, emit, include_perfect, None, 0, ceiling,
    )
    return ca, cp, found, records


# ---------------------------------------------------------------------------
# Public entry points.

def _prepare(seed, k):
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if k > MAX_FACTORS:
        raise ValueError("k must be at most %d" % MAX_FACTORS)
    f = Factorization.coerce(seed if seed is not None else 1)
    factors = [[p, e] for p, e in f.factors]
    sigpps = [sigma_prime_power(p, e) for p, e in f.factors]
    v = f.value
    s = sigma(f)
    if 2 * v - s <= 0:
        raise NotDeficient("seed %s is not deficient" % f)
    return v, s, factors, sigpps


def _record_emitter(sink):
    def emit(pairs, delta):
        sink(EnumRecord(
            Factorization(pairs),
            NumberClass.ABUNDANT if delta > 0 else NumberClass.PERFECT,
            delta,
        ))
    return emit


def _run(general, k, seed, sink, odd_only, include_perfect, jobs, on_stop, ceiling):
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if jobs > 1 and on_stop is not None:
        raise ValueError("stop auditing is a single-process feature")
    if not isinstance(ceiling, int) or not 1 <= ceiling <= PI_BOUND:
        raise ValueError("ceiling must be an integer from 1 to %d" % PI_BOUND)
    jobs = min(jobs, os.cpu_count() or 1)
    v, s, factors, sigpps = _prepare(seed, k)
    have = sum(e for _, e in factors) if general else len(factors)
    left = k - have
    if left < 1:
        raise ValueError("k counts the seed's %d factors too" % have)
    if odd_only and factors and factors[0][0] == 2:
        raise ValueError("odd_only conflicts with an even seed")
    start_floor = 2 if odd_only else 0  # primes above 2 only at the first level
    emit = _record_emitter(sink) if sink is not None else None
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        ca, cp, found = _walk(
            general, left, v, s, factors, sigpps, emit, include_perfect,
            on_stop, start_floor, ceiling, pool, jobs,
        )
    return EnumOutcome(ca, cp, found)


def pndn(k, seed=None, sink=None, *, odd_only=False, include_perfect=False,
         jobs=1, on_stop=None, ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every primitive non-deficient number with k prime factors
    (counted with multiplicity) divisible by the deficient seed, seed's
    factors included in the count.

    Perfect completions reach the sink only under include_perfect and are
    never added to count_abundant.
    """
    return _run(True, k, seed, sink, odd_only, include_perfect, jobs, on_stop, ceiling)


def pndn_count(k, seed=None, *, odd_only=False, include_perfect=False,
               jobs=1, ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Counting twin of pndn: same totals, no records built."""
    return _run(True, k, seed, None, odd_only, include_perfect, jobs, None, ceiling)


def sfpan(k, seed=None, sink=None, *, odd_only=False, jobs=1, on_stop=None,
          ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every square-free-beyond-the-seed primitive abundant number with
    k distinct primes, the seed's counted too.

    The seed may carry prime powers; the new primes are distinct and larger.
    Perfect numbers cannot appear here: the final prime sits strictly below
    the center.
    """
    return _run(False, k, seed, sink, odd_only, False, jobs, on_stop, ceiling)


def sfpan_count(k, seed=None, *, odd_only=False, jobs=1,
                ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Counting twin of sfpan: same totals, no records built."""
    return _run(False, k, seed, None, odd_only, False, jobs, None, ceiling)
