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

A leaf's totals always come from prime counts over its interval [lo, upper],
so they come out without touching individual numbers; a record sink only
adds the loop that lists the interval's primes.

A seed pins the walk to the subtree of its multiples.  Larger campaigns
run disjoint seed shards as separate processes and add up their totals.

The recursion state is kept in plain integers: value, sigma, the factor
stack and sigma of each prime power.  Every predicate is decided by integer
cross-multiplication; note delta(m*p) = sigma(m) - p*deficiency(m) for a new
prime p, which makes the leaf trichotomy a single multiply.  When p already
divides m, classify.same_prime_extension decides both the class and the
primitivity of m*p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import MAX_FACTORS, Factorization, sigma, sigma_prime_power
from .classify import NumberClass, first_above_reduced_centers, same_prime_extension
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


def _walk(general, k, v, s, factors, sigpps, emit, include_perfect, on_stop,
          start_floor, ceiling):
    """One level.  The leaf (k == 1) closes with one new prime in [lo, upper]
    and, in pndn, with the last prime once more; an interior level deepens
    the last prime (pndn) and then scans new primes above center(m)."""
    d = 2 * v - s
    ca = cp = 0
    found = False
    pr = factors[-1][0] if factors else 1
    if k == 1:
        # largest integer p with p <= center(m), or p < center(m) for sfpan
        upper = s // d if general else (s - 1) // d
        if upper > ceiling:
            raise CeilingExceeded("leaf bound %d above ceiling %d" % (upper, ceiling))
        if upper > pr:
            n_all = count_in_closed(pr + 1, upper)
            found = n_all > 0
            lo = pr + 1
            if factors:
                # for sfpan, binding only when the stack carries prime powers (seeded runs)
                lb = first_above_reduced_centers(s, d, sigpps)
                if lb > lo:
                    lo = lb
            if lo <= upper:
                ca = n_all - count_in_closed(pr + 1, lo - 1)
                # never true for sfpan, whose upper sits strictly below the center
                if ca and upper * d == s and is_prime(upper):
                    ca -= 1
                    cp = 1  # the completion sitting exactly at the center
                if emit is not None:
                    base = tuple((q, e) for q, e in factors)
                    for p in primes_in_closed(lo, upper):
                        delta = s - p * d
                        if delta > 0 or include_perfect:
                            emit(base + ((p, 1),), delta)
    if general and factors:
        p, e = factors[-1]
        spp = sigpps[-1]
        delta, primitive = same_prime_extension(s, d, p, spp, sigpps[:-1])
        if k == 1:
            found |= delta >= 0
            if primitive:
                if delta > 0:
                    ca += 1
                else:
                    cp += 1
                if emit is not None and (delta > 0 or include_perfect):
                    emit(tuple((q, f) for q, f in factors[:-1]) + ((p, e + 1),), delta)
        elif delta < 0:  # m*p stays deficient; perfect or abundant would be sterile
            nspp = spp * p + 1
            factors[-1][1] = e + 1
            sigpps[-1] = nspp
            sca, scp, sfound = _walk(
                general, k - 1, v * p, 2 * v * p + delta, factors, sigpps,
                emit, include_perfect, on_stop, 0, ceiling,
            )
            factors[-1][1] = e
            sigpps[-1] = spp
            ca += sca
            cp += scp
            found |= sfound
    if k == 1:
        return ca, cp, found
    start = max(s // d, pr, start_floor)  # primes above s // d are above center(m)
    for p in iter_primes_above(start):
        factors.append([p, 1])
        sigpps.append(p + 1)
        sca, scp, sfound = _walk(
            general, k - 1, v * p, s * (p + 1), factors, sigpps,
            emit, include_perfect, on_stop, 0, ceiling,
        )
        factors.pop()
        sigpps.pop()
        ca += sca
        cp += scp
        found |= sfound
        barren = not sfound if general else sca == 0
        if barren:
            if on_stop is not None:
                on_stop(tuple((q, e) for q, e in factors), p, k)
            break
    return ca, cp, found


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
            Factorization._trusted(pairs),
            NumberClass.ABUNDANT if delta > 0 else NumberClass.PERFECT,
            delta,
        ))
    return emit


def _run(general, k, seed, sink, odd_only, include_perfect, on_stop, ceiling):
    if not isinstance(ceiling, int) or not 1 <= ceiling <= PI_BOUND:
        raise ValueError("ceiling must be an integer from 1 to %d" % PI_BOUND)
    v, s, factors, sigpps = _prepare(seed, k)
    have = sum(e for _, e in factors) if general else len(factors)
    left = k - have
    if left < 1:
        raise ValueError("k counts the seed's %d factors too" % have)
    if odd_only and factors and factors[0][0] == 2:
        raise ValueError("odd_only conflicts with an even seed")
    start_floor = 2 if odd_only else 0  # primes above 2 only at the first level
    emit = _record_emitter(sink) if sink is not None else None
    ca, cp, found = _walk(
        general, left, v, s, factors, sigpps, emit, include_perfect,
        on_stop, start_floor, ceiling,
    )
    return EnumOutcome(ca, cp, found)


def pndn(k, seed=None, sink=None, *, odd_only=False, include_perfect=False,
         on_stop=None, ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every primitive non-deficient number with k prime factors
    (counted with multiplicity) divisible by the deficient seed, seed's
    factors included in the count.

    Perfect completions reach the sink only under include_perfect and are
    never added to count_abundant.
    """
    return _run(True, k, seed, sink, odd_only, include_perfect, on_stop, ceiling)


def pndn_count(k, seed=None, *, odd_only=False, include_perfect=False,
               ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Counting twin of pndn: same totals, no records built."""
    return _run(True, k, seed, None, odd_only, include_perfect, None, ceiling)


def sfpan(k, seed=None, sink=None, *, odd_only=False, on_stop=None,
          ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Emit every square-free-beyond-the-seed primitive abundant number with
    k distinct primes, the seed's counted too.

    The seed may carry prime powers; the new primes are distinct and larger.
    Perfect numbers cannot appear here: the final prime sits strictly below
    the center.
    """
    return _run(False, k, seed, sink, odd_only, False, on_stop, ceiling)


def sfpan_count(k, seed=None, *, odd_only=False,
                ceiling=_DEFAULT_CEILING) -> EnumOutcome:
    """Counting twin of sfpan: same totals, no records built."""
    return _run(False, k, seed, None, odd_only, False, None, ceiling)
