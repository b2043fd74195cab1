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

A seed pins the walk to the subtree of its multiples.  Larger campaigns
run disjoint seed shards as separate processes and add up their totals.

The recursion state is kept in plain integers: value, sigma, the factor
stack and sigma of each prime power.  Every predicate is decided by integer
cross-multiplication; note delta(m*p) = sigma(m) - p*deficiency(m) for a new
prime p, which makes the leaf trichotomy a single multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _leaf(general, v, s, factors, sigpps, emit, include_perfect, ceiling):
    """Final level: close with one new prime up to center(m) (pndn) or
    strictly below it (sfpan), or, in pndn, with the last prime once more."""
    d = 2 * v - s
    ca = cp = 0
    found = False
    pr = factors[-1][0] if factors else 1
    # largest integer p with p <= center(m), or p < center(m) for sfpan
    upper = s // d if general else (s - 1) // d
    if upper > ceiling:
        raise CeilingExceeded("leaf bound %d above ceiling %d" % (upper, ceiling))
    if upper > pr:
        n_all = count_in_closed(pr + 1, upper)
        if n_all:
            found = True
        lo = pr + 1
        if factors:
            # for sfpan, binding only when the stack carries prime powers (seeded runs)
            lb = first_above_reduced_centers(s, d, sigpps)
            if lb > lo:
                lo = lb
        if lo <= upper:
            if emit is None:
                n = n_all - count_in_closed(pr + 1, lo - 1)
                # never true for sfpan, whose upper sits strictly below the center
                if n and upper * d == s and is_prime(upper):
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
    if general and factors:
        p, e = factors[-1]
        spp = sigpps[-1]
        q = s // spp
        delta = q - p * d  # abundance of m*p when p already divides m
        if delta >= 0:
            found = True
            if clears_reduced_centers(p * spp, 1, s, d, sigpps[:-1]):
                if delta > 0:
                    ca += 1
                else:
                    cp += 1
                if emit is not None and (delta > 0 or include_perfect):
                    emit(tuple((x, y) for x, y in factors[:-1]) + ((p, e + 1),), delta)
    return ca, cp, found


def _walk(general, k, v, s, factors, sigpps, emit, include_perfect, on_stop,
          start_floor, ceiling):
    """Interior level: deepen the last prime (pndn) and scan new primes."""
    if k == 1:
        return _leaf(general, v, s, factors, sigpps, emit, include_perfect, ceiling)
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
                emit, include_perfect, on_stop, 0, ceiling,
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
            Factorization(pairs),
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
