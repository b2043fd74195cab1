"""Weird numbers: the semiperfection test, the index-sequence codec, and
amplitude-bounded searches for primitive weird numbers.

A weird number is abundant but not a sum of distinct proper divisors.  Only
divisors up to the abundance delta matter: a subset of proper divisors sums
to n exactly when its complement sums to delta, and every summand of a
partition of delta is at most delta.  So the test enumerates the (few, tiny)
divisors below delta of a possibly enormous number and runs an exact subset
sum, witness first: a descending branch and bound with suffix-sum pruning
looks for a subset, under a node budget when delta is small enough for a
bitset sweep, and the exact bitset decides only when the budget runs out.
Its first path is the greedy pass, which takes every value that still fits.
That path alone decides about four in five of the searches' calls, so it
runs first, as one plain pass over the sorted values, before any suffix sum
or stack is built.  Every later path runs as a plain loop too, and only
skipped branches wait on a stack.

Search trees follow the enumeration recursions but replace the open-ended
prime scans with windows around the center: an interior level tries the
first `amplitude` primes above center(m), the final level the last
`amplitude` primes below it.  Window slots shadowed by earlier factors are
skipped but still spent, so every emitted number has all index magnitudes
within the amplitude, and widening the amplitude only adds emissions.  A
record's index sequence is its codec encoding, encode_index_sequence of
its factorization: the window's j-th slot is the j-th prime the codec
counts from the same center.  Both searches start from search_start:
arith.seed_state, as the enumeration walks do, and the amplitude check;
both close leaves with the walks' primitivity floor, reduced_center_floor.
The codec steps at most MAX_INDEX primes from a center, and an amplitude
may not exceed it, so every search record stays encodable.

Centers s/d are never built as ratios.  The searches and the codec step
with one integer rule: the primes above s/d are the primes above s // d,
the primes below it the primes below -(-s // d), and a prime sits at the
center exactly when d divides s and s // d is prime.

No search node lists its own divisors: each carries every divisor of its
value down the walk.  The final level closes its leaves in a row: the
parent m sorts its carried list once, cuts it at the row's largest delta
and sums its prefixes, and each leaf m*p takes its values by bisection,
the divisors e <= delta of m and, when p <= delta, the p*e <= delta.  The
weirdness test takes values in decreasing order with their sum.  A leaf
with p > delta, about two in five of the searches' leaves, has no p*e:
its values are a slice of the reversed list and their sum a prefix sum,
so it sorts and adds nothing.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .arith import (
    MAX_INPUT_BITS,
    Factorization,
    _excerpt,
    abundance,
    digits10,
    seed_state,
    sigma_prime_power,
)
from .classify import deepen, reduced_center_floor
from .errors import (
    CeilingExceeded,
    InvalidSequence,
    NoSuchPrime,
    NotAbundant,
    ParseError,
    PrefixNotDeficient,
)
from .primes import (
    certifiable,
    is_prime,
    kth_prime_above,
    kth_prime_below,
)

_BITSET_LIMIT = 1 << 24
# visited branch-and-bound nodes before a target up to _BITSET_LIMIT falls
# back to the bitset sweep
_NODE_BUDGET = 2000


def divisors_up_to(f: Factorization, bound: int) -> list[int]:
    """All divisors of f that are <= bound, unordered, 1 included."""
    if bound < 1:
        return []
    out = [1]
    for p, e in f.factors:
        powers = []
        q = 1
        for _ in range(e):
            q *= p
            if q > bound:
                break
            powers.append(q)
        if powers:
            # the comprehension must see the pre-extension list only
            out += [d * q for q in powers for d in out if d * q <= bound]
    return out


def _descend(desc: list[int], target: int, budget) -> bool | None:
    """Descending branch and bound with suffix-sum pruning over desc, which
    is sorted in decreasing order.  Taking a value is explored before
    skipping it, so the first path is the greedy pass.  A path goes on in
    place while it takes values; only the skipped branches wait on the
    stack.  Returns True on a witness, False when the search is exhausted,
    and None when budget visited nodes were spent first (budget None is
    unlimited)."""
    n = len(desc)
    suffix = list(accumulate(reversed(desc), initial=0))[::-1]  # sums of desc[i:]
    stack = []  # pending (index, remaining), remaining > 0
    visited = 0
    i, t = 0, target
    while True:
        if visited == budget:
            return None
        visited += 1
        while i < n and desc[i] > t:
            i += 1
        if i < n and suffix[i] >= t:
            if suffix[i] == t or desc[i] == t:
                return True
            stack.append((i + 1, t))  # skip desc[i], explored later
            i, t = i + 1, t - desc[i]  # take it, explored next
        elif stack:
            i, t = stack.pop()
        else:
            return False


def _subset_sums_desc(desc: list[int], total: int, target: int) -> bool:
    """subset_sums_to for values already in decreasing order, total their
    sum: the search leaves call it with both in hand."""
    if target == 0:
        return True
    if total < target:
        return False
    t = target
    for v in desc:  # the greedy pass, _descend's first path
        if v <= t:
            t -= v
            if not t:
                return True
    budget = _NODE_BUDGET if target <= _BITSET_LIMIT else None
    found = _descend(desc, target, budget)
    if found is not None:
        return found
    # budget spent: sweep in increasing order; on the searches' divisor
    # lists a decreasing sweep is about 3x slower
    mask = (1 << (target + 1)) - 1
    bits = 1
    probe = 1 << target
    for v in reversed(desc):
        if v > target:
            break  # bits << v would be v bits long, and so would the rest
        bits |= (bits << v) & mask
        if bits & probe:
            return True
    return False


def subset_sums_to(values: list[int], target: int) -> bool:
    """Whether some subset of the (distinct) values sums exactly to target.

    Witness first: a greedy pass, the branch and bound's first path, takes
    each value that still fits in decreasing order, and a zero remainder is
    a witness.  Otherwise the descending branch and bound runs.  Up to
    _BITSET_LIMIT it runs under _NODE_BUDGET visited nodes, and when those
    run out the exact bitset sweep decides, in increasing order; above the
    limit it runs to the end.  True always comes from a witness, False from
    an exhausted search or from the bitset.  Values above target take part
    in none: the greedy pass and the branch and bound step over them and
    the sweep stops at them, so the walks' and searches' divisor lists, all
    at or below their target, are never filtered first.
    """
    return _subset_sums_desc(sorted(values, reverse=True), sum(values), target)


def is_weird(f: Factorization) -> bool:
    """Abundant and not semiperfect; raises NotAbundant otherwise."""
    delta = abundance(f)
    if delta <= 0:
        raise NotAbundant("%s is not abundant" % f)
    divisors = divisors_up_to(f, delta)
    value = f.value
    if value <= delta:  # can happen for very abundant inputs; n is not proper
        divisors = [d for d in divisors if d != value]
    return not subset_sums_to(divisors, delta)


# ---------------------------------------------------------------------------
# Index sequences: positional encoding of a factorization against the
# centers of its own prefixes.

_ENTRY_RE = re.compile(r"^(-?\d+)(?:\^(\d+))?$", re.ASCII)

# Largest |index| the codec steps to, one prime at a time; the catalogs'
# indices stay within 15.
MAX_INDEX = 1 << 10


def _index_ceiling(pos):
    return CeilingExceeded("entry %d of the index sequence lies past %d "
                           "primes from its center" % (pos + 1, MAX_INDEX))


@dataclass(frozen=True)
class IndexSequence:
    """Entries (index, exponent); index i > 0 means the i-th prime above the
    running center, i < 0 the |i|-th below, 0 the center itself."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidSequence("empty index sequence")
        for _, e in self.entries:
            if e < 1:
                raise InvalidSequence("exponents must be positive")

    @classmethod
    def parse(cls, text: str) -> "IndexSequence":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("index sequence must be bracketed: %s" % _excerpt(text))
        body = body[1:-1].strip()
        if not body:
            raise ParseError("empty index sequence")
        entries = []
        for token in body.split(","):
            m = _ENTRY_RE.match(token.strip())
            if not m:
                raise ParseError("bad index entry %s" % _excerpt(token))
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            entries.append((idx, exp))
        return cls(tuple(entries))

    def __str__(self) -> str:
        return "[%s]" % ", ".join(
            "%d^%d" % (i, e) if e > 1 else "%d" % i for i, e in self.entries
        )


def encode_index_sequence(f: Factorization) -> IndexSequence:
    """Index sequence of f; every proper prefix must be deficient.  An index
    past MAX_INDEX raises CeilingExceeded, before any step when p lies
    farther from the center than MAX_INDEX primes can reach."""
    if not f.factors:
        raise InvalidSequence("1 has no index sequence")
    v = s = 1
    entries = []
    for pos, (p, e) in enumerate(f.factors):
        d = 2 * v - s
        if d <= 0:
            raise PrefixNotDeficient(
                "prefix before %d is not deficient in %s" % (p, f)
            )
        # MAX_INDEX primes span MAX_INDEX * b^2 only if their mean gap
        # reaches b^2, b the bit length of the larger end; no prime gap
        # known below 2^b reaches (b ln 2)^2
        if abs(p - s // d) > MAX_INDEX * max(p, s // d).bit_length() ** 2:
            raise _index_ceiling(pos)
        if p * d == s:  # p sits at the center
            idx = 0
            q = p if is_prime(p) else None
        elif p * d > s:  # p above the center, count upward
            idx = 1
            q = kth_prime_above(s // d, 1)
            while q < p:
                if idx == MAX_INDEX:
                    raise _index_ceiling(pos)
                q = kth_prime_above(q, 1)
                idx += 1
        else:  # below the center, count downward
            idx = -1
            q = kth_prime_below(-(-s // d), 1)
            while q > p:
                if idx == -MAX_INDEX:
                    raise _index_ceiling(pos)
                q = kth_prime_below(q, 1)
                idx -= 1
        if q != p:  # the count stepped over p
            raise InvalidSequence("factor %d of %s is not prime" % (p, f))
        entries.append((idx, e))
        v *= p**e
        s *= sigma_prime_power(p, e)
    return IndexSequence(tuple(entries))


def decode_index_sequence(seq) -> Factorization:
    """Rebuild the factorization an index sequence denotes.  CeilingExceeded
    is raised for an index past MAX_INDEX before any step, and for a number
    past arith.MAX_INPUT_BITS, measured as factorization text is, before
    the prime power that passes it is built."""
    if isinstance(seq, str):
        seq = IndexSequence.parse(seq)
    for pos, (idx, _) in enumerate(seq.entries):
        if abs(idx) > MAX_INDEX:
            raise _index_ceiling(pos)
    v = s = 1
    prev = 1
    bits = 0
    pairs = []
    for idx, e in seq.entries:
        d = 2 * v - s
        if d <= 0:
            raise InvalidSequence("interior prefix is not deficient")
        if idx == 0:
            p = s // d
            if p * d != s or not is_prime(p):
                raise InvalidSequence("no prime sits at center %d/%d" % (s, d))
        elif idx > 0:
            p = kth_prime_above(s // d, idx)
        else:
            try:
                p = kth_prime_below(-(-s // d), -idx)
            except NoSuchPrime:
                raise InvalidSequence(
                    "not enough primes below center %d/%d" % (s, d)) from None
        if p <= prev:
            raise InvalidSequence("index %d repeats or reorders primes" % idx)
        bits += e * p.bit_length()
        if bits > MAX_INPUT_BITS:
            raise CeilingExceeded("decoded number above the %d-bit input bound"
                                  % MAX_INPUT_BITS)
        pairs.append((p, e))
        prev = p
        v *= p**e
        s *= sigma_prime_power(p, e)
    return Factorization._trusted(tuple(pairs))


# ---------------------------------------------------------------------------
# Primitive weird number searches.

@dataclass(frozen=True)
class PwnRecord:
    """One primitive weird number, as found."""

    factorization: Factorization
    index_sequence: IndexSequence
    abundance: int
    digits: int
    certified: bool


def _weird_pairs(pairs, delta, desc, total) -> bool:
    """Whether the search leaf with these factor pairs is weird: delta is
    its abundance, desc its divisors up to delta in decreasing order, total
    their sum.  Every leaf of _search is decided here, so one patch of this
    name sees each leaf with its pairs and values."""
    return not _subset_sums_desc(desc, total, delta)


def _deepened(divs, pair) -> list[int]:
    """Every divisor of m*q, from divs, every divisor of m, and m's last
    factor pair (q, e): the new ones are q times those that q^e divides."""
    q, e = pair
    qe = q**e
    return divs + [q * x for x in divs if x % qe == 0]


def _search(general, left, v, s, pairs, sigpps, sink, amplitude, certify) -> int:
    """Amplitude-windowed walk behind both searches; general picks the mode.

    It starts from a seed_state: left factors to add to the seed with value
    v, sigma s, factor pairs and prime-power sigmas sigpps.  The mode
    decides only whether a node deepens its last prime, by the walks' step,
    classify.deepen; in both, a leaf prime must exceed reduced_center_floor,
    the exact primitivity bound.  Each node carries every divisor of its
    value, unordered, down the walk: a new prime p adds p times each, and
    deepening adds _deepened's.
    """
    count = 0

    def emit(pairs, value, delta, desc, total):
        nonlocal count
        if not _weird_pairs(pairs, delta, desc, total):
            return
        count += 1
        if sink is not None:
            f = Factorization._trusted(pairs)
            sink(PwnRecord(
                f, encode_index_sequence(f), delta, digits10(value),
                certify and all(certifiable(q) for q, _ in pairs),
            ))

    def rec(left, v, s, pairs, sigpps, divs):
        d = 2 * v - s
        pr = pairs[-1][0] if pairs else 1
        if general and pairs:
            delta, primitive, child = deepen(v, s, pairs, sigpps)
            if left == 1:
                if delta > 0 and primitive:
                    desc = sorted((x for x in _deepened(divs, pairs[-1]) if x <= delta),
                                  reverse=True)
                    emit(child[2], child[0], delta, desc, sum(desc))
            elif delta < 0:  # still deficient with one more p
                rec(left - 1, *child, _deepened(divs, pairs[-1]))
        if left > 1:
            p = s // d  # the primes above it are the primes above the center
            for _ in range(amplitude):
                p = kth_prime_above(p, 1)
                if p <= pr:
                    continue  # slot spent on a prime already behind us
                rec(left - 1, v * p, s * (p + 1), pairs + ((p, 1),), sigpps + (p + 1,),
                    divs + [p * x for x in divs])
            return
        p = -(-s // d)  # the primes below it are the primes below the center
        floor = reduced_center_floor(s, d, sigpps)  # a leaf prime must exceed it
        row = []  # the leaf primes, from the center down
        for _ in range(amplitude):
            try:
                p = kth_prime_below(p, 1)
            except NoSuchPrime:
                break
            if p <= pr:
                break  # deeper slots only get smaller
            if p <= floor:
                break  # the bound only gets harder as p shrinks
            row.append(p)
        if not row:
            return
        # the leaf v*p has delta s - p*d, largest for the row's last p; its
        # divisors up to delta are v's divisors e <= delta and, p being
        # new, the p*e <= delta, none of them among the e
        divs = sorted(divs)
        divs = divs[:bisect_right(divs, s - row[-1] * d)]
        prefix = list(accumulate(divs, initial=0))  # prefix[i] = sum(divs[:i])
        desc = divs[::-1]
        for p in row:
            delta = s - p * d
            i = bisect_right(divs, delta)
            if p > delta:  # no p*e fits: the e <= delta, a slice of desc
                values, total = desc[len(divs) - i:], prefix[i]
            else:
                j = bisect_right(divs, delta // p)
                values = sorted(divs[:i] + [p * e for e in divs[:j]], reverse=True)
                total = prefix[i] + p * prefix[j]
            emit(pairs + ((p, 1),), v * p, delta, values, total)

    rec(left, v, s, pairs, sigpps, divisors_up_to(Factorization._trusted(pairs), v))
    return count


def search_start(general, k, seed, amplitude):
    """seed_state(seed, k, general), once amplitude is checked too: every
    check a search makes before its first step, so a caller can check its
    inputs before it opens output."""
    state = seed_state(seed, k, general)
    if not 1 <= amplitude <= MAX_INDEX:
        raise ValueError("amplitude must be from 1 to %d" % MAX_INDEX)
    return state


def pwn_search_squarefree(k, seed=None, sink=None, *, amplitude, certify=False) -> int:
    """Search for primitive weird numbers that extend the seed square-freely.

    Emitted numbers have k distinct primes, the seed's counted too; the seed
    is taken and checked as by sfpan.  amplitude caps how far a chosen prime
    may sit from the running center, in primes.  Leaves apply the exact
    primitivity bound, as in pwn_search_general, so everything emitted is
    primitive abundant before the weirdness test runs.  certify marks a
    record certified when is_prime decides each of its primes
    deterministically.  Returns the number of emissions.
    """
    return _search(False, *search_start(False, k, seed, amplitude), sink, amplitude, certify)


def pwn_search_general(k, seed=None, sink=None, *, amplitude, certify=False) -> int:
    """Search for primitive weird numbers with square parts allowed.

    Emitted numbers have k prime factors counted with multiplicity, the
    seed's included; the seed is taken and checked as by pndn.  Interior
    levels may deepen the last prime's exponent while the result stays
    deficient; the amplitude constrains only the choice of new primes.
    Leaves apply the exact primitivity bounds, so everything emitted is
    primitive abundant before the weirdness test runs.  amplitude and
    certify are as in pwn_search_squarefree.  Returns the number of
    emissions.
    """
    return _search(True, *search_start(True, k, seed, amplitude), sink, amplitude, certify)
