"""Primality testing, prime stepping and prime counting.

Everything here works on plain integers, bounds included: a rational bound
raises TypeError.  A caller stepping from a center c = s/d asks for the
primes above s // d or below -(-s // d): an integer x exceeds c exactly when
x > s // d, and lies below c exactly when x < -(-s // d).

The primes up to a limit form one sorted int64 numpy array, the table, grown
(up to 2^26) by sieving only the new range with one odd-only sieve.  Only
counting grows it: prime_pi(x) looks x up in the table; past it, nothing is
sieved: pi(x) comes from Lucy_Hedgehog's recurrence over the table's primes
up to isqrt(x), in O(x^(3/4)) time and O(sqrt(x)) memory, for x up to
PI_BOUND.  A count over [lo, hi] is prime_pi(hi) - prime_pi(lo - 1).
Stepping (next_prime, kth_prime_*, iter_primes_above) reads the table as it
stands, grown at most to a small floor; past the table it steps with strong
tests, exact below 3.3 * 10^24.  Only Python ints leave the table.
"""

from __future__ import annotations

import operator
import random
import threading
from math import gcd, isqrt, log, prod

import numpy as np

from .errors import CeilingExceeded, NoSuchPrime

# Largest bound for which a known fixed Miller-Rabin base set is proven
# deterministic (the first 13 primes; Sorenson and Webster, 2015).
_DETERMINISTIC_BASE_CEILING = 3_317_044_064_679_887_385_961_981

# (bound, bases): n below bound is correctly decided by these witnesses.
_MR_BASE_SETS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (_DETERMINISTIC_BASE_CEILING, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# The primes up to 251 and their product: one gcd screens out every n with
# a factor among them, and an n below 257^2 that passes it is prime.
_SMALL_PRIMES = frozenset(p for p in range(2, 252) if all(p % q for q in range(2, p)))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_SCREEN_EXACT = 257 * 257
_DEFAULT_CEILING = 5 * 10**10
# Strong rounds after base 2 for n at or above _DETERMINISTIC_BASE_CEILING.
_ROUNDS_ABOVE_CEILING = 24


def _is_strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality by one fixed rule.

    Below _DETERMINISTIC_BASE_CEILING the proven witness sets decide n
    exactly.  Above it, n passes a strong base-2 test and
    _ROUNDS_ABOVE_CEILING more strong rounds whose bases are derived from n,
    so every run reaches the same verdict.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < _SCREEN_EXACT:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_BASE_SETS:
        if n < bound:
            return all(_is_strong_probable_prime(n, a, d, s) for a in bases)
    if not _is_strong_probable_prime(n, 2, d, s):
        return False
    rng = random.Random(n ^ 0x5EED0F9E11E5)
    for _ in range(_ROUNDS_ABOVE_CEILING):
        a = rng.randrange(3, n - 1)
        if not _is_strong_probable_prime(n, a, d, s):
            return False
    return True


def certifiable(n: int) -> bool:
    """Whether is_prime decides n deterministically."""
    return n < _DETERMINISTIC_BASE_CEILING


# ---------------------------------------------------------------------------
# The prime table: every prime up to a limit, in one sorted int64 array.

_CACHE_CAP = 1 << 26  # the table stops growing here; past the table, stepping goes MR
_TABLE_FLOOR = 1 << 16  # the table's least growth, and all that stepping asks of it
_WINDOW = 1 << 21  # numbers sieved per call of the kernel (a 1 MB mask)
# Largest x for prime_pi: there Lucy's arrays hold isqrt(x) = 10^7 entries each
# (about 0.5 GB with temporaries), and the table holds every prime <= isqrt(x).
PI_BOUND = 10**14
_PAIRS = 1 << 18  # (i, p) pairs per batch in the last phase of Lucy's recurrence


def _sieve_primes(lo: int, hi: int, table: np.ndarray) -> np.ndarray:
    """Primality mask of the odd numbers in (lo, hi]; entry i is (lo+1|1) + 2i.

    table must hold every prime up to isqrt(hi).  This is the only sieve;
    run window by window, it grows the table.
    """
    first = (lo + 1) | 1
    mask = np.ones(max(0, (hi - first) // 2 + 1), dtype=bool)
    for p in table[1 : table.searchsorted(isqrt(hi), side="right")].tolist():
        start = max(p, -(-first // p) | 1) * p  # least odd multiple >= p*p and >= first
        mask[(start - first) >> 1 :: p] = False
    return mask


_lock = threading.Lock()
_state = (2, np.array([2], dtype=np.int64))  # (limit, every prime <= limit), swapped whole


def _table(n: int) -> tuple[int, np.ndarray]:
    """The (limit, primes) pair, first grown (at least doubling) to min(n, cap).

    Growth sieves into one buffer sized by Rosser-Schoenfeld's
    pi(x) < 1.25506 x / ln x; the table is its filled prefix, and the
    untouched rest is never resident.
    """
    global _state
    if n <= _state[0] or _state[0] >= _CACHE_CAP:
        return _state
    with _lock:
        limit, table = _state
        if n <= limit:
            return _state
        target = min(max(n, 2 * limit, _TABLE_FLOOR), _CACHE_CAP)
        out = np.empty(int(1.25506 * target / log(target)) + 1, dtype=np.int64)
        k = len(table)
        out[:k] = table
        while limit < target:
            end = min(target, limit * limit)  # its sieving primes are all in the table
            for lo in range(limit, end, _WINDOW):
                hits = np.flatnonzero(_sieve_primes(lo, min(lo + _WINDOW, end), out[:k]))
                new = out[k : k + len(hits)]
                np.multiply(hits, 2, out=new)
                new += (lo + 1) | 1
                k += len(hits)
            limit = end
        _state = limit, out[:k]
        return _state


def prime_table() -> tuple[int, np.ndarray]:
    """The (limit, primes) pair as it stands, not grown.

    For x <= limit, prime_pi(x) is table.searchsorted(x, side="right"), so a
    caller with many bounds answers them in one call.
    """
    return _state


def prime_pi(x: int) -> int:
    """Number of primes <= x: a table lookup, or Lucy's recurrence past it."""
    if x < 2:
        return 0
    if x > PI_BOUND:
        raise CeilingExceeded("pi(%d) above the bound %d" % (x, PI_BOUND))
    limit, table = _table(x)
    if x <= limit:
        return int(table.searchsorted(x, side="right"))
    return _lucy_pi(x, table)


def _lucy_pi(x: int, table: np.ndarray) -> int:
    """pi(x) by Lucy_Hedgehog's recurrence, from the table's primes <= isqrt(x).

    S(v) counts the numbers in [2, v] that are prime or have no prime factor
    below p; moving past p takes S(v) -= S(v // p) - S(p - 1) for every
    v >= p*p, and once p passes isqrt(v), S(v) = pi(v).  Only the values
    v = x // i occur: small[v] holds S(v) for v <= r and large[i - 1] holds
    S(x // i) for i <= r, so large[0] ends as pi(x).  Each right-hand side is
    read whole before it is subtracted, so every update for p sees the values
    left by the primes below p.
    """
    r = isqrt(x)
    q = x // np.arange(1, r + 1, dtype=np.int64)  # q[i - 1] = x // i
    large = q - 1
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = v - 1
    primes = table[: table.searchsorted(r, side="right")]
    cube = int(np.count_nonzero(primes * primes <= x // primes))  # p^3 <= x
    for j, p in enumerate(primes[:cube].tolist()):
        # j = S(p - 1): the primes below p
        n = min(r, x // (p * p))  # i <= n have x // i >= p * p
        m = r // p  # i <= m have i * p <= r, so S(x // (i*p)) sits in large
        large[:m] -= large[p - 1 : m * p : p] - j
        large[m:n] -= small[q[m:n] // p] - j
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - j
    # Past the cube root, p^2 > r leaves small final, and each p changes only
    # large[i - 1] for i <= x // p^2 < p, below every entry it reads (i * p >= p).
    # So every read sees a final value, and the remaining primes apply at once:
    # large[i - 1] -= sum of S(x // (i*p)) - j over its first c[i - 1] primes p,
    # whose j run from cube up.  (x > 2^26 puts a prime between cbrt(x) and r.)
    rest = primes[cube:]
    n = x // int(rest[0]) ** 2
    c = (rest * rest).searchsorted(q[:n], side="right")
    i0 = 0
    while i0 < n:  # in batches of about _PAIRS (i, p) pairs
        i1 = min(n, i0 + max(1, _PAIRS // int(c[i0])))
        cc = c[i0:i1]
        start = np.cumsum(cc) - cc
        i = np.repeat(np.arange(i0 + 1, i1 + 1), cc)
        p = rest[np.arange(len(i)) - np.repeat(start, cc)]
        d = i * p
        s = np.where(d <= r, large[np.minimum(d, r) - 1], small[x // np.maximum(d, r + 1)])
        large[i0:i1] -= np.add.reduceat(s, start) - (cc * cube + cc * (cc - 1) // 2)
        i0 = i1
    return int(large[0])


def count_in_closed(lo: int, hi: int) -> int:
    """Count primes in [lo, hi] as prime_pi(hi) - prime_pi(lo - 1)."""
    if hi < lo or hi < 2:
        return 0
    return prime_pi(hi) - prime_pi(lo - 1)


def _next_prime_step(n: int) -> int:
    """Smallest prime > n by direct testing (for ranges past the cache)."""
    if n < 2:
        return 2
    if n == 2:
        return 3
    c = n + 2 if n % 2 else n + 1
    while not is_prime(c):
        c += 2
    return c


def _prev_prime_step(n: int) -> int:
    """Largest prime < n; NoSuchPrime when there is none."""
    if n <= 2:
        raise NoSuchPrime("no prime below %d" % n)
    if n == 3:
        return 2
    c = n - 2 if n % 2 else n - 1
    while c >= 3:
        if is_prime(c):
            return c
        c -= 2
    return 2


def _index_above(n: int) -> tuple[np.ndarray, int, int]:
    """(table, i, m), growing the table to its floor at most: the smallest
    prime > n is table[i], or, when i == len(table), the smallest prime > m.
    n must be an integer; anything else raises TypeError."""
    n = operator.index(n)
    limit, table = _table(_TABLE_FLOOR)
    if n >= limit:
        return table, len(table), n
    return table, int(table.searchsorted(max(n, 0), side="right")), limit


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    table, i, m = _index_above(n)
    if i < len(table):
        return int(table[i])
    return _next_prime_step(m)


def kth_prime_above(x: int, k: int) -> int:
    """The k-th prime strictly greater than the integer x (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    table, i, m = _index_above(x)
    if i + k <= len(table):
        return int(table[i + k - 1])
    k -= len(table) - i  # the table's primes above x come first, then those above m
    p = m
    for _ in range(k):
        p = next_prime(p)
    return p


def kth_prime_below(x: int, k: int) -> int:
    """The k-th prime strictly less than the integer x (k >= 1); NoSuchPrime
    if none."""
    p = operator.index(x)
    if k < 1:
        raise ValueError("k must be >= 1")
    if p <= 2:
        raise NoSuchPrime("no prime below %d" % p)
    limit, table = _table(_TABLE_FLOOR)
    left = k
    while left and p > limit + 1:  # the table cannot rule out primes in [limit, p)
        p = _prev_prime_step(p)
        left -= 1
    if not left:
        return p
    i = int(table.searchsorted(p))  # the primes below p
    if i < left:
        raise NoSuchPrime("fewer than %d primes below %d" % (k, x))
    return int(table[i - left])


def iter_primes_above(x: int):
    """Yield primes strictly greater than the integer x in increasing order,
    forever.

    The table is read afresh before each prime or chunk, so once a caller's
    counting has grown it past the scan, the scan reads it again.
    """
    p = x
    while True:
        table, i, m = _index_above(p)
        if i < len(table):
            chunk = table[i : i + 64].tolist()
            yield from chunk
            p = chunk[-1]
        else:
            p = _next_prime_step(m)
            yield p


def primes_in_closed(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] as a list; hi must stay within the table cap."""
    if hi < lo or hi < 2:
        return []
    if hi > _CACHE_CAP:
        raise CeilingExceeded("range end %d above cache cap %d" % (hi, _CACHE_CAP))
    _, table = _table(hi)
    a, b = table.searchsorted((max(lo, 0), hi + 1))
    return table[a:b].tolist()
