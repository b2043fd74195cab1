"""Primality testing, prime stepping and prime counting.

Everything here works on plain integers, bounds included: a rational bound
raises TypeError.  A caller stepping from a center c = s/d asks for the
primes above s // d or below -(-s // d): an integer x exceeds c exactly when
x > s // d, and lies below c exactly when x < -(-s // d).

The table holds one primality bit per odd number up to a limit: 64 odd
numbers per uint64 word, and per word a uint32 rank, the count of set bits
in the words before it, so pi(x) is a rank plus one popcount.  That is
6 MB at the cap 2^26, where an int64 per prime took 31.7 MB.  The table
grows (up to the cap) by sieving only the new range with one odd-only
sieve, each window's mask packed straight into the words.  The cap table
depends on no input, so its 4 MB of words are kept in a file under
$XDG_CACHE_HOME/panweird (or ~/.cache/panweird) and loaded instead of
sieved, but only when the file's sha256 is _CAP_SHA256, the digest compiled
in here; any other file counts as absent.  A sieve that reaches the cap is
checked against that digest too, and then written for the next process.
Only counting grows the table: prime_pi(x) reads x's rank; past the table,
nothing is sieved.  Lucy_Hedgehog's recurrence starts from the wheel of
the primes up to 13 and runs over the primes up to x^(1/4); Lehmer's P2
and P3 sums then read their pi values off the table's ranks, which reach
them for x up to about 2.7 * 10^10.  Past that the recurrence runs to
cbrt(x) and Meissel's P2 sum reads its own array.  The primes come decoded
from the bits; it takes O(x^(3/4)) time and under three sqrt(x)-long
int64 arrays, for x up to PI_BOUND.  A count over [lo, hi] is
prime_pi(hi) - prime_pi(lo - 1).
Every step to a neighbouring prime is next_prime (up) or _prev_prime
(down); kth_prime_above and kth_prime_below take k of them.  Below the
floor's last prime, 65,521, a step is one bisect of the primes up to the
floor, 2^16: an int64 array built on first use by a direct sieve, which
bisect reads through a memoryview (about 0.5 us, where searchsorted and
int() take 0.7 us).  Past the floor a step skips the odd candidates with a
factor 3, 5 or 7, one byte looked up mod 105, and is_prime decides every
other one, exact below 3.3 * 10^24: 3 strong tests per prime below
4,759,123,141 and 4 below 1.1 * 10^12 (Jaeschke, 1993), where most
searches step.  iter_primes_above reads the floor's array, then chunks
decoded from the table as it stands, then next_prime.
Only Python ints leave the table.
"""

from __future__ import annotations

import hashlib
import operator
import os
import random
import threading
from bisect import bisect_left, bisect_right
from math import gcd, isqrt, prod
from typing import NamedTuple

import numpy as np

from .errors import CeilingExceeded, NoSuchPrime

# Largest bound for which a known fixed Miller-Rabin base set is proven
# deterministic (the first 13 primes; Sorenson and Webster, 2015).
_DETERMINISTIC_BASE_CEILING = 3_317_044_064_679_887_385_961_981

# (bound, bases): bound is the least strong pseudoprime to all the bases, so
# every composite n below it fails a strong test to one of them; the sets
# (31, 73), (2, 7, 61) and (2, 13, 23, 1662803) are Jaeschke's (1993).  A
# prime passes every base it does not divide, so a set decides every n below
# its bound that exceeds its bases; is_prime uses it from the previous bound
# up.
_MR_BASE_SETS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
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


def _sprp(n: int, bases) -> bool:
    """Whether the odd n is a strong probable prime to every base, each
    from 2 to n - 2."""
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality by one fixed rule.

    After a gcd screen by the primes up to 251, n below
    _DETERMINISTIC_BASE_CEILING is decided exactly by the least witness set
    proven for it: 3 strong tests below 4,759,123,141 and 4 below
    1,122,004,669,633 (Jaeschke's sets), up to the first 13 primes near the
    ceiling.  Above it, n passes a strong base-2 test and
    _ROUNDS_ABOVE_CEILING more strong rounds whose bases are derived from n,
    so every run reaches the same verdict.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < _SCREEN_EXACT:
        return True
    for bound, bases in _MR_BASE_SETS:
        if n < bound:
            return _sprp(n, bases)
    if not _sprp(n, (2,)):
        return False
    rng = random.Random(n ^ 0x5EED0F9E11E5)
    return _sprp(n, [rng.randrange(3, n - 1) for _ in range(_ROUNDS_ABOVE_CEILING)])


def certifiable(n: int) -> bool:
    """Whether is_prime decides n deterministically."""
    return n < _DETERMINISTIC_BASE_CEILING


# ---------------------------------------------------------------------------
# The prime table: one primality bit per odd number up to a limit.

_CACHE_CAP = 1 << 26  # the table stops growing here
# The primes up to here form an int64 array, all that stepping reads, and
# the table's least growth.  isqrt(_CACHE_CAP) lies below it, so these
# primes sieve every window of the table's growth.
_TABLE_FLOOR = 1 << 16
_FLOOR_LAST = 65_521  # the largest prime up to _TABLE_FLOOR
_WINDOW = 1 << 21  # numbers sieved per call of the kernel (a 1 MB mask)
# Largest x for prime_pi: there Lucy's arrays hold isqrt(x) = 10^7 entries
# each (a process peaks at about 0.27 GB), and the table holds every prime
# <= isqrt(x).
PI_BOUND = 10**14
_WORD = np.dtype("<u8")  # 64 consecutive odd numbers, the least in bit 0
_ONES = np.uint64(2**64 - 1)
_CHUNK = 1 << 11  # numbers decoded per chunk of iter_primes_above
# sha256 of the cap table's words, as little-endian bytes: a cached file must
# match it, and so must every sieve that reaches the cap
_CAP_SHA256 = "24c7752a3639475ef5d740db777dc92e0c6d174eb6069bd6ba40eb0e487e85bd"


def _sieve_primes(lo: int, hi: int, table: np.ndarray) -> np.ndarray:
    """Primality mask of the odd numbers in (lo, hi]; entry i is (lo+1|1) + 2i.

    table must hold every prime up to isqrt(hi), in order.  This is the only
    sieve: it builds the floor, and window by window it grows the table.
    """
    first = (lo + 1) | 1
    mask = np.ones(max(0, (hi - first) // 2 + 1), dtype=bool)
    if first == 1:
        mask[0] = False  # 1 is not prime
    for p in table[1 : table.searchsorted(isqrt(hi), side="right")].tolist():
        start = max(p, -(-first // p) | 1) * p  # least odd multiple >= p*p and >= first
        mask[(start - first) >> 1 :: p] = False
    return mask


class PrimeTable(NamedTuple):
    """Every prime up to limit, a multiple of 128, as one bit per odd number.

    Bit j of words[w] is set when 2(64w + j) + 1 is prime, and ranks[w]
    counts the set bits of words[:w].  An integer x >= 2 has the odd index
    i = (x - 1) // 2, and pi(x) = ranks[w] + popcount(words[w] & mask) + 1
    with w = i // 64, mask the bits 0..i % 64, and 1 for the prime 2.
    """

    limit: int
    words: np.ndarray  # uint64, limit // 128 of them
    ranks: np.ndarray  # uint32, one per word
    source: str = "none"  # how the words were made: "sieve" or "cache"

    def pi(self, xs) -> np.ndarray:
        """pi(x) for every integer x in xs, each from 2 to limit, at once."""
        i = (np.asarray(xs, dtype=np.int64) - 1) >> 1
        w = i >> 6
        mask = _ONES >> (63 - (i & 63)).astype(np.uint64)
        return self.ranks[w] + np.bitwise_count(self.words[w] & mask) + 1

    def primes(self, lo: int, hi: int) -> np.ndarray:
        """The primes in [lo, hi], hi <= limit, decoded into an int64 array."""
        a = max(lo, 2) >> 1  # odd index of the least odd number >= max(lo, 3)
        b = (hi - 1) >> 1  # odd index of the greatest odd number <= hi
        base = a & ~63
        bits = np.unpackbits(
            self.words[a >> 6 : (b >> 6) + 1].view(np.uint8), bitorder="little")
        odd = 2 * (np.flatnonzero(bits[a - base : b - base + 1]) + a) + 1
        return np.concatenate(([2], odd)) if lo <= 2 <= hi else odd


_lock = threading.Lock()
_state = PrimeTable(0, np.empty(0, dtype=_WORD), np.empty(0, dtype=np.uint32))  # swapped whole
_floor_primes = None
_floor_seq = None  # a memoryview of _floor_primes, which bisect reads as ints


def _floor() -> np.ndarray:
    """The primes up to _TABLE_FLOOR as an int64 array, from one direct
    sieve by the primes up to 251 < isqrt(2^16) on first use, and
    _floor_seq, a memoryview of it, which the prime steps bisect."""
    global _floor_primes, _floor_seq
    if _floor_primes is None:
        mask = _sieve_primes(0, _TABLE_FLOOR, np.array(sorted(_SMALL_PRIMES)))
        primes = np.concatenate(([2], 2 * np.flatnonzero(mask) + 1))
        _floor_seq = memoryview(primes)  # set first: a step that finds _floor_primes set reads it
        _floor_primes = primes
    return _floor_primes


def _cache_path() -> str:
    """The cap table's file: under $XDG_CACHE_HOME/panweird, or
    ~/.cache/panweird when that variable is unset or not absolute."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    name = "primes-%d-%s.u64" % (_CACHE_CAP, _CAP_SHA256[:16])
    return os.path.join(root, "panweird", name)


def _load_cap_words(path: str) -> np.ndarray | None:
    """The cap table's words from path, or None unless the file holds
    exactly _CACHE_CAP // 128 words whose sha256 is _CAP_SHA256."""
    words = np.empty(_CACHE_CAP // 128, dtype=_WORD)
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != words.nbytes or fh.readinto(words) != words.nbytes:
                return None
    except OSError:
        return None
    return words if hashlib.sha256(words).hexdigest() == _CAP_SHA256 else None


def _store_cap_words(path: str, words: np.ndarray) -> None:
    """Write words to path atomically: into a new file named for this
    process beside it, then renamed over it.  Any failure (no directory, a
    read-only one, a full disk) leaves the cache as it was, without error.
    Nothing is fsynced: a file torn by a crash fails the digest on load."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(tmp, "xb")  # O_CREAT | O_EXCL
    except OSError:
        return
    try:
        with fh:
            fh.write(words)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _sieved_words(t: PrimeTable, limit: int) -> np.ndarray:
    """t's words extended to limit by sieving only the new range, window by
    window, each window's mask packed straight into the new words."""
    words = np.empty(limit // 128, dtype=_WORD)
    words[: len(t.words)] = t.words
    for lo in range(t.limit, limit, _WINDOW):
        hi = min(lo + _WINDOW, limit)
        mask = _sieve_primes(lo, hi, _floor())
        words[lo >> 7 : hi >> 7] = np.packbits(mask, bitorder="little").view(_WORD)
    return words


def _cap_words(t: PrimeTable) -> tuple[np.ndarray, str]:
    """The cap table's words and their source: the cached file when it is
    valid, else t sieved up to the cap, checked against _CAP_SHA256 and
    then cached."""
    path = _cache_path()
    words = _load_cap_words(path)
    if words is not None:
        return words, "cache"
    words = _sieved_words(t, _CACHE_CAP)
    if hashlib.sha256(words).hexdigest() != _CAP_SHA256:
        raise RuntimeError("the sieved table up to %d does not match its digest" % _CACHE_CAP)
    _store_cap_words(path, words)
    return words, "sieve"


def _table(n: int) -> PrimeTable:
    """The table, first grown (at least doubling) to min(n, cap).

    Growth below the cap sieves the new range; growth to the cap loads the
    cached cap table instead when there is a valid one.  Either way the
    ranks are counted afresh.
    """
    global _state
    t = _state
    if n <= t.limit or t.limit >= _CACHE_CAP:
        return t
    with _lock:
        t = _state
        if n <= t.limit:
            return t
        limit = min(-(-max(n, 2 * t.limit, _TABLE_FLOOR) // 128) * 128, _CACHE_CAP)
        if limit == _CACHE_CAP:
            words, source = _cap_words(t)
        else:
            words, source = _sieved_words(t, limit), "sieve"
        ranks = np.zeros(len(words), dtype=np.uint32)
        np.cumsum(np.bitwise_count(words[:-1]), dtype=np.uint32, out=ranks[1:])
        _state = PrimeTable(limit, words, ranks, source)
        return _state


def prime_table() -> PrimeTable:
    """The table as it stands, not grown.

    A caller with many bounds x, each 2 <= x <= limit, answers them with one
    pi call; pi reads out of range for x < 2 and gives no error.
    """
    return _state


def prime_pi(x: int) -> int:
    """Number of primes <= x: a table lookup, or Lucy's recurrence past it."""
    if x < 2:
        return 0
    if x > PI_BOUND:
        raise CeilingExceeded("pi(%d) above the bound %d" % (x, PI_BOUND))
    t = _table(x)
    if x <= t.limit:
        return int(t.pi(x))
    return _lucy_pi(x, t)


# The wheel of the first six primes: phi(y, 6), the count of n in [1, y]
# prime to all of them, is (y // _WHEEL) * _WHEEL_PHI + _wheel()[y % _WHEEL].
_WHEEL = 2 * 3 * 5 * 7 * 11 * 13
_WHEEL_PHI = 1 * 2 * 4 * 6 * 10 * 12
_wheel_counts = None


def _wheel() -> np.ndarray:
    """W[y] = phi(y, 6) for 0 <= y < _WHEEL, int64, built on first use."""
    global _wheel_counts
    if _wheel_counts is None:
        prime_to = np.ones(_WHEEL, dtype=np.int64)
        prime_to[0] = 0
        for p in (2, 3, 5, 7, 11, 13):
            prime_to[::p] = 0
        _wheel_counts = np.cumsum(prime_to)
    return _wheel_counts


def _lucy_pi(x: int, table: PrimeTable) -> int:
    """pi(x) for x >= 2^16, from table, which holds every prime <= isqrt(x).

    S(v, a) counts the numbers in [2, v] that are prime or have no prime
    factor among the first a primes; _sieved_counts gives S(x // i, a) for
    the i <= isqrt(x) it is asked for.  With a = pi(x^(1/4)), Lehmer's
    formula (1959) is pi(x) = S(x, a) - P2 - P3: P2 sums
    pi(x // p) - pi(p) + 1 over the primes p in (x^(1/4), sqrt(x)], P3 sums
    pi(x // (p*q)) - pi(q) + 1 over the primes p <= q with p in
    (x^(1/4), cbrt(x)] and p*q*q <= x.  No argument exceeds x // p, p the
    least prime above x^(1/4); when the table answers that, each sum is one
    rank call, and the recurrence needs S(x // i) only at the squarefree
    products i of the primes from 17 to x^(1/4).  Past that bound the
    recurrence runs to a = pi(cbrt(x)) at every i prime to 2*3*5*7*11*13,
    and Meissel's pi(x) = S(x, a) - P2 reads every pi(x // p) off it.
    """
    r = isqrt(x)
    primes = table.primes(2, r)
    sq = primes * primes
    a = int(np.count_nonzero(sq <= x // sq))  # p^4 <= x
    c = int(np.count_nonzero(sq <= x // primes))  # p^3 <= x
    if x // int(primes[a]) > table.limit:
        prime_to = np.diff(_wheel(), prepend=0).astype(bool)  # i prime to the wheel
        large = _sieved_counts(x, primes[:c], np.flatnonzero(np.resize(prime_to, r + 1)))
        # For p^3 > x every prime q with q^2 <= x // p has q^3 < x, so
        # large[p] = S(x // p, c) = pi(x // p).
        rest = primes[c:]
        return int(large[1] - (large[rest] - np.arange(c, len(primes))).sum())
    need = np.ones(1, dtype=np.int64)
    for p in primes[6:a].tolist():
        need = np.concatenate((need, need[need <= r // p] * p))
    s = int(_sieved_counts(x, primes[:a], np.sort(need))[1])
    xp = x // primes[a:]  # P2's arguments
    # P3's pairs: p = primes[i] for a <= i < c, q = primes[j] for i <= j with
    # q * q <= x // p, j running through one block per i
    i = np.arange(a, c)
    lens = sq.searchsorted(xp[: c - a], side="right") - i
    j = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(i - (np.cumsum(lens) - lens), lens)
    p2 = int((table.pi(xp) - np.arange(a, len(primes))).sum())
    p3 = int((table.pi(np.repeat(xp[: c - a], lens) // primes[j]) - j).sum())
    return s - p2 - p3


def _sieved_counts(x: int, primes: np.ndarray, need: np.ndarray) -> np.ndarray:
    """large, an array in which large[i] = S(x // i, a) for every i in need,
    where primes are the first a >= 6 primes, by Lucy_Hedgehog's recurrence
    started at stage 6.

    need is sorted, its entries lie in [1, r], r = isqrt(x), and are prime to
    2*3*5*7*11*13, and with an entry i it holds i * p for every p in primes
    below the least prime factor of i, while i * p <= r.  small[v] holds
    S(v) for every v <= r; both start at S(v, 6) = phi(v, 6) + 5, read off the wheel (wrong for
    v < 13, but every read is at v >= 17).  Moving past the (j+1)-th prime p
    takes S(v) -= S(v // p) - j for every v >= p*p, and once p passes
    isqrt(v), S(v) stays pi(v).  For v = x // i that reads large[i * p]
    while i * p <= r, else small[x // (i * p)]; so past p, the multiples of
    p leave need, and so do the i with x // i < p*p, whose S is final.  Each
    right-hand side is read whole before it is subtracted, so every update
    for p sees the values left by the primes below p.  small is updated
    densely, through one buffer of r // 17 entries allocated once.
    """
    r = isqrt(x)
    wheel = _wheel()
    small = np.empty(r + 1, dtype=np.int64)
    k = (r + 1) // _WHEEL
    rows = small[: k * _WHEEL].reshape(k, _WHEEL)
    rows[:] = wheel + 5
    rows += (np.arange(k, dtype=np.int64) * _WHEEL_PHI)[:, None]
    small[k * _WHEEL :] = wheel[: r + 1 - k * _WHEEL] + (k * _WHEEL_PHI + 5)
    large = np.empty(r + 1, dtype=np.int64)
    y = x // need
    large[need] = y // _WHEEL * _WHEEL_PHI + wheel[y % _WHEEL] + 5
    del y
    buf = np.empty(r // 17 + 1, dtype=np.int64)
    for j, p in enumerate(primes[6:].tolist(), 6):
        m = r // p  # i <= m have i * p <= r, so S(x // (i*p)) sits in large
        need = need[: need.searchsorted(x // (p * p), side="right")]
        need = need[need % p != 0]
        cut = int(need.searchsorted(m, side="right"))
        lo, hi = need[:cut], need[cut:]
        large[lo] -= large[lo * p] - j
        large[hi] -= small[x // (hi * p)] - j
        if p * p <= r:
            # v in [u*p, u*p + p) reads S(u), for u from p to m
            np.subtract(small[p : m + 1], j, out=buf[: m + 1 - p])
            rows = small[p * p : m * p].reshape(m - p, p)
            rows -= buf[: m - p, None]
            small[m * p :] -= buf[m - p]
    return large


def count_in_closed(lo: int, hi: int) -> int:
    """Count primes in [lo, hi] as prime_pi(hi) - prime_pi(lo - 1)."""
    if hi < lo or hi < 2:
        return 0
    return prime_pi(hi) - prime_pi(lo - 1)


# _PRIME_TO_105[c % 105] is 1 when c has no factor 3, 5 or 7: a candidate
# past the floor without one goes to is_prime, the others are skipped.
_PRIME_TO_105 = bytes(gcd(i, 105) == 1 for i in range(105))


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than the integer n: a bisection of
    the floor below _FLOOR_LAST, past it strong tests on the odd candidates
    prime to 105."""
    n = operator.index(n)
    if n < _FLOOR_LAST:
        if _floor_seq is None:
            _floor()
        return _floor_seq[bisect_right(_floor_seq, n)]
    c = n + 2 if n % 2 else n + 1
    while not (_PRIME_TO_105[c % 105] and is_prime(c)):
        c += 2
    return c


def _prev_prime(n: int) -> int:
    """Largest prime strictly less than the integer n, NoSuchPrime when
    there is none: a bisection of the floor for n <= _FLOOR_LAST + 1, past
    that strong tests on the odd candidates prime to 105, which reach
    _FLOOR_LAST at the latest."""
    n = operator.index(n)
    if n <= _FLOOR_LAST + 1:
        if n <= 2:
            raise NoSuchPrime("no prime below %d" % n)
        if _floor_seq is None:
            _floor()
        return _floor_seq[bisect_left(_floor_seq, n) - 1]
    c = n - 2 if n % 2 else n - 1
    while not (_PRIME_TO_105[c % 105] and is_prime(c)):
        c -= 2
    return c


def kth_prime_above(x: int, k: int) -> int:
    """The k-th prime strictly greater than the integer x (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for _ in range(k):
        x = next_prime(x)
    return x


def kth_prime_below(x: int, k: int) -> int:
    """The k-th prime strictly less than the integer x (k >= 1); NoSuchPrime
    if none."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = x
    try:
        for _ in range(k):
            p = _prev_prime(p)
    except NoSuchPrime:
        raise NoSuchPrime("fewer than %d primes below %d" % (k, x)) from None
    return p


def iter_primes_above(x: int):
    """Yield primes strictly greater than the integer x in increasing order,
    forever.

    The primes up to the floor come from its array; past it, chunks are
    decoded from the table, read afresh before each chunk, so once a
    caller's counting has grown it past the scan, the scan reads it again;
    past the table, each prime comes from next_prime.
    """
    p = operator.index(x)
    while True:
        t = _state
        if p < _FLOOR_LAST:
            floor = _floor()
            i = int(floor.searchsorted(max(p, 0), side="right"))
            chunk = floor[i : i + 64].tolist()
        elif p < t.limit:
            end = min(p + _CHUNK, t.limit)
            chunk = t.primes(p + 1, end).tolist()
        else:
            p = next_prime(p)
            yield p
            continue
        yield from chunk
        p = chunk[-1] if chunk else end


def primes_in_closed(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] as a list; hi must stay within the table cap."""
    if hi < lo or hi < 2:
        return []
    if hi > _CACHE_CAP:
        raise CeilingExceeded("range end %d above cache cap %d" % (hi, _CACHE_CAP))
    return _table(hi).primes(lo, hi).tolist()
