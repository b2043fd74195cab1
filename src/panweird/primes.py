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
nothing is sieved: pi(x) comes from Lucy_Hedgehog's recurrence over the
primes up to cbrt(x) and then Meissel's P2 sum over those up to isqrt(x),
all decoded from the bits, in O(x^(3/4)) time and O(sqrt(x)) memory, for x
up to PI_BOUND.  A count over [lo, hi] is prime_pi(hi) - prime_pi(lo - 1).
Every step to a neighbouring prime is next_prime (up) or _prev_prime
(down); kth_prime_above and kth_prime_below take k of them.  Each reads a
plain int64 array of the primes up to a floor, 2^16, built on first use by
a direct sieve, below its last prime, 65,521; past that it steps over odd
candidates with is_prime, exact below 3.3 * 10^24: 3 strong tests per
prime below 4,759,123,141 and 4 below 1.1 * 10^12 (Jaeschke, 1993), where
most searches step.  iter_primes_above reads that array, then chunks
decoded from the table as it stands, then next_prime.
Only Python ints leave the table.
"""

from __future__ import annotations

import hashlib
import operator
import os
import random
import threading
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
# Largest x for prime_pi: there Lucy's arrays hold isqrt(x) = 10^7 entries each
# (about 0.5 GB with temporaries), and the table holds every prime <= isqrt(x).
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


def _floor() -> np.ndarray:
    """The primes up to _TABLE_FLOOR as an int64 array, from one direct
    sieve by the primes up to 251 < isqrt(2^16) on first use."""
    global _floor_primes
    if _floor_primes is None:
        mask = _sieve_primes(0, _TABLE_FLOOR, np.array(sorted(_SMALL_PRIMES)))
        _floor_primes = np.concatenate(([2], 2 * np.flatnonzero(mask) + 1))
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
    return _lucy_pi(x, t.primes(2, isqrt(x)))


def _lucy_pi(x: int, primes: np.ndarray) -> int:
    """pi(x) by Lucy_Hedgehog's recurrence, from the primes <= isqrt(x), in order.

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
    cube = int(np.count_nonzero(primes * primes <= x // primes))  # p^3 <= x
    for j, p in enumerate(primes[:cube].tolist()):
        # j = S(p - 1): the primes below p
        n = min(r, x // (p * p))  # i <= n have x // i >= p * p
        m = r // p  # i <= m have i * p <= r, so S(x // (i*p)) sits in large
        large[:m] -= large[p - 1 : m * p : p] - j
        large[m:n] -= small[q[m:n] // p] - j
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - j
    # Past the cube root only large[0] is still read.  For p^3 > x every prime
    # q with q^2 <= x // p has q^3 < x, so the loop above has already made
    # large[p - 1] = pi(x // p), and large[0] -= pi(x // p) - j over those p
    # is Meissel's P2 sum.
    rest = primes[cube:]
    return int(large[0] - (large[rest - 1] - np.arange(cube, cube + len(rest))).sum())


def count_in_closed(lo: int, hi: int) -> int:
    """Count primes in [lo, hi] as prime_pi(hi) - prime_pi(lo - 1)."""
    if hi < lo or hi < 2:
        return 0
    return prime_pi(hi) - prime_pi(lo - 1)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than the integer n: from the floor
    below _FLOOR_LAST, past it by strong tests on odd candidates."""
    n = operator.index(n)
    if n < _FLOOR_LAST:
        floor = _floor()
        return int(floor[floor.searchsorted(max(n, 0), side="right")])
    c = n + 2 if n % 2 else n + 1
    while not is_prime(c):
        c += 2
    return c


def _prev_prime(n: int) -> int:
    """Largest prime strictly less than the integer n, NoSuchPrime when
    there is none: from the floor for n <= _FLOOR_LAST + 1, past that by
    strong tests on odd candidates, which reach _FLOOR_LAST at the latest."""
    n = operator.index(n)
    if n <= _FLOOR_LAST + 1:
        if n <= 2:
            raise NoSuchPrime("no prime below %d" % n)
        floor = _floor()
        return int(floor[floor.searchsorted(n) - 1])
    c = n - 2 if n % 2 else n - 1
    while not is_prime(c):
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
