import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import panweird.primes
from panweird import (
    CeilingExceeded,
    NoSuchPrime,
    certifiable,
    is_prime,
    iter_primes_above,
    kth_prime_above,
    kth_prime_below,
    next_prime,
    pndn,
    prime_pi,
    primes_in_closed,
    pwn_search_general,
    pwn_search_squarefree,
    sfpan,
)
from panweird.primes import (
    _CACHE_CAP,
    _CAP_SHA256,
    _DETERMINISTIC_BASE_CEILING,
    _MR_BASE_SETS,
    _prev_prime,
    PI_BOUND,
    PrimeTable,
    _table,
    count_in_closed,
    count_in_closed_many,
    prime_table,
)

from oracles import naive_is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_matches_trial_division():
    rng = random.Random(0x9127)
    for _ in range(500):
        n = rng.randrange(1, 10**4)
        assert is_prime(n) == naive_is_prime(n)
    assert not is_prime(1)


def test_is_prime_on_strong_pseudoprime_bait():
    # composites that fool single-base or Fermat-style tests, and the least
    # strong pseudoprimes to (2, 7, 61), to (2, 13, 23, 1662803) and to the
    # first 12 and 13 prime bases; the last is the ceiling itself, so the
    # rounds above it must catch it
    for n in (341, 561, 2047, 41041, 3215031751, 4759123141, 1122004669633,
              3825123056546413051, 318665857834031151167461,
              3317044064679887385961981):
        assert not is_prime(n)
    for n in (2**61 - 1, 563915507, 97919, 10965542434977103):
        assert is_prime(n)


def test_is_prime_gcd_screen_against_sympy():
    isprime = pytest.importorskip("sympy").isprime
    screened = [p for p in range(2, 252) if isprime(p)]
    assert len(screened) == 54
    mid = [p for p in screened if p >= 53]
    cases = list(range(-3, 1 << 17))  # past 257^2, where the screen alone stops deciding
    cases += [p * q for i, p in enumerate(mid) for q in mid[i:]]  # squares too
    # Carmichael numbers: the gcd rejects the first ones; the Chernick
    # numbers (6k+1)(12k+1)(18k+1) for k = 45, 51, 55 have no factor below
    # 271 and reach the strong tests
    cases += [561, 41041, 825265, 321197185, 5394826801, 232250619601,
              118901521, 172947529, 216821881]
    rng = random.Random(0x6CD)
    cases += [rng.getrandbits(rng.randrange(20, 65)) | 1 for _ in range(3000)]
    cases += [rng.getrandbits(rng.randrange(65, 130)) | 1 for _ in range(300)]
    cases += [next_prime(rng.getrandbits(rng.randrange(20, 80))) for _ in range(100)]
    # the witness sets between 2^64 and the ceiling, and the rounds past it
    ceiling = _DETERMINISTIC_BASE_CEILING
    cases += [rng.randrange(2**64, ceiling) | 1 for _ in range(2000)]
    cases += [next_prime(rng.randrange(2**64, ceiling)) for _ in range(50)]
    cases += list(range(ceiling - 200, ceiling + 2000))
    for n in cases:
        assert is_prime(n) == isprime(n), n
    assert all(is_prime(p) for p in screened)


# the least strong pseudoprime to each witness set, ending at the ceiling
WITNESS_BOUNDS = [
    2_047, 1_373_653, 9_080_191, 4_759_123_141, 1_122_004_669_633,
    2_152_302_898_747, 3_474_749_660_383, 341_550_071_728_321,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    _DETERMINISTIC_BASE_CEILING,
]


def test_each_witness_set_ends_at_its_least_strong_pseudoprime():
    mr = pytest.importorskip("sympy.ntheory.primetest").mr
    assert [bound for bound, _ in _MR_BASE_SETS] == WITNESS_BOUNDS
    for bound, bases in _MR_BASE_SETS:
        # bound passes every strong test of its own set, so the next set
        # (or the rounds past the ceiling) must catch it
        assert mr(bound, list(bases))
        assert not is_prime(bound)


def test_is_prime_around_each_witness_bound_against_sympy():
    isprime = pytest.importorskip("sympy").isprime
    for bound in WITNESS_BOUNDS:
        for n in range(bound - 3000, bound + 3001):
            assert is_prime(n) == isprime(n), n


def _sympy_steps(step, x, k):
    for _ in range(k):
        x = step(x)
    return x


def test_stepping_across_each_witness_bound_against_sympy():
    # an upward scan that kept a witness set past its bound would stop on
    # the bound, a strong pseudoprime to that set
    sympy = pytest.importorskip("sympy")
    for bound in WITNESS_BOUNDS:
        below, above = sympy.prevprime(bound), sympy.nextprime(bound)
        for x in (below - 1, below, bound - 1, bound, above, above + 1):
            assert next_prime(x) == sympy.nextprime(x), x
            assert _prev_prime(x) == sympy.prevprime(x), x
            assert kth_prime_above(x, 20) == _sympy_steps(sympy.nextprime, x, 20), x
            assert kth_prime_below(x, 20) == _sympy_steps(sympy.prevprime, x, 20), x


def test_stepping_at_the_floor_and_screen_edges_against_sympy(monkeypatch):
    # below 65,521 a step bisects the floor's primes; past it the odd
    # candidates with a factor 3, 5 or 7 are skipped and is_prime decides
    # every other one; 105*j - 2 .. 105*j + 2 straddle a multiple of 105
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0x105)
    points = list(range(65_519, 65_524)) + [65_537]
    for _ in range(40):
        j = rng.randrange(2**17, 2**60 + 1)
        points += [105 * j + r for r in range(-2, 3)]
    tested = []
    exact = panweird.primes.is_prime

    def record(n):
        tested.append(n)
        return exact(n)

    monkeypatch.setattr(panweird.primes, "is_prime", record)
    for n in points:
        for step, want in ((next_prime, sympy.nextprime(n)), (_prev_prime, sympy.prevprime(n))):
            tested.clear()
            got = step(n)
            assert got == want and type(got) is int, (n, step)
            if n > 65_522:  # past the floor
                lo, hi = (n + 1, got) if step is next_prime else (got, n - 1)
                assert tested == sorted((c for c in range(lo | 1, hi + 1, 2)
                                         if math.gcd(c, 105) == 1), reverse=step is _prev_prime)
    assert _prev_prime(3) == 2 and next_prime(2) == 3
    for n in (2, 1, 0, -7):
        with pytest.raises(NoSuchPrime):
            _prev_prime(n)


def test_probabilistic_path_is_reproducible():
    p = 3317044064679887385962123        # first prime above the ceiling
    c = 2199023255579 * 3298534883417    # a semiprime above it
    assert not certifiable(p) and not certifiable(c)
    for _ in range(3):
        assert is_prime(p)
        assert not is_prime(c)


def test_certification_agrees_on_small_primes():
    for p in SMALL_PRIMES + [563915507, 2**61 - 1]:
        assert certifiable(p) and is_prime(p)
    assert certifiable(_DETERMINISTIC_BASE_CEILING - 1)
    assert not certifiable(_DETERMINISTIC_BASE_CEILING)


def test_next_prime_and_strictness():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(89) == 97
    with pytest.raises(TypeError):
        next_prime(Fraction(7, 2))
    for p in SMALL_PRIMES:
        assert kth_prime_above(p, 1) > p
        if p > 2:
            assert kth_prime_below(p, 1) < p


def test_kth_prime_above_examples():
    assert kth_prime_above(7, 2) == 13
    assert kth_prime_above(49 // 3, 1) == 17  # above the center 49/3
    assert kth_prime_above(1, 1) == 2
    assert kth_prime_above(1 // 2, 3) == 5
    with pytest.raises(TypeError):
        kth_prime_above(Fraction(49, 3), 1)


def test_kth_prime_below_examples():
    assert kth_prime_below(9, 1) == 7
    assert kth_prime_below(31, 2) == 23
    assert kth_prime_below(-(-5 // 2), 1) == 2  # below the center 5/2
    with pytest.raises(TypeError):
        kth_prime_below(Fraction(5, 2), 1)
    with pytest.raises(NoSuchPrime):
        kth_prime_below(2, 1)
    with pytest.raises(NoSuchPrime):
        kth_prime_below(20, 9)


def test_integer_rule_steps_around_a_rational_center():
    # an integer is above s/d exactly when it exceeds s // d, and below s/d
    # exactly when it is under -(-s // d); trial division and Fraction decide
    rng = random.Random(0x5D1F)
    cases = [(rng.randrange(1, 10**4), rng.randrange(1, 60)) for _ in range(200)]
    for c in rng.sample(range(2, 3000), 60) + [2, 3, 4, 97, 1001, 2003]:
        d = rng.randrange(1, 60)
        cases.append((c * d, d))  # a center that is an integer
    assert any(s % d == 0 and naive_is_prime(s // d) for s, d in cases)
    assert any(s % d == 0 and s > d and not naive_is_prime(s // d) for s, d in cases)
    for s, d in cases:
        c = Fraction(s, d)
        near = range(max(0, s // d - 300), s // d + 300)
        above = [x for x in near if x > c and naive_is_prime(x)]
        below = [x for x in reversed(near) if x < c and naive_is_prime(x)]
        for j in range(1, 5):
            assert kth_prime_above(s // d, j) == above[j - 1]
            if j <= len(below):
                assert kth_prime_below(-(-s // d), j) == below[j - 1]
            else:
                with pytest.raises(NoSuchPrime):
                    kth_prime_below(-(-s // d), j)


def test_count_open_interval_examples():
    def open_count(a, b):
        return count_in_closed(a + 1, b - 1)

    assert open_count(5, 9) == 1
    assert open_count(2, 3) == 0
    assert open_count(7, 31) == 6
    assert open_count(13 // 2, 31) == 7  # primes in (13/2, 31)
    assert open_count(30, 10) == 0


def test_prime_counting_against_sieve():
    assert count_in_closed(2, 10**6) == 78498
    sieve = [n for n in range(2, 3000) if naive_is_prime(n)]
    rng = random.Random(0x512E)
    for _ in range(100):
        a = rng.randrange(0, 2500)
        b = rng.randrange(0, 2999)
        want = sum(1 for p in sieve if a <= p <= b)
        assert count_in_closed(a, b) == want


def test_segmented_counting_beyond_cache():
    lo = 2**26 + 1
    hi = 2**26 + 20000
    stepped = 0
    for p in iter_primes_above(lo - 1):
        if p > hi:
            break
        stepped += 1
    assert count_in_closed(lo, hi) == stepped


def test_stepping_counting_coherence():
    rng = random.Random(0xC0DE)
    for _ in range(30):
        a = rng.randrange(2, 5000)
        b = a + rng.randrange(1, 500)
        n = count_in_closed(a + 1, b - 1)
        k = 0
        while kth_prime_above(a, k + 1) < b:
            k += 1
        assert n == k


def test_iter_primes_above_prefix():
    it = iter_primes_above(0)
    assert [next(it) for _ in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]
    it = iter_primes_above(89)
    assert next(it) == 97
    with pytest.raises(TypeError):
        next(iter_primes_above(Fraction(177, 2)))


def test_primes_in_closed():
    assert primes_in_closed(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in_closed(24, 28) == []
    with pytest.raises(CeilingExceeded):
        primes_in_closed(2, 2**27)


# pi(10^j), j = 0..11 (OEIS A006880)
PUBLISHED_PI = [0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
                455_052_511, 4_118_054_813]


def test_prime_pi_at_powers_of_ten():
    for j, want in enumerate(PUBLISHED_PI):
        assert prime_pi(10**j) == want
    assert prime_pi(1) == prime_pi(-5) == 0 and prime_pi(2) == 1


def _pi_answers():
    """prime_pi around and past the table cap, and counts that straddle it."""
    cap = _CACHE_CAP
    pis = [prime_pi(x) for x in (cap - 1, cap, cap + 1, 10**8 + 7)]
    counts = [
        count_in_closed(cap - 1000, cap + 1000),
        count_in_closed(100, cap + 1000),
        count_in_closed(cap + 1, cap + 20000),
    ]
    return pis, counts


def test_prime_pi_against_sympy():
    sympy_primepi = pytest.importorskip("sympy").primepi
    cap = _CACHE_CAP
    pis, counts = _pi_answers()
    assert pis == [int(sympy_primepi(x)) for x in (cap - 1, cap, cap + 1, 10**8 + 7)]
    straddle = sum(1 for n in range(cap - 1000, cap + 1001) if is_prime(n))
    assert counts[0] == straddle
    assert counts[1] == int(sympy_primepi(cap + 1000)) - 25
    assert counts[2] == int(sympy_primepi(cap + 20000)) - int(sympy_primepi(cap))


def test_prime_pi_past_the_table_against_sympy():
    sympy_primepi = pytest.importorskip("sympy").primepi
    rng = random.Random(0x1ACE)
    for _ in range(20):
        x = rng.randrange(_CACHE_CAP + 1, 3 * 10**9 + 1)
        assert prime_pi(x) == int(sympy_primepi(x))
    # squares and cubes of primes, where a prime's last update lands exactly
    for p in (8209, next_prime(10**4), next_prime(5 * 10**4), 409, next_prime(10**3)):
        x = p * p if p > 8192 else p**3
        for y in (x - 1, x, x + 1):
            assert prime_pi(y) == int(sympy_primepi(y))
    # a long interval wholly past the table
    lo, hi = _CACHE_CAP + 1, 3 * 10**9
    assert count_in_closed(lo, hi) == int(sympy_primepi(hi)) - int(sympy_primepi(lo - 1))


def test_count_in_closed_many_against_single_counts_and_sympy(monkeypatch):
    sympy_primepi = pytest.importorskip("sympy").primepi
    cap = _CACHE_CAP
    switch = 409 * cap + 408  # Lehmer's branch up to here, Meissel's just past it
    rank = PrimeTable.pi

    def pi(table, xs):
        assert np.all(np.asarray(xs) >= 2), "a bound below 2 reached the table"
        return rank(table, xs)

    monkeypatch.setattr(PrimeTable, "pi", pi)
    empty = [(10, 5), (3, 2), (cap + 10, cap + 1), (switch, switch - 1)]
    below_two = [(-7, 1), (0, 2), (1, 1), (2, 2), (-5, -1), (-3, 10), (-10**30, 1)]
    across_the_table = [(cap - 1000, cap + 1000), (3, cap + 1), (cap + 1, 3 * 10**9)]
    across_the_switch = [(switch - 40, switch + 40), (switch + 1, switch + 40), (2, switch - 41)]
    again = [(cap - 1000, cap + 1000), (2, 10**6), (3, cap + 1), (10, 5), (switch + 1, switch + 40)]
    intervals = empty + below_two + across_the_table + across_the_switch + again
    got = count_in_closed_many(intervals)
    assert all(type(n) is int for n in got)
    assert got == [count_in_closed(lo, hi) for lo, hi in intervals]

    def stepped(lo, hi):
        return sum(1 for n in range(lo, hi + 1) if is_prime(n))

    want = dict.fromkeys(empty, 0)
    want.update(zip(below_two, [0, 1, 0, 1, 0, 4, 0]))
    want.update(zip(across_the_table, [
        stepped(cap - 1000, cap + 1000), int(sympy_primepi(cap + 1)) - 1,
        int(sympy_primepi(3 * 10**9)) - int(sympy_primepi(cap))]))
    want.update(zip(across_the_switch, [
        stepped(switch - 40, switch + 40), stepped(switch + 1, switch + 40),
        int(sympy_primepi(switch - 41))]))
    want[2, 10**6] = 78_498
    assert got == [want[iv] for iv in intervals]
    assert count_in_closed_many([]) == []


def test_counts_below_two_never_grow_the_table(monkeypatch):
    _fresh_table(monkeypatch)
    assert count_in_closed_many([(-5, 1), (1, 1), (0, -3)]) == [0, 0, 0]
    assert prime_pi(1) == prime_pi(-5) == 0
    assert prime_table().limit == 0


def test_counts_and_walks_load_the_cap_table_whole(monkeypatch):
    # the table is empty or the cap table: a count with a bound of 2 or
    # more past the limit, and any walk, make it the cap table; counts
    # below 2, prime steps and both searches leave it empty
    cap = _table()
    loads = [lambda: prime_pi(2), lambda: count_in_closed(3, 1000),
             lambda: count_in_closed_many([(10, 5), (-3, 2)]),
             lambda: count_in_closed_many([(1, 1), (_CACHE_CAP + 1, _CACHE_CAP + 9)]),
             lambda: primes_in_closed(2, 3), lambda: pndn(1), lambda: pndn(3),
             lambda: sfpan(3, odd_only=True)]
    for load in loads:
        _fresh_table(monkeypatch)
        load()
        assert prime_table().limit == _CACHE_CAP
    _fresh_table(monkeypatch)
    assert count_in_closed_many([(-5, 1), (1, 1), (0, -3)]) == [0, 0, 0]
    assert prime_pi(1) == 0
    next_prime(10**6), kth_prime_above(2**20, 50), kth_prime_below(2**20, 50)
    list(islice(iter_primes_above(2**16 - 100), 500))
    pwn_search_squarefree(5, "2^3", amplitude=6)
    pwn_search_general(5, "2", amplitude=4)
    assert prime_table().limit == 0
    # a table cut short answers the bounds it holds, and any bound past it
    # loads the cap table whole
    cut = PrimeTable(2**20, cap.words[: 2**13], cap.ranks[: 2**13])
    monkeypatch.setattr(panweird.primes, "_state", cut)
    assert count_in_closed(2, 2**20) == 82_025 and prime_table() is cut
    assert count_in_closed(2, 2**20 + 1) == 82_025 and prime_table().limit == _CACHE_CAP


def _recorded_stages(monkeypatch):
    """How many primes the recurrence runs over for each x of each
    _sieved_counts call: pi(x^(1/4)) in Lehmer's branch, pi(cbrt(x)) in
    Meissel's."""
    stages = []
    sieved = panweird.primes._sieved_counts

    def record(xs, counts, *rest):
        stages.extend(counts.tolist())
        return sieved(xs, counts, *rest)

    monkeypatch.setattr(panweird.primes, "_sieved_counts", record)
    return stages


def _sympy_pi_around(x, d):
    """pi(y) for y from x - d to x + d: one sympy call, then is_prime steps."""
    pi = [int(pytest.importorskip("sympy").primepi(x - d))]
    for y in range(x - d + 1, x + d + 1):
        pi.append(pi[-1] + is_prime(y))
    return pi


def test_prime_pi_across_the_lehmer_switch_against_sympy(monkeypatch):
    # Below 409^4 the least prime above x^(1/4) is 409, so Lehmer's sums stay
    # in the 2^26 table while x // 409 <= 2^26: up to 409 * 2^26 + 408.
    # From 409^4 on it is 419, which takes the table back up to
    # 419 * 2^26 + 418.  Past each, the recurrence runs to cbrt(x).
    stages = _recorded_stages(monkeypatch)
    for x in (409 * _CACHE_CAP + 408, 409**4):
        assert [prime_pi(y) for y in range(x - 2, x + 3)] == _sympy_pi_around(x, 2)
    # pi(401) = 79 and pi(409) = 80; pi(cbrt(x)) is 432 or more there
    assert stages[:3] == [79] * 3 and min(stages[3:7]) >= 432 and stages[7:] == [80] * 3


def test_prime_pi_at_prime_powers_and_wheel_multiples_against_sympy():
    # x = p^4 moves p into the recurrence, x = p^3 into Meissel's or
    # Lehmer's cube-root set; the wheel of 2*3*5*7*11*13 wraps at 30030 k
    for x in (97**4, 211**4, 409**3, 1009**3, 30030 * 2235, 30030**2, 30030 * 10**5):
        assert [prime_pi(y) for y in (x - 1, x, x + 1)] == _sympy_pi_around(x, 1), x
    wheel = panweird.primes._wheel()
    want = np.cumsum([math.gcd(n, 30030) == 1 for n in range(30030)])
    assert wheel.tolist() == want.tolist() and wheel[-1] == 5760


def test_lehmer_runs_split_by_their_entry_budget_agree(monkeypatch):
    # consecutive bounds share a run while their entries fit _ENTRIES; a
    # bound alone past it still gets its own run
    chunks = panweird.primes._chunks
    assert list(chunks([3, 3, 3, 9, 1], 6)) == [(0, 2), (2, 3), (3, 4), (4, 5)]
    assert list(chunks([4], 1)) == [(0, 1)]
    table = _table()
    rng = random.Random(0xC4)
    xs = np.array(sorted({rng.randrange(_CACHE_CAP + 1, 2 * 10**10) for _ in range(9)}))
    runs = []
    sieved = panweird.primes._sieved_counts

    def record(xs, *rest):
        runs.append(len(xs))
        return sieved(xs, *rest)

    monkeypatch.setattr(panweird.primes, "_sieved_counts", record)
    whole = panweird.primes._lucy_pi(xs, table)
    monkeypatch.setattr(panweird.primes, "_ENTRIES", 1)
    alone = panweird.primes._lucy_pi(xs, table)
    assert runs == [9] + [1] * 9
    assert alone.tolist() == whole.tolist()


def test_lehmer_and_meissel_branches_agree(monkeypatch):
    # a table of 2^20 holds every prime up to isqrt(x) here, but not
    # x // p for the least prime p above x^(1/4), so it forces the
    # cube-root branch at every x
    table = _table()
    small = PrimeTable(2**20, table.words[: 2**20 // 128], table.ranks[: 2**20 // 128])
    stages = _recorded_stages(monkeypatch)
    rng = random.Random(0x1E4)
    for x in [rng.randrange(_CACHE_CAP + 1, 27 * 10**9) for _ in range(12)]:
        del stages[:]
        want = panweird.primes._lucy_pi(np.array([x]), table)
        assert panweird.primes._lucy_pi(np.array([x]), small) == want, x
        fourth = sum(1 for p in range(2, math.isqrt(math.isqrt(x)) + 1) if is_prime(p))
        assert stages[0] == fourth < stages[1], x


def test_prime_pi_past_the_table_holds_five_arrays_at_most():
    # The recurrence holds two isqrt(x)-long int64 arrays, and the entries
    # its large side updates; the peak RSS of prime_pi(10^11) may grow by
    # five such arrays, plus slack for the allocator and the wheel.
    x = 10**11
    src = os.path.dirname(os.path.dirname(panweird.primes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import resource\n"
            "from panweird.primes import _table, prime_pi\n"
            "_table()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "pi = prime_pi(%d)\n"
            "print(pi, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)" % x)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert int(out[0]) == PUBLISHED_PI[11]
    assert int(out[1]) * 1024 <= 5 * 8 * math.isqrt(x) + 2 * 2**20


def test_prime_pi_refuses_past_its_bound_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the table or Lucy's arrays were touched")

    monkeypatch.setattr(panweird.primes, "_table", no_work)
    monkeypatch.setattr(panweird.primes, "_lucy_pi", no_work)
    with pytest.raises(CeilingExceeded):
        prime_pi(PI_BOUND + 1)
    with pytest.raises(CeilingExceeded):
        count_in_closed(PI_BOUND + 1, PI_BOUND + 100)


def _fresh_table(monkeypatch):
    """The table as a fresh process has it: empty."""
    empty = PrimeTable(0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint32))
    monkeypatch.setattr(panweird.primes, "_state", empty)


def test_fresh_table_first_queried_past_the_cap(monkeypatch):
    want = _pi_answers()
    for first in (10**8 + 7, _CACHE_CAP + 1):
        _fresh_table(monkeypatch)
        prime_pi(first)
        assert prime_table().limit == _CACHE_CAP
        assert _pi_answers() == want
    _fresh_table(monkeypatch)
    assert count_in_closed(_CACHE_CAP + 1, _CACHE_CAP + 20000) == want[1][2]


def test_table_answers_are_python_ints():
    values = [prime_pi(10**6), count_in_closed(2, 10**6), next_prime(10**6),
              kth_prime_above(10**6, 5), kth_prime_below(10**6, 5)]
    values += primes_in_closed(10**6, 10**6 + 100)
    it = iter_primes_above(10**6)
    values += [next(it) for _ in range(100)]
    assert all(type(v) is int for v in values)
    p = 10**6
    for _ in range(5):
        p = next_prime(p)
    assert kth_prime_above(10**6, 5) == p


# 65,521 is the floor's last prime, where stepping leaves the floor array
STEP_POINTS = (2**16 - 40, 65520, 65521, 65522, 2**16, 2**16 + 1, _CACHE_CAP - 40,
               _CACHE_CAP, _CACHE_CAP + 1, 10**12, 10**12 + 39)


def _step_answers():
    answers = []
    for x in STEP_POINTS:
        it = iter_primes_above(x)
        answers.append((next_prime(x), kth_prime_above(x, 3),
                        kth_prime_below(x + 1, 2), [next(it) for _ in range(20)]))
    return answers


def test_stepping_is_independent_of_the_table(monkeypatch):
    sympy = pytest.importorskip("sympy")
    want = []
    for x in STEP_POINTS:
        above = [x]
        for _ in range(20):
            above.append(int(sympy.nextprime(above[-1])))
        below = int(sympy.prevprime(sympy.prevprime(x + 1)))
        want.append((above[1], above[3], below, above[1:]))
    _fresh_table(monkeypatch)
    assert _step_answers() == want
    assert prime_table().limit == 0  # stepping never grows the table
    prime_pi(10**8)
    assert prime_table().limit == _CACHE_CAP
    assert _step_answers() == want


@pytest.mark.parametrize("order", [(3, 70_000, 2**20 + 1, _CACHE_CAP), (_CACHE_CAP,)])
def test_table_grows_exactly(monkeypatch, order):
    # whatever the bounds of the counts, the first one takes the table from
    # empty straight to the cap table, and no later one replaces it
    sympy = pytest.importorskip("sympy")
    small = np.array(list(sympy.primerange(2, 10**6 + 1)), dtype=np.int64)
    _fresh_table(monkeypatch)
    count_in_closed(2, order[0])
    table = prime_table()
    for n in order[1:]:
        assert count_in_closed(2, n) == int(sympy.primepi(n)) and prime_table() is table
    limit = table.limit
    assert limit == _CACHE_CAP and prime_table() is table
    assert table.words.dtype == np.uint64 and table.ranks.dtype == np.uint32
    assert len(table.words) == len(table.ranks) == limit // 128
    assert np.array_equal(table.primes(0, 10**6), small)
    decoded = table.primes(0, limit)
    assert np.all(decoded[1:] > decoded[:-1]) and decoded[-1] <= limit
    assert int(table.pi(limit)) == len(decoded) == int(sympy.primepi(limit)) == 3_957_809
    # pi takes every x from 2 to limit, its two ends included
    ends = [2, 3, limit - 1, limit]
    assert table.pi(ends).tolist() == [int(sympy.primepi(x)) for x in ends]


def test_rank_and_decode_at_word_edges_and_random_points(monkeypatch):
    # pi(x) by rank and the primes of [lo, hi] decoded from the bits, at the
    # edges of words (128 numbers each) and at random x <= 2^26, against
    # sympy's pi and primes and against trial division
    sympy = pytest.importorskip("sympy")
    _fresh_table(monkeypatch)
    table = panweird.primes._table()
    rng = random.Random(0xB175)
    last = _CACHE_CAP // 128
    words = [1, 2, 3, 511, 512, 513, last - 1, last] + rng.sample(range(4, last), 12)
    edges = [x for w in words for x in (128 * w - 1, 128 * w, 128 * w + 1) if x <= _CACHE_CAP]
    points = edges + [rng.randrange(2, _CACHE_CAP + 1) for _ in range(80)] + [2, 3, 4]
    want = [int(sympy.primepi(x)) for x in points]
    assert table.pi(points).tolist() == want
    assert [prime_pi(x) for x in points] == want
    for x in points:
        for lo, hi in ((x - 1, x + 1), (x - 130, x), (x - 300, x + 300)):
            hi = min(hi, _CACHE_CAP)
            got = table.primes(lo, hi).tolist()
            assert got == list(sympy.primerange(lo, hi + 1))
            assert got == [n for n in range(max(lo, 0), hi + 1) if naive_is_prime(n)]
            assert primes_in_closed(lo, hi) == got
            if lo >= 3:  # pi takes x >= 2
                assert int(table.pi(hi)) - int(table.pi(lo - 1)) == len(got)


def test_table_at_the_cap_fits_six_and_a_half_mb(monkeypatch):
    _fresh_table(monkeypatch)
    table = panweird.primes._table()
    assert table.limit == _CACHE_CAP
    # one bit per odd number and a uint32 rank per 64 of them: 6 MB, where
    # an int64 per prime took 31.7 MB
    assert table.words.nbytes + table.ranks.nbytes <= 6.5e6


def test_prime_scan_returns_to_the_table(monkeypatch):
    sympy = pytest.importorskip("sympy")
    stepped = []
    step = panweird.primes.next_prime

    def counted_step(n):
        stepped.append(n)
        return step(n)

    _fresh_table(monkeypatch)
    monkeypatch.setattr(panweird.primes, "next_prime", counted_step)
    x = 2**16 - 200
    it = iter_primes_above(x)
    head = [next(it) for _ in range(40)]
    # the floor array serves the primes up to 2^16; with the table empty
    # every later one is stepped
    past_floor = sum(p > 2**16 for p in head)
    assert len(stepped) == past_floor > 0
    prime_pi(2)  # a count loads the cap table: the scan decodes it from here
    mid = [next(it) for _ in range(1000)]
    assert len(stepped) == past_floor
    seq = head + mid
    assert seq == list(sympy.primerange(x + 1, seq[-1] + 1))
    # past the cap table, a scan steps again
    it = iter_primes_above(_CACHE_CAP - 300)
    tail = [next(it) for _ in range(30)]
    assert len(stepped) - past_floor == sum(p > _CACHE_CAP for p in tail) > 0
    assert tail == list(sympy.primerange(_CACHE_CAP - 299, tail[-1] + 1))


# The cap table's file cache.  The session's XDG_CACHE_HOME is private
# (conftest.py); each test below gets an empty one of its own.

CAP_FILE = "primes-67108864-%s.u64" % _CAP_SHA256[:16]


def _fresh_cache(monkeypatch, root):
    """An empty table and the cache root root; the cap file's path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    _fresh_table(monkeypatch)
    return root / "panweird" / CAP_FILE


def _is_cap_file(path):
    data = path.read_bytes()
    return len(data) == _CACHE_CAP // 16 and hashlib.sha256(data).hexdigest() == _CAP_SHA256


def _no_sieve(*args):
    raise AssertionError("sieved")


def test_cache_path_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for root in (None, "", "relative/cache"):  # unset, empty or relative: ~/.cache
        if root is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", root)
        want = tmp_path / "home" / ".cache" / "panweird" / CAP_FILE
        assert panweird.primes._cache_path() == str(want)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert panweird.primes._cache_path() == str(tmp_path / "xdg" / "panweird" / CAP_FILE)


def test_cold_fill_sieves_the_cap_table_and_writes_it(monkeypatch, tmp_path):
    path = _fresh_cache(monkeypatch, tmp_path)
    table = panweird.primes._table()
    assert (table.limit, table.source) == (_CACHE_CAP, "sieve")
    assert hashlib.sha256(table.words).hexdigest() == _CAP_SHA256
    assert _is_cap_file(path)
    assert os.listdir(path.parent) == [CAP_FILE]  # no temporary file is left


def test_warm_load_equals_the_sieved_table(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    sieved = panweird.primes._table()
    _fresh_table(monkeypatch)
    # empty, and cut short at 2^20
    starts = [prime_table(), PrimeTable(2**20, sieved.words[: 2**13], sieved.ranks[: 2**13])]
    monkeypatch.setattr(panweird.primes, "_sieve_primes", _no_sieve)
    for start in starts:
        monkeypatch.setattr(panweird.primes, "_state", start)
        loaded = panweird.primes._table()
        assert (loaded.limit, loaded.source) == (_CACHE_CAP, "cache")
        assert loaded.words.dtype == np.uint64 and loaded.ranks.dtype == np.uint32
        assert np.array_equal(loaded.words, sieved.words)
        assert np.array_equal(loaded.ranks, sieved.ranks)


@pytest.mark.parametrize("damage", ["flipped bit", "truncated", "oversized", "empty", "directory"])
def test_a_bad_cache_file_is_ignored_and_resieved(monkeypatch, tmp_path, damage):
    path = _fresh_cache(monkeypatch, tmp_path)
    good = panweird.primes._table().words.tobytes()
    want = _pi_answers()
    path.unlink()
    if damage == "directory":
        path.mkdir()
    else:
        bad = {"flipped bit": good[:12345] + bytes([good[12345] ^ 0x10]) + good[12346:],
               "truncated": good[:-8], "oversized": good + bytes(8), "empty": b""}[damage]
        path.write_bytes(bad)
    _fresh_table(monkeypatch)
    table = panweird.primes._table()
    assert (table.limit, table.source) == (_CACHE_CAP, "sieve")
    assert _pi_answers() == want
    if damage == "directory":  # nothing can replace it, so it stays, and no temporary file
        assert path.is_dir() and os.listdir(path.parent) == [CAP_FILE]
    else:
        assert _is_cap_file(path) and os.listdir(path.parent) == [CAP_FILE]


def test_a_cache_root_that_is_a_file_is_skipped(monkeypatch, tmp_path):
    root = tmp_path / "root"
    root.write_text("not a directory")
    _fresh_cache(monkeypatch, root)
    table = panweird.primes._table()
    assert (table.limit, table.source) == (_CACHE_CAP, "sieve")
    assert os.listdir(tmp_path) == ["root"] and root.read_text() == "not a directory"


def test_a_sieve_that_misses_the_digest_raises_and_writes_nothing(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(panweird.primes, "_CAP_SHA256", "0" * 64)
    with pytest.raises(RuntimeError, match="digest"):
        panweird.primes._table()
    assert prime_table().limit == 0
    assert os.listdir(tmp_path) == []


def test_two_processes_filling_at_once_leave_one_valid_file(tmp_path):
    src = os.path.dirname(os.path.dirname(panweird.primes.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from panweird.primes import count_in_closed, prime_pi\n"
            "print(prime_pi(10**8 + 7), count_in_closed(2**26 - 10**5, 2**26 + 10**5))")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    want = "%d %d\n" % (prime_pi(10**8 + 7), count_in_closed(2**26 - 10**5, 2**26 + 10**5))
    assert outs == [want, want]
    path = tmp_path / "panweird" / CAP_FILE
    assert _is_cap_file(path) and os.listdir(path.parent) == [CAP_FILE]
