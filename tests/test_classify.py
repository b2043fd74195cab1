"""The walk's primitivity kernels against the definition-level oracles.

A prime p new to deficient m (sigma s, deficiency d) gives m*p abundance
s - p*d.  pndn closes a leaf with the primes reduced_center_floor < p <=
s // d, sfpan with p <= (s - 1) // d, the square-free search with
p >= max sigma(q^alpha) - 1 below the center, and every walk deepens the
last prime with same_prime_extension.
"""

import math
import random
from fractions import Fraction

import pytest

from panweird import (
    ONE,
    Factorization,
    NumberClass,
    abundance,
    center,
    classify,
    deficiency,
    primes_in_closed,
    sigma,
    sigma_prime_power,
)
from panweird.classify import reduced_center_floor, same_prime_extension

from oracles import (
    divide_prime,
    exponent_of,
    is_primitive_nondeficient_oracle,
    naive_is_prime,
    times_prime,
)

F = Factorization.parse

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def random_factorization(rng, max_primes=4, max_exp=3):
    k = rng.randrange(1, max_primes + 1)
    primes = sorted(rng.sample(SMALL_PRIMES, k))
    return Factorization([(p, rng.randrange(1, max_exp + 1)) for p in primes])


def random_deficient(rng, max_primes=4, max_exp=3):
    while True:
        f = random_factorization(rng, max_primes, max_exp)
        if deficiency(f) > 0:
            return f


def kernel_state(m):
    """sigma, deficiency and the prime-power sigmas of m, as a walk carries them."""
    return sigma(m), deficiency(m), [sigma_prime_power(q, a) for q, a in m.factors]


def coprime_rule(m, p):
    """Abundance of m*p for a prime p new to m, and pndn's leaf rule:
    whether m*p is primitive non-deficient."""
    s, d, sigpps = kernel_state(m)
    return s - p * d, reduced_center_floor(s, d, sigpps) < p <= s // d


def same_prime(m, p):
    """same_prime_extension for a prime p that divides m."""
    s, d, _ = kernel_state(m)
    others = [sigma_prime_power(q, a) for q, a in m.factors if q != p]
    return same_prime_extension(s, d, p, sigma_prime_power(p, exponent_of(m, p)), others)


def deepened(m, p, e):
    """Abundance of m*p^j for j = 1, 2, ... up to e, stepping as the walks
    do: a coprime step, then same_prime_extension while the number stays
    deficient (a non-deficient number is never deepened)."""
    s, d, sigpps = kernel_state(m)
    v = m.value
    delta = s - p * d
    spp = p + 1
    out = [delta]
    while len(out) < e and delta < 0:
        v *= p
        s, d = 2 * v + delta, -delta
        delta, _ = same_prime_extension(s, d, p, spp, sigpps)
        spp = spp * p + 1
        out.append(delta)
    return out


def test_from_abundance_sign():
    assert NumberClass.from_abundance(4) is NumberClass.ABUNDANT
    assert NumberClass.from_abundance(0) is NumberClass.PERFECT
    assert NumberClass.from_abundance(-1) is NumberClass.DEFICIENT


def test_classify_examples():
    assert classify(ONE) is NumberClass.DEFICIENT
    assert classify(F("2^3")) is NumberClass.DEFICIENT
    assert classify(F("2*3")) is NumberClass.PERFECT
    assert classify(F("2^2*7")) is NumberClass.PERFECT
    assert classify(F("2*5*7")) is NumberClass.ABUNDANT


def test_coprime_extension_examples():
    def cls(m, p, e=1):
        return NumberClass.from_abundance(deepened(F(m), p, e)[-1])

    assert cls("2*13*31", 3) is NumberClass.ABUNDANT
    assert cls("2^2", 7) is NumberClass.PERFECT
    assert cls("2*5", 7) is NumberClass.ABUNDANT
    assert cls("3^2*5", 7) is NumberClass.DEFICIENT
    assert cls("7", 2, 2) is NumberClass.PERFECT


def test_coprime_extension_matches_direct_classification():
    # the leaf abundance s - p*d, pndn's upper bound s // d (non-deficient)
    # and sfpan's strict one (s - 1) // d (abundant), then the deepening
    rng = random.Random(0xC1A55)
    for _ in range(300):
        m = random_deficient(rng)
        p = rng.choice(SMALL_PRIMES)
        if exponent_of(m, p):
            continue
        s, d, _ = kernel_state(m)
        delta = abundance(times_prime(m, p))
        assert s - p * d == delta
        assert (p <= s // d) == (delta >= 0)
        assert (p <= (s - 1) // d) == (delta > 0)
        e = rng.randrange(1, 4)
        for j, delta in enumerate(deepened(m, p, e), 1):
            assert delta == abundance(times_prime(m, p, j))


def test_same_prime_extension_examples():
    def cls(m, p):
        return NumberClass.from_abundance(same_prime(F(m), p)[0])

    assert cls("2*5", 5) is NumberClass.DEFICIENT
    assert cls("2*5", 2) is NumberClass.ABUNDANT
    assert cls("2*5*13*61*67", 61) is NumberClass.ABUNDANT
    assert cls("3^8*5*11", 11) is NumberClass.DEFICIENT


def test_same_prime_extension_matches_direct_classification():
    rng = random.Random(0x5A9E)
    for _ in range(300):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        delta, _ = same_prime(m, p)
        assert NumberClass.from_abundance(delta) is classify(times_prime(m, p))


def test_same_prime_extension_abundance_matches_direct():
    assert same_prime(F("2*5"), 5)[0] == -7
    assert same_prime(F("2^2"), 2)[0] == -1
    assert same_prime(F("2*5*13*61*67"), 61)[0] > 0
    rng = random.Random(0x5A3E)
    for _ in range(100):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        assert same_prime(m, p)[0] == abundance(times_prime(m, p))


def test_lower_bound_examples():
    def floor(m):
        return reduced_center_floor(*kernel_state(F(m)))

    assert reduced_center_floor(*kernel_state(ONE)) == 0
    assert floor("2*5") == 3
    assert floor("2^4") == 15
    m = F("3^8*5")
    assert max(center(divide_prime(m, q)) for q, _ in m.factors) == Fraction(656, 73)
    assert floor("3^8*5") == 8


def test_lower_bound_is_max_of_reduced_centers():
    # definition cross-check: drop one copy of each prime, take centers
    rng = random.Random(0x10B0)
    for _ in range(300):
        m = random_deficient(rng)
        want = max(center(divide_prime(m, q)) for q, _ in m.factors)
        # the integer kernel: an integer clears the bound when it exceeds this
        assert reduced_center_floor(*kernel_state(m)) == math.floor(want)


def test_extend_coprime_matches_oracle():
    # pndn's leaf rule, reduced_center_floor < p <= s // d, and sfpan's,
    # with (s - 1) // d, against the definition, with p on both sides of
    # the center; and the deepening to m*p^2 while m*p is still deficient
    rng = random.Random(0xE3C0)
    done = 0
    while done < 400:
        m = random_deficient(rng)
        s, d, sigpps = kernel_state(m)
        p = rng.randrange(2, 2 * (s // d) + 3)
        if not naive_is_prime(p) or exponent_of(m, p):
            continue
        delta, primitive = coprime_rule(m, p)
        ext = times_prime(m, p)
        assert delta == abundance(ext)
        if delta < 0:
            assert not primitive
            ext2 = times_prime(m, p, 2)
            delta2, primitive2 = same_prime_extension(
                sigma(ext), deficiency(ext), p, p + 1, sigpps)
            assert delta2 == abundance(ext2)
            assert primitive2 == (delta2 >= 0 and is_primitive_nondeficient_oracle(ext2))
        else:
            assert primitive == is_primitive_nondeficient_oracle(ext)
        abundant_primitive = delta > 0 and primitive
        assert (reduced_center_floor(s, d, sigpps) < p <= (s - 1) // d) == abundant_primitive
        done += 1


def test_extend_same_matches_oracle():
    rng = random.Random(0xE3C1)
    for _ in range(400):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        delta, primitive = same_prime(m, p)
        ext = times_prime(m, p)
        assert delta == abundance(ext)
        if delta < 0:
            assert not primitive
        else:
            assert primitive == is_primitive_nondeficient_oracle(ext)


def test_extension_verdict_examples():
    assert coprime_rule(F("2^2"), 7) == (0, True)
    delta, primitive = coprime_rule(F("3^2*5*7"), 103)
    assert delta > 0 and primitive
    delta, primitive = same_prime(F("2*5"), 2)
    assert delta > 0 and primitive
    delta, primitive = same_prime(F("2*5*13*61*67"), 61)
    assert delta > 0 and primitive
    # perfect same-prime extensions: 2^2*7, 2^4*31 and 2^6*127
    for m in ("2*7", "2^3*31", "2^5*127"):
        assert same_prime(F(m), 2) == (0, True)


def test_multiple_of_a_perfect_number_is_not_primitive():
    # 2^3*7 is abundant but its reduction 2^2*7 is perfect
    delta, primitive = coprime_rule(F("2^3"), 7)
    assert delta > 0 and not primitive
    assert not is_primitive_nondeficient_oracle(F("2^3*7"))
    assert not is_primitive_nondeficient_oracle(F("2^2*3"))


def test_perfect_numbers_are_primitive():
    for text in ("2*3", "2^2*7", "2^4*31", "2^6*127"):
        assert is_primitive_nondeficient_oracle(F(text))


def test_inner_square_blocked_by_prefix_condition():
    # 2^2*3^2 is abundant, but 2*3^2 is already abundant, so a walk closes
    # 3^2*2 as a leaf and never deepens it
    assert coprime_rule(F("3^2"), 2)[0] > 0
    assert not is_primitive_nondeficient_oracle(F("2^2*3^2"))


def test_oracle_examples():
    assert is_primitive_nondeficient_oracle(F("2*5*7"))
    assert is_primitive_nondeficient_oracle(F("2*7*11*13"))
    assert is_primitive_nondeficient_oracle(F("2*5*11*13"))
    assert not is_primitive_nondeficient_oracle(F("2^2*5*7*103"))
    assert not is_primitive_nondeficient_oracle(F("3^8*5*11*53"))
    with pytest.raises(ValueError):
        is_primitive_nondeficient_oracle(F("2*5"))


def test_small_coprime_prime_extension_is_primitive():
    # the square-free search's leaf floor: deficient m, coprime p with
    # sigma(q^a) - 1 <= p < center(m) for every q^a || m.
    # 2^a*q bases keep the center high enough for the window to be nonempty.
    candidates = list(primes_in_closed(2, 600))
    hits = 0
    for a in range(1, 7):
        for q in candidates:
            if q == 2 or q > 300:
                continue
            m = Factorization([(2, a), (q, 1)])
            if deficiency(m) <= 0:
                continue
            floor_p = max(sigma_prime_power(r, e) - 1 for r, e in m.factors)
            c = center(m)
            for p in candidates:
                if exponent_of(m, p) or not floor_p <= p < c:
                    continue
                delta, primitive = coprime_rule(m, p)
                assert delta > 0 and primitive
                assert is_primitive_nondeficient_oracle(times_prime(m, p))
                hits += 1
    assert hits > 30


def test_substituting_a_smaller_prime_keeps_abundance():
    # swap one prime power p_i^e for p^e with p < p_i: the abundancy
    # index only grows, so non-deficient stays non-deficient
    rng = random.Random(0x2906)
    done = 0
    while done < 300:
        f = random_factorization(rng)
        if abundance(f) < 0:
            continue
        q, e = rng.choice(f.factors)
        smaller = [p for p in SMALL_PRIMES if p < q and not exponent_of(f, p)]
        if not smaller:
            continue
        swapped = f
        for _ in range(e):
            swapped = divide_prime(swapped, q)
        swapped = times_prime(swapped, rng.choice(smaller), e)
        assert abundance(swapped) > 0
        done += 1
