import math
import random
from fractions import Fraction

import pytest

from panweird import (
    ONE,
    ExtensionVerdict,
    Factorization,
    NotAbundantOrPerfect,
    NotADivisor,
    NotCoprime,
    NotDeficient,
    NumberClass,
    abundance,
    center,
    classify,
    classify_coprime_extension,
    classify_same_prime_extension,
    deficiency,
    extend_primitive_coprime,
    extend_primitive_same,
    is_primitive_nondeficient_oracle,
    primes_in_closed,
    primitivity_lower_bound,
    sigma,
    sigma_prime_power,
)
from panweird.classify import reduced_center_floor, same_prime_extension

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
    assert classify_coprime_extension(F("2*13*31"), 3) is NumberClass.ABUNDANT
    assert classify_coprime_extension(F("2^2"), 7) is NumberClass.PERFECT
    assert classify_coprime_extension(F("2*5"), 7) is NumberClass.ABUNDANT
    assert classify_coprime_extension(F("3^2*5"), 7) is NumberClass.DEFICIENT
    assert classify_coprime_extension(F("7"), 2, 2) is NumberClass.PERFECT


def test_coprime_extension_matches_direct_classification():
    rng = random.Random(0xC1A55)
    for _ in range(300):
        m = random_deficient(rng)
        p = rng.choice(SMALL_PRIMES)
        if m.exponent_of(p):
            continue
        e = rng.randrange(1, 4)
        assert classify_coprime_extension(m, p, e) is classify(m.times_prime(p, e))


def test_coprime_extension_rejects_bad_inputs():
    with pytest.raises(NotCoprime):
        classify_coprime_extension(F("2*5"), 5)
    with pytest.raises(NotDeficient):
        classify_coprime_extension(F("2*5*7"), 11)
    with pytest.raises(NotDeficient):
        classify_coprime_extension(F("2*3"), 5)
    with pytest.raises(ValueError):
        classify_coprime_extension(F("2*5"), 7, 0)


def test_same_prime_extension_examples():
    assert classify_same_prime_extension(F("2*5"), 5) is NumberClass.DEFICIENT
    assert classify_same_prime_extension(F("2*5"), 2) is NumberClass.ABUNDANT
    assert classify_same_prime_extension(F("2*5*13*61*67"), 61) is NumberClass.ABUNDANT
    assert classify_same_prime_extension(F("3^8*5*11"), 11) is NumberClass.DEFICIENT


def test_same_prime_extension_matches_direct_classification():
    rng = random.Random(0x5A9E)
    for _ in range(300):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        assert classify_same_prime_extension(m, p) is classify(m.times_prime(p))


def test_same_prime_extension_abundance_matches_direct():
    def delta(m, p):
        others = [sigma_prime_power(q, b) for q, b in m.factors if q != p]
        spp = sigma_prime_power(p, m.exponent_of(p))
        return same_prime_extension(sigma(m), deficiency(m), p, spp, others)[0]

    assert delta(F("2*5"), 5) == -7
    assert delta(F("2^2"), 2) == -1
    assert delta(F("2*5*13*61*67"), 61) > 0
    rng = random.Random(0x5A3E)
    for _ in range(100):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        assert delta(m, p) == abundance(m.times_prime(p))


def test_same_prime_extension_rejects_bad_inputs():
    with pytest.raises(NotADivisor):
        classify_same_prime_extension(F("2*5"), 3)
    with pytest.raises(NotDeficient):
        classify_same_prime_extension(F("2*5*7"), 2)


def test_lower_bound_examples():
    assert primitivity_lower_bound(ONE) == 0
    assert primitivity_lower_bound(F("2*5")) == 3
    assert primitivity_lower_bound(F("2^4")) == 15
    assert primitivity_lower_bound(F("3^8*5")) == Fraction(656, 73)
    with pytest.raises(NotDeficient):
        primitivity_lower_bound(F("2*3"))


def test_lower_bound_is_max_of_reduced_centers():
    # definition cross-check: drop one copy of each prime, take centers
    rng = random.Random(0x10B0)
    for _ in range(300):
        m = random_deficient(rng)
        want = max(center(m.divide_prime(q)) for q, _ in m.factors)
        assert primitivity_lower_bound(m) == want
        # the integer kernel: an integer clears the bound when it exceeds this
        sigpps = [sigma_prime_power(q, a) for q, a in m.factors]
        assert reduced_center_floor(sigma(m), deficiency(m), sigpps) == math.floor(want)


def test_extend_coprime_matches_oracle():
    rng = random.Random(0xE3C0)
    done = 0
    while done < 400:
        m = random_deficient(rng)
        p = rng.choice(SMALL_PRIMES)
        if m.exponent_of(p):
            continue
        e = rng.randrange(1, 3)
        verdict = extend_primitive_coprime(m, p, e)
        ext = m.times_prime(p, e)
        assert verdict.number_class is classify(ext)
        if verdict.number_class is NumberClass.DEFICIENT:
            assert not verdict.primitive
        else:
            assert verdict.primitive == is_primitive_nondeficient_oracle(ext)
        done += 1


def test_extend_same_matches_oracle():
    rng = random.Random(0xE3C1)
    for _ in range(400):
        m = random_deficient(rng)
        p = rng.choice(m.factors)[0]
        verdict = extend_primitive_same(m, p)
        ext = m.times_prime(p)
        assert verdict.number_class is classify(ext)
        if verdict.number_class is NumberClass.DEFICIENT:
            assert not verdict.primitive
        else:
            assert verdict.primitive == is_primitive_nondeficient_oracle(ext)


def test_extension_verdict_examples():
    assert extend_primitive_coprime(F("2^2"), 7) == \
        ExtensionVerdict(NumberClass.PERFECT, True)
    assert extend_primitive_coprime(F("3^2*5*7"), 103) == \
        ExtensionVerdict(NumberClass.ABUNDANT, True)
    assert extend_primitive_same(F("2*5"), 2) == \
        ExtensionVerdict(NumberClass.ABUNDANT, True)
    assert extend_primitive_same(F("2*5*13*61*67"), 61) == \
        ExtensionVerdict(NumberClass.ABUNDANT, True)
    # perfect same-prime extensions: 2^2*7, 2^4*31 and 2^6*127
    for m in ("2*7", "2^3*31", "2^5*127"):
        assert extend_primitive_same(F(m), 2) == \
            ExtensionVerdict(NumberClass.PERFECT, True)


def test_multiple_of_a_perfect_number_is_not_primitive():
    # 2^3*7 is abundant but its reduction 2^2*7 is perfect
    assert extend_primitive_coprime(F("2^3"), 7) == \
        ExtensionVerdict(NumberClass.ABUNDANT, False)
    assert extend_primitive_coprime(F("7"), 2, 3) == \
        ExtensionVerdict(NumberClass.ABUNDANT, False)
    assert not is_primitive_nondeficient_oracle(F("2^3*7"))
    assert not is_primitive_nondeficient_oracle(F("2^2*3"))


def test_perfect_numbers_are_primitive():
    for text in ("2*3", "2^2*7", "2^4*31", "2^6*127"):
        assert is_primitive_nondeficient_oracle(F(text))


def test_inner_square_blocked_by_prefix_condition():
    # 2^2*3^2 is abundant, but 2*3^2 is already abundant
    assert extend_primitive_coprime(F("3^2"), 2, 2) == \
        ExtensionVerdict(NumberClass.ABUNDANT, False)
    assert not is_primitive_nondeficient_oracle(F("2^2*3^2"))


def test_oracle_examples():
    assert is_primitive_nondeficient_oracle(F("2*5*7"))
    assert is_primitive_nondeficient_oracle(F("2*7*11*13"))
    assert is_primitive_nondeficient_oracle(F("2*5*11*13"))
    assert not is_primitive_nondeficient_oracle(F("2^2*5*7*103"))
    assert not is_primitive_nondeficient_oracle(F("3^8*5*11*53"))
    with pytest.raises(NotAbundantOrPerfect):
        is_primitive_nondeficient_oracle(F("2*5"))


def test_small_coprime_prime_extension_is_primitive():
    # sufficient condition: deficient m, coprime p with
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
                if m.exponent_of(p) or not floor_p <= p < c:
                    continue
                verdict = extend_primitive_coprime(m, p)
                assert verdict == ExtensionVerdict(NumberClass.ABUNDANT, True)
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
        smaller = [p for p in SMALL_PRIMES if p < q and not f.exponent_of(p)]
        if not smaller:
            continue
        swapped = f
        for _ in range(e):
            swapped = swapped.divide_prime(q)
        swapped = swapped.times_prime(rng.choice(smaller), e)
        assert abundance(swapped) > 0
        done += 1
