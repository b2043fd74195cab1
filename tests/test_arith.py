import random
from fractions import Fraction

import pytest

from panweird import (
    ONE,
    CeilingExceeded,
    Factorization,
    NotDeficient,
    ParseError,
    abundance,
    center,
    deficiency,
    digits10,
    sigma,
    sigma_prime_power,
)

from panweird.arith import MAX_INPUT_BITS

from oracles import (
    divide_prime,
    exponent_of,
    is_squarefree,
    naive_divisors,
    naive_factorize,
    naive_sigma,
    times_prime,
)

F = Factorization.parse


def test_sigma_examples():
    assert sigma(ONE) == 1
    assert sigma(F("2*5")) == 18
    assert sigma(F("2^2")) == 7


def test_sigma_prime_power_matches_naive():
    for p in (2, 3, 5, 7, 11, 101):
        for e in range(1, 6):
            assert sigma_prime_power(p, e) == naive_sigma(p**e)


def test_sigma_matches_naive_on_randoms():
    rng = random.Random(0x51314)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert sigma(Factorization.from_int(n)) == naive_sigma(n)


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(0xC0931)
    done = 0
    while done < 100:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        import math
        if math.gcd(a, b) != 1:
            continue
        assert sigma(Factorization.from_int(a * b)) == \
            sigma(Factorization.from_int(a)) * sigma(Factorization.from_int(b))
        done += 1


def test_sigma_submultiplicative_in_general():
    rng = random.Random(0x5E13)
    for _ in range(200):
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        assert sigma(Factorization.from_int(a * b)) <= \
            sigma(Factorization.from_int(a)) * sigma(Factorization.from_int(b))


def test_abundance_examples():
    assert abundance(F("2*5*7")) == 4
    assert abundance(F("2^2*11*19")) == 8
    assert abundance(F("2*3")) == 0
    assert deficiency(F("2^3")) == 1


def test_center_examples():
    assert center(F("2*5")) == 9
    assert center(F("2^4")) == 31
    assert center(F("3*5^2")) == Fraction(62, 13)


def test_center_requires_deficient():
    with pytest.raises(NotDeficient):
        center(F("2*3"))
    with pytest.raises(NotDeficient):
        center(F("2*5*7"))


def test_center_identity_two_forms():
    rng = random.Random(0x1D6E)
    done = 0
    while done < 200:
        n = rng.randrange(2, 10**6)
        f = Factorization.from_int(n)
        d = deficiency(f)
        if d <= 0:
            continue
        assert center(f) == Fraction(2 * n, d) - 1
        done += 1


def test_parse_round_trips():
    for text in ("1", "2", "2^2", "2^2*13*17*443", "3^8*5", "2*5*11*59*647"):
        f = F(text)
        assert str(f) == text
        assert F(str(f)) == f


def test_parse_rejects_malformed():
    for bad in ("", "4", "2**3", "3*2", "2^0", "2^", "x", "2*2", "-2", "2^-1",
                "9^2", "2*3_1", "+2*31", "2*\uff13\uff11"):  # int() takes all three
        with pytest.raises(ParseError):
            F(bad)
    # the public constructor tests primality too, with parse's message
    with pytest.raises(ValueError, match="^9 is not prime$"):
        Factorization([(2, 1), (9, 1)])
    # and takes integers only: a float base, exponent or value is not truncated
    for pairs in ([(2.5, 1), (3.9, 2)], [(2.0, 1)], [(2, 1.0)]):
        with pytest.raises(TypeError):
            Factorization(pairs)
    with pytest.raises(TypeError):
        Factorization.from_int(12.0)
    # whitespace is tolerated on input, normalized on output
    assert str(F("2 * 5")) == "2*5"


def test_parse_refuses_text_past_the_input_bound():
    # the measure is the sum of e * bit_length(p), 2 counting 2 bits a power
    assert MAX_INPUT_BITS == 1 << 16
    assert F("2^32768").factors == ((2, 32768),)
    assert F("3^20000").factors == ((3, 20000),)
    for bad in ("2^32769", "2^32768*3", "2^100000000*3", "3^20000*5^20000"):
        with pytest.raises(CeilingExceeded, match="input bound"):
            F(bad)
    # a token longer than any text inside the bound is refused before int()
    # reads it, whatever Python's own limit on int digits
    for bad in ("1" * 19_737, "2^" + "1" * 19_735, "2*" + "3" * 30_000):
        with pytest.raises(CeilingExceeded, match="characters"):
            F(bad)


def test_from_int_matches_trial_division():
    rng = random.Random(0xFAC7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert Factorization.from_int(n).factors == tuple(naive_factorize(n))


def test_from_int_edges():
    assert Factorization.from_int(1) == ONE
    assert Factorization.from_int(2**62).factors == ((2, 62),)
    # two primes beyond trial-division range forces the rho split
    n = 1000003 * 1000033
    assert Factorization.from_int(n).factors == ((1000003, 1), (1000033, 1))
    with pytest.raises(ValueError):
        Factorization.from_int(2**64)
    with pytest.raises(ValueError):
        Factorization.from_int(0)


def test_structure_accessors():
    f = F("2^3*5*49999")
    assert f.value == 8 * 5 * 49999
    assert f.omega == 3
    assert f.big_omega == 5
    assert not is_squarefree(f)
    assert is_squarefree(F("2*5*7"))
    assert exponent_of(f, 2) == 3
    assert exponent_of(f, 3) == 0


def test_times_and_divide_prime():
    f = F("2*5")
    assert times_prime(f, 5) == F("2*5^2")
    assert times_prime(f, 3) == F("2*3*5")
    assert divide_prime(F("2*5^2"), 5) == F("2*5")
    assert divide_prime(F("2*5"), 2) == F("5")
    with pytest.raises(ValueError):
        divide_prime(F("2*5"), 3)


def test_digits10_boundaries():
    for v in (1, 9, 10, 99, 100, 10**15 - 1, 10**15, 10**15 + 1, 7**300):
        assert digits10(v) == len(str(v))
    rng = random.Random(0xD161)
    for _ in range(50):
        v = rng.randrange(1, 10**50)
        assert digits10(v) == len(str(v))


def test_value_agrees_with_divisor_sum_oracle():
    # the divisor list itself, as a deeper cross-check of value/sigma pairing
    for n in (12, 70, 836, 4030, 99991):
        f = Factorization.from_int(n)
        assert f.value == n
        assert sigma(f) == sum(naive_divisors(n))
