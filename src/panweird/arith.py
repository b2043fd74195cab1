"""Factored integers and the divisor-sum arithmetic built on them.

Numbers are carried as sorted prime factorizations and never expanded unless
a caller asks for the value.  All comparisons the hot paths need reduce to
integer cross-multiplication; Fraction appears only in center, the one
public function that returns a ratio.

The public constructor takes integer bases and exponents only (through
operator.index, so a float raises TypeError) and tests every base for
primality, so no Factorization built from outside the package carries a
composite or truncated "prime".  Code that already knows its bases are
prime (factoring, the walks, the codec) builds through
Factorization._trusted and skips the test.  seed_state is the one place
where a walk or search checks its factor count and its seed.
"""

from __future__ import annotations

import math
import operator
import random
import re
from fractions import Fraction

from . import primes as _primes
from .errors import CeilingExceeded, NotDeficient, ParseError

_FACTOR_LIMIT = 1 << 64

# Largest factor count a walk or search accepts: each factor is a level of
# recursion, and this keeps the deepest one well inside Python's recursion
# limit while leaving room far beyond the paper's 16 factors.
MAX_FACTORS = 128

# Largest number factorization text may denote, in bits, as the sum of
# e * bit_length(p) over its factors: 19,729 digits, above the paper's
# largest primitive weird number (14,712 digits, about 48,900 bits).
MAX_INPUT_BITS = 1 << 16
# longest token such text can hold: a base of 19,729 digits at most, and
# an exponent of 5
_MAX_TOKEN = 19_736
# one factor, p or p^e, in ASCII digits only; whitespace may surround each part
_FACTOR_RE = re.compile(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?", re.ASCII)


def sigma_prime_power(p: int, e: int) -> int:
    """sigma(p^e) = 1 + p + ... + p^e; sigma(p^0) = 1."""
    if e < 0:
        raise ValueError("negative exponent")
    return (p ** (e + 1) - 1) // (p - 1)


def _excerpt(text: str) -> str:
    """text quoted for an error message, cut to 40 characters and its length."""
    return repr(text) if len(text) <= 40 else "%r... (%d characters)" % (text[:40], len(text))


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """The (base, exponent) pairs of 'p1^e1*p2*...' ('1' gives none) in ASCII
    digits, bases strictly increasing from 2 and exponents positive; bases
    are not tested for primality.  Text for a number above MAX_INPUT_BITS
    raises CeilingExceeded, an overlong token before int() reads it."""
    text = text.strip()
    if text == "1":
        return []
    if not text:
        raise ParseError("empty factorization")
    pairs = []
    last = 1
    bits = 0
    for token in text.split("*"):
        if len(token) > _MAX_TOKEN:
            raise CeilingExceeded("factor of %d characters, above the %d-bit "
                                  "input bound" % (len(token), MAX_INPUT_BITS))
        m = _FACTOR_RE.fullmatch(token)
        if not m:
            raise ParseError("bad factor %s" % _excerpt(token))
        try:
            p = int(m[1])
            e = int(m[2]) if m[2] else 1
        except ValueError as exc:  # past the int/str digit limit, keep Python's advice
            raise ParseError(str(exc)) from None
        if p <= last:
            raise ParseError("primes must be strictly increasing: %s" % _excerpt(text))
        if e < 1:
            raise ParseError("exponents must be positive: %s" % _excerpt(text))
        bits += e * p.bit_length()
        if bits > MAX_INPUT_BITS:
            raise CeilingExceeded("factorization above the %d-bit input bound"
                                  % MAX_INPUT_BITS)
        pairs.append((p, e))
        last = p
    return pairs


class Factorization:
    """A positive integer as a tuple of (prime, exponent) pairs.

    Primes are strictly increasing and exponents positive; the empty tuple
    is 1.  Instances are immutable by convention and usable as dict keys.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        pairs = tuple((operator.index(p), operator.index(e)) for p, e in factors)
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError("primes must be strictly increasing: %r" % (pairs,))
            if e < 1:
                raise ValueError("exponents must be positive: %r" % (pairs,))
            if not _primes.is_prime(p):
                raise ValueError("%d is not prime" % p)
            last = p
        self.factors = pairs

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, pairs: tuple) -> "Factorization":
        """Wrap a tuple of (prime, exponent) int pairs whose bases are known
        prime and increasing, skipping the checks of the public constructor."""
        f = object.__new__(cls)
        f.factors = pairs
        return f

    @classmethod
    def from_int(cls, n: int) -> "Factorization":
        """Factor a plain integer (not a float); supported up to 2^64 as a
        convenience."""
        n = operator.index(n)
        if n < 1:
            raise ValueError("need a positive integer")
        if n >= _FACTOR_LIMIT:
            raise ValueError("values this large must be supplied factored")
        return cls._trusted(tuple(sorted(_factorize(n).items())))

    @classmethod
    def parse(cls, text: str) -> "Factorization":
        """Parse 'p1^e1*p2*...' (or '1'); primes must increase and be prime."""
        pairs = _parse_pairs(text)
        for p, _ in pairs:
            if not _primes.is_prime(p):
                raise ParseError("%d is not prime" % p)
        return cls._trusted(tuple(pairs))

    @classmethod
    def coerce(cls, obj) -> "Factorization":
        """Accept a Factorization, an integer, or factorization text."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, int):
            return cls.from_int(obj)
        if isinstance(obj, str):
            return cls.parse(obj)
        raise TypeError("cannot interpret %r as a factorization" % (obj,))

    # -- views --------------------------------------------------------------

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def omega(self) -> int:
        """Number of distinct primes."""
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        """Number of prime factors with multiplicity."""
        return sum(e for _, e in self.factors)

    # -- protocol -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(
            "%d^%d" % (p, e) if e > 1 else "%d" % p for p, e in self.factors
        )

    def __repr__(self) -> str:
        return "Factorization(%r)" % (self.factors,)

    def __eq__(self, other) -> bool:
        return isinstance(other, Factorization) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)


ONE = Factorization()


# ---------------------------------------------------------------------------
# Divisor-sum arithmetic.

def sigma(f: Factorization) -> int:
    """Sum of all divisors; multiplicative, sigma(1) = 1."""
    s = 1
    for p, e in f.factors:
        s *= sigma_prime_power(p, e)
    return s


def abundance(f: Factorization) -> int:
    """sigma(n) - 2n; positive for abundant, zero for perfect."""
    return sigma(f) - 2 * f.value


def deficiency(f: Factorization) -> int:
    """2n - sigma(n); positive for deficient numbers."""
    return 2 * f.value - sigma(f)


def center(f: Factorization) -> Fraction:
    """sigma(m)/deficiency(m) for deficient m.

    This is the threshold the extension machinery revolves around: a coprime
    prime p extends m to an abundant number exactly when p < center(m), and
    to a perfect one when p equals it.
    """
    d = deficiency(f)
    if d <= 0:
        raise NotDeficient("center is defined for deficient numbers only")
    return Fraction(sigma(f), d)


def seed_state(seed, k, general):
    """The state a walk or search starts from: (left, v, s, pairs, sigpps).

    k is the total factor count of what the walk emits, the seed's factors
    included: counted with multiplicity when general, as distinct primes
    otherwise.  The seed is a Factorization, an int, factorization text or
    None for 1.  In this order, k must be an int from 1 to MAX_FACTORS
    (ValueError), the seed must be deficient (NotDeficient), and it must
    leave left = k - its count >= 1 factors to add (ValueError).  v is the
    seed's value, s its sigma, and the tuples pairs and sigpps its factor
    pairs and the sigma of each prime power, which no walk changes.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if k > MAX_FACTORS:
        raise ValueError("k must be at most %d" % MAX_FACTORS)
    f = Factorization.coerce(1 if seed is None else seed)
    v = f.value
    s = sigma(f)
    if 2 * v - s <= 0:
        raise NotDeficient("seed %s is not deficient" % f)
    have = f.big_omega if general else f.omega
    if k <= have:
        raise ValueError("k counts the seed's %d factors too" % have)
    return k - have, v, s, f.factors, tuple(sigma_prime_power(p, e) for p, e in f.factors)


def digits10(n: int) -> int:
    """Number of decimal digits of n >= 1, safe for very large n."""
    if n < 10:
        return 1
    d = int(n.bit_length() * 0.3010299956639812)
    while 10**d <= n:
        d += 1
    return d


# ---------------------------------------------------------------------------
# Small-integer factoring (trial division plus Pollard rho), a convenience
# for building Factorizations out of plain ints in tests and at the CLI.

def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    rng = random.Random(n)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _primes.is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_rho(m, rng)
        stack.extend((d, m // d))
    return out
