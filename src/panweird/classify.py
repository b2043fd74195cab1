"""Deficient / perfect / abundant classification and primitivity tests.

A number is primitive non-deficient when it is non-deficient and every proper
divisor is deficient; equivalently, dividing out any one distinct prime leaves
a deficient number.  The fast predicates below decide this for one-prime
extensions of a deficient base without touching the divisors themselves, and
the oracle decides it from the definition.

The walks and searches decide primitivity with integers only: an integer
clears every reduced center, center(m/q), exactly when it exceeds
reduced_center_floor.  Fraction appears only where a public function takes
or returns a ratio: primitivity_lower_bound and extend_primitive_coprime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    Factorization,
    abundance,
    center,
    deficiency,
    sigma,
    sigma_prime_power,
)
from .errors import (
    NotAbundantOrPerfect,
    NotADivisor,
    NotCoprime,
    NotDeficient,
)


class NumberClass(enum.Enum):
    DEFICIENT = "deficient"
    PERFECT = "perfect"
    ABUNDANT = "abundant"

    @staticmethod
    def from_abundance(delta: int) -> "NumberClass":
        if delta > 0:
            return NumberClass.ABUNDANT
        if delta == 0:
            return NumberClass.PERFECT
        return NumberClass.DEFICIENT


@dataclass(frozen=True)
class ExtensionVerdict:
    """Outcome of extending a deficient number by one more prime factor."""

    number_class: NumberClass
    primitive: bool


def classify(f: Factorization) -> NumberClass:
    return NumberClass.from_abundance(abundance(f))


def classify_coprime_extension(m: Factorization, p: int, e: int = 1) -> NumberClass:
    """Class of m*p^e for coprime p, decided by cross-multiplication."""
    if e < 1:
        raise ValueError("exponents must be positive")
    if m.exponent_of(p):
        raise NotCoprime("%d already divides %s" % (p, m))
    d = deficiency(m)
    if d <= 0:
        raise NotDeficient("extensions start from a deficient number")
    # delta(m p^e) has the sign of sigma(m) sigma(p^(e-1)) - d(m) p^e
    lhs = sigma(m) * sigma_prime_power(p, e - 1)
    rhs = d * p**e
    return NumberClass.from_abundance(lhs - rhs)


def classify_same_prime_extension(m: Factorization, p: int) -> NumberClass:
    """Class of m*p when p^alpha already divides m exactly."""
    return extend_primitive_same(m, p).number_class


def reduced_center_floor(s: int, d: int, sigpps) -> int:
    """floor of the largest center(m/q) over the prime divisors q of m; 0
    when sigpps is empty.

    m is deficient with sigma(m) = s, deficiency d and sigma(q^alpha) for
    each prime power q^alpha exactly dividing m in sigpps.  Each center(m/q)
    comes out of s and d alone: with t = s/sigma(q^alpha),
    center(m/q) = (s - t)/(d + t), which grows with sigma(q^alpha), so only
    the largest one matters.  An integer clears every center(m/q) exactly
    when it exceeds this floor.
    """
    if not sigpps:
        return 0
    t = s // max(sigpps)
    return (s - t) // (d + t)


def primitivity_lower_bound(m: Factorization) -> Fraction:
    """max over prime divisors q of center(m/q), as an exact ratio; 0 for 1.

    A one-prime extension of deficient m is primitive exactly when the new
    factor clears this bound (and the extension is non-deficient).
    """
    if deficiency(m) <= 0:
        raise NotDeficient("lower bound is defined for deficient numbers only")
    return max((center(m.divide_prime(q)) for q, _ in m.factors), default=Fraction(0))


def same_prime_extension(s: int, d: int, p: int, spp: int, others) -> tuple[int, bool]:
    """Abundance of m*p and its primitivity, for p^alpha exactly dividing m.

    m is deficient with sigma(m) = s and deficiency d, spp = sigma(p^alpha),
    and others holds sigma(q^beta) of every other prime power of m.  Then
    delta = s/spp - p*d is the exact abundance of m*p, so
    sigma(m*p) = 2*m*p + delta.  m*p is primitive when it is non-deficient
    and p*sigma(p^alpha) clears every center(m/q), q != p.
    """
    delta = s // spp - p * d
    return delta, delta >= 0 and p * spp > reduced_center_floor(s, d, others)


def extend_primitive_coprime(m: Factorization, p: int, e: int = 1) -> ExtensionVerdict:
    """Class and primitivity of m*p^e for coprime prime p, deficient m.

    Primitivity needs three strict conditions: p^e/sigma(p^(e-1)) below
    center(m), above every center(m/q), and for e >= 2 the previous power
    p^(e-1)/sigma(p^(e-2)) still above center(m).  Perfect extensions are
    always primitive: a non-deficient proper divisor would force abundance.
    """
    cls = classify_coprime_extension(m, p, e)
    if cls is NumberClass.DEFICIENT:
        return ExtensionVerdict(cls, False)
    if cls is NumberClass.PERFECT:
        return ExtensionVerdict(cls, True)
    if Fraction(p**e, sigma_prime_power(p, e - 1)) <= primitivity_lower_bound(m):
        return ExtensionVerdict(cls, False)
    if e > 1:
        # the e-1 prefix must still be deficient
        d = deficiency(m)
        if p ** (e - 1) * d <= sigma(m) * sigma_prime_power(p, e - 2):
            return ExtensionVerdict(cls, False)
    return ExtensionVerdict(cls, True)


def extend_primitive_same(m: Factorization, p: int) -> ExtensionVerdict:
    """Class and primitivity of m*p when p already divides m."""
    alpha = m.exponent_of(p)
    if alpha == 0:
        raise NotADivisor("%d does not divide %s" % (p, m))
    d = deficiency(m)
    if d <= 0:
        raise NotDeficient("extensions start from a deficient number")
    others = [sigma_prime_power(q, beta) for q, beta in m.factors if q != p]
    delta, primitive = same_prime_extension(
        sigma(m), d, p, sigma_prime_power(p, alpha), others)
    return ExtensionVerdict(NumberClass.from_abundance(delta), primitive)


def is_primitive_nondeficient_oracle(f: Factorization) -> bool:
    """Definition-level check: non-deficient, all one-prime reductions deficient.

    Independent of the extension predicates; the fast paths are tested
    against this.
    """
    if abundance(f) < 0:
        raise NotAbundantOrPerfect("%s is deficient" % f)
    for p, _ in f.factors:
        if deficiency(f.divide_prime(p)) <= 0:
            return False
    return True
