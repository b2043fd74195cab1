"""Deficient / perfect / abundant classification and the primitivity kernels.

A number is primitive non-deficient when it is non-deficient and every proper
divisor is deficient; equivalently, dividing out any one distinct prime leaves
a deficient number.  The walks and searches decide this for one-prime
extensions of a deficient base with integers only, from sigma and the
deficiency of the base, without touching the divisors themselves.

For a prime p new to deficient m, with s = sigma(m) and d its deficiency,
m*p has abundance s - p*d, so it is non-deficient exactly when p <= s // d,
and primitive exactly when p also exceeds reduced_center_floor: p clears
every reduced center, center(m/q).  same_prime_extension decides m*p for a
p that already divides m.
"""

from __future__ import annotations

import enum

from .arith import Factorization, abundance


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


def classify(f: Factorization) -> NumberClass:
    return NumberClass.from_abundance(abundance(f))


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
    return center_floor(s, d, max(sigpps)) if sigpps else 0


def center_floor(s, d, smax):
    """floor of center(m/q) = (s - t)/(d + t), t = s/smax, for the prime
    power q^alpha of m with sigma(q^alpha) = smax; m as in
    reduced_center_floor.  Works on ints and on numpy arrays alike (int64
    or object), elementwise; smax = 1 gives 0.
    """
    t = s // smax
    return (s - t) // (d + t)


def same_prime_abundance(s, d, p, spp):
    """Abundance of m*p, s/spp - p*d, for p^alpha exactly dividing m with
    spp = sigma(p^alpha); m as in same_prime_extension.  Works on ints and
    on numpy arrays alike, elementwise.
    """
    return s // spp - p * d


def same_prime_extension(s: int, d: int, p: int, spp: int, others) -> tuple[int, bool]:
    """Abundance of m*p and its primitivity, for p^alpha exactly dividing m.

    m is deficient with sigma(m) = s and deficiency d, spp = sigma(p^alpha),
    and others holds sigma(q^beta) of every other prime power of m.  Then
    delta = s/spp - p*d is the exact abundance of m*p, so
    sigma(m*p) = 2*m*p + delta.  m*p is primitive when it is non-deficient
    and p*sigma(p^alpha) clears every center(m/q), q != p.
    """
    delta = same_prime_abundance(s, d, p, spp)
    return delta, delta >= 0 and p * spp > reduced_center_floor(s, d, others)
