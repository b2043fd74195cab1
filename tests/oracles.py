"""Independent reference implementations the fast paths are tested against.

Everything here is deliberately naive or built from a different idea than
the library code: trial division, full divisor lists, sigma by sieve,
subset sums over all proper divisors with the whole number as target,
primitivity from the one-prime reductions themselves.  The leaf-row
oracle is the scalar loop the walks closed their leaves with before the
row kernel: one leaf at a time, one prime count at a time.
"""

import numpy as np

from panweird import (
    Factorization,
    abundance,
    deficiency,
    is_prime,
    is_weird,
)
from panweird.classify import reduced_center_floor, same_prime_extension
from panweird.primes import count_in_closed

_census_cache = {}
_sigma_cache = {}


def naive_divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def naive_sigma(n):
    return sum(naive_divisors(n))


def naive_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def sigma_sieve(limit):
    """sig[n] = sigma(n) for 0 <= n < limit (sig[0] = 0)."""
    if limit in _sigma_cache:
        return _sigma_cache[limit]
    sig = np.arange(limit, dtype=np.int64)
    for d in range(1, limit // 2 + 1):
        sig[2 * d :: d] += d
    _sigma_cache[limit] = sig
    return sig


def spf_sieve(limit):
    """Smallest prime factor of every n < limit (spf[n] = n for primes)."""
    spf = np.zeros(limit, dtype=np.int64)
    p = 2
    while p * p < limit:
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
        p += 1
    rest = spf == 0
    spf[rest] = np.nonzero(rest)[0]
    return spf


def factorize_with_spf(n, spf):
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def naive_is_semiperfect(n):
    """Subset of distinct proper divisors summing to n, over all of them."""
    bits = 1
    for d in naive_divisors(n)[:-1]:
        bits |= bits << d
    return bits >> n & 1 == 1


def naive_subset_sum(values, target):
    """Whether some subset of the distinct positive values sums to target,
    from the set of every subset sum up to target."""
    sums = {0}
    for v in values:
        sums |= {a + v for a in sums if a + v <= target}
    return target in sums


def naive_is_weird(n):
    return naive_sigma(n) > 2 * n and not naive_is_semiperfect(n)


def primitive_census(limit):
    """Every primitive non-deficient n < limit, mapped to its factorization.

    Straight from the definition: sigma(n) >= 2n and sigma(n/p) < 2(n/p)
    for each prime p dividing n, everything read off sieves.
    """
    if limit in _census_cache:
        return _census_cache[limit]
    sig = sigma_sieve(limit)
    spf = spf_sieve(limit)
    out = {}
    ns = np.nonzero(sig[2:] >= 2 * np.arange(2, limit, dtype=np.int64))[0] + 2
    for n in ns:
        n = int(n)
        fac = factorize_with_spf(n, spf)
        if all(sig[n // p] < 2 * (n // p) for p, _ in fac):
            out[n] = fac
    _census_cache[limit] = out
    return out


# ---------------------------------------------------------------------------
# Factorization helpers and definition-level predicates on Factorizations.

def exponent_of(f, p):
    """The exponent of p in f, 0 when p does not divide it."""
    return dict(f.factors).get(p, 0)


def is_squarefree(f):
    return all(e == 1 for _, e in f.factors)


def times_prime(f, p, e=1):
    """f multiplied by p^e."""
    if e < 1:
        raise ValueError("exponents must be positive")
    pairs = dict(f.factors)
    pairs[p] = pairs.get(p, 0) + e
    return Factorization(sorted(pairs.items()))


def divide_prime(f, p):
    """f divided by one copy of p; ValueError when p does not divide it."""
    pairs = dict(f.factors)
    if p not in pairs:
        raise ValueError("%d does not divide %s" % (p, f))
    pairs[p] -= 1
    return Factorization(sorted((q, e) for q, e in pairs.items() if e))


def is_primitive_nondeficient_oracle(f):
    """Non-deficient, and every one-prime reduction f/p deficient: the
    definition, with no center or kernel.  ValueError on a deficient f."""
    if abundance(f) < 0:
        raise ValueError("%s is deficient" % f)
    return all(deficiency(divide_prime(f, p)) > 0 for p, _ in f.factors)


def weird_numbers_below(limit):
    """All weird numbers strictly below limit, by direct census."""
    out = []
    for n in range(2, limit):
        f = Factorization.from_int(n)
        if abundance(f) > 0 and is_weird(f):
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# Leaf rows, one leaf at a time.

def close_leaves_oracle(general, ps, s, d, omax, ceiling, head=None):
    """What enumerate.close_leaves answers, from the scalar loop it
    replaced, one leaf and one prime count at a time.

    The arguments are close_leaves' own (omax = 1 stands for a prefix with
    no prime power).  Returns the list of (p, ca, cp, found) of the leaves
    closed in order, through the first barren one; the prime of that leaf,
    or None; and the bound of the leaf at which the loop would have raised
    CeilingExceeded, or None: the leaves listed are those before it.
    """
    leaves = [(p, s * (p + 1), p * d - s, p + 1, omax) for p in ps]
    if head is not None:
        leaves.insert(0, head)
    out = []
    for i, (p, s, d, spp, omax) in enumerate(leaves):
        # largest integer q with q <= center(m), or q < center(m) for sfpan
        upper = s // d if general else (s - 1) // d
        if upper > ceiling:
            return out, None, upper
        lca = lcp = 0
        lfound = False
        if upper > p:
            lo = max(p + 1, reduced_center_floor(s, d, (omax, spp)) + 1)
            n_all = count_in_closed(p + 1, upper)
            lfound = n_all > 0
            if lo <= upper:
                lca = n_all - count_in_closed(p + 1, lo - 1)
            if lca and upper * d == s and is_prime(upper):
                lca -= 1
                lcp = 1  # the completion sitting exactly at the center
        if general:
            others = (omax,) if omax > 1 else ()
            delta, primitive = same_prime_extension(s, d, p, spp, others)
            lfound |= delta >= 0
            if primitive:
                if delta > 0:
                    lca += 1
                else:
                    lcp += 1
        out.append((p, lca, lcp, lfound))
        if (head is None or i > 0) and (not lfound if general else lca == 0):
            return out, p, None
    return out, None, None
