"""Exact-arithmetic enumeration of primitive abundant numbers and search
for primitive weird numbers, organized by prime factor count."""

from .arith import (
    ONE,
    Factorization,
    abundance,
    center,
    deficiency,
    digits10,
    sigma,
    sigma_prime_power,
)
from .classify import NumberClass, classify
from .enumerate import EnumOutcome, EnumRecord, pndn, sfpan
from .errors import (
    CeilingExceeded,
    InvalidSequence,
    NoSuchPrime,
    NotAbundant,
    NotDeficient,
    PanweirdError,
    ParseError,
    PrefixNotDeficient,
)
from .primes import (
    certifiable,
    is_prime,
    iter_primes_above,
    kth_prime_above,
    kth_prime_below,
    next_prime,
    prime_pi,
    primes_in_closed,
)
from .weird import (
    IndexSequence,
    PwnRecord,
    decode_index_sequence,
    divisors_up_to,
    encode_index_sequence,
    is_weird,
    pwn_search_general,
    pwn_search_squarefree,
    subset_sums_to,
)

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "Factorization",
    "abundance",
    "center",
    "deficiency",
    "digits10",
    "sigma",
    "sigma_prime_power",
    "NumberClass",
    "classify",
    "EnumOutcome",
    "EnumRecord",
    "pndn",
    "sfpan",
    "CeilingExceeded",
    "InvalidSequence",
    "NoSuchPrime",
    "NotAbundant",
    "NotDeficient",
    "PanweirdError",
    "ParseError",
    "PrefixNotDeficient",
    "certifiable",
    "is_prime",
    "iter_primes_above",
    "kth_prime_above",
    "kth_prime_below",
    "next_prime",
    "prime_pi",
    "primes_in_closed",
    "IndexSequence",
    "PwnRecord",
    "decode_index_sequence",
    "divisors_up_to",
    "encode_index_sequence",
    "is_weird",
    "pwn_search_general",
    "pwn_search_squarefree",
    "subset_sums_to",
    "__version__",
]
