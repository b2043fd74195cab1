"""Exception types shared across the package."""


class PanweirdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PanweirdError, ValueError):
    """Malformed factorization or index-sequence text."""


class NotDeficient(PanweirdError, ValueError):
    """An operation that requires a deficient number got a non-deficient one."""


class NotAbundant(PanweirdError, ValueError):
    """An operation that requires an abundant number got something else."""


class NoSuchPrime(PanweirdError, ValueError):
    """Ran out of primes while stepping below a bound."""


class CeilingExceeded(PanweirdError, RuntimeError):
    """A request went past a resource ceiling: a prime count above the
    configured ceiling, factorization text above the input bound, a codec
    index past its bound, or a weirdness check with too many divisors to
    list."""


class InvalidSequence(PanweirdError, ValueError):
    """An index sequence that does not decode to a valid factorization."""


class PrefixNotDeficient(PanweirdError, ValueError):
    """Encoding hit an interior prefix that is not deficient."""
