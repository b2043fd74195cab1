import hashlib
import math

import pytest

from panweird import (
    CeilingExceeded,
    EnumOutcome,
    EnumRecord,
    Factorization,
    NumberClass,
    abundance,
    center,
    deficiency,
    iter_primes_above,
    pndn,
    sfpan,
    sigma,
)
from panweird.primes import PI_BOUND

from oracles import (
    exponent_of,
    is_primitive_nondeficient_oracle,
    is_squarefree,
    naive_sigma,
    primitive_census,
)

F = Factorization.parse


def collect(fn, k, **kw):
    records = []
    outcome = fn(k, sink=records.append, **kw)
    return records, outcome


def test_two_factor_case_is_the_first_perfect_number():
    records, outcome = collect(pndn, 2)
    assert outcome == EnumOutcome(0, 1, True)
    assert [r.factorization for r in records] == [F("2*3")]
    assert records[0].number_class is NumberClass.PERFECT
    assert records[0].abundance == 0


def test_three_factor_records_exactly():
    records, outcome = collect(pndn, 3)
    got = {(str(r.factorization), r.number_class, r.abundance) for r in records}
    assert got == {
        ("2^2*5", NumberClass.ABUNDANT, 2),
        ("2^2*7", NumberClass.PERFECT, 0),
        ("2*5*7", NumberClass.ABUNDANT, 4),
    }
    assert outcome.count_abundant == 2
    assert outcome.count_perfect == 1


def test_single_factor_runs_are_empty():
    assert pndn(1) == EnumOutcome(0, 0, False)
    assert sfpan(1) == EnumOutcome(0, 0, False)


def test_enumeration_matches_census():
    # sieve census below 10^5, bucketed by factor count; the k <= 4 runs
    # stay below the limit entirely, the k = 5, 6 runs overshoot it and
    # are compared on the intersection
    limit = 10**5
    census = primitive_census(limit)
    buckets = {}
    for n, fac in census.items():
        buckets.setdefault(sum(e for _, e in fac), set()).add(n)
    for k in range(1, 7):
        emitted = {}
        for r in collect(pndn, k)[0]:
            emitted[r.factorization.value] = r
        if k <= 4:
            assert max(emitted, default=0) < limit
            assert set(emitted) == buckets.get(k, set())
        else:
            assert {n for n in emitted if n < limit} == buckets.get(k, set())
        for n, r in emitted.items():
            if n < limit:
                assert list(r.factorization.factors) == census[n]
    sf_buckets = {}
    for n, fac in census.items():
        if all(e == 1 for _, e in fac) and naive_sigma(n) > 2 * n:
            sf_buckets.setdefault(len(fac), set()).add(n)
    for k in range(1, 6):
        got = {r.factorization.value for r in collect(sfpan, k)[0]}
        if k <= 4:
            assert got == sf_buckets.get(k, set())
        else:
            assert {n for n in got if n < limit} == sf_buckets.get(k, set())


def _check_twins(extra, seed=None, **kw):
    # the per-class record tallies check the leaf's prime counts
    f = F(seed or "1")
    k = f.big_omega + extra
    records, outcome = collect(pndn, k, seed=seed, **kw)
    counted = pndn(k, seed=seed, **kw)
    assert counted == outcome
    # the sink receives every completion the walk counts, perfect ones too
    assert len(records) == counted.count_abundant + counted.count_perfect
    assert counted.count_abundant == sum(
        1 for r in records if r.number_class is NumberClass.ABUNDANT
    )
    assert counted.count_perfect == sum(
        1 for r in records if r.number_class is NumberClass.PERFECT
    )
    k = f.omega + extra
    srecords, soutcome = collect(sfpan, k, seed=seed, **kw)
    scounted = sfpan(k, seed=seed, **kw)
    assert scounted == soutcome
    assert scounted.count_abundant == len(srecords)
    assert scounted.count_perfect == 0


def test_counting_twin_matches_enumeration():
    for k in range(1, 7):
        for odd in (False, True):
            _check_twins(k, odd_only=odd)
    # seeded walks on which the leaf's primitivity lower bound cuts the
    # interval: pndn for every seed, sfpan for 3^3; 2^2 and 2 divide the
    # perfect 2^4*31, a completion of both at k = 5
    for seed, extra in (("2^3", 3), ("3^2", 4), ("2^2*13", 3), ("3^3", 4),
                        ("2^2", 3), ("2", 4)):
        _check_twins(extra, seed)


def test_record_invariants():
    records, outcome = collect(pndn, 5)
    assert len(records) == outcome.count_abundant + outcome.count_perfect
    for r in records:
        f = r.factorization
        assert f.big_omega == 5
        assert r.abundance == abundance(f)
        assert r.number_class is NumberClass.from_abundance(r.abundance)
        assert is_primitive_nondeficient_oracle(f)
    for r in collect(sfpan, 5)[0]:
        f = r.factorization
        assert is_squarefree(f) and f.omega == 5
        assert r.abundance == abundance(f) > 0
        assert is_primitive_nondeficient_oracle(f)


def test_seeded_runs():
    records, outcome = collect(pndn, 5, seed="2^2")
    assert outcome.count_abundant + outcome.count_perfect == len(records) == 234
    assert [r.factorization for r in records
            if r.number_class is NumberClass.PERFECT] == [F("2^4*31")]
    assert len(collect(pndn, 5, seed="2")[0]) == 786
    for r in records:
        assert exponent_of(r.factorization, 2) >= 2
        assert r.factorization.big_omega == 5
        assert is_primitive_nondeficient_oracle(r.factorization)
    # a square-free walk over an odd seed
    srecords, _ = collect(sfpan, 4, seed="3^2")
    for r in srecords:
        f = r.factorization
        assert exponent_of(f, 3) == 2 and f.omega == 4
        assert all(e == 1 for p, e in f.factors if p != 3)
        assert is_primitive_nondeficient_oracle(f)


def test_odd_only_filters_even_numbers():
    records, outcome = collect(pndn, 5, odd_only=True)
    assert outcome.count_abundant == len(records) == 121
    assert all(r.factorization.factors[0][0] > 2 for r in records)
    assert sfpan(5, odd_only=True).count_abundant == 87


def test_odd_only_changes_nothing_on_odd_seeds():
    # an odd seed's walk only ever meets odd primes, so odd_only leaves both
    # its totals and the places its scans stop as they are
    for run in (pndn, sfpan):
        for k, seed in ((6, "3"), (6, "3^2"), (7, "3*5*7")):
            plain, odd = [], []
            outcome = run(k, seed, on_stop=lambda *event: plain.append(event))
            assert run(k, seed, odd_only=True,
                       on_stop=lambda *event: odd.append(event)) == outcome
            assert plain and odd == plain


def test_runs_are_deterministic():
    assert collect(pndn, 4)[0] == collect(pndn, 4)[0]
    assert collect(sfpan, 5)[0] == collect(sfpan, 5)[0]


def test_seed_and_k_validation():
    # the checks every entry point shares are tabled in test_weird; pndn
    # counts the seed's factors with multiplicity, sfpan its distinct primes
    with pytest.raises(ValueError):
        pndn(2, seed="2^2")
    with pytest.raises(ValueError):
        sfpan(1, seed="3^2")
    with pytest.raises(ValueError):
        pndn(4, seed="2^2", odd_only=True)


def test_ceiling_guards_leaf_scans():
    with pytest.raises(CeilingExceeded):
        pndn(4, ceiling=10)
    with pytest.raises(CeilingExceeded):
        sfpan(4, ceiling=10)
    # a ceiling prime_pi cannot honour is refused before the walk
    for ceiling in (0, -1, PI_BOUND + 1, 1e10, None):
        with pytest.raises(ValueError):
            pndn(4, ceiling=ceiling)


def test_reference_shard_reaches_past_the_table():
    # the benchmark's count-k7 shard: some of its leaf bounds lie past the
    # 2^26 prime table, so those leaves count through Lucy's pi(x)
    assert pndn(7, seed="2^2*13*17") == EnumOutcome(569_229_409, 0, True)


def test_leaves_past_the_table_cap_hit_the_ceiling():
    # the new primes of 2^25 lie past the table cap, stepped one by one, and
    # the first of their leaves has a bound above the default ceiling
    with pytest.raises(CeilingExceeded, match="leaf bound 281475039625215 "):
        pndn(27, seed="2^25")
    with pytest.raises(CeilingExceeded, match="leaf bound 281475039625214 "):
        sfpan(3, seed="2^25")


def test_stop_events_and_ceilings_are_pinned():
    # sha256 of the on_stop events of k = 3..5, plain and odd, and the
    # smallest ceiling a k = 5 run passes: a scan stops, and may raise,
    # only at the leaves it reaches one by one
    def digest(run):
        events = []
        for k in (3, 4, 5):
            for odd in (False, True):
                run(k, odd_only=odd,
                    on_stop=lambda prefix, p, j: events.append((k, odd, prefix, p, j)))
        return hashlib.sha256(repr(events).encode()).hexdigest()

    assert digest(pndn) == "064c6fea86b63d6b3bb7b847faeceed425bf5d489e1a787342d1e98cb28032e8"
    assert digest(sfpan) == "22da1e9a393f533910b72e0ab36b61d843525a8f2cece8db706b3e4945e6ea20"
    for count, ceiling in ((pndn, 648), (sfpan, 647)):
        assert count(5, ceiling=ceiling).count_abundant > 0
        with pytest.raises(CeilingExceeded):
            count(5, ceiling=ceiling - 1)


def walk_children(general, node, odd_only):
    """Yield (child, is_new_prime) for the walk's children of node, in walk
    order: the deepened last prime while still deficient (pndn), then every
    new prime above max(center, last prime); the caller stops the primes."""
    last = node.factors[-1] if node.factors else (1, 0)
    if general and node.factors:
        deeper = Factorization(node.factors[:-1] + ((last[0], last[1] + 1),))
        if deficiency(deeper) > 0:
            yield deeper, False
    start = max(math.floor(center(node)), last[0], 2 if odd_only else 0)
    for p in iter_primes_above(start):
        yield Factorization(node.factors + ((p, 1),)), True


def test_shard_children_partition_the_count():
    # seeded counts of a node's children, through the first barren new
    # prime, add up to the node's own count: shard totals can be summed
    for general in (True, False):
        count = pndn if general else sfpan
        for seed, odd_only in ((1, False), (1, True), ("2", False), ("3", False)):
            node = Factorization.coerce(seed)
            whole = count(6, node, odd_only=odd_only)
            ca = cp = 0
            shards = 0
            for child, new_prime in walk_children(general, node, odd_only):
                part = count(6, child)
                ca += part.count_abundant
                cp += part.count_perfect
                shards += 1
                barren = not part.found if general else part.count_abundant == 0
                if new_prime and barren:
                    break
            assert shards > 1
            assert (ca, cp) == (whole.count_abundant, whole.count_perfect)
