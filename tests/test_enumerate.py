import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

import panweird.enumerate
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
from panweird.arith import seed_state, sigma_prime_power
from panweird.classify import children, reduced_center_floor, same_prime_extension
from panweird.enumerate import _BATCH, _Batch, _row_primes
from panweird.primes import (
    _CACHE_CAP, PI_BOUND, PrimeTable, _floor, _table, next_prime, primes_in_closed,
)

from oracles import (
    exponent_of,
    is_primitive_nondeficient_oracle,
    is_squarefree,
    leaf_row_oracle,
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


def _spy_counts(monkeypatch):
    """The (lo, hi) of every interval enumerate counts with
    count_in_closed_many, in order, as a list."""
    counts = []
    real = panweird.enumerate.count_in_closed_many
    monkeypatch.setattr(panweird.enumerate, "count_in_closed_many",
                        lambda intervals: counts.extend(intervals) or real(intervals))
    return counts


def test_reference_counts_past_the_table_are_pinned(monkeypatch):
    # sha256 of the (lo, hi) of every interval counted past the table by the
    # benchmark's three count-k7 commands, with the full table and with
    # the table cut at 2^20, taken when each leaf made its own
    # count_in_closed calls, before leaf parents were closed in batches:
    # nothing past a stop is counted, and no count moves
    cap = _table()
    counts = _spy_counts(monkeypatch)
    pins = []
    for w in (len(cap.words), 1 << 13):
        table = PrimeTable(128 * w, cap.words[:w], cap.ranks[:w])
        monkeypatch.setattr(panweird.enumerate, "prime_table", lambda: table)
        del counts[:]
        totals = (pndn(7, odd_only=True).count_abundant, sfpan(7, odd_only=True).count_abundant,
                  pndn(7, seed="2^2*13*17").count_abundant)
        assert totals == (102_896_101, 101_053_625, 569_229_409)
        pins.append((len(counts), hashlib.sha256(repr(counts).encode()).hexdigest()))
    assert pins == [
        (34, "7bc64d69fc71ebe52d4f4c018b17c6ba6742c3af8ee1aab59788389ee81dab9f"),
        (2502, "d7af9deb652b0e90eea8bc546f21e0f6ddb4257364e79ae979a845b92ccaebc6"),
    ]


def test_odd_omega8_shard_past_the_table_is_pinned(monkeypatch):
    # 469 leaves of each walk count past the 2^26 table, in a few rows,
    # each row's bounds in one count_in_closed_many batch; the totals were
    # taken when each leaf made its own pi calls
    counts = _spy_counts(monkeypatch)
    assert pndn(8, seed="3*5*7*13*71", odd_only=True).count_abundant == 21_336_142_259
    assert sum(hi > _CACHE_CAP for _, hi in counts) == 469
    assert sfpan(8, seed="3*5*7*13*71", odd_only=True).count_abundant == 21_336_061_886


def test_odd_omega8_shard_counts_past_the_table_in_bounded_memory():
    # its 427 distinct bounds past the table hold 388,349 recurrence
    # entries; run in pieces of _ENTRIES, the walk grows the process by
    # about 5 MB (as when each bound had its own run), all at once by 25 MB
    src = os.path.dirname(os.path.dirname(panweird.enumerate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import resource\n"
            "from panweird.enumerate import pndn\n"
            "from panweird.primes import _table\n"
            "_table()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "n = pndn(8, seed='3*5*7*13*71', odd_only=True).count_abundant\n"
            "print(n, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert int(out[0]) == 21_336_142_259
    assert int(out[1]) * 1024 <= 8 * 2**20


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


def test_children_match_the_walk_children_oracle():
    # classify.children, fed the walk's new primes, yields the oracle's
    # children in order, each node as the walks and searches hold it
    def node_of(f):
        return (f.value, sigma(f), f.factors,
                tuple(sigma_prime_power(q, e) for q, e in f.factors))

    rng = random.Random(27)
    squares = sterile = 0
    for odd_only in (False, True):
        # random descents of the walk's own tree from m = 1, through one of
        # each node's first two children, until 20 nodes whose deepened
        # child is not deficient are among them
        nodes, deep = [F("1")], 0
        while deep < 20:
            node = F("1")
            for _ in range(rng.randrange(1, 8)):
                node = rng.choice(list(islice(walk_children(True, node, odd_only), 2)))[0]
                if next(walk_children(True, node, odd_only))[1]:
                    nodes.append(node)
                    deep += 1
                elif len(nodes) < 300:
                    nodes.append(node)
        for general in (True, False):
            for node in nodes:
                v, s, pairs, sigpps = node_of(node)
                start = max(s // (2 * v - s), pairs[-1][0] if pairs else 0,
                            2 if odd_only else 0)
                got = list(islice(children(general, v, s, pairs, sigpps,
                                           iter_primes_above(start)), 20))
                want = [(f.factors[-1][0] if new_prime else None, node_of(f))
                        for f, new_prime in islice(walk_children(general, node, odd_only), 20)]
                assert got == want, (general, node, odd_only)
                squares += any(e > 1 for _, e in pairs)
                sterile += general and bool(pairs) and got[0][0] is not None
    assert squares > 100 and sterile >= 40


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


def _leaf_parent(f):
    """(s, d, omax, head) of a deficient f as the walk holds it at a leaf
    parent: head is the leaf f with its last prime deepened, when that
    stays deficient (pndn joins it to the parent's first row)."""
    _, v, s, pairs, sigpps = seed_state(f, f.big_omega + 2, True)
    d = 2 * v - s
    head = None
    if pairs:
        p, _ = pairs[-1]
        spp, others = sigpps[-1], sigpps[:-1]
        delta, _ = same_prime_extension(s, d, p, spp, others)
        if delta < 0:
            head = (p, 2 * v * p + delta, -delta, spp * p + 1, max(others, default=1))
    return s, d, max(sigpps, default=1), head


def _batch_of_one(general, ps, s, d, omax, ceiling, table, head=None):
    return _Batch(general, [(ps, s, d, omax, head)], ceiling, table)


def _check_row(general, ps, s, d, omax, ceiling, table, head=None):
    """A batch of the one row against the scalar loop, per leaf and per
    row.  Returns the batch and its scan(0), (n, stop, over, ca, cp, found)."""
    want, stop, over = leaf_row_oracle(general, ps, s, d, omax, ceiling, head)
    batch = _batch_of_one(general, ps, s, d, omax, ceiling, table, head)
    scan = batch.scan(0)
    assert scan == (len(want), stop, over, sum(w[1] for w in want),
                    sum(w[2] for w in want), any(w[3] for w in want))
    n = scan[0]
    got = zip(batch.cols[0][:n].tolist(), *(c[:n].tolist() for c in batch.acc))
    assert list(got) == want
    return batch, scan


def _leaf_parents(k, odd_only=False):
    """The leaf parents of a pndn(k) walk, from its on_stop events."""
    parents = []
    pndn(k, odd_only=odd_only,
         on_stop=lambda pairs, stop, j: j == 2 and parents.append(Factorization(pairs)))
    return parents


def _random_rows(rng, count):
    """count rows as the walks build them, over leaf parents m of pndn(6)
    runs: consecutive primes above center(m) and m's last prime, from a
    random start, with the deepened leaf as head now and then."""
    parents = _leaf_parents(6) + _leaf_parents(6, odd_only=True)
    for _ in range(count):
        f = rng.choice(parents)
        s, d, omax, head = _leaf_parent(f)
        if rng.random() < 0.5:
            head = None
        start = max(s // d, f.factors[-1][0])
        first = rng.randrange(4) * rng.randrange(50)
        n = rng.randrange(0 if head else 1, 80)  # a head may close alone
        yield s, d, omax, head, list(islice(iter_primes_above(start), first, first + n))


def test_row_primes_at_the_edge_of_the_floor(monkeypatch):
    # The floor's array ends at 65,521, the last prime below 2^16; the next
    # prime is 65,537.  A row that ends inside the array is a slice of it,
    # one past it a decode of the table, or stepped when the table does not
    # reach that far: each way, the first _BATCH primes above start, through
    # the first one past bound.
    empty = PrimeTable(0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint32))
    floor = _floor()
    assert floor[-1] == 65_521
    full, short = int(floor[-_BATCH - 1]), int(floor[-_BATCH])  # _BATCH, _BATCH - 1 primes left
    for table in (empty, _table()):
        monkeypatch.setattr(panweird.primes, "_state", table)
        for start in (65_519, 65_520, 65_521, full, short):
            ahead = list(islice(iter_primes_above(start), _BATCH))
            for bound in (0, 65_520, 65_521, 65_522, 65_536, 65_537, 65_538, 10**6):
                cut = next((i + 1 for i, q in enumerate(ahead) if q > bound), _BATCH)
                row = _row_primes(start, bound)
                assert [int(q) for q in row] == ahead[:cut], (start, bound)
        assert len(_row_primes(full, 10**6)) == _BATCH
        assert isinstance(_row_primes(full, 10**6), np.ndarray)
        assert isinstance(_row_primes(short, 10**6), np.ndarray if table.limit else list)


def test_row_primes_past_the_floor_against_sympy():
    # rows inside the table are one decode of it, the row from 40,000 too,
    # which leaves the floor's array; rows that run past its end are stepped
    sympy = pytest.importorskip("sympy")
    _table()
    rng = random.Random(0x20E5)
    starts = [rng.randrange(2**16, 2**25) for _ in range(30)] + [40_000, 2**26 - 3000, 2**26 - 10]
    for start in starts:
        ahead = list(islice(sympy.primerange(start + 1, start + 40 * _BATCH), _BATCH))
        for bound in (start - 1, start + rng.randrange(1, 300), start + 5000, 10**9):
            cut = next((i + 1 for i, q in enumerate(ahead) if q > bound), _BATCH)
            row = _row_primes(start, bound)
            assert [int(p) for p in row] == ahead[:cut], (start, bound)
            assert isinstance(row, np.ndarray) or start > 2**25, (start, bound)
    assert isinstance(_row_primes(2**26 - 10, 10**9), list)


def test_further_rows_double_up_to_a_batch():
    # a parent's further rows take _BATCH primes, as its first row does,
    # each way: a slice of the floor, a decode of the table, steps
    _table()
    for start in (17, 40_000, 2**20 + 7, 2**26 - 3000):
        for bound in (start + 1000, 10**9):
            ahead = list(islice(iter_primes_above(start), _BATCH))
            cut = next((i + 1 for i, q in enumerate(ahead) if q > bound), _BATCH)
            assert [int(q) for q in _row_primes(start, bound)] == ahead[:cut]


def test_row_kernel_matches_the_scalar_loop_in_the_table():
    table = _table()
    rng = random.Random(0x1EAF)
    heads = stops = 0
    for s, d, omax, head, ps in _random_rows(rng, 400):
        for general in (True, False):
            batch, (_, stop, *_) = _check_row(general, ps, s, d, omax, 5 * 10**10, table, head)
            assert batch.cols[0].dtype == np.int64
            heads += head is not None
            stops += stop is not None
    assert heads > 100 and stops > 300


def _primitivity_edge(p, s, d, spp):
    """The least omax >= 3 from which p once more no longer clears the
    reduced centers of the leaf (p, s, d, spp, omax), or None."""
    lo, hi = 3, s + 1
    if reduced_center_floor(s, d, (hi,)) < p * spp:
        return None
    while lo < hi:  # the floor grows with omax
        mid = (lo + hi) // 2
        if reduced_center_floor(s, d, (mid,)) >= p * spp:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_row_kernel_matches_the_scalar_loop_on_synthetic_rows():
    # small integers no walk needs to reach: heads whose same-prime closing
    # is perfect, centers that are primes outside [lo, upper], and prefix
    # sigmas that decide the closing's primitivity
    cap = _table()
    rng = random.Random(0x5147)
    perfect = centered = 0
    for _ in range(3000):
        s, d = rng.randrange(2, 3000), rng.randrange(1, 40)
        omax = rng.choice((1, rng.randrange(3, 200)))
        ps = list(islice(iter_primes_above(s // d + rng.randrange(4)), rng.randrange(30)))
        head = None
        if rng.random() < 0.7 or not ps:
            hp = next_prime(rng.randrange(60))
            hd, hspp = rng.randrange(1, 20), rng.randrange(3, 60)
            if rng.random() < 0.5:
                hs = hspp * hp * hd + rng.randrange(hspp)  # its closing is perfect
                perfect += 1
            else:
                hs = hd * next_prime(rng.randrange(2 * hp))  # its center is a prime
                centered += 1
            edge = _primitivity_edge(hp, hs, hd, hspp)
            choices = (1, rng.randrange(3, 2 * hs)) + ((edge - 1, edge) if edge else ())
            head = (hp, hs, hd, hspp, rng.choice(choices))
        w = rng.randrange(2048)
        table = PrimeTable(128 * w, cap.words[:w], cap.ranks[:w])
        ceiling = rng.choice((5 * 10**10, rng.randrange(1, 3000)))
        for general in (True, False):
            _check_row(general, ps, s, d, omax, ceiling, table, head)
    assert perfect > 500 and centered > 500


def test_row_kernel_straddling_the_table_limit():
    # a table cut short, down to the empty one of a fresh process: leaves
    # past it count one by one once the scan reaches them, in the same
    # order as those inside it
    cap = _table()
    rng = random.Random(0x57AD)
    straddled = 0
    for s, d, omax, head, ps in _random_rows(rng, 300):
        bounds = _batch_of_one(True, ps, s, d, omax, 5 * 10**10, cap, head).cols[4]
        w = rng.randrange(int(bounds.max()) // 128 + 2)
        table = PrimeTable(128 * w, cap.words[:w], cap.ranks[:w])
        for general in (True, False):
            batch, (n, *_) = _check_row(general, ps, s, d, omax, 5 * 10**10, table, head)
            uppers = batch.cols[4][:n]
            straddled += bool((uppers > table.limit).any() and (uppers <= table.limit).any())
    assert straddled > 40


def test_row_kernel_ceilings_raise_where_the_scalar_loop_did():
    # a ceiling at or just under each leaf's bound, those past the stop
    # too; inside a row it raises after the leaves before it have closed
    table = _table()
    rng = random.Random(0xCE11)
    raised = inside = 0
    for s, d, omax, head, ps in _random_rows(rng, 60):
        for general in (True, False):
            full = _batch_of_one(general, ps, s, d, omax, 5 * 10**10, table, head)
            for upper in set(full.cols[4].tolist()):
                for ceiling in (upper - 1, upper):
                    if ceiling >= 1:
                        _, (n, _, over, *_) = _check_row(general, ps, s, d, omax, ceiling,
                                                         table, head)
                        raised += over is not None
                        inside += over is not None and n > 0
    assert raised > 100 and inside > 100


def test_row_kernel_past_int64_runs_on_python_ints():
    # m = 2^a * q with q just past 2^(a+3): sigma(m) and deficiency(m) near
    # 2^(2a+4) and 2^(a+3), so the row's products pass 2^63; leaves near
    # 1.5 center(m) count inside the table or just past it, and those just
    # above the center have bounds above the ceiling
    table = _table()
    counted = past = 0
    for a, lengths in ((20, 24), (24, 3)):
        q = next_prime((1 << (a + 3)) + (1 << (a + 1)))
        s, d, omax, head = _leaf_parent(Factorization([(2, a), (q, 1)]))
        c = s // d
        assert head is not None and omax == q + 1
        for start, n in ((c, 3), (c + c // 2, lengths), (2 * c - 40, lengths)):
            ps = list(islice(iter_primes_above(start), n))
            for general in (True, False):
                for h in (None, head):
                    batch, (closed, _, over, ca, _, _) = _check_row(general, ps, s, d, omax,
                                                                    5 * 10**10, table, h)
                    assert batch.cols[0].dtype == object
                    assert s * (ps[-1] + 1) > 1 << 63
                    if start == c:
                        assert over is not None
                    counted += ca > 0
                    past += bool((batch.cols[4][:closed] > table.limit).any())
    assert counted > 10 and past > 4


def _close_one_by_one(general, node, odd_only, ceiling, table, sink, events):
    """The k = 3 level of a walk from node, which has three factors left,
    with each leaf parent closed alone, row by row, each row a batch of
    one checked against the scalar loop: the per-parent loop that the
    walk's batches replace.  Emits (pairs, delta) to sink and the on_stop
    events to events as the walk does.  Returns
    the totals, each parent's (ca, cp) and how many records were emitted
    before and through it, and the bounds of the closed leaves in order."""
    ca = cp = 0
    found = False
    stop = None
    parents, uppers, emitted = [], [], []
    for child, new_prime in walk_children(general, node, odd_only):
        before = len(emitted)
        s, d, omax, head = _leaf_parent(child)
        head = head if general else None
        pairs = child.factors
        primes = iter_primes_above(max(s // d, pairs[-1][0]))
        bound = 2 * s // d
        totals = [0, 0, False]
        row_stop = None
        while row_stop is None:
            row = []
            for p in primes:
                row.append(p)
                if p > bound or len(row) == 256:
                    break
            batch, (n, row_stop, over, *row_totals) = _check_row(
                general, row, s, d, omax, ceiling, table, head)
            for i, (p, ls, ld, lo, upper, delta, prim) in enumerate(
                    zip(*(c[:n].tolist() for c in batch.cols))):
                prefix, e = (pairs[:-1], pairs[-1][1] + 1) if i == 0 and head else (pairs, 1)
                for q in primes_in_closed(lo, upper):
                    emitted.append((prefix + ((p, e), (q, 1)), ls - q * ld))
                    sink(emitted[-1])
                if prim:
                    emitted.append((prefix + ((p, e + 1),), delta))
                    sink(emitted[-1])
                uppers.append(upper)
            if over is not None:
                raise CeilingExceeded("leaf bound %d above ceiling %d" % (over, ceiling))
            head = None
            totals = [t + u for t, u in zip(totals, row_totals)]
        events.append((pairs, row_stop, 2))
        parents.append((*totals[:2], before, len(emitted)))
        ca, cp, found = ca + totals[0], cp + totals[1], found or totals[2]
        if new_prime and (not totals[2] if general else totals[0] == 0):
            stop = pairs[-1][0]
            break
    events.append((node.factors, stop, 3))
    return (ca, cp, found), parents, uppers


def test_sibling_batches_match_closing_each_leaf_parent_alone(monkeypatch):
    # The walk closes the leaf parents under a k = 3 node in batches, and a
    # parent past the scan's stop does nothing.  Against closing each one
    # alone, with tables cut short so that counts past the table fall
    # inside batches, under a ceiling at the largest bound the scan reaches
    # (neither raises) and just under a random one (both raise after the
    # same records): same totals, per parent too, records, on_stop events
    # and prime counts, in order.
    cap = _table()
    counts = _spy_counts(monkeypatch)
    rng = random.Random(0x5B1B)
    groups = raised = pending = 0
    for general in (True, False):
        run = pndn if general else sfpan
        for odd_only in (False, True):
            nodes = []
            run(6, odd_only=odd_only,
                on_stop=lambda pairs, stop, j: j == 3 and nodes.append(Factorization(pairs)))
            for node in rng.sample(nodes, min(12, len(nodes))):
                k = (node.big_omega if general else node.omega) + 3
                _, _, uppers = _close_one_by_one(general, node, odd_only, 5 * 10**10,
                                                 cap, lambda record: None, [])
                w = rng.choice(uppers) // 128  # a cut among the bounds the scan reaches
                table = PrimeTable(128 * w, cap.words[:w], cap.ranks[:w])
                monkeypatch.setattr(panweird.enumerate, "prime_table", lambda: table)
                for ceiling in sorted({max(uppers), max(1, rng.choice(uppers) - 1)}):
                    runs = []
                    for alone in (False, True):
                        records, events = [], []
                        del counts[:]
                        try:
                            if alone:
                                totals, parents, _ = _close_one_by_one(
                                    general, node, odd_only, ceiling, table, records.append, events)
                            else:
                                out = run(k, node, ceiling=ceiling,
                                          sink=lambda r: records.append((r.factorization.factors, r.abundance)),
                                          on_stop=lambda *event: events.append(event))
                                totals = (out.count_abundant, out.count_perfect, out.found)
                        except CeilingExceeded as exc:
                            totals = str(exc)
                        runs.append((totals, records, events, list(counts)))
                    assert runs[0] == runs[1]
                    groups += 1
                    pending += bool(counts)
                    if isinstance(totals, str):
                        raised += 1
                        continue
                    for pca, pcp, a, b in parents:  # the walk's records of each parent
                        deltas = [delta for _, delta in runs[0][1][a:b]]
                        assert (len(deltas) - deltas.count(0), deltas.count(0)) == (pca, pcp)
    assert groups > 80 and raised > 25 and pending > 25


def test_batched_rows_scan_as_each_row_closes_alone(monkeypatch):
    # Building a batch counts nothing; scanning its row i answers as a
    # batch of that row alone, which the scalar loop checks, and counts only
    # that row's leaves past the table, in order, whatever the ceiling does
    # to the other rows.
    cap = _table()
    counts = _spy_counts(monkeypatch)
    rng = random.Random(0xBA7C)
    rows = list(_random_rows(rng, 300))
    raised = pending = 0
    for _ in range(80):
        group = rng.sample(rows, rng.randrange(1, 9))
        bounds = [u for s, d, omax, head, ps in group
                  for u in _batch_of_one(True, ps, s, d, omax, 5 * 10**10, cap, head).cols[4].tolist()]
        w = rng.randrange(max(bounds) // 128 + 2)
        table = PrimeTable(128 * w, cap.words[:w], cap.ranks[:w])
        ceiling = rng.choice((5 * 10**10, max(1, rng.choice(bounds) - 1)))
        for general in (True, False):
            del counts[:]
            batch = _Batch(general, [(ps, s, d, omax, head) for s, d, omax, head, ps in group],
                           ceiling, table)
            assert counts == []
            for i, (s, d, omax, head, ps) in enumerate(group):
                got = batch.scan(i), list(counts)
                del counts[:]
                _, alone = _check_row(general, ps, s, d, omax, ceiling, table, head)
                assert got == (alone, counts)
                raised += alone[2] is not None
                pending += bool(counts)
                del counts[:]
    assert raised > 40 and pending > 40
