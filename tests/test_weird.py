import random
from functools import partial

import pytest

import panweird.weird as weird
from panweird import (
    CeilingExceeded,
    Factorization,
    IndexSequence,
    InvalidSequence,
    NotAbundant,
    NotDeficient,
    ParseError,
    PrefixNotDeficient,
    PwnRecord,
    abundance,
    decode_index_sequence,
    digits10,
    divisors_up_to,
    encode_index_sequence,
    is_weird,
    pndn,
    pwn_search_general,
    pwn_search_squarefree,
    sfpan,
    subset_sums_to,
)
from panweird.arith import MAX_FACTORS

from known_values import (
    CODEC_WORKED_EXAMPLE,
    GENERAL_PWN_OMEGA7,
    GENERAL_PWN_SPOT,
    PWN_DEEP_ROWS,
    PWN_OMEGA7_SEQUENCES,
    SQUAREFREE_PWN_BLOCKS,
    WEIRD_BELOW_10K,
)
from oracles import (
    is_primitive_nondeficient_oracle,
    naive_divisors,
    naive_subset_sum,
)

F = Factorization.parse


def run_squarefree(seed, k, amplitude):
    records = []
    count = pwn_search_squarefree(k, F(seed), records.append, amplitude=amplitude)
    assert count == len(records)
    return records


def run_general(seed, k, amplitude):
    records = []
    count = pwn_search_general(k, F(seed), records.append, amplitude=amplitude)
    assert count == len(records)
    return records


def as_rows(records):
    return {(str(r.factorization), r.abundance, str(r.index_sequence))
            for r in records}


# -- semiperfection ---------------------------------------------------------

def test_divisors_up_to_examples():
    assert divisors_up_to(F("2*5*7"), 4) == [1, 2]
    assert divisors_up_to(F("2*5*7"), 0) == []
    assert sorted(divisors_up_to(F("2^2*3"), 12)) == [1, 2, 3, 4, 6, 12]


def test_divisors_up_to_matches_naive():
    rng = random.Random(0xD1F0)
    for _ in range(200):
        n = rng.randrange(2, 10**4)
        bound = rng.randrange(1, 2 * n)
        want = [d for d in naive_divisors(n) if d <= bound]
        got = divisors_up_to(Factorization.from_int(n), bound)
        assert sorted(got) == want


def test_subset_sums_small_against_naive():
    rng = random.Random(0x5B5E)
    for _ in range(200):
        vals = sorted(rng.sample(range(1, 60), rng.randrange(1, 10)))
        target = rng.randrange(0, 120)
        attainable = {0}
        for v in vals:
            attainable |= {a + v for a in attainable}
        assert subset_sums_to(vals, target) == (target in attainable)


def test_subset_sums_large_targets_use_branch_and_bound():
    # targets beyond the bitset limit, answers checked by set sweep
    rng = random.Random(0xB1B0)
    for _ in range(60):
        vals = sorted(rng.sample(range(10**6, 10**9), 12))
        attainable = {0}
        for v in vals:
            attainable |= {a + v for a in attainable}
        hit = rng.choice(sorted(attainable))
        assert subset_sums_to(vals, hit)
        miss = rng.randrange(2 * 10**7, 10**10)
        assert subset_sums_to(vals, miss) == (miss in attainable)
    assert subset_sums_to([], 0)
    assert not subset_sums_to([], 5)
    assert subset_sums_to([1 << 25, 1], (1 << 25) + 1)
    assert not subset_sums_to([1 << 25, 2], (1 << 25) + 1)


def _all_subset_sums(vals):
    sums = {0}
    for v in vals:
        sums |= {a + v for a in sums}
    return sums


def _budget_spent(vals, target):
    desc = sorted((v for v in vals if v <= target), reverse=True)
    return weird._descend(desc, target, weird._NODE_BUDGET) is None


def test_subset_sums_forced_fallback_matches_on_search_calls(monkeypatch):
    # every leaf the two smoke searches test, replayed with the bitset
    # deciding each target after 0 or 1 popped nodes
    calls = []
    weird_pairs = weird._weird_pairs

    def record(pairs, delta, desc, total):
        answer = not weird_pairs(pairs, delta, desc, total)
        calls.append((list(desc), delta, answer))
        return not answer

    monkeypatch.setattr(weird, "_weird_pairs", record)
    run_squarefree("2^3", 5, 6)
    run_general("2", 5, 4)
    monkeypatch.undo()
    answers = [answer for _, _, answer in calls]
    assert len(calls) > 1000 and True in answers and False in answers
    # at budget 0 the branch and bound visits no node, so every target
    # above 0 goes to the bitset
    for values, target, _ in calls:
        assert target <= weird._BITSET_LIMIT  # so _NODE_BUDGET applies
        if target > 0:
            desc = sorted((v for v in values if v <= target), reverse=True)
            assert weird._descend(desc, target, 0) is None
    for budget in (0, 1):
        monkeypatch.setattr(weird, "_NODE_BUDGET", budget)
        assert [subset_sums_to(v, t) for v, t, _ in calls] == answers


def test_search_leaf_rows_match_divisors_up_to(monkeypatch):
    # every leaf of the two smoke searches takes its values from the
    # divisors carried down the walk; they must be its divisors up to
    # delta, in decreasing order, with their sum
    leaves = []
    weird_pairs = weird._weird_pairs

    def record(pairs, delta, desc, total):
        leaves.append((pairs, delta, list(desc), total))
        return weird_pairs(pairs, delta, desc, total)

    monkeypatch.setattr(weird, "_weird_pairs", record)
    found = run_squarefree("2^3", 5, 6) + run_general("2", 5, 4)
    assert found and len(leaves) > 1000
    for pairs, delta, values, total in leaves:
        want = divisors_up_to(Factorization._trusted(pairs), delta)
        assert len(values) == len(set(values)) and set(values) == set(want)
        assert values == sorted(want, reverse=True) and total == sum(want)
        assert delta == abundance(Factorization._trusted(pairs))


def test_squares_search_carries_each_leaf_parents_divisors(monkeypatch):
    # the --squares reference search deepens interior nodes; each leaf
    # parent sorts the divisors carried down to it and cuts them at its
    # row's largest delta, and its row leaves draw on that list: it is the
    # leaf values that the leaf's new prime does not divide
    deepened, leaves = [], []
    deepen, weird_pairs = weird._deepened, weird._weird_pairs

    def record_deepened(divs, pair):
        out = deepen(divs, pair)
        deepened.append((list(divs), pair, out))
        return out

    def record_leaf(pairs, delta, desc, total):
        leaves.append((pairs, delta, list(desc)))
        return weird_pairs(pairs, delta, desc, total)

    monkeypatch.setattr(weird, "_deepened", record_deepened)
    monkeypatch.setattr(weird, "_weird_pairs", record_leaf)
    assert len(run_general("2", 7, 4)) == 16
    for divs, (q, e), out in deepened:
        # the distinct divisors of max(divs) * q, as many as tau gives
        m = max(divs)
        assert len(set(out)) == len(out) and all(m * q % x == 0 for x in out)
        assert len(out) * (e + 1) == len(divs) * (e + 2)
    rows = {}
    for pairs, delta, desc in leaves:
        p, e = pairs[-1]
        if e == 1:  # a row leaf, not one closed by deepening
            top, held = rows.setdefault(pairs[:-1], [0, set()])
            rows[pairs[:-1]][0] = max(top, delta)
            held.update(x for x in desc if x % p)
    assert len(rows) > 100 and len(rows) < len(leaves)
    assert any(e > 1 for parent in rows for _, e in parent[1:])  # deepened above a row
    for parent, (top, held) in rows.items():
        want = sorted(divisors_up_to(Factorization._trusted(parent), top))
        assert sorted(held) == want, parent


def test_squarefree_search_leaves_use_the_exact_primitivity_floor(monkeypatch):
    # the square-free search tests exactly the leaves sfpan counts: 2^3*11
    # and 2^3*13 lie below max sigma(q^alpha) - 1 = 14, yet each is
    # primitive abundant, since 11 and 13 clear center(2^2) = 7
    leaves = []
    weird_pairs = weird._weird_pairs

    def record(pairs, delta, desc, total):
        leaves.append(str(Factorization._trusted(pairs)))
        return weird_pairs(pairs, delta, desc, total)

    monkeypatch.setattr(weird, "_weird_pairs", record)
    assert run_squarefree("2^3", 2, 2) == []
    records = []
    sfpan(2, F("2^3"), records.append)
    want = sorted(str(r.factorization) for r in records)
    assert sorted(leaves) == want == ["2^3*11", "2^3*13"]


def test_subset_sums_budget_spent_without_a_sum_is_false():
    # only even values and an odd target: no witness exists, and the
    # search cannot prove that within the budget
    evens = list(range(2, 82, 2))
    assert sum(evens) >= 801 and 801 <= weird._BITSET_LIMIT
    assert _budget_spent(evens, 801)
    assert not subset_sums_to(evens, 801)


def test_subset_sums_budget_spent_with_a_sum_is_true():
    # the odd value is the largest, so the search takes it first and then
    # looks for an odd rest among even values; the sum exists without it
    vals = list(range(2, 82, 2)) + [101]
    assert _budget_spent(vals, 800)
    assert subset_sums_to(vals, 800)


def test_subset_sums_random_lists_against_set_sweep(monkeypatch):
    rng = random.Random(0x5E7)
    cases = []
    for _ in range(50):
        vals = rng.sample(range(1, 1000), rng.randrange(20, 31))
        sums = _all_subset_sums(vals)
        total = sum(vals)
        cases.append((vals, rng.choice(sorted(sums)), True))
        cases += [(vals, t, t in sums)
                  for t in (rng.randrange(0, total + 50), total, total + 1)]
    # values above the target, skipped by the branch and bound and the sweep
    cases += [([1 << 20, 3, 5], 8, True), ([1 << 20, 3, 6], 8, False), ([9, 10, 4], 8, False)]
    assert False in [want for _, _, want in cases]
    for budget in (weird._NODE_BUDGET, 0):
        monkeypatch.setattr(weird, "_NODE_BUDGET", budget)
        for vals, target, want in cases:
            assert subset_sums_to(vals, target) == want


def test_presorted_subset_sums_against_all_subset_sums(monkeypatch):
    # the routine the search leaves call, with values in decreasing order
    # and their sum given; some values exceed their target
    rng = random.Random(0xDE5C)
    cases = []
    for _ in range(60):
        desc = sorted(rng.sample(range(1, 600), rng.randrange(1, 26)), reverse=True)
        sums = _all_subset_sums(desc)
        total = sum(desc)
        for target in (rng.choice(sorted(sums)), rng.randrange(0, total + 2), total,
                       total + 1, 0, desc[0] - 1):
            cases.append((desc, total, target, target in sums))
    wants = [want for *_, want in cases]
    assert True in wants and False in wants
    for budget in (weird._NODE_BUDGET, 0):
        monkeypatch.setattr(weird, "_NODE_BUDGET", budget)
        for desc, total, target, want in cases:
            assert weird._subset_sums_desc(desc, total, target) == want, (desc, target)


def _descended(monkeypatch, vals, target):
    """subset_sums_to(vals, target), and whether the greedy pass left the
    call to the branch and bound."""
    calls = []
    descend = weird._descend

    def record(desc, target, budget):
        calls.append(desc)
        return descend(desc, target, budget)

    monkeypatch.setattr(weird, "_descend", record)
    answer = subset_sums_to(vals, target)
    monkeypatch.undo()
    return answer, bool(calls)


@pytest.mark.parametrize("vals, target, want", [
    ([6, 5, 4], 9, True),  # 6 leaves 3, which nothing fits; 5 + 4
    ([4, 10, 6, 7], 13, True),  # 10 leaves 3; 7 + 6
    ([20, 12, 11, 9], 21, True),  # 20 leaves 1; 12 + 9
    ([6, 5, 4], 8, False),
    ([9, 8, 5, 3, 30], 18, False),  # 9 + 8 leaves 1; no subset reaches 18
])
def test_subset_sums_when_the_greedy_pass_misses(monkeypatch, vals, target, want):
    assert naive_subset_sum(vals, target) == want
    assert _descended(monkeypatch, vals, target) == (want, True)


def test_subset_sums_random_greedy_misses_against_naive(monkeypatch):
    rng = random.Random(0x6EED)
    answers = []
    for _ in range(400):
        vals = rng.sample(range(1, 40), rng.randrange(2, 9))
        target = rng.randrange(1, sum(vals) + 1)
        answer, descended = _descended(monkeypatch, vals, target)
        assert answer == naive_subset_sum(vals, target)
        if descended:
            answers.append(answer)
    assert True in answers and False in answers


@pytest.mark.parametrize("vals, target", [
    ([10, 7, 3], 13),  # 10, skip 7, then 3 lands on 0
    ([1, 2, 4, 8], 15),
    ([50, 3, 10, 7], 13),  # 50 lies above the target
    ([5], 5),
])
def test_subset_sums_greedy_pass_lands_on_its_last_value(monkeypatch, vals, target):
    assert naive_subset_sum(vals, target)
    assert _descended(monkeypatch, vals, target) == (True, False)


def test_subset_sums_longer_than_the_budget_still_reach_the_bitset(monkeypatch):
    # 2,001 even values, and an odd one that the greedy pass and the branch
    # and bound take first: an even target is missed by the greedy pass,
    # and the budget runs out in the odd subtree, so the bitset decides;
    # an odd target without the odd value has no witness at all
    evens = list(range(2, 2 * weird._NODE_BUDGET + 3, 2))
    assert len(evens) > weird._NODE_BUDGET
    for vals, target, want in ((evens + [len(evens) * 2 + 1], 8000, True),
                               (evens, 8001, False)):
        assert target <= weird._BITSET_LIMIT and _budget_spent(vals, target)
        assert naive_subset_sum(vals, target) == want
        assert _descended(monkeypatch, vals, target) == (want, True)


def test_is_weird_known_cases():
    for n in WEIRD_BELOW_10K:
        assert is_weird(Factorization.from_int(n))
    for n in (12, 18, 20, 24, 30, 96, 120, 836 * 2):
        assert not is_weird(Factorization.from_int(n))
    with pytest.raises(NotAbundant):
        is_weird(F("2^3"))
    with pytest.raises(NotAbundant):
        is_weird(F("2*3"))


# -- the index-sequence codec ----------------------------------------------

def test_sequence_parse_and_format():
    seq = IndexSequence.parse("[ 1 , 2^3 , -4 ]")
    assert seq.entries == ((1, 1), (2, 3), (-4, 1))
    assert str(seq) == "[1, 2^3, -4]"
    assert IndexSequence.parse(str(seq)) == seq


def test_sequence_parse_rejects_malformed():
    for text in ("1, 2", "[]", "[1,, 2]", "[1 2]", "[a]", "[1.5]", "[^2]",
                 "[\uff11^3, 2, -4]"):  # a full-width digit one
        with pytest.raises(ParseError):
            IndexSequence.parse(text)
    with pytest.raises(InvalidSequence):
        IndexSequence.parse("[1^0]")
    with pytest.raises(InvalidSequence):
        IndexSequence(())


def test_codec_worked_example():
    fact, seq = CODEC_WORKED_EXAMPLE
    assert str(encode_index_sequence(F(fact))) == seq
    assert decode_index_sequence(seq) == F(fact)


def test_codec_center_hit_uses_index_zero():
    assert str(encode_index_sequence(F("2*3"))) == "[1, 0]"
    assert decode_index_sequence("[1, 0]") == F("2*3")
    with pytest.raises(InvalidSequence):
        decode_index_sequence("[1^3, 0]")  # the center of 2^3 is 15
    with pytest.raises(InvalidSequence):
        decode_index_sequence("[0]")  # no prime sits at 1


def test_codec_round_trips_catalog_rows():
    rows = list(PWN_DEEP_ROWS)
    for block in SQUAREFREE_PWN_BLOCKS.values():
        for krows in block.values():
            rows.extend(krows)
    rows.extend((fact, delta, seq) for fact, delta, seq, _, _ in GENERAL_PWN_OMEGA7)
    for fact, delta, seq in rows:
        f = F(fact)
        assert abundance(f) == delta
        assert str(encode_index_sequence(f)) == seq
        assert decode_index_sequence(seq) == f


def test_codec_round_trips_deep_sequences():
    for seq in PWN_OMEGA7_SEQUENCES:
        f = decode_index_sequence(seq)
        assert str(encode_index_sequence(f)) == seq
        assert abundance(f) > 0


def test_encode_requires_deficient_prefixes():
    with pytest.raises(PrefixNotDeficient):
        encode_index_sequence(F("2^2*5*7*11"))
    # abundant at the last step only is fine
    assert str(encode_index_sequence(F("2*5*7"))) == "[1, 1, -1]"
    with pytest.raises(InvalidSequence):
        encode_index_sequence(F("1"))
    # a factor that is not prime, above, below and at the center; _trusted
    # skips the constructor's primality test
    for pairs in (((2, 1), (9, 1)), ((2, 3), (9, 1)), ((2, 3), (15, 1))):
        with pytest.raises(InvalidSequence, match="not prime"):
            encode_index_sequence(Factorization._trusted(pairs))


def test_decode_rejects_impossible_sequences():
    with pytest.raises(InvalidSequence):
        decode_index_sequence("[1^2, -1, -1]")  # prefix goes abundant
    with pytest.raises(InvalidSequence):
        decode_index_sequence("[-1]")  # nothing below the first center
    with pytest.raises(InvalidSequence):
        decode_index_sequence("[1, -2]")  # would reuse the prime 2


def test_codec_steps_at_most_max_index_primes(monkeypatch):
    # 8161, the 1024th prime, is the last one reached up from center(1) = 1;
    # 7 the last one reached down from center(2^12) = 8191
    assert weird.MAX_INDEX == 1024
    for text, seq in (("8161", "[1024]"), ("2^12*7", "[1^12, -1024]")):
        assert str(encode_index_sequence(F(text))) == seq
        assert decode_index_sequence(seq) == F(text)
    for text in ("8167", "2^12*5"):
        with pytest.raises(CeilingExceeded, match="past 1024 primes"):
            encode_index_sequence(F(text))
    # no step is taken toward a prime farther from its center than 1024
    # primes reach (3 lies about 2^31 below center(2^30) = 2^31 - 1), nor
    # for any entry of a sequence with an index past the bound
    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(weird, "kth_prime_below", no_step)
    with pytest.raises(CeilingExceeded, match="past 1024 primes"):
        encode_index_sequence(F("2^30*3"))
    monkeypatch.setattr(weird, "kth_prime_above", no_step)
    for seq in ("[1025]", "[1, -1025]", "[1^40, -100000]"):
        with pytest.raises(CeilingExceeded, match="past 1024 primes"):
            decode_index_sequence(seq)


def test_decode_refuses_numbers_past_the_input_bound():
    # the same measure as factorization text: 2^32768 is at the bound, and
    # the prime power that passes it is never built
    assert decode_index_sequence("[1^32768]") == F("2^32768")
    with pytest.raises(CeilingExceeded, match="input bound"):
        decode_index_sequence("[1^32769]")
    with pytest.raises(CeilingExceeded, match="input bound"):
        decode_index_sequence("[1^100000000, 1]")


# -- searches ---------------------------------------------------------------

def test_entry_points_validate_seed_and_k_alike():
    # every walk and search starts from arith.seed_state, so each bad input
    # raises the same type from all four; deficiency is checked before the
    # seed's factor count (2*5*7 is abundant and has 3 factors)
    entry_points = (
        pndn,
        sfpan,
        partial(pwn_search_general, amplitude=2),
        partial(pwn_search_squarefree, amplitude=2),
    )
    for k, seed, error in (
        (0, None, ValueError),
        ("3", None, ValueError),
        (MAX_FACTORS + 1, None, ValueError),
        (4, "2*3", NotDeficient),
        (3, "2*5*7", NotDeficient),
        (2, "3*5", ValueError),  # no factor left to add
        (3, "2*9", ParseError),  # a composite base
    ):
        for run in entry_points:
            with pytest.raises(error) as info:
                run(k, seed)
            assert info.type is error, (run, k, seed)
    for search in (pwn_search_general, pwn_search_squarefree):
        for amplitude in (0, weird.MAX_INDEX + 1):
            with pytest.raises(ValueError, match="amplitude"):
                search(3, amplitude=amplitude)
        assert search(1, amplitude=weird.MAX_INDEX) == 0  # the bound is accepted
        # a seed is taken as text, an int or a Factorization alike
        runs = []
        for seed in ("2^2", 4, F("2^2")):
            records = []
            search(4, seed, records.append, amplitude=3)
            runs.append(records)
        assert runs[0] == runs[1] == runs[2]
    assert runs[0]


def test_squarefree_blocks_match_catalog():
    for (seed, amplitude), block in SQUAREFREE_PWN_BLOCKS.items():
        for k, rows in block.items():
            records = run_squarefree(seed, k, amplitude)
            assert as_rows(records) == set(rows)


def test_search_records_are_weird_and_primitive():
    records = run_squarefree("2^3", 4, 6) + run_general("2^6", 9, 2)
    assert records
    for r in records:
        f = r.factorization
        assert decode_index_sequence(str(r.index_sequence)) == f
        assert r.abundance == abundance(f) > 0
        assert r.digits == digits10(f.value)
        assert is_weird(f)
        assert is_primitive_nondeficient_oracle(f)
        assert r.certified is False


def test_widening_the_amplitude_only_adds_emissions():
    small = {str(r.factorization) for r in run_squarefree("2^3", 4, 3)}
    mid = {str(r.factorization) for r in run_squarefree("2^3", 4, 6)}
    wide = {str(r.factorization) for r in run_squarefree("2^3", 4, 8)}
    assert small <= mid <= wide


def test_general_search_extends_the_squarefree_one():
    sf = as_rows(run_squarefree("2", 3, 8))
    general = as_rows(run_general("2", 3, 8))
    assert sf <= general


def test_general_search_finds_catalog_square_rows():
    for fact, delta, seq, seed, amplitude in GENERAL_PWN_OMEGA7:
        records = run_general(seed, 7, amplitude)
        assert (fact, delta, seq) in as_rows(records)
    fact, delta, seq, seed, k, amplitude = GENERAL_PWN_SPOT
    records = run_general(seed, k, amplitude)
    assert (fact, delta, seq) in as_rows(records)
