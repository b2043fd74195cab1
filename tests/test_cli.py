import csv
import hashlib
import json
import sys

import numpy as np
import pytest

import panweird.enumerate
import panweird.primes
import panweird.weird
from panweird import cli
from panweird.arith import MAX_FACTORS, digits10
from panweird.cli import build_parser, main
from panweird.enumerate import EnumOutcome, pndn
from panweird.primes import PI_BOUND, PrimeTable

from known_values import GENERAL_PWN_SPOT, SQUAREFREE_PWN_BLOCKS

ENUM_KEYS = ["factorization", "class", "delta", "omega", "big_omega", "digits"]
PWN_KEYS = ["factorization", "index_sequence", "class", "delta",
            "omega", "big_omega", "digits", "certified"]


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--mode", "pndn", "--k", "5", "--count-only"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert list(manifest) == ["command", "config", "started", "finished",
                              "runtime_seconds", "status", "totals", "records",
                              "prime_table"]
    assert list(manifest["config"]) == ["mode", "k", "seed", "odd", "count_only",
                                        "ceiling"]
    assert manifest["command"] == "enumerate"
    assert manifest["config"]["mode"] == "pndn"
    assert manifest["config"]["k"] == 5
    assert manifest["totals"] == {
        "count_abundant": 906, "count_perfect": 1, "found": True, "emitted": 0,
    }
    assert manifest["records"] == ""


def test_enumerate_to_file(tmp_path):
    out = tmp_path / "k3.jsonl"
    code = main([
        "enumerate", "--mode", "pndn", "--k", "3", "--out", str(out),
    ])
    assert code == 0
    records = read_jsonl(out)
    assert [list(r) for r in records] == [ENUM_KEYS] * 3
    assert {(r["factorization"], r["class"], r["delta"]) for r in records} == {
        ("2^2*5", "abundant", "2"),
        ("2^2*7", "perfect", "0"),
        ("2*5*7", "abundant", "4"),
    }
    for r in records:
        assert r["big_omega"] == 3
    manifest = json.loads((tmp_path / "k3.jsonl.manifest.json").read_text())
    assert manifest["totals"]["emitted"] == 3
    assert manifest["records"] == str(out)
    # identical runs produce byte-identical record files
    out2 = tmp_path / "again.jsonl"
    main(["enumerate", "--mode", "pndn", "--k", "3", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_enumerate_to_stdout(capsys):
    assert main(["enumerate", "--mode", "sfpan", "--k", "3", "--out", "-"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(x) for x in captured.out.splitlines()]
    assert [r["factorization"] for r in lines] == ["2*5*7"]
    manifest = json.loads(captured.err)
    assert manifest["totals"]["emitted"] == 1
    assert manifest["records"] == "-"


def test_enumerate_odd_counts(capsys):
    assert main(["enumerate", "--mode", "sfpan", "--k", "5",
                 "--odd", "--count-only"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["totals"]["count_abundant"] == 87


def test_enumerate_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--mode", "nope", "--k", "3"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--mode", "pndn"])
    assert err.value.code == 1
    assert main(["enumerate", "--mode", "pndn", "--k", "3",
                 "--seed", "four"]) == 1
    assert capsys.readouterr().err.endswith("\ninvalid input: bad factor 'four'\n")
    assert main(["enumerate", "--mode", "pndn", "--k", "2",
                 "--seed", "2^2", "--count-only"]) == 1
    assert main(["enumerate", "--mode", "pndn", "--k", "4",
                 "--ceiling", "10", "--count-only"]) == 3
    capsys.readouterr()


def test_enumerate_record_files_are_pinned(tmp_path):
    # sha256 of the record files; any change to the walk order or the line
    # format shows up here
    for argv, digest in (
        (["--mode", "sfpan", "--k", "5"],
         "0037371cc8b5ab0fa4ff3e1d506a48c8749cb2337de8a0e5bffda79b5918b213"),
        (["--mode", "pndn", "--k", "5"],
         "3f68f4bcff00388c919f27d26efebd97c7b6f7cd07ae05670f955199f5363442"),
    ):
        out = tmp_path / "records.jsonl"
        assert main(["enumerate", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_weird_search_record_files_are_pinned(tmp_path):
    # sha256 of the two reference search record files: the weirdness test,
    # the search order and the line format all show up here
    for argv, digest in (
        (["--seed", "2^3", "--k", "6", "--amplitude", "6"],
         "47bc666dcf5daa2f92842da0344420d1f75109c4d1a0c73637be865904e46a47"),
        (["--seed", "2", "--k", "7", "--amplitude", "4", "--squares"],
         "d7e78b0e56cf9dcd9ff75f834d7da8be04132a7d14cf554b6f041689870fd4cb"),
    ):
        out = tmp_path / "pwn.jsonl"
        assert main(["weird", "search", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_weird_search_to_file(tmp_path):
    out = tmp_path / "pwn.jsonl"
    code = main(["weird", "search", "--seed", "2^3", "--k", "4",
                 "--amplitude", "6", "--out", str(out)])
    assert code == 0
    records = read_jsonl(out)
    assert [list(r) for r in records] == [PWN_KEYS] * 5
    got = {(r["factorization"], int(r["delta"]), r["index_sequence"])
           for r in records}
    assert got == set(SQUAREFREE_PWN_BLOCKS[("2^3", 6)][4])
    for r in records:
        assert r["class"] == "abundant"
        assert r["certified"] is False
    manifest = json.loads((tmp_path / "pwn.jsonl.manifest.json").read_text())
    assert manifest["command"] == "weird search"
    assert manifest["totals"]["emitted"] == 5


def test_weird_search_with_squares(capsys):
    fact, delta, seq, seed, k, amplitude = GENERAL_PWN_SPOT
    code = main(["weird", "search", "--seed", seed, "--k", str(k),
                 "--amplitude", str(amplitude), "--squares", "--out", "-"])
    assert code == 0
    rows = {(r["factorization"], int(r["delta"]), r["index_sequence"])
            for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert (fact, delta, seq) in rows


def test_weird_search_squares_excludes_strict_sigma_bound(tmp_path, capsys):
    # --strict-sigma-bound is removed, so it is rejected with or without --squares
    out = tmp_path / "pwn.jsonl"
    for extra in (["--squares"], []):
        with pytest.raises(SystemExit) as err:
            main(["weird", "search", "--seed", "2^3", "--k", "4", "--amplitude", "2",
                  *extra, "--strict-sigma-bound", "--out", str(out)])
        assert err.value.code == 1
        assert "--strict-sigma-bound" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_enumerate_count_only_excludes_out(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--mode", "pndn", "--k", "3", "--count-only",
              "--out", str(out)])
    assert err.value.code == 1
    assert "not allowed with" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_weird_check(capsys):
    for text, expect in [
        ("2*5*7", "abundant, weird, Δ=4"),
        ("2^5*3", "abundant, not weird, Δ=60"),
        ("2*3", "perfect, not weird, Δ=0"),
        ("2^3", "deficient, not weird, Δ=-1"),
    ]:
        assert main(["weird", "check", text]) == 0
        assert capsys.readouterr().out.strip() == expect


def test_weird_check_refuses_too_many_divisors(capsys, monkeypatch):
    # min(tau(n), delta) divisors would be listed; above 2^20 the check exits
    # 3 before listing any, at 2^20 it goes on to list them
    def refuse(f, bound):
        raise AssertionError("divisors listed for %s" % f)

    monkeypatch.setattr(panweird.weird, "divisors_up_to", refuse)
    primes = [str(p) for p in panweird.primes.primes_in_closed(2, 101)]
    assert len(primes) == 26
    for count in (26, 21):
        assert main(["weird", "check", "*".join(primes[:count])]) == 3
        assert "resource ceiling" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="divisors listed"):
        main(["weird", "check", "*".join(primes[:20])])
    # 40,002 divisors of up to 20,001 bits: under 2^20 divisors, but above
    # 2^27 bits in all
    assert main(["weird", "check", "2^20000*3"]) == 3
    assert "above 2^27 bits" in capsys.readouterr().err


def test_weird_check_bounds_its_input_and_prints_long_numbers(capsys, monkeypatch):
    # text past arith.MAX_INPUT_BITS exits 3 before n or sigma(n) is built
    def refuse(f):
        raise AssertionError("classified %s" % f)

    monkeypatch.setattr(cli, "classify", refuse)
    assert main(["weird", "check", "2^100000000*3"]) == 3
    assert "input bound" in capsys.readouterr().err
    monkeypatch.undo()
    # Δ = -(3^20000 + 1)/2, of 9,543 digits, prints past Python's default
    # limit of 4,300
    assert main(["weird", "check", "3^20000"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("deficient, not weird, Δ=-")
    assert len(out.partition("=-")[2]) == digits10((3**20000 + 1) // 2) == 9543


def test_weird_encode_decode(capsys):
    assert main(["weird", "encode", "2^2*13*17*443*97919*563915507"]) == 0
    assert capsys.readouterr().out.strip() == "[1^2, 2, 1, 1, 1, -2]"
    assert main(["weird", "decode", "[1^2, 2, 1, 1, 1, -2]"]) == 0
    assert capsys.readouterr().out.strip() == "2^2*13*17*443*97919*563915507"
    assert main(["weird", "decode", "[nope]"]) == 1
    assert main(["weird", "encode", "2^2*5*7*11"]) == 1
    # a prime past weird.MAX_INDEX primes from its center
    assert main(["weird", "encode", "2^30*3"]) == 3
    assert main(["weird", "decode", "[1^40, -100000]"]) == 3
    capsys.readouterr()


def test_parse_errors_quote_long_input_in_part(capsys):
    # a bad argument is quoted by its first 40 characters and its length
    for argv, error in (
        (["weird", "check", "5*" + "3" * 19_000 + "*2"], "strictly increasing"),
        (["weird", "check", "2*" + "x" * 19_000], "bad factor"),
        (["weird", "decode", "1," * 9_000], "must be bracketed"),
        (["weird", "decode", "[" + "x" * 19_000 + "]"], "bad index entry"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert error in err and "characters)" in err and len(err) < 300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int/str digit limit")
def test_factor_past_the_digit_limit_keeps_pythons_message(capsys, monkeypatch):
    # int() refuses a 5,000-digit factor under a limit of 4,300 digits; its
    # own message, naming sys.set_int_max_str_digits, is what gets reported
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "_STR_DIGITS", 4300)
    try:
        assert main(["weird", "check", "2*" + "3" * 5000]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert "sys.set_int_max_str_digits" in err and "bad factor" not in err


def test_weird_certify(tmp_path, capsys, monkeypatch):
    path = tmp_path / "records.jsonl"
    with open(path, "w") as fh:
        for fact in ("2*5*7", "2^2*11*19"):
            fh.write(json.dumps({"factorization": fact}) + "\n")
    assert main(["weird", "certify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "certified 6 primes, 0 skipped, 0 failures"
    with open(path, "a") as fh:
        fh.write(json.dumps({"factorization": "2*5*49"}) + "\n")
    assert main(["weird", "certify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out.strip() == "certified 8 primes, 0 skipped, 1 failures"
    assert "49" in err
    # past the bound 11 and 19 pass a strong base-2 test and stay uncertified,
    # while 49 fails it: composite
    monkeypatch.setattr(cli, "certifiable", lambda p: p < 11)
    assert main(["weird", "certify", "--in", str(path)]) == 2
    assert capsys.readouterr().out.strip() == "certified 6 primes, 2 skipped, 1 failures"


def test_weird_certify_tests_factors_past_the_bound(tmp_path, capsys):
    # a factor past the proven bound gets one strong base-2 test: a pass
    # cannot certify it, a failure proves it composite
    prime = 10**30 + 57
    composite = (10**30 + 57) * (10**30 + 91)
    path = tmp_path / "records.jsonl"
    for factor, code, tally, verdict in (
            (prime, 0, "1 skipped, 0 failures", "cannot certify %d (too large)" % prime),
            (composite, 2, "0 skipped, 1 failures", "not prime: %d in " % composite)):
        path.write_text(json.dumps({"factorization": "2^2*%d" % factor}) + "\n")
        assert main(["weird", "certify", "--in", str(path)]) == code
        out, err = capsys.readouterr()
        assert out.strip() == "certified 1 primes, " + tally
        assert verdict in err


def test_weird_certify_rejects_record_without_factorization(tmp_path, capsys):
    # no factorization, a non-string one, and one with decreasing bases
    path = tmp_path / "records.jsonl"
    # and a line that is not JSON at all
    for bad in ('{"delta": "4"}', '{"factorization": 70}', '{"factorization": "7*5"}',
                "{bad json"):
        path.write_text(json.dumps({"factorization": "2*5*7"}) + "\n\n" + bad + "\n")
        assert main(["weird", "certify", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input: line 3: ")


def test_convert_to_csv(tmp_path):
    src = tmp_path / "records.jsonl"
    rows = [
        {"factorization": "2^2*5", "class": "abundant", "delta": "2",
         "omega": 2, "big_omega": 3, "digits": 2},
        {"factorization": "2*5*7", "index_sequence": "[1, 1, -1]",
         "class": "abundant", "delta": "4", "omega": 3, "big_omega": 3,
         "digits": 2, "certified": True},
    ]
    with open(src, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    out = tmp_path / "records.csv"
    assert main(["convert", "--in", str(src), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == PWN_KEYS
    assert table[1] == ["2^2*5", "", "abundant", "2", "2", "3", "2", ""]
    assert table[2] == ["2*5*7", "[1, 1, -1]", "abundant", "4", "3", "3", "2", "true"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv", "records.jsonl"]


def test_convert_rejects_a_line_that_is_not_an_object(tmp_path, capsys):
    src = tmp_path / "records.jsonl"
    out = tmp_path / "out.csv"
    for bad in ("[1]", "{bad json"):
        src.write_text(json.dumps({"factorization": "2*5*7"}) + "\n" + bad + "\n")
        assert main(["convert", "--in", str(src), "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "out.csv.partial").exists()


def _run_sequence(tmp_path, capsys, fresh):
    """Outputs of a mixed call sequence; fresh rebuilds the parser per call."""
    calls = [
        ["enumerate", "--mode", "pndn", "--k", "4", "--odd", "--count-only"],
        ["enumerate", "--mode", "pndn", "--k", "4", "--count-only"],
        ["weird", "search", "--seed", "2", "--k", "5", "--amplitude", "4",
         "--squares", "--out", str(tmp_path / "squares.jsonl")],
        ["weird", "search", "--seed", "2", "--k", "5", "--amplitude", "4",
         "--squares", "--strict-sigma-bound"],  # usage error: a removed option
        ["weird", "search", "--seed", "2", "--k", "5", "--amplitude", "4",
         "--out", str(tmp_path / "plain.jsonl")],
        ["enumerate", "--mode", "sfpan", "--k", "4", "--count-only"],
    ]
    tmp_path.mkdir()
    outputs = []
    for argv in calls:
        if fresh:
            cli._parser = None
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        manifest = json.loads(out) if out else {}
        for key in ("started", "finished", "runtime_seconds", "prime_table"):
            manifest.pop(key, None)
        records = [(tmp_path / name).read_bytes()
                   for name in ("squares.jsonl", "plain.jsonl")
                   if (tmp_path / name).exists()]
        outputs.append((code, manifest, records))
    return outputs


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    reused = _run_sequence(tmp_path / "reused", capsys, fresh=False)
    parser = cli._parser
    assert parser is not None
    main(["weird", "encode", "2*5*7"])
    assert capsys.readouterr().out == "[1, 1, -1]\n"
    assert cli._parser is parser
    fresh = _run_sequence(tmp_path / "fresh", capsys, fresh=True)
    assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 0]
    assert reused[0][1]["config"]["odd"] and not reused[1][1]["config"]["odd"]
    assert reused[2][1] == {} and reused[2][2][0]
    assert reused == fresh
    # build_parser still returns a new parser each call
    assert build_parser() is not build_parser()
    argv = ["weird", "search", "--k", "5", "--amplitude", "4"]
    assert vars(parser.parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_primality_options_are_gone(capsys):
    for argv in (["--det-limit", str(1 << 40), "weird", "check", "2*5*7"],
                 ["--mr-rounds", "2", "weird", "check", "2*5*7"],
                 ["--certify", "enumerate", "--mode", "pndn", "--k", "3", "--count-only"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "error:" in capsys.readouterr().err


def test_weird_search_certify_marks_records(tmp_path):
    argv = ["weird", "search", "--seed", "2^3", "--k", "5", "--amplitude", "6"]
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--certify", "--out", str(marked)]) == 0
    lines = plain.read_text().splitlines()
    assert lines and all(line.endswith('"certified":false}') for line in lines)
    assert marked.read_text().splitlines() == [
        line.replace('"certified":false}', '"certified":true}') for line in lines]
    manifest = json.loads((tmp_path / "marked.jsonl.manifest.json").read_text())
    assert manifest["config"]["certify"] is True


def test_ceiling_hit_leaves_only_a_partial_file(tmp_path, capsys):
    out = tmp_path / "k5.jsonl"
    assert main(["enumerate", "--mode", "pndn", "--k", "5", "--ceiling", "200",
                 "--out", str(out)]) == 3
    assert not out.exists()
    partial = read_jsonl(tmp_path / "k5.jsonl.partial")
    manifest = json.loads((tmp_path / "k5.jsonl.manifest.json").read_text())
    assert manifest["status"] == "ceiling"
    assert manifest["totals"] == {"emitted": len(partial)} and partial
    assert manifest["records"] == str(out) + ".partial"
    # a successful run renames the file and leaves no partial one behind
    assert main(["enumerate", "--mode", "pndn", "--k", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "k5.jsonl.manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["records"] == str(out)
    totals = manifest["totals"]
    # every completion the walk counts is written, the perfect 2^4*31 too
    assert totals["emitted"] == len(read_jsonl(out)) == \
        totals["count_abundant"] + totals["count_perfect"]
    assert not (tmp_path / "k5.jsonl.partial").exists()
    capsys.readouterr()


def test_interrupted_run_is_marked_in_its_manifest(tmp_path, monkeypatch):
    def interrupted(k, seed, sink, **kwargs):
        pndn(3, sink=sink)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "pndn", interrupted)
    out = tmp_path / "k3.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "--mode", "pndn", "--k", "3", "--out", str(out)])
    assert not out.exists()
    manifest = json.loads((tmp_path / "k3.jsonl.manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["totals"] == {"emitted": 3}  # 2^2*5, 2^2*7 and 2*5*7
    assert len(read_jsonl(str(out) + ".partial")) == 3


def test_count_only_manifest_reports_the_ceiling(capsys):
    assert main(["enumerate", "--mode", "pndn", "--k", "4",
                 "--ceiling", "10", "--count-only"]) == 3
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["status"] == "ceiling"
    assert manifest["totals"] == {"emitted": 0}


def test_manifests_report_the_prime_table(tmp_path, monkeypatch, capsys):
    # a search steps without the table; a count whose leaves pass 2^26 sieves
    # the cap table into an empty cache, and the same count from an empty
    # table then loads it
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    empty = PrimeTable(0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint32))
    monkeypatch.setattr(panweird.primes, "_state", empty)
    out = tmp_path / "pwn.jsonl"
    assert main(["weird", "search", "--seed", "2^3", "--k", "4",
                 "--amplitude", "6", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "pwn.jsonl.manifest.json").read_text())
    assert manifest["prime_table"] == {"limit": 0, "source": "none"}
    totals = []
    for source in ("sieve", "cache"):
        monkeypatch.setattr(panweird.primes, "_state", empty)
        assert main(["enumerate", "--mode", "pndn", "--k", "7", "--seed", "2*5*17*23",
                     "--count-only"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["prime_table"] == {"limit": 2**26, "source": source}
        totals.append(manifest["totals"])
    assert totals[0] == totals[1]


def test_missing_or_unwritable_files_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    unwritable = str(tmp_path / "no-such-dir" / "out")
    for argv in (
        ["convert", "--in", missing, "--out", str(tmp_path / "x.csv")],
        ["weird", "certify", "--in", missing],
        ["enumerate", "--mode", "pndn", "--k", "3", "--out", unwritable],
        ["weird", "search", "--seed", "2^3", "--k", "4", "--amplitude", "2",
         "--out", unwritable],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
    src = tmp_path / "records.jsonl"
    src.write_text(json.dumps({"factorization": "2*5*7"}) + "\n")
    assert main(["convert", "--in", str(src), "--out", unwritable]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_huge_k_is_rejected_before_any_walk(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a walk or search started")

    monkeypatch.setattr(panweird.enumerate, "_run", no_work)
    monkeypatch.setattr(panweird.weird, "_search", no_work)
    for argv in (
        ["enumerate", "--mode", "pndn", "--k", "3000", "--count-only"],
        ["enumerate", "--mode", "sfpan", "--k", str(MAX_FACTORS + 1), "--count-only"],
        ["weird", "search", "--seed", "2", "--k", "3000", "--amplitude", "1", "--squares"],
    ):
        assert main(argv) == 1
        assert "at most %d" % MAX_FACTORS in capsys.readouterr().err


def test_ceiling_out_of_range_is_rejected_before_any_walk(monkeypatch, capsys):
    walked = []

    def no_walk(*args):
        walked.append(args)
        return EnumOutcome()

    monkeypatch.setattr(panweird.enumerate, "_run", no_walk)
    for ceiling in ("0", "-5", str(PI_BOUND + 1)):
        assert main(["enumerate", "--mode", "pndn", "--k", "7",
                     "--ceiling", ceiling, "--count-only"]) == 1
        assert "ceiling must be" in capsys.readouterr().err
    assert not walked
    # the bound itself is accepted
    assert main(["enumerate", "--mode", "sfpan", "--k", "7",
                 "--ceiling", str(PI_BOUND), "--count-only"]) == 0
    assert len(walked) == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--mode", "pndn", "--k", "0"],
    ["enumerate", "--mode", "pndn", "--k", "3", "--ceiling", "0"],
    ["enumerate", "--mode", "sfpan", "--k", "3", "--seed", "2*3*5"],  # not deficient
    ["enumerate", "--mode", "pndn", "--k", "3", "--seed", "2", "--odd"],
    ["weird", "search", "--k", "3", "--amplitude", "0"],
    ["weird", "search", "--k", "1", "--amplitude", "1025"],  # past weird.MAX_INDEX
    ["weird", "search", "--k", "0", "--amplitude", "1"],
    ["weird", "search", "--k", "2", "--seed", "3*5", "--amplitude", "1"],
])
def test_bad_input_exits_before_any_file_is_written(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "x"]) == 1
    assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
