"""Command-line front end.

Records go out as JSON lines with a fixed key order, so identical runs
produce byte-identical files; delta is a decimal string because abundances
of search results can outgrow doubles.  Progress and diagnostics go to
stderr; stdout carries records only when --out is '-'.

Records written to a file go to <out>.partial first and are renamed to
<out> only when the run succeeds.  The manifest is written either way; its
status says how the run ended: ok, ceiling, interrupted or error, and its
prime_table gives the prime table's limit and source (none, sieve or cache)
at the end.  enumerate writes every completion its walk counts, perfect
ones included, so a run that ends ok has emitted = count_abundant +
count_perfect.  convert writes no manifest, so it removes its partial file
when it fails.

Exit codes: 0 success, 1 usage, bad input or a file that cannot be read or
written, 2 verification failure, 3 resource ceiling hit, factorization
text past arith.MAX_INPUT_BITS and codec indices past weird.MAX_INDEX
included.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from .arith import Factorization, _parse_pairs, abundance, digits10
from .classify import NumberClass, classify
from .enumerate import pndn, sfpan, walk_start
from .errors import CeilingExceeded, PanweirdError, ParseError
from .primes import _DEFAULT_CEILING, PI_BOUND, certifiable, is_prime, prime_table
from .weird import (
    IndexSequence,
    decode_index_sequence,
    encode_index_sequence,
    is_weird,
    pwn_search_general,
    pwn_search_squarefree,
    search_start,
)

@dataclass
class RunManifest:
    """One-per-run summary written next to (or instead of) the records."""

    command: str
    config: dict
    started: str
    finished: str = ""
    runtime_seconds: float = 0.0
    status: str = ""
    totals: dict = field(default_factory=dict)
    records: str = ""
    prime_table: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)  # field order is key order


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# Record lines are filled into fixed templates instead of going through
# json.dumps: no field can need escaping (digits, '*', '^', '[', ']', ',',
# '-', spaces and the class names), and the key order is the format.
_ENUM_LINE = ('{"factorization":"%s","class":"%s","delta":"%d","omega":%d,'
              '"big_omega":%d,"digits":%d}')
_PWN_LINE = ('{"factorization":"%s","index_sequence":"%s","class":"abundant",'
             '"delta":"%d","omega":%d,"big_omega":%d,"digits":%d,"certified":%s}')


def _enum_record_line(rec) -> str:
    f = rec.factorization
    return _ENUM_LINE % (f, rec.number_class.value, rec.abundance,
                         f.omega, f.big_omega, digits10(f.value))


def _pwn_record_line(rec) -> str:
    f = rec.factorization
    return _PWN_LINE % (f, rec.index_sequence, rec.abundance, f.omega,
                        f.big_omega, rec.digits,
                        "true" if rec.certified else "false")


class _Output:
    """Record writer for a path or stdout that writes the manifest on exit.

    A file is written as <path>.partial and renamed to path on success.
    On any exit the manifest gets the final status and the emitted count.
    """

    def __init__(self, out: str | None, manifest: RunManifest):
        self.path = out
        self.manifest = manifest
        self.stream = None
        self.count = 0
        self.t0 = time.monotonic()

    def __enter__(self):
        if self.path == "-":
            self.stream = sys.stdout
        elif self.path:
            self.stream = open(self.path + ".partial", "w")
        return self

    def __exit__(self, exc_type, exc, tb):
        to_file = self.path not in (None, "-")
        if to_file:
            self.stream.close()
        m = self.manifest
        m.records = self.path or ""
        if exc_type is None:
            m.status = "ok"
            if to_file:
                os.replace(self.path + ".partial", self.path)
        else:
            m.status = ("ceiling" if issubclass(exc_type, CeilingExceeded)
                        else "interrupted" if issubclass(exc_type, KeyboardInterrupt)
                        else "error")
            if to_file:
                m.records += ".partial"
        m.finished = _now()
        m.runtime_seconds = round(time.monotonic() - self.t0, 3)
        m.totals["emitted"] = self.count
        table = prime_table()
        m.prime_table = {"limit": table.limit, "source": table.source}
        if to_file:
            with open(self.path + ".manifest.json", "w") as fh:
                fh.write(m.to_json() + "\n")
        elif self.path == "-":
            sys.stderr.write(m.to_json() + "\n")
        else:
            print(m.to_json())

    def write(self, line: str) -> None:
        self.count += 1
        if self.stream:
            self.stream.write(line + "\n")


def cmd_enumerate(args) -> int:
    seed = Factorization.parse(args.seed)
    # bad input exits here, before any output file is opened
    walk_start(args.mode == "pndn", args.k, seed, args.odd, args.ceiling)
    manifest = RunManifest(
        command="enumerate",
        config={
            "mode": args.mode,
            "k": args.k,
            "seed": str(seed),
            "odd": args.odd,
            "count_only": args.count_only,
            "ceiling": args.ceiling,
        },
        started=_now(),
    )
    with _Output(None if args.count_only else (args.out or "-"), manifest) as out:
        sink = None if args.count_only else (lambda rec: out.write(_enum_record_line(rec)))
        run = sfpan if args.mode == "sfpan" else pndn
        outcome = run(args.k, seed, sink, odd_only=args.odd, ceiling=args.ceiling)
        manifest.totals = {
            "count_abundant": outcome.count_abundant,
            "count_perfect": outcome.count_perfect,
            "found": outcome.found,
        }
    return 0


def cmd_weird_search(args) -> int:
    seed = Factorization.parse(args.seed)
    # bad input exits here, before any output file is opened
    search_start(args.squares, args.k, seed, args.amplitude)
    manifest = RunManifest(
        command="weird search",
        config={
            "seed": str(seed),
            "k": args.k,
            "amplitude": args.amplitude,
            "squares": args.squares,
            "certify": args.certify,
        },
        started=_now(),
    )
    with _Output(args.out or "-", manifest) as out:
        search = pwn_search_general if args.squares else pwn_search_squarefree
        search(args.k, seed, lambda rec: out.write(_pwn_record_line(rec)),
               amplitude=args.amplitude, certify=args.certify)
    return 0


# weird check lists the divisors up to delta, at most min(tau(n), delta) of
# them; past this many the list alone could take gigabytes.  The paper's
# PWN have at most 16 prime factors, so tau <= 2^16 for each of them.
_CHECK_DIVISORS = 1 << 20
# and each listed divisor has at most delta.bit_length() bits: past this
# many bits in all, the list and its subset sums could too
_CHECK_BITS = 1 << 27


def cmd_weird_check(args) -> int:
    f = Factorization.parse(args.factorization)
    cls = classify(f)
    delta = abundance(f)
    weird = False
    if cls is NumberClass.ABUNDANT:
        listed = min(math.prod(e + 1 for _, e in f.factors), delta)
        if listed > _CHECK_DIVISORS:
            raise CeilingExceeded("weird check would list up to %d divisors, "
                                  "above 2^20" % listed)
        if listed * delta.bit_length() > _CHECK_BITS:
            raise CeilingExceeded("weird check would list up to %d divisors of "
                                  "up to %d bits, above 2^27 bits in all"
                                  % (listed, delta.bit_length()))
        weird = is_weird(f)
    print("%s, %s, Δ=%d" % (cls.value, "weird" if weird else "not weird", delta))
    return 0


def cmd_weird_encode(args) -> int:
    f = Factorization.parse(args.factorization)
    print(encode_index_sequence(f))
    return 0


def cmd_weird_decode(args) -> int:
    seq = IndexSequence.parse(args.sequence)
    print(decode_index_sequence(seq))
    return 0


def _read_records(fh):
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file; a line that is not a JSON object raises ParseError naming it."""
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError("line %d: %s at column %d"
                             % (lineno, exc.msg, exc.colno)) from None
        if not isinstance(rec, dict):
            raise ParseError("line %d: record is not a JSON object" % lineno)
        yield lineno, rec


def cmd_weird_certify(args) -> int:
    checked = skipped = bad = 0
    with open(args.infile) as fh:
        for lineno, rec in _read_records(fh):
            if "factorization" not in rec:
                raise ParseError("line %d: record has no factorization" % lineno)
            text = rec["factorization"]
            if not isinstance(text, str):
                raise ParseError("line %d: factorization is not a string" % lineno)
            try:
                pairs = _parse_pairs(text)
            except ParseError as exc:
                raise ParseError("line %d: %s" % (lineno, exc)) from None
            for p, _ in pairs:
                if not certifiable(p):
                    skipped += 1
                    sys.stderr.write("cannot certify %d (too large)\n" % p)
                elif is_prime(p):
                    checked += 1
                else:
                    bad += 1
                    sys.stderr.write("not prime: %d in %s\n" % (p, text))
    print("certified %d primes, %d skipped, %d failures" % (checked, skipped, bad))
    return 2 if bad else 0


def cmd_convert(args) -> int:
    columns = [
        "factorization", "index_sequence", "class", "delta",
        "omega", "big_omega", "digits", "certified",
    ]
    partial = args.out + ".partial"
    try:
        with open(args.infile) as fh, open(partial, "w", newline="") as outfh:
            writer = csv.DictWriter(outfh, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for _, rec in _read_records(fh):
                for key, value in rec.items():
                    if isinstance(value, bool):
                        rec[key] = "true" if value else "false"
                writer.writerow(rec)
    except BaseException:
        if os.path.exists(partial):  # no manifest marks it, so none may stay
            os.remove(partial)
        raise
    os.replace(partial, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="panweird", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="walk primitive non-deficient numbers")
    p_enum.add_argument("--mode", choices=("sfpan", "pndn"), required=True,
                        help="square-free walk or the general one")
    p_enum.add_argument("--k", type=int, required=True,
                        help="total prime factors: distinct (sfpan) or with multiplicity (pndn)")
    p_enum.add_argument("--seed", default="1", help="deficient seed factorization")
    p_enum.add_argument("--odd", action="store_true", help="skip 2 at the first level")
    enum_output = p_enum.add_mutually_exclusive_group()
    enum_output.add_argument("--count-only", action="store_true", help="totals, no records")
    enum_output.add_argument("--out", default=None, help="record file, '-' for stdout")
    p_enum.add_argument("--ceiling", type=int, default=_DEFAULT_CEILING,
                        help="largest allowed bound x of a leaf's prime count pi(x), "
                             "from 1 to %d" % PI_BOUND)
    p_enum.set_defaults(func=cmd_enumerate)

    p_weird = sub.add_parser("weird", help="weird-number tools")
    wsub = p_weird.add_subparsers(dest="subcommand", required=True)

    p_search = wsub.add_parser("search", help="search for primitive weird numbers")
    p_search.add_argument("--seed", default="1")
    p_search.add_argument("--k", type=int, required=True,
                          help="total factor count of results, seed included")
    p_search.add_argument("--amplitude", type=int, required=True,
                          help="how many primes around each center to try")
    p_search.add_argument("--squares", action="store_true",
                          help="allow deepening prime exponents")
    p_search.add_argument("--certify", action="store_true",
                          help="mark records certified when every prime is proven (below 3.3e24)")
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=cmd_weird_search)

    p_check = wsub.add_parser("check", help="classify one number and test weirdness")
    p_check.add_argument("factorization")
    p_check.set_defaults(func=cmd_weird_check)

    p_encode = wsub.add_parser("encode", help="factorization to index sequence")
    p_encode.add_argument("factorization")
    p_encode.set_defaults(func=cmd_weird_encode)

    p_decode = wsub.add_parser("decode", help="index sequence to factorization")
    p_decode.add_argument("sequence")
    p_decode.set_defaults(func=cmd_weird_decode)

    p_cert = wsub.add_parser("certify", help="re-verify primes in a record file")
    p_cert.add_argument("--in", dest="infile", required=True)
    p_cert.set_defaults(func=cmd_weird_certify)

    p_conv = sub.add_parser("convert", help="JSON-lines records to CSV")
    p_conv.add_argument("--in", dest="infile", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=cmd_convert)

    return parser


_parser = None  # built by the first main call, then reused

# Python 3.11 refuses to convert ints of more than 4,300 digits to or from
# text.  An input holds at most arith.MAX_INPUT_BITS bits (19,729 digits)
# and sigma(n) < n^2, so this many digits covers every number a command
# reads or prints.
_STR_DIGITS = 2 * 19_729


def main(argv=None) -> int:
    global _parser
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(_STR_DIGITS)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CeilingExceeded as exc:
        sys.stderr.write("resource ceiling: %s\n" % exc)
        return 3
    except ParseError as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return 1
    except (PanweirdError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
