"""Workload definitions: the CLI commands each repetition issues and the
golden value every output is checked against.

A workload is a list of steps, each a JSON-ready dict the client executes:

- ``count``: an ``enumerate ... --count-only`` command; its manifest's
  ``count_abundant`` must equal ``expect``.
- ``records``: a search command that writes a record file (the ``{out}``
  argument is replaced by a path in the work directory); the file's sha256
  must equal ``expect``.  Each carries a ``name`` so a later round trip can
  read its rows back.
- ``roundtrip``: ``weird encode`` then ``weird decode`` on every row of the
  named record files and on every catalog row; each row is one check.

Three input sets exist per workload.  ``reference`` is what every
non-negative ``--seed`` runs; ``heldout`` is what a negative seed runs,
inputs with the same layer profile that no change should be tuned on;
``smoke`` is a seconds-long size for the benchmark's own tests.  The seed
does not reorder the commands: the order decides how the prime cache grows
within a repetition, and so its peak memory (248 or 330 MB on count-k7).
All golden values were recorded from panweird at commit 8f1ab15.
"""

from __future__ import annotations

from catalog import CATALOG_ROWS, CATALOG_SEQUENCES

WORKLOADS = ("count-k7", "pwn-search")


def _count(mode, k, total, *, odd=False, seed=None):
    argv = ["enumerate", "--mode", mode, "--k", str(k), "--count-only"]
    if odd:
        argv.append("--odd")
    if seed is not None:
        argv += ["--seed", seed]
    return {"kind": "count", "argv": argv, "expect": total}


def _search(name, seed, k, amplitude, sha256, *, squares=False):
    argv = ["weird", "search", "--seed", seed, "--k", str(k),
            "--amplitude", str(amplitude), "--out", "{out}"]
    if squares:
        argv.append("--squares")
    return {"kind": "records", "name": name, "argv": argv, "expect": sha256}


# (mode, k, total, odd, seed) per count command
_COUNTS = {
    "reference": [
        ("pndn", 7, 102_896_101, True, None),
        ("sfpan", 7, 101_053_625, True, None),
        ("pndn", 7, 569_229_409, False, "2^2*13*17"),
    ],
    "heldout": [
        ("pndn", 7, 101_051_857, False, "3*5*7"),
        ("pndn", 7, 111_141_977, False, "2*5*11*83"),
        ("pndn", 7, 83_664_642, False, "2*5*17"),
    ],
    "smoke": [
        ("pndn", 6, 15_772, True, None),
        ("sfpan", 6, 14_172, True, None),
        ("pndn", 6, 29_355, False, "2^2*13"),
    ],
}

# (seed, k, amplitude, squares, sha256) per search command
_SEARCHES = {
    "reference": [
        ("2^3", 6, 6, False, "47bc666dcf5daa2f92842da0344420d1f75109c4d1a0c73637be865904e46a47"),
        ("2", 7, 4, True, "d7e78b0e56cf9dcd9ff75f834d7da8be04132a7d14cf554b6f041689870fd4cb"),
    ],
    "heldout": [
        ("2^4", 6, 5, False, "d28bf1b5565bf370420d0754e700406359e9c931281972edcb006f421e8d3d22"),
        ("2^2", 8, 3, True, "5afd1a9f91873e5e6add2fa698607affa5c7c390d5d09cb44f5f807ee24ad6d6"),
    ],
    "smoke": [
        ("2^3", 5, 6, False, "438be4db91e4d6f436dcc9745562bbe280e5664b88bab323874f08fa7659f87b"),
        ("2", 5, 4, True, "35be43900dbbd8e2343706e9b8a7ff9e74b2026535e03856cd94e213bb38b099"),
    ],
}


def input_set(seed: int, smoke: bool = False) -> str:
    """Which inputs a seed runs: reference for seed >= 0, held-out below."""
    if smoke:
        return "smoke"
    return "reference" if seed >= 0 else "heldout"


def build_steps(workload: str, inputs: str) -> list[dict]:
    """The steps of one repetition of a workload on an input set."""
    if workload == "count-k7":
        return [_count(mode, k, total, odd=odd, seed=s)
                for mode, k, total, odd, s in _COUNTS[inputs]]
    if workload == "pwn-search":
        searches = [_search("search%d" % i, s, k, a, sha, squares=sq)
                    for i, (s, k, a, sq, sha) in enumerate(_SEARCHES[inputs])]
        rows = [[f, s] for f, s in CATALOG_ROWS] + [[None, s] for s in CATALOG_SEQUENCES]
        roundtrip = {"kind": "roundtrip", "from": [s["name"] for s in searches], "rows": rows}
        return searches + [roundtrip]
    raise ValueError("unknown workload %r" % workload)


# Per-layer metrics whose sum, as a share of the traced wall time, is the
# layer each workload was chosen to stress.
FOCUS = {
    "count-k7": ("primes.count.segmented.s",),
    "pwn-search": ("weird.subset_sum.bitset.s",),
}
