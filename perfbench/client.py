"""One repetition of a workload, run in a fresh process.

The spec arrives as JSON on stdin and the result leaves as one JSON line on
stdout.  The client imports panweird from the checkout's ``src`` directory,
notes the monotonic clock (shared by all processes on Linux) when it is
ready, then issues the spec's CLI commands one at a time through
``panweird.cli.main``, as a researcher at a shell would, and checks every
output against its golden value.  Wall and CPU time run from the first call
to the last checked output; CPU time and peak memory include any worker
processes a command starts, which are reaped before it returns.

Run with ``{"probe": true}`` it only imports and reports when it was ready.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402,F401  (part of every CLI user's start-up)
from panweird import cli  # noqa: E402

READY = _now()


class CheckFailed(Exception):
    pass


def run_cli(argv):
    """Run one CLI command in this process; its stdout, or CheckFailed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise CheckFailed("exit %r from %s" % (code, " ".join(argv)))
    return buf.getvalue()


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_rows(path):
    with open(path) as fh:
        return [(r["factorization"], r["index_sequence"])
                for r in map(json.loads, fh) if r]


def _roundtrip(f, seq):
    """Decode seq (to f, when f is known), then encode it back to seq."""
    back = run_cli(["weird", "decode", seq]).strip()
    if f is not None and back != f:
        raise CheckFailed("decode %s gave %s, expected %s" % (seq, back, f))
    got = run_cli(["weird", "encode", back]).strip()
    if got != seq:
        raise CheckFailed("encode %s gave %s, expected %s" % (back, got, seq))
    return seq


def _checks(step, workdir, files, digests):
    """Yield (label, thunk) for every check of one step, in order."""
    kind = step["kind"]
    if kind == "count":
        def count():
            totals = json.loads(run_cli(step["argv"]))["totals"]
            return totals["count_abundant"]
        yield " ".join(step["argv"]), count, step["expect"]
    elif kind == "records":
        path = os.path.join(workdir, step["name"] + ".jsonl")
        argv = [path if a == "{out}" else a for a in step["argv"]]

        def records():
            run_cli(argv)
            files[step["name"]] = path
            digests[step["name"]] = _sha256(path)
            return digests[step["name"]]
        yield " ".join(step["argv"]), records, step["expect"]
    elif kind == "roundtrip":
        rows = []
        for name in step["from"]:
            if name in files:
                rows += _read_rows(files[name])
        rows += [tuple(r) for r in step["rows"]]
        for f, seq in rows:
            yield "roundtrip " + seq, (lambda f=f, seq=seq: _roundtrip(f, seq)), seq
    else:
        raise ValueError("unknown step kind %r" % kind)


def _cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_rep(steps, workdir, tracer=None):
    """Run the steps once; timings, peak memory and one entry per check."""
    files = {}
    digests = {}
    checks = []
    step_s = []
    with tracer if tracer is not None else contextlib.nullcontext():
        cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = _now()
        for step in steps:
            ts = _now()
            for label, thunk, expect in _checks(step, workdir, files, digests):
                try:
                    got = thunk()
                    ok = got == expect
                    detail = "" if ok else "got %r, expected %r" % (got, expect)
                except Exception as exc:  # an exception or a nonzero exit fails the check
                    ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
                checks.append([label, ok, detail])
            step_s.append(_now() - ts)
        wall = _now() - t0
        cpu_self = _cpu(resource.RUSAGE_SELF) - cpu0[0]
        cpu_children = _cpu(resource.RUSAGE_CHILDREN) - cpu0[1]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": wall,
        "cpu_s": cpu_self + cpu_children,
        "peak_rss_mb": peak_kb / 1024.0,
        "step_s": step_s,
        "checks": checks,
        "digests": digests,
    }


def main():
    spec = json.load(sys.stdin)
    result = {"ready": READY}
    if not spec.get("probe"):
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer
            tracer = Tracer()
        result.update(run_rep(spec["steps"], spec["workdir"], tracer))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            if spec.get("spans_path"):
                tracer.save(spec["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
