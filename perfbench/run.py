"""Benchmark runner for panweird's CLI workloads.

    python3 perfbench/run.py --workload count-k7 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of one client: a repetition is a fresh
process (perfbench/client.py) that issues the workload's CLI commands one
at a time and checks each output against its golden value.  Repetitions
run back to back until the next one would end after ``--seconds``; the
untraced run reports the median wall time, CPU time and peak memory per
repetition, plus the median set-up time over every process started.

With ``--trace 1`` the runner alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones (medians), the
tracing overhead, and the spans of the last traced repetition, written to
.perfbench_work/spans-<workload>.npz.  ``--smoke`` swaps in seconds-long
inputs for the benchmark's own tests.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, with the metric names and units of BENCHMARK.json.  Exit code 2
means the checkout has no panweird sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import FOCUS, WORKLOADS, build_steps, input_set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5  # extra import-only processes per untraced run
CLIENT_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a run ends within this, even if a client hangs


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_client(spec, timeout=CLIENT_TIMEOUT_S):
    """Start a client, feed it spec, wait for it; its result with setup_s."""
    t0 = _now()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "client.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    ) as proc:
        try:
            out, _ = proc.communicate(json.dumps(spec).encode(), timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("client exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def derived_layers(layers):
    """Per-layer metrics from one traced repetition's raw span totals."""
    out = dict(layers)
    seg = ("e7", "e8", "e9plus")
    out["primes.count.segmented.calls"] = sum(layers["primes.count.segmented.%s.calls" % e] for e in seg)
    out["primes.count.segmented.s"] = sum(layers["primes.count.segmented.%s.s" % e] for e in seg)
    calls = layers["weird.subset_sum.bitset.calls"] + layers["weird.subset_sum.bnb.calls"]
    out["weird.subset_sum.calls"] = calls
    out["weird.subset_sum.semiperfect_ratio"] = layers["weird.subset_sum.semiperfect"] / calls if calls else 0.0
    return out


def measure(workload, seed, seconds, trace, smoke=False, steps=None):
    """Run repetitions for about `seconds`; the benchmark's result dict."""
    if steps is None:
        steps = build_steps(workload, input_set(seed, smoke))
    rundir = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    os.makedirs(rundir, exist_ok=True)
    attempted = failed = 0
    setups, reps, traced = [], [], []
    hard_stop = _now() + RUN_LIMIT_S
    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_client({"probe": True})["setup_s"])
        deadline = _now() + seconds
        longest = 0.0
        while not reps or _now() + longest <= deadline:
            t_round = _now()
            for with_trace in ((False, True) if trace else (False,)):
                spec = {"steps": steps, "workdir": rundir, "trace": with_trace,
                        "spans_path": os.path.join(WORK, "spans-%s.npz" % workload)}
                try:
                    rep = run_client(spec, min(CLIENT_TIMEOUT_S, hard_stop - _now()))
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                    print("repetition failed: %s" % exc)
                    attempted += 1
                    failed += 1
                    continue
                setups.append(rep["setup_s"])
                bad = [c for c in rep["checks"] if not c[1]]
                attempted += len(rep["checks"])
                failed += len(bad)
                for label, _, detail in bad:
                    print("FAILED %s: %s" % (label, detail))
                print("%s rep %d%s: wall %.3f s, cpu %.3f s, rss %.1f MB, %d checks, %d failed"
                      % (workload, len(reps) + len(traced) + 1, " traced" if with_trace else "",
                         rep["wall_s"], rep["cpu_s"], rep["peak_rss_mb"], len(rep["checks"]), len(bad)))
                (traced if with_trace else reps).append(rep)
            if not reps:
                break  # every repetition failed; nothing to measure
            longest = max(longest, _now() - t_round)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {"attempted": attempted, "failed": failed, "reps": reps, "traced": traced}
    if not reps or (trace and not traced):
        return result
    wall = statistics.median([r["wall_s"] for r in reps])
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "setup_s": statistics.median(setups),
    }
    if trace:
        layers = [derived_layers(r["layers"]) for r in traced]
        for key in layers[0]:  # the low median keeps counts whole
            metrics[key] = statistics.median_low([lay[key] for lay in layers])
        traced_wall = statistics.median([r["wall_s"] for r in traced])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        focus = sum(metrics[k] for k in FOCUS[workload])
        print("focus %s: %.3f s of %.3f s traced wall (share %.3f)"
              % (" + ".join(FOCUS[workload]), focus, traced_wall, focus / traced_wall))
    result["metrics"] = metrics
    return result


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help=">= 0: reference inputs; < 0: held-out inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "panweird", "cli.py")):
        sys.stderr.write("no panweird sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    declared = _declared_metrics(args.trace)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if "metrics" not in result:
        sys.stderr.write("no repetition completed\n")
        return 1
    print("ops_failed_frac: %d/%d" % (result["failed"], result["attempted"]))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
