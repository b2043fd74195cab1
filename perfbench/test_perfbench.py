"""The benchmark's own tests, on seconds-long smoke inputs.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, build_steps, input_set

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import panweird.cli  # noqa: E402,F401  (loads every module the tracer patches)
import panweird.enumerate  # noqa: E402
import panweird.primes  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload_passes_its_checks(workload):
    result = run.measure(workload, seed=1, seconds=0, trace=False, smoke=True)
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    m = result["metrics"]
    assert m["wall_s"] > 0 and m["cpu_s"] > 0 and m["setup_s"] > 0 and m["peak_rss_mb"] > 0


def test_corrupted_golden_counts_as_failed():
    steps = build_steps("count-k7", "smoke")
    steps[1]["expect"] += 1
    result = run.measure("count-k7", seed=0, seconds=0, trace=False, steps=steps)
    assert (result["failed"], result["attempted"]) == (1, 3)


def test_nonzero_exit_counts_as_failed():
    steps = build_steps("count-k7", "smoke")
    steps[0]["argv"][steps[0]["argv"].index("--k") + 1] = "0"  # rejected by the CLI
    result = run.measure("count-k7", seed=0, seconds=0, trace=False, steps=steps)
    assert (result["failed"], result["attempted"]) == (1, 3)


def test_traced_and_untraced_runs_write_identical_records():
    result = run.measure("pwn-search", seed=3, seconds=0, trace=True, smoke=True)
    assert result["failed"] == 0
    (plain,), (traced,) = result["reps"], result["traced"]
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert traced["layers"]["trace.spans"] > 0


def test_tracer_patches_every_caller_name_and_restores():
    originals = (panweird.primes.count_in_closed, panweird.enumerate.count_in_closed)
    assert originals[0] is originals[1]
    with Tracer():
        assert panweird.primes.count_in_closed is not originals[0]
        assert panweird.enumerate.count_in_closed is panweird.primes.count_in_closed
        assert panweird.enumerate.count_in_closed(2, 100) == 25
        assert panweird.enumerate.count_in_closed(2, 100_000_100) == 5_761_461
    assert (panweird.primes.count_in_closed, panweird.enumerate.count_in_closed) == originals


def test_layer_metrics_split_buckets_and_count_nested_time_once():
    with Tracer() as tracer:
        panweird.primes.count_in_closed(2, 1000)
        panweird.primes.kth_prime_above(10**12, 3)  # calls next_prime three times
    m = tracer.layer_metrics()
    assert m["primes.count.cached.calls"] == 1
    assert m["primes.count.segmented.e7.calls"] == 0
    assert m["primes.step.calls"] == 4
    assert m["primes.is_prime.calls"] > 0
    name, parent, start, end = tracer._table()
    outer = (name == tracer.ids["primes.step"]) & (parent < 0)
    assert outer.sum() == 1
    assert m["primes.step.s"] == pytest.approx(float((end - start)[outer].sum()))


def test_negative_seed_picks_held_out_inputs():
    for workload in WORKLOADS:
        reference = build_steps(workload, input_set(4))
        assert reference == build_steps(workload, input_set(0))
        assert build_steps(workload, input_set(-1)) != reference


def test_trace_run_prints_every_declared_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "count-k7",
         "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(declared)
    assert result["metrics"]["weird.subset_sum.calls"]["value"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-k7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
