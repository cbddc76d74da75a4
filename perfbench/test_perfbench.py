"""Self-tests of the benchmark: normaliser, host guards, schema, repeatability.

The repeatability tests run the benchmark command itself, briefly, in
child processes from the checkout root.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import metrics, refclock
from perfbench.refclock import HostGuardError, ReferenceClock, normalise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _layer_map():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as handle:
        return json.load(handle)


def _run(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.startswith("run_digest "))
    return json.loads(lines[-1]), digest


# ------------------------------------------------------------- normaliser


def test_normalise_rescales_by_mean_of_neighbouring_samples():
    nominal = refclock.REF_NOMINAL_S
    assert normalise(0.010, nominal, nominal) == pytest.approx(0.010)
    # A host running at half speed doubles both the op and the reference.
    assert normalise(0.020, 2 * nominal, 2 * nominal) == pytest.approx(0.010)
    # The two samples around an op are averaged, not either one alone.
    assert normalise(0.015, nominal, 2 * nominal) == pytest.approx(0.010)
    assert normalise(0.0, nominal, nominal) == 0.0


@pytest.mark.parametrize("before, after", [(0.0, 0.002), (0.002, -1.0)])
def test_normalise_rejects_non_positive_samples(before, after):
    with pytest.raises(ValueError):
        normalise(0.01, before, after)


def test_reference_loop_allocates_nothing():
    refclock.reference_loop()
    before = sys.getallocatedblocks()
    for _ in range(10):
        refclock.reference_loop()
    # One block of slack for the measuring loop's own iterator.
    assert sys.getallocatedblocks() - before <= 1


# ------------------------------------------------------------ host guards


def test_clock_refuses_a_background_thread():
    clock = ReferenceClock()
    clock.sample()
    release = threading.Event()
    worker = threading.Thread(target=release.wait, args=(10,))
    worker.start()
    try:
        with pytest.raises(HostGuardError, match="threads alive"):
            clock.sample()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    clock.sample()


def test_clock_refuses_retuned_garbage_collector():
    clock = ReferenceClock()
    threshold = gc.get_threshold()
    gc.set_threshold(threshold[0] * 10, *threshold[1:])
    try:
        with pytest.raises(HostGuardError, match="garbage collector"):
            clock.sample()
    finally:
        gc.set_threshold(*threshold)
    clock.sample()


# ----------------------------------------------------------------- schema


def test_benchmark_json_names_every_reported_metric():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    from perfbench.run import END_TO_END_UNITS
    from perfbench.workloads import WORKLOADS

    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == metrics.UNITS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_layer_map_covers_every_layer_metric():
    bench = _benchmark()
    layer_map = _layer_map()
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert set(layer_map["layers"]) == {m["name"] for m in bench["per_layer"]}
    for name, entry in layer_map["layers"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert entry["on"] and set(entry["on"]) <= workloads, name
    assert set(layer_map["why"]) == workloads
    for workload in bench["workloads"]:
        assert workload["why"] == layer_map["why"][workload["name"]]


# ---------------------------------------------------------- repeatability


def _is_count(name):
    return (name.endswith(".calls") or name.startswith("desim.")
            and name != "desim.us_per_delta"
            or name.endswith("compile_hits")
            or name.startswith("sweep.cache.h")
            or name == "sweep.cache.misses")


@pytest.mark.parametrize("workload", ["job_stream", "long_sim"])
def test_traced_counts_and_digest_repeat_exactly(workload):
    first, first_digest = _result(_run(workload, 7, 0.4, 1))
    second, second_digest = _result(_run(workload, 7, 0.4, 1))
    assert first_digest == second_digest
    assert first["failed"] == second["failed"]
    assert first["correct"] and second["correct"]
    counts = [name for name in metrics.UNITS if _is_count(name)]
    assert counts
    for name in counts:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_job_stream_failures_are_the_known_fusion_defect():
    """Failed ops are all-software shared-register systems, and nothing else.

    Whole-system code generation emits an empty function body for such a
    system; the benchmark counts those ops as failed instead of skipping
    their seeds.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.testkit.models import generate_system

    result, _ = _result(_run("job_stream", 1, 2, 0))
    with open(os.path.join(ROOT, ".perfbench_out",
                           "job_stream-seed1-trace0.json")) as handle:
        detail = json.load(handle)
    failed = [op for op in detail["ops"] if "failure" in op]
    assert len(failed) == result["failed"]
    for op in failed:
        summary = generate_system(op["seed"]).summary
        for network in summary.split("+"):
            kind, _, partition = network.split("/")
            assert kind == "shared" and set(partition) == {"S"}, (op, summary)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("job_stream", 1, 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
