"""The benchmark command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload job_stream --seed 1 --seconds 20 --trace 0

It builds nothing: the program is the checkout's ``src/repro`` package,
imported from source.  One run sets the workload up, times a fixed number
of operations (``--seconds`` times the workload's nominal rate, so the
same arguments always time the same operations), checks every output and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every time is host-speed-normalised (see :mod:`perfbench.refclock`).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations with half of them traced (see :mod:`perfbench.layers`) and
reports the per-layer metrics instead.  The run's raw wall times,
reference samples, failed operations and spans go to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Run outputs and per-run scratch directories, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import refclock  # noqa: E402
from perfbench.refclock import ReferenceClock, normalise  # noqa: E402

#: End-to-end metric name -> unit, as reported with ``--trace 0``.
END_TO_END_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

#: Set-ups timed per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 5


def pin_to_one_cpu():
    """Restrict this process (and its future children) to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bootstrap_program():
    """Import ``repro`` from the checkout's ``src``; refuse anything else."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {source}")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"perfbench: repro resolved to {repro.__file__}, "
                         f"not the checkout's {source}")


def set_up(clock, workload_cls, seed, workdir, tracer=None):
    """Import the program, prepare and warm the workload; time it all.

    Returns ``(workload, record)`` where *record* holds the raw and
    normalised set-up time, its reference samples and warm-up failures.
    """
    before = clock.settled_sample()
    start = time.perf_counter()
    bootstrap_program()
    workload = workload_cls(seed, workdir)
    if tracer is not None:
        tracer.install()
        tracer.open_root("setup")
    try:
        workload.prepare()
        clock.expect_threads(workload.threads)
        warm_failures = workload.warm_up()
    finally:
        if tracer is not None:
            tracer.close_root()
            tracer.remove()
    raw = time.perf_counter() - start
    after = clock.settled_sample()
    return workload, {
        "raw_s": raw,
        "ref_before_s": before,
        "ref_after_s": after,
        "setup_s": normalise(raw, before, after),
        "warm_failures": warm_failures,
    }


def run_ops(clock, workload, count, first_ref, tracer=None):
    """Time *count* operations; with a tracer, trace half of them.

    *first_ref* is the reference sample taken right before operation 0.

    Operations ``1, 2, 5, 6, 9, 10, ...`` are traced: a period of four
    never aliases with the workloads' own periods of two and five, so
    every kind of operation is traced.
    """
    ops = []
    digest = hashlib.sha256()
    problems = []
    before = first_ref
    for index in range(count):
        traced = tracer is not None and index % 4 in (1, 2)
        if traced:
            tracer.install()
            tracer.open_root("op")
        failure = None
        start = time.perf_counter()
        try:
            output = workload.op(index)
        except Exception as exc:  # a failed operation is data, not a crash
            failure = exc
        raw = time.perf_counter() - start
        if traced:
            tracer.close_root()
            tracer.remove()
        entry = {"index": index, "seed": workload.seed_of(index),
                 "raw_s": raw, "traced": traced}
        if failure is None:
            op_digest, op_problems = workload.check(index, output)
            problems.extend(f"op {index} (seed {entry['seed']}): {problem}"
                            for problem in op_problems)
        else:
            kind = getattr(failure, "kind", type(failure).__name__)
            op_digest = f"failed:{kind}"
            entry["failure"] = kind
            entry["traceback"] = traceback.format_exception_only(
                type(failure), failure)[-1].strip()
        digest.update(f"{index}:{op_digest}\n".encode())
        after = clock.sample()
        entry.update(ref_before_s=before, ref_after_s=after,
                     norm_s=normalise(raw, before, after))
        ops.append(entry)
        before = after
    final_digest, final_problems = workload.finish()
    problems.extend(final_problems)
    if final_digest is not None:
        digest.update(f"final:{final_digest}\n".encode())
    return ops, digest.hexdigest(), problems


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end_metrics(ops, setup_s, rss_mb):
    latencies = [op["norm_s"] * 1000.0 for op in ops if "failure" not in op]
    total_s = sum(op["norm_s"] for op in ops)
    values = {
        "op_ms_p50": percentile(latencies, 0.50) if latencies else 0.0,
        "op_ms_p90": percentile(latencies, 0.90) if latencies else 0.0,
        "ops_per_s": len(latencies) / total_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def setup_samples(args, count):
    """Normalised set-up times of *count* fresh child processes."""
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-sample"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(completed.stdout.splitlines()[-1]))
    return samples


def main(argv=None):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    args = parser.parse_args(argv)

    # One CPU for the benchmark and every process it forks: the reference
    # loop then always runs on the core the measured work ran on.
    pin_to_one_cpu()
    # Baseline of the host guards: taken before anything imports repro.
    clock = ReferenceClock()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    workload = None
    tracer = None
    if args.trace:
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
    try:
        workload, setup = set_up(clock, WORKLOADS[args.workload], args.seed,
                                 workdir, tracer)
        if args.setup_sample:
            print(json.dumps(setup))
            return 0
        count = workload.op_count(args.seconds)
        ops, run_digest, problems = run_ops(clock, workload, count,
                                            setup["ref_after_s"], tracer)
        extras = workload.extras
        workload.close()
        workload = None
        rss_mb = peak_rss_mb()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ref_nominal_s": refclock.REF_NOMINAL_S,
              "setup": setup, "ops": ops, "run_digest": run_digest,
              "problems": problems}
    if args.trace:
        from perfbench.metrics import per_layer_metrics

        metrics = per_layer_metrics(ops, setup, tracer.spans, extras)
        detail["spans"] = tracer.spans
    else:
        samples = [setup] + setup_samples(args, SETUP_SAMPLES - 1)
        detail["setup_samples"] = samples
        setup_s = statistics.median(sample["setup_s"] for sample in samples)
        metrics = end_to_end_metrics(ops, setup_s, rss_mb)
    detail["metrics"] = metrics

    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as handle:
        json.dump(detail, handle)

    failed = [op for op in ops if "failure" in op]
    ok = len(ops) - len(failed)
    failures = ", ".join(f"{op['seed']}:{op['failure']}" for op in failed[:8])
    if len(failed) > 8:
        failures += f", ... ({len(failed) - 8} more in the run output)"
    print(f"perfbench {args.workload} seed={args.seed}: {len(ops)} ops, "
          f"{ok} ok, {len(failed)} failed ({failures})")
    if not args.trace:
        p90 = metrics["op_ms_p90"]["value"]
        beyond = sum(1 for op in ops if "failure" not in op
                     and op["norm_s"] * 1000.0 > p90)
        print(f"  latency samples: {ok}, of which {beyond} beyond p90")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"run_digest {args.workload} {run_digest}")
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
