"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one finished.  A workload is set up once
(:meth:`Workload.prepare` plus warm-up operations on seeds outside the
timed range), then runs operations ``0 .. n-1`` on contiguous seeds from
its seed base.  The program only ever sees the generated inputs (job
specs, a generated system model).

* ``job_stream`` — one :class:`~repro.sweep.jobs.CosimJob` per operation
  through an in-process ``SweepService(workers=1)`` with a temporary
  artifact cache: 3 in 5 plain jobs, 1 in 5 coverage jobs (cacheable,
  written to the cache) and 1 in 5 re-submissions of an earlier coverage
  spec (served from the cache).
* ``long_sim`` — one pre-built fused ``generate_system(977, networks=8)``
  session with a fixed clock and software period; an operation advances
  it by a fixed slice of simulated time.
* ``synth_explore`` — alternating ``DseJob`` and ``CosynJob`` executions,
  no cache and no co-simulation.
* ``service_roundtrip`` — an in-process ``JobService(workers=1)``; an
  operation submits one spec and waits until it is done or failed.

``op`` is the timed call and raises on failure (an exception from the
program, or an error record — :class:`ErrorRecord`).  ``check`` runs
outside the timed region and returns the operation's digest and any
correctness problems.
"""

import tempfile
import time

#: Timed seeds of ``--seed n`` start at ``SEED_ORIGIN + n * SEED_STRIDE``;
#: a run uses far fewer than SEED_STRIDE seeds, so ranges never overlap.
SEED_ORIGIN = 100_000
SEED_STRIDE = 10_000
#: Warm-up operations use seeds below SEED_ORIGIN, outside every timed range.
WARM_ORIGIN = 1_000


class ErrorRecord(Exception):
    """The program answered with an error record instead of raising."""

    def __init__(self, error):
        super().__init__(error)
        #: Exception type named by the record (``"ValidationError: ..."``).
        self.kind = str(error).split(":", 1)[0]


class Workload:
    """Base class: seed layout and the set-up / operation protocol."""

    name = None
    #: Timed operations per nominal second; a run of ``--seconds s`` times
    #: ``round(s * ops_per_nominal_s)`` operations, so the operation count
    #: (and with it every digest and count) depends only on the arguments.
    ops_per_nominal_s = None
    #: Warm-up operations run during set-up.
    warm_ops = 4
    #: Threads alive while the workload runs (the benchmark's own only).
    threads = 1

    def __init__(self, seed, workdir):
        self.seed_base = SEED_ORIGIN + int(seed) * SEED_STRIDE
        self.workdir = workdir
        self.base = WARM_ORIGIN
        #: index -> extra per-operation data the traced run reports.
        self.extras = {}

    def op_count(self, seconds):
        return max(1, round(seconds * self.ops_per_nominal_s))

    def prepare(self):
        """Create the workload's state (the ``repro`` imports happen here)."""

    def warm_up(self):
        """Run :attr:`warm_ops` operations on the warm-up seeds.

        Returns ``(index, exception type)`` for each warm-up operation that
        failed; warm-up failures are reported but not counted.
        """
        failures = []
        for index in range(self.warm_ops):
            try:
                output = self.op(index)
            except Exception as exc:  # recorded; warm-up only pays set-up
                failures.append((index, type(exc).__name__))
            else:
                self.check(index, output)
        self.base = self.seed_base
        self.reset_run_state()
        return failures

    def reset_run_state(self):
        """Forget per-run bookkeeping kept during warm-up."""
        self.extras = {}

    def seed_of(self, index):
        return self.base + index

    def op(self, index):
        raise NotImplementedError

    def check(self, index, output):
        """``(digest, problems)`` for one operation's output."""
        raise NotImplementedError

    def finish(self):
        """End-of-run ``(digest or None, problems)``."""
        return None, []

    def close(self):
        """Release the workload's processes, threads and files."""


def _new_cache(workdir):
    from repro.sweep.cache import ArtifactCache

    return ArtifactCache(tempfile.mkdtemp(prefix="cache-", dir=workdir))


def _synthesis_problems(record):
    """A co-synthesis verdict must agree with the constraint report.

    A generated system may legitimately exceed a platform constraint (an
    address map larger than the bus window): the flow then answers
    ``ok=False`` and names the violated constraint, which is a correct
    answer, not a failure.
    """
    if record["ok"] == (not record["problems"]):
        return []
    return [f"synthesis verdict ok={record['ok']} contradicts its problems "
            f"{record['problems']}"]


def _cosim_problems(record):
    """A co-simulation must meet the generator's functional expectations."""
    problems = []
    if record.get("functional_problems"):
        problems.append(f"functional problems: "
                        f"{record['functional_problems']}")
    if not record.get("sw_finished_all"):
        problems.append("software did not finish")
    return problems


def _without_cached(record):
    return {key: value for key, value in record.items() if key != "cached"}


class JobStream(Workload):
    """Per-job latency of the sweep path: generation to fingerprint."""

    name = "job_stream"
    ops_per_nominal_s = 34
    warm_ops = 5

    #: Operation slot within each group of five.
    COVERAGE_SLOT = 1
    RESUBMIT_SLOT = 4

    def prepare(self):
        self.cache = _new_cache(self.workdir)
        self.coverage_records = {}

    def reset_run_state(self):
        super().reset_run_state()
        self.coverage_records = {}

    def seed_of(self, index):
        if index % 5 == self.RESUBMIT_SLOT:
            return self.seed_of(index - self.RESUBMIT_SLOT
                                + self.COVERAGE_SLOT)
        # Four fresh seeds per group of five, contiguous from the base.
        return self.base + index - index // 5

    def job(self, index):
        from repro.sweep.jobs import CosimJob

        coverage = index % 5 in (self.COVERAGE_SLOT, self.RESUBMIT_SLOT)
        return CosimJob(self.seed_of(index), coverage=coverage)

    def op(self, index):
        from repro.sweep.service import SweepService

        service = SweepService([self.job(index)], workers=1, cache=self.cache)
        record = service.run().records[0]
        if record.get("error"):
            raise ErrorRecord(record["error"])
        return record

    def check(self, index, record):
        problems = _cosim_problems(record)
        slot = index % 5
        if slot == self.COVERAGE_SLOT:
            if record.get("cached"):
                problems.append("fresh coverage job was served from cache")
            self.coverage_records[index] = _without_cached(record)
        elif slot == self.RESUBMIT_SLOT:
            original = self.coverage_records.get(
                index - self.RESUBMIT_SLOT + self.COVERAGE_SLOT)
            if not record.get("cached"):
                problems.append("re-submitted coverage job missed the cache")
            elif original is not None and _without_cached(record) != original:
                problems.append("cache-served record differs from the run")
        digest = record["fingerprint_digest"]
        if record.get("coverage_digest"):
            digest += "/" + record["coverage_digest"]
        return digest, problems


class LongSim(Workload):
    """Slices of a long fused co-simulation: kernel and fused step."""

    name = "long_sim"
    ops_per_nominal_s = 30
    warm_ops = 3

    SYSTEM_SEED = 977
    NETWORKS = 8
    #: Fixed clock and software activation periods (ns), passed explicitly
    #: so the generator's per-seed clock draw cannot change the work.
    CLOCK_PERIOD = 20
    SW_ACTIVATION_PERIOD = 40
    #: Simulated time advanced by one operation (ns).
    SLICE_NS = 20_000

    def prepare(self):
        from repro.cosim import CosimSession
        from repro.testkit.models import generate_system

        self.system = generate_system(self.SYSTEM_SEED,
                                      networks=self.NETWORKS)
        self.session = CosimSession(
            self.system.build_model(), clock_period=self.CLOCK_PERIOD,
            sw_activation_period=self.SW_ACTIVATION_PERIOD,
            trace_signals=False)
        self.session.build()
        self.origin = 0
        self.result = None

    def reset_run_state(self):
        super().reset_run_state()
        self.origin = self.session.simulator.now

    def seed_of(self, index):
        return self.SYSTEM_SEED

    def op(self, index):
        return self.session.run(until=self.origin
                                + (index + 1) * self.SLICE_NS)

    def check(self, index, result):
        self.result = result
        problems = []
        until = self.origin + (index + 1) * self.SLICE_NS
        if result.end_time != until:
            problems.append(f"slice ended at {result.end_time}, "
                            f"expected {until}")
        statistics = self.session.simulator.statistics
        digest = ",".join(f"{key}={statistics[key]}"
                          for key in sorted(statistics))
        return digest, problems

    def finish(self):
        from repro.testkit.oracles import (
            check_functional_outcome,
            cosim_fingerprint,
        )
        from repro.utils.canonical import content_digest

        session, result = self.session, self.result
        if result is None:
            return None, []
        problems = list(check_functional_outcome(session, result,
                                                 self.system.expectations))
        if session.system_tier != "fused":
            problems.append(f"system tier {session.system_tier!r}, expected "
                            f"fused ({session.system_fallback_reason})")
        fsm = session.fsm_counters()
        if fsm["steps"] != (fsm["compile_hits"] + fsm["fallback"]
                            + fsm["system_compile_hits"]):
            problems.append(f"execution-tier counters do not add up: {fsm}")
        digest = content_digest({
            "fingerprint": cosim_fingerprint(session, result),
            "fsm": fsm,
        })
        return digest, problems


class SynthExplore(Workload):
    """Co-synthesis and partition exploration: HLS, cost model, search."""

    name = "synth_explore"
    ops_per_nominal_s = 26
    warm_ops = 4

    def op(self, index):
        from repro.sweep.jobs import CosynJob, DseJob

        factory = DseJob if index % 2 == 0 else CosynJob
        record, _ = factory(self.seed_of(index)).execute()
        return record

    def check(self, index, record):
        problems = []
        if record["kind"] == "dse":
            if not record["front"]:
                problems.append("empty Pareto front")
            digest = record["report_digest"]
        else:
            problems.extend(_synthesis_problems(record))
            digest = record["artifact_digest"]
        return digest, problems


class ServiceRoundtrip(Workload):
    """Submit-to-done round trips through the job service and its pool."""

    name = "service_roundtrip"
    ops_per_nominal_s = 50
    warm_ops = 5
    #: The benchmark's thread, one executor thread and the three handler
    #: threads of the ``multiprocessing`` pool behind the worker.
    threads = 5

    #: Seconds between polls of a submitted job's state.
    POLL_S = 0.0002
    #: Per group of five: cosyn, cosim, cosyn, cosim, repeat of slot 0.
    REPEAT_SLOT = 4

    def prepare(self):
        from repro.server.service import JobService

        self.service = JobService(workers=1, cache=_new_cache(self.workdir))
        self.service.start()
        self.records = {}

    def reset_run_state(self):
        super().reset_run_state()
        self.records = {}

    def seed_of(self, index):
        if index % 5 == self.REPEAT_SLOT:
            return self.seed_of(index - self.REPEAT_SLOT)
        return self.base + index - index // 5

    def spec(self, index):
        seed = self.seed_of(index)
        if index % 5 in (1, 3):
            return {"kind": "cosim", "seed": seed, "networks": 1}
        return {"kind": "cosyn", "seed": seed}

    def op(self, index):
        submitted = time.perf_counter()
        job = self.service.submit_spec(self.spec(index), source="perfbench")
        while job.state not in ("done", "failed"):
            time.sleep(self.POLL_S)
        latency = time.perf_counter() - submitted
        if job.state == "failed":
            raise ErrorRecord(job.error)
        self.extras[index] = {"latency_s": latency,
                              "queue_wait_s": job.queue_wait_s(),
                              "run_s": job.run_s()}
        return job

    def check(self, index, job):
        record = job.record
        problems = []
        if index % 5 == self.REPEAT_SLOT:
            original = self.records.get(index - self.REPEAT_SLOT)
            if not job.cached:
                problems.append("repeated spec was not served from cache")
            elif (original is not None
                  and _without_cached(record) != original):
                problems.append("cache-served record differs from the run")
        if record["kind"] == "cosyn":
            problems.extend(_synthesis_problems(record))
            if index % 5 == 0:
                self.records[index] = _without_cached(record)
            digest = record["artifact_digest"]
        else:
            problems.extend(_cosim_problems(record))
            digest = record["fingerprint_digest"]
        return digest, problems

    def close(self):
        self.service.stop()


WORKLOADS = {cls.name: cls
             for cls in (JobStream, LongSim, SynthExplore, ServiceRoundtrip)}
