"""Host-speed reference clock for the benchmark.

A shared two-core host drifts: the same pure-Python loop takes 1.9 ms one
second and 2.9 ms the next.  Raw wall time therefore cannot repeat within a
tenth from run to run, while the *ratio* of a piece of work to a fixed
reference loop timed right beside it stays within a few percent.

:class:`ReferenceClock` runs that loop between consecutive timed
operations.  Each operation's wall time is rescaled by
``REF_NOMINAL_S / mean(sample before, sample after)`` (see
:func:`normalise`), so every reported time is in *nominal host seconds*.
The raw times and the reference samples stay in the run's output, so host
drift remains visible.

The loop is allocation-free pure Python (it iterates prebuilt tuples and
keeps every value among the interpreter's cached small ints) and this
module imports nothing from ``repro``: no change to the program under test
can change the yardstick.  At every sample the clock also checks that the
process still has the expected number of threads and the garbage
collector's original settings, so a change that parks work on a
background thread or retunes the collector cannot make the normalised
numbers look faster.
"""

import gc
import statistics
import threading
import time

class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


#: The reference loop's fixed data: 16 slot objects, 16 small-int keys and
#: a 64-entry table, all built at import and only read or overwritten with
#: cached small ints afterwards.
_CELLS = tuple(_Cell() for _ in range(16))
_KEYS = tuple(range(16))
_TABLE = {key: (key * 37) & 63 for key in range(64)}
_ROUNDS = (None,) * 64

#: Nominal duration of one reference sample (seconds).  Normalised times
#: are expressed as if every sample had taken exactly this long; it is
#: close to the loop's duration on a 2-core x86-64 cloud VM, so
#: normalised figures read like wall times on such a host.
REF_NOMINAL_S = 0.003


def _step(cell, key):
    cell.value = (cell.value ^ key) & 63
    return _TABLE[cell.value]


def reference_loop():
    """The fixed reference work, allocation-free.

    ~16k calls of a small function doing a slot store and load, a dict
    lookup and integer arithmetic: the interpreter operations the
    program's own hot paths are made of, rather than one tight integer
    loop, so it slows down with the host the way the program does.
    """
    acc = 0
    for _ in _ROUNDS:
        for cell in _CELLS:
            for key in _KEYS:
                acc = (acc ^ _step(cell, key)) & 63
    return acc


def normalise(raw_s, ref_before_s, ref_after_s):
    """Rescale *raw_s* by the reference samples taken around it."""
    if ref_before_s <= 0 or ref_after_s <= 0:
        raise ValueError("reference samples must be positive durations")
    return raw_s * REF_NOMINAL_S / ((ref_before_s + ref_after_s) / 2.0)


class HostGuardError(RuntimeError):
    """The process changed threads or GC settings under the benchmark."""


class ReferenceClock:
    """Times the reference loop and guards the process state around it.

    Create it before anything from ``repro`` is imported: the garbage
    collector settings seen then are the baseline every later sample is
    checked against.  ``expected_threads`` is 1 for in-process workloads;
    a workload that owns service threads raises it with
    :meth:`expect_threads` once they have started.
    """

    def __init__(self, expected_threads=1):
        self.gc_baseline = (gc.get_threshold(), gc.isenabled())
        self.expected_threads = expected_threads
        self.samples = []
        # The first pass pays the interpreter's specialisation of the loop.
        reference_loop()

    def expect_threads(self, count):
        self.expected_threads = count

    def check_host(self):
        threads = threading.active_count()
        if threads != self.expected_threads:
            raise HostGuardError(
                f"{threads} threads alive, expected {self.expected_threads}: "
                "work moved onto a background thread is not measured"
            )
        settings = (gc.get_threshold(), gc.isenabled())
        if settings != self.gc_baseline:
            raise HostGuardError(
                f"garbage collector settings changed from "
                f"{self.gc_baseline} to {settings}"
            )

    def sample(self):
        """Check the host guards, time one reference loop, return seconds."""
        self.check_host()
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def settled_sample(self, count=5):
        """Median of *count* samples: the reference around a one-off span."""
        return statistics.median(self.sample() for _ in range(count))
