"""Per-layer tracing for the benchmark's traced run.

The program under test is not edited: :class:`LayerTracer` wraps each
layer's public entry point at the attribute its callers resolve at call
time — a class attribute for methods, and for functions every ``repro``
module attribute bound to the original object (so
``repro.ir.syscompile.compile_system`` is wrapped together with the
``compile_system`` name that ``repro.cosim.session`` imported from it).
Wrappers exist only between :meth:`LayerTracer.install` and
:meth:`LayerTracer.remove`; the untraced operations of a traced run, and
every timed run, execute the original code.

Spans are kept in memory as ``[name, start, end, parent, attrs, cost]``
lists and written out when the benchmark ends; *cost* is the time the
wrapper itself spent outside ``[start, end]`` (hooks and bookkeeping).
A span opened on a thread with no open span of its own (the job service's
executor thread) is parented to the current operation root, because the
benchmark runs one operation at a time.
"""

import functools
import importlib
import os
import sys
import threading
import time

#: (span name, module, attribute path).  Span names are the layer metric
#: prefixes; ``run`` and ``run_until_software_done`` share ``cosim.run``.
ENTRY_POINTS = (
    ("testkit.generate_system", "repro.testkit.models", "generate_system"),
    ("core.build_model", "repro.testkit.models", "GeneratedSystem.build_model"),
    ("lint.lint_model", "repro.lint.engine", "lint_model"),
    ("ir.compile_fsm", "repro.ir.compile", "compile_fsm"),
    ("ir.compile_system", "repro.ir.syscompile", "compile_system"),
    ("cosim.build", "repro.cosim.session", "CosimSession.build"),
    ("cosim.run", "repro.cosim.session", "CosimSession.run"),
    ("cosim.run", "repro.cosim.session",
     "CosimSession.run_until_software_done"),
    ("testkit.fingerprint", "repro.testkit.oracles", "cosim_fingerprint"),
    ("sweep.cache.get", "repro.sweep.cache", "ArtifactCache.get"),
    ("sweep.cache.put", "repro.sweep.cache", "ArtifactCache.put"),
    ("cosyn.flow", "repro.cosyn.flow", "CosynthesisFlow.run"),
    ("dse.explore", "repro.dse.explorer", "DesignSpaceExplorer.explore"),
    ("pool.map", "repro.utils.pool", "WorkerPool.map"),
)

#: Kernel statistics and execution-tier counters diffed around every
#: co-simulation run span.
KERNEL_COUNTERS = ("delta_cycles", "process_runs", "timeouts")
TIER_COUNTERS = ("compile_hits", "system_compile_hits")


def _session_counters(session):
    counters = {key: session.simulator.statistics[key]
                for key in KERNEL_COUNTERS}
    fsm = session.fsm_counters()
    counters.update({key: fsm[key] for key in TIER_COUNTERS})
    counters["sim_ns"] = session.simulator.now
    return counters


def _session_before(args):
    return _session_counters(args[0])


def _session_after(args, token, result):
    after = _session_counters(args[0])
    return {key: after[key] - token[key] for key in after}


def _cache_get_after(args, token, result):
    return {"hit": result is not None}


#: Span name -> (before(args) -> token, after(args, token, result) -> attrs).
HOOKS = {
    "cosim.run": (_session_before, _session_after),
    "sweep.cache.get": (None, _cache_get_after),
}


class LayerTracer:
    """In-memory span recorder plus the entry-point wrappers feeding it."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        #: Spans are recorded in this process only: a worker forked while
        #: the wrappers are installed runs them as plain pass-throughs.
        self.pid = os.getpid()

    # ---------------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, None,
                               0.0])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def open_root(self, name):
        """Open the span of one benchmark operation (or of set-up)."""
        self.root = self.open(name)

    def close_root(self):
        self.close(self.root)
        self.root = None

    # -------------------------------------------------------------- wrapping

    def _wrapper(self, name, func):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            entered = time.perf_counter()
            token = before(args) if before is not None else None
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            span = tracer.spans[index]
            if after is not None:
                span[4] = after(args, token, result)
            span[5] = (span[1] - entered) + (time.perf_counter() - span[2])
            return result

        return traced

    def install(self):
        """Wrap every entry point (undo with :meth:`remove`)."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owner_path, attribute = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            wrapper = self._wrapper(name, original)
            if owner_path:
                targets = [owner]
            else:
                targets = [module for module_key, module
                           in list(sys.modules.items())
                           if module_key.split(".")[0] == "repro"
                           and getattr(module, attribute, None) is original]
            for target in targets:
                setattr(target, attribute, wrapper)
                self._patches.append((target, attribute, original))

    def remove(self):
        """Restore every patched attribute to its original."""
        for target, attribute, original in reversed(self._patches):
            setattr(target, attribute, original)
        self._patches = []


# ----------------------------------------------------------------- analysis


def _union_length(intervals):
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans):
    """Per-span self time: duration minus the union its children cover."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered = [(max(start, spans[child][1]), min(end, spans[child][2]))
                   for child in children.get(index, ())]
        covered = [(a, b) for a, b in covered if b > a]
        result.append((end - start) - _union_length(covered))
    return result


def root_of(spans, index):
    while spans[index][3] is not None:
        index = spans[index][3]
    return index
