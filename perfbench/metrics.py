"""Per-layer metrics of a traced run.

Inputs are the run's operation entries (half of them traced), the
set-up record, the spans recorded by :class:`perfbench.layers.LayerTracer`
and the workload's per-operation extras.  Times are self times (a span's
duration minus what its child spans cover), rescaled by the reference
factor of the operation they belong to, and given per traced operation
unless the name says otherwise; ``setup.*`` metrics are totals over the
traced set-up.
"""

import statistics

from perfbench.layers import root_of, self_times
from perfbench.refclock import normalise

#: Layers reported as ``<layer>.calls`` and ``<layer>.ms`` per operation.
CALL_LAYERS = ("lint.lint_model", "core.build_model", "ir.compile_fsm",
               "ir.compile_system")
#: Layers reported as ``<layer>.ms`` per operation.
TIME_LAYERS = ("testkit.generate_system", "testkit.fingerprint",
               "cosim.build", "cosim.run", "sweep.cache.get",
               "sweep.cache.put", "cosyn.flow", "dse.explore", "pool.map")
#: Layers reported for the traced set-up (totals).
SETUP_LAYERS = ("lint.lint_model", "ir.compile_fsm", "ir.compile_system",
                "cosim.build")

#: metric name -> unit, in report order.
UNITS = {}
for _layer in CALL_LAYERS:
    UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.ms"] = "ms"
for _layer in TIME_LAYERS:
    UNITS[f"{_layer}.ms"] = "ms"
UNITS.update({
    "desim.delta_cycles": "count",
    "desim.process_runs": "count",
    "desim.timeouts": "count",
    "desim.us_per_delta": "us",
    "ir.system_compile_hits": "count",
    "ir.compile_hits": "count",
    "cosim.sim_ns_per_s": "ns/s",
    "sweep.cache.hits": "count",
    "sweep.cache.misses": "count",
    "sweep.cache.hit_ratio": "ratio",
    "server.queue_wait_ms_p50": "ms",
    "server.run_ms_p50": "ms",
    "server.overhead_ms_p50": "ms",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
    "trace_self_frac": "ratio",
    "setup.ms": "ms",
})
for _layer in SETUP_LAYERS:
    UNITS[f"setup.{_layer}.calls"] = "count"
    UNITS[f"setup.{_layer}.ms"] = "ms"


def _factor(entry):
    """Reference factor of one operation or set-up record."""
    return normalise(1.0, entry["ref_before_s"], entry["ref_after_s"])


def per_layer_metrics(ops, setup, spans, extras):
    """``{metric: {"value", "unit"}}`` for every name in :data:`UNITS`."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    selfs = self_times(spans)
    roots = [index for index, span in enumerate(spans)
             if span[3] is None and span[0] == "op"]
    setup_roots = [index for index, span in enumerate(spans)
                   if span[3] is None and span[0] == "setup"]
    factors = {root: _factor(op) for root, op in zip(roots, traced)}
    if setup_roots:
        factors[setup_roots[0]] = _factor(setup)

    calls = {}       # (scope, name) -> count
    millis = {}      # (scope, name) -> normalised self ms
    counters = {}    # attribute -> total over traced operations
    hits = misses = 0
    wrapper_s = 0.0  # normalised time the wrappers spent on themselves
    for index, span in enumerate(spans):
        root = root_of(spans, index)
        scope = "setup" if spans[root][0] == "setup" else "op"
        name = span[0]
        key = (scope, name)
        calls[key] = calls.get(key, 0) + 1
        millis[key] = (millis.get(key, 0.0)
                       + selfs[index] * factors[root] * 1000.0)
        if scope == "op":
            wrapper_s += span[5] * factors[root]
        attrs = span[4]
        if scope != "op" or not attrs:
            continue
        if name == "cosim.run":
            for attr, value in attrs.items():
                counters[attr] = counters.get(attr, 0) + value
        elif name == "sweep.cache.get":
            if attrs["hit"]:
                hits += 1
            else:
                misses += 1

    per_op = max(1, len(traced))
    values = {}
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = calls.get(("op", layer), 0) / per_op
        values[f"{layer}.ms"] = millis.get(("op", layer), 0.0) / per_op
    for layer in TIME_LAYERS:
        values[f"{layer}.ms"] = millis.get(("op", layer), 0.0) / per_op
    run_s = millis.get(("op", "cosim.run"), 0.0) / 1000.0
    deltas = counters.get("delta_cycles", 0)
    values.update({
        "desim.delta_cycles": deltas / per_op,
        "desim.process_runs": counters.get("process_runs", 0) / per_op,
        "desim.timeouts": counters.get("timeouts", 0) / per_op,
        "desim.us_per_delta": run_s * 1e6 / deltas if deltas else 0.0,
        "ir.system_compile_hits":
            counters.get("system_compile_hits", 0) / per_op,
        "ir.compile_hits": counters.get("compile_hits", 0) / per_op,
        "cosim.sim_ns_per_s":
            counters.get("sim_ns", 0) / run_s if run_s else 0.0,
        "sweep.cache.hits": hits / per_op,
        "sweep.cache.misses": misses / per_op,
        "sweep.cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
    })

    executed = [(extras[op["index"]], _factor(op)) for op in traced
                if op["index"] in extras
                and extras[op["index"]]["run_s"] is not None]

    def median_ms(pick):
        if not executed:
            return 0.0
        return statistics.median(pick(extra) * factor * 1000.0
                                 for extra, factor in executed)

    values["server.queue_wait_ms_p50"] = median_ms(
        lambda extra: extra["queue_wait_s"])
    values["server.run_ms_p50"] = median_ms(lambda extra: extra["run_s"])
    values["server.overhead_ms_p50"] = median_ms(
        lambda extra: extra["latency_s"] - extra["run_s"])

    root_total = sum((spans[root][2] - spans[root][1]) * factors[root]
                     for root in roots)
    root_self = sum(selfs[root] * factors[root] for root in roots)
    values["unattributed_frac"] = root_self / root_total if root_total else 0.0
    traced_mean = statistics.fmean(op["norm_s"] for op in traced) \
        if traced else 0.0
    untraced_mean = statistics.fmean(op["norm_s"] for op in untraced) \
        if untraced else 0.0
    values["trace_overhead_frac"] = (traced_mean / untraced_mean - 1.0
                                     if traced and untraced_mean else 0.0)
    values["trace_self_frac"] = wrapper_s / root_total if root_total else 0.0

    values["setup.ms"] = (
        (spans[setup_roots[0]][2] - spans[setup_roots[0]][1])
        * factors[setup_roots[0]] * 1000.0 if setup_roots else 0.0)
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}.calls"] = calls.get(("setup", layer), 0)
        values[f"setup.{layer}.ms"] = millis.get(("setup", layer), 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}
