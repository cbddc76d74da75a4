"""The lint engine: runs every pass over a :class:`SystemModel`.

The legacy-rule passes run first and in exactly the order the old
string-based validator reported problems; the report keeps that slice
(:attr:`LintReport.legacy`) so ``validate_model`` reproduces its output
byte-for-byte.  :func:`model_report` memoises one report per model object —
read by ``validate_model``, the co-simulation session and the sweep/server
jobs — so a job lints its model once.  Like ``model_digest`` and the
whole-system program cache, it assumes a model is not mutated after its
first lint.
"""

import weakref

from repro.core.module import HardwareModule, SoftwareModule
from repro.lint import dataflow, interface, protocol, races
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.intervals import dtype_interval


def _fsm_envs(fsm, ports):
    var_env = {name: dtype_interval(decl.dtype)
               for name, decl in fsm.variables.items()}
    port_env = {name: dtype_interval(port.dtype)
                for name, port in ports.items()}
    return var_env, port_env


def _module_ports(module):
    ports = dict(module.ports)
    if isinstance(module, HardwareModule):
        ports.update(module.internal_signals)
    return ports


def _collect_suppressions(model, extra=()):
    """Suppression entries: engine args are global; entries attached to model
    objects as ``lint_suppress`` are scoped to the object's path."""
    entries = [(entry, "") for entry in extra]
    entries += [(entry, "") for entry in getattr(model, "lint_suppress", ())]
    for module in model.modules.values():
        prefix = f"module/{module.name}"
        entries += [(entry, prefix)
                    for entry in getattr(module, "lint_suppress", ())]
        for fsm in module.behaviours():
            entries += [(entry, f"{prefix}/{fsm.name}")
                        for entry in getattr(fsm, "lint_suppress", ())]
    for unit in model.comm_units.values():
        prefix = f"unit/{unit.name}"
        entries += [(entry, prefix)
                    for entry in getattr(unit, "lint_suppress", ())]
        for service in unit.services.values():
            entries += [(entry, f"{prefix}/service/{service.name}")
                        for entry in getattr(service, "lint_suppress", ())]
            entries += [(entry, f"{prefix}/service/{service.name}")
                        for entry in getattr(service.fsm, "lint_suppress", ())]
        for controller in unit.controllers:
            entries += [(entry, f"{prefix}/controller/{controller.name}")
                        for entry in getattr(controller.fsm, "lint_suppress", ())]
    return entries


def lint_model(model, library=None, platforms=(), disable=(), suppress=(),
               legacy_only=False):
    """Run the analyzer over *model*; returns a :class:`LintReport`.

    *library*/*platforms* enable the view-completeness checks (as in the
    old ``validate_model``).  *disable* silences whole rules; *suppress*
    takes suppression entries (``"RULE"`` / ``"RULE:fragment"``).  With
    *legacy_only* true, only the rules the historical validator covered run
    and no suppression filtering is applied.  Either way the legacy-rule
    findings are kept, unsuppressed, as :attr:`LintReport.legacy` — the
    slice ``validate_model`` reports.
    """
    report = LintReport(target=model.name)

    # --- legacy-ordered passes (behaviours, units, bindings, views) --------
    for module in model.modules.values():
        for fsm in module.behaviours():
            dataflow.structural_pass(
                fsm, f"module/{module.name}/{fsm.name}", report,
                legacy_prefix=f"module {module.name}/{fsm.name}: ",
            )
        if isinstance(module, SoftwareModule) and len(module.behaviours()) != 1:
            message = "software modules have exactly one FSM"
            report.add(Diagnostic(
                "FSM006", "error", f"module/{module.name}", message,
                legacy=f"module {module.name}: {message}",
            ))
    for unit in model.comm_units.values():
        interface.unit_port_pass(unit, report)
        for service in unit.services.values():
            dataflow.structural_pass(
                service.fsm, f"unit/{unit.name}/service/{service.name}", report,
                legacy_prefix=(f"communication unit {unit.name}, "
                               f"service {service.name}: "),
            )
        for controller in unit.controllers:
            dataflow.structural_pass(
                controller.fsm, f"unit/{unit.name}/controller/{controller.name}",
                report,
                legacy_prefix=(f"communication unit {unit.name}, "
                               f"controller {controller.name}: "),
            )
    interface.binding_pass(model, report)
    if library is not None:
        interface.view_pass(model, library, platforms, report)
    report.legacy = tuple(report.diagnostics)

    if legacy_only:
        return report

    # --- extended passes ---------------------------------------------------
    for module in model.modules.values():
        ports = _module_ports(module)
        for fsm in module.behaviours():
            path = f"module/{module.name}/{fsm.name}"
            var_env, port_env = _fsm_envs(fsm, ports)
            dataflow.dataflow_passes(fsm, path, report,
                                     var_env=var_env, port_env=port_env)
            interface.call_pass(model, module, fsm, path, report,
                                var_env=var_env, port_env=port_env)
            interface.port_write_pass(fsm, path, report, ports,
                                      var_env=var_env, port_env=port_env)
    for unit in model.comm_units.values():
        for service in unit.services.values():
            path = f"unit/{unit.name}/service/{service.name}"
            var_env, port_env = _fsm_envs(service.fsm, unit.ports)
            dataflow.dataflow_passes(service.fsm, path, report,
                                     pre_assigned=service.param_names,
                                     var_env=var_env, port_env=port_env)
            interface.port_write_pass(service.fsm, path, report, unit.ports,
                                      var_env=var_env, port_env=port_env)
        for controller in unit.controllers:
            path = f"unit/{unit.name}/controller/{controller.name}"
            var_env, port_env = _fsm_envs(controller.fsm, unit.ports)
            dataflow.dataflow_passes(controller.fsm, path, report,
                                     var_env=var_env, port_env=port_env)
            interface.port_write_pass(controller.fsm, path, report, unit.ports,
                                      var_env=var_env, port_env=port_env)
        protocol.protocol_pass(unit, report, f"unit/{unit.name}")
    races.race_pass(model, report)

    entries = _collect_suppressions(model, suppress)
    entries += [(rule, "") for rule in disable]
    report.apply_suppressions(entries)
    report.complete = True
    return report


_REPORTS = weakref.WeakKeyDictionary()  # model -> LintReport (no model refs)


def model_report(model, legacy_only=False):
    """The memoised default :class:`LintReport` of *model*; treat as read-only.

    A *legacy_only* request on a model nobody has linted runs only the
    legacy passes; a full request on such an entry re-lints and replaces
    it.  View-library checks are not part of the entry (they depend on the
    caller's library, see ``validate_model``).
    """
    report = _REPORTS.get(model)
    if report is None or not (report.complete or legacy_only):
        report = lint_model(model, legacy_only=legacy_only)
        _REPORTS[model] = report
    return report
