"""Whole-model validation.

Validation is run before either flow starts; it catches exactly the mistakes
the paper's methodology is meant to prevent from going unnoticed:

* a module calling a service that no communication unit provides,
* a communication unit whose services touch undeclared ports,
* behavioural FSMs with unreachable/trap states or undeclared variables,
* missing views for the flow about to run (HW + SW simulation views for
  co-simulation, SW synthesis views for every targeted platform).

This is a view over the model's memoised lint report
(``repro.lint.model_report``): its legacy-rule slice reproduces the
historical problem strings byte-for-byte.  Only the view-library checks,
which depend on *library*, run per call.  New code should read
``model_report`` directly — it also has the dataflow, race and protocol
findings this API never had.
"""

from repro.utils.errors import ValidationError


def validate_model(model, library=None, platforms=(), raise_on_error=True):
    """Validate *model* and optionally its view *library*.

    Returns the list of problems found; raises :class:`ValidationError` when
    *raise_on_error* is true and at least one problem exists.  The raised
    error additionally carries the structured diagnostics as
    ``exc.diagnostics``.
    """
    from repro.lint.diagnostics import LintReport
    from repro.lint.engine import model_report
    from repro.lint.interface import view_pass

    diagnostics = list(model_report(model, legacy_only=True).legacy)
    if library is not None:
        views = LintReport()
        view_pass(model, library, platforms, views)
        diagnostics += views.diagnostics
    problems = [diagnostic.legacy_text for diagnostic in diagnostics]
    if problems and raise_on_error:
        raise ValidationError(problems, diagnostics=diagnostics)
    return problems
