"""Lint once, build once: the per-model lint report and its callers.

A sweep job builds its model once and every consumer — the job's lint
pre-flight, ``validate_model`` inside the session, the fused tier's lint
refusal, checkpoint restores and batch scenarios — reads the one memoised
:class:`~repro.lint.LintReport` of that model object.  These tests pin the
call counts, the view semantics of ``validate_model`` and that neither the
lint memo nor the whole-system program cache keeps a model alive.
"""

import gc
import weakref

import pytest

from repro.core.validation import validate_model
from repro.ir.syscompile import compile_system
from repro.lint import engine, lint_model, model_report
from repro.lint.selfcheck import MUTANTS
from repro.sweep.jobs import CosimJob, CosynJob
from repro.testkit.models import GeneratedSystem, generate_system
from repro.utils.errors import ValidationError


@pytest.fixture
def calls(monkeypatch):
    """Count ``lint_model`` / ``build_model`` calls; keep built models weakly."""
    counts = {"lint_model": 0, "build_model": 0, "models": []}
    real_lint = engine.lint_model
    real_build = GeneratedSystem.build_model

    def counting_lint(*args, **kwargs):
        counts["lint_model"] += 1
        return real_lint(*args, **kwargs)

    def counting_build(self):
        counts["build_model"] += 1
        model = real_build(self)
        counts["models"].append(weakref.ref(model))
        return model

    monkeypatch.setattr(engine, "lint_model", counting_lint)
    monkeypatch.setattr(GeneratedSystem, "build_model", counting_build)
    return counts


JOBS = {
    "cosim": lambda: CosimJob(3),
    "cosim-coverage": lambda: CosimJob(4, coverage=True),
    "cosim-batch": lambda: CosimJob(5, batch=3,
                                    fault_kind="stuck_handshake",
                                    fault_at_offset=50),
    "cosim-checkpoint": lambda: CosimJob(6, until=30_000,
                                         checkpoint_at=11_111),
    "cosyn": lambda: CosynJob(7),
}


class TestOncePerJob:
    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_lint_and_build_run_exactly_once(self, calls, name):
        record, _ = JOBS[name]().execute()
        assert record["error"] is None
        assert record["lint"]["errors"] == 0
        assert calls["lint_model"] == 1
        assert calls["build_model"] == 1

    def test_no_lint_job_lints_only_for_the_session(self, calls):
        record, _ = CosimJob(3, no_lint=True).execute()
        assert record["error"] is None and record["lint"] is None
        # The session's legacy validation, then the fused tier's full
        # report: the same two passes a standalone session runs.
        assert calls["lint_model"] == 2
        assert calls["build_model"] == 1

    def test_job_model_is_freed_after_the_job(self, calls):
        record, _ = CosimJob(8).execute()
        assert record["system_mode"] == "fused"
        gc.collect()
        assert calls["models"] and all(ref() is None
                                       for ref in calls["models"])


class TestMemo:
    def test_memo_and_system_cache_do_not_pin_the_model(self):
        model = generate_system(9).build_model()
        model_report(model)
        compile_system(model)
        assert model in engine._REPORTS
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_full_report_is_shared(self, calls):
        model = generate_system(10).build_model()
        first = model_report(model)
        assert model_report(model) is first
        assert model_report(model, legacy_only=True) is first
        assert first.complete
        assert calls["lint_model"] == 1

    def test_legacy_request_runs_legacy_passes_then_upgrades(self, calls):
        model = generate_system(11).build_model()
        legacy = model_report(model, legacy_only=True)
        assert not legacy.complete
        assert validate_model(model) == []
        assert calls["lint_model"] == 1
        full = model_report(model)
        assert full.complete and full is not legacy
        assert ([d.legacy_text for d in full.legacy]
                == [d.legacy_text for d in legacy.legacy])
        assert model_report(model, legacy_only=True) is full
        assert calls["lint_model"] == 2

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_validate_model_is_a_view_of_the_legacy_slice(self, mutant):
        builder, _ = MUTANTS[mutant]
        expected = [diagnostic.legacy_text for diagnostic
                    in lint_model(builder(), legacy_only=True)]
        model = builder()
        model_report(model)  # a full, suppression-filtered report first
        assert validate_model(model, raise_on_error=False) == expected
        if expected:
            with pytest.raises(ValidationError) as info:
                validate_model(model)
            assert info.value.problems == expected
