"""Whole-system compilation (:mod:`repro.ir.syscompile`) contracts.

The fused tier's one promise is *invisibility*: a session run on the
generated whole-system step function must be byte-identical — waveforms,
traces, states, kernel statistics — to the per-FSM compiled tier and the
interpreter, on both kernels.  This file pins that promise over the
testkit's generated population (plain, fault-injected and real-time
scenario families), plus the machinery around it: the differential
shadow oracle, batched multi-scenario execution, source caching, the
session's lint refusal path and the tier counters.

The full 334-scenario sweep across all three tiers runs via
``python -m repro.testkit --system-mode differential``; here the same
check runs at quick scale so tier-1 catches a divergence early.
"""

from collections import OrderedDict

import pytest

import repro.ir.syscompile as syscompile
from repro.cosim import CosimSession
from repro.ir import (
    compile_system,
    generate_system_source,
    model_digest,
    system_spec,
)
from repro.ir.syscompile import SOURCE_FORMAT, SystemProgram
from repro.lint import lint_model
from repro.lint.selfcheck import MUTANTS
from repro.sweep.cache import ArtifactCache
from repro.sweep.jobs import CosimJob
from repro.testkit.models import generate_system
from repro.testkit.oracles import check_cosim_conformance, cosim_fingerprint
from repro.testkit.scenarios import (
    FAULT_KINDS,
    FaultScenario,
    RealtimeScenario,
    check_fault_scenario,
    check_realtime_scenario,
)
from repro.utils.canonical import content_digest
from repro.utils.errors import SimulationError


class TestLockstepDifferential:
    """Fused vs per-FSM vs interpreter, both kernels, byte-identical."""

    @staticmethod
    def _tier_fingerprints(seed, kernel, until=40_000):
        system = generate_system(seed)
        fingerprints = []
        for system_mode in ("fused", "per-fsm", "interpreted"):
            session = CosimSession(system.build_model(), kernel=kernel,
                                   system_mode=system_mode,
                                   **system.cosim_params)
            result = session.run(until=until)
            fingerprints.append(cosim_fingerprint(session, result))
        return fingerprints

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_system_identical_across_tiers(self, seed):
        fused, per_fsm, interpreted = self._tier_fingerprints(seed,
                                                              "production")
        assert fused == per_fsm
        assert fused == interpreted

    @pytest.mark.parametrize("seed", [2, 7])
    def test_reference_kernel_agrees_too(self, seed):
        assert self._tier_fingerprints(seed, "production") \
            == self._tier_fingerprints(seed, "reference")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_full_conformance_matrix_at_quick_scale(self, seed):
        # The complete oracle (completion runs, determinism double-runs,
        # functional expectations) across all three tiers on both kernels;
        # the 334-scenario version runs via
        # ``python -m repro.testkit --system-mode differential``.
        problems = check_cosim_conformance(generate_system(seed),
                                           system_mode="differential")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_family_identical_across_tiers(self, kind, seed):
        problems = check_fault_scenario(FaultScenario(seed, kind),
                                        system_mode="differential")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_realtime_family_identical_across_tiers(self, seed):
        problems = check_realtime_scenario(RealtimeScenario(seed),
                                           system_mode="differential")
        assert not problems, "\n".join(problems)


class TestSessionModes:
    def test_fused_is_the_default_tier(self):
        session = CosimSession(generate_system(0).build_model())
        session.run(until=20_000)
        assert session.system_tier == "fused"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] > 0
        assert counters["system_fallback"] == 0
        # Every hardware step is accounted to exactly one tier.
        assert counters["steps"] == (counters["compile_hits"]
                                     + counters["fallback"]
                                     + counters["system_compile_hits"])

    def test_interpreted_system_mode_forces_interpreted_fsms(self):
        model = generate_system(0).build_model()
        session = CosimSession(model, system_mode="interpreted")
        session.run(until=5_000)
        assert session.system_tier == "interpreted"
        counters = session.fsm_counters()
        assert counters["system_compile_hits"] == 0
        assert counters["compile_hits"] == 0
        assert counters["fallback"] == counters["steps"] > 0
        # Every other tier steps compiled programs; the tier is the only
        # knob, so there is no way left to ask for a contradictory mix.
        with pytest.raises(TypeError):
            CosimSession(model, system_mode="interpreted",
                         fsm_mode="compiled")
        with pytest.raises(SimulationError):
            CosimSession(model, system_mode="bogus")

    def test_detect_races_falls_back_to_per_fsm(self):
        session = CosimSession(generate_system(0).build_model(),
                               detect_races=True)
        session.build()
        assert session.system_tier == "per-fsm"
        assert "detect_races" in session.system_fallback_reason

    @pytest.mark.parametrize("system_mode", ["fused", "differential"])
    def test_system_without_fused_candidates_runs(self, system_mode):
        # Seed 100020 is all-software on shared registers: no controller or
        # hardware FSM to fuse, so the generated shadow body is empty.
        model = generate_system(100020).build_model()
        program = compile_system(model)
        assert program.candidates == [] and program.process_count == 0
        record, _ = CosimJob(100020, system_mode=system_mode).execute()
        assert record["error"] is None
        assert record["functional_problems"] == []
        assert record["sw_finished_all"] is True
        assert record["system_mode"] == system_mode

    def test_differential_session_runs_clean_on_a_real_model(self):
        session = CosimSession(generate_system(3).build_model(),
                               system_mode="differential")
        session.run(until=20_000)
        assert session.system_tier == "differential"
        checker = session.system_checker
        assert checker.checked_edges > 0
        assert checker.compared_steps > 0

    def test_differential_flags_a_diverging_prediction(self):
        # Unit-level: a shadow whose prediction disagrees with what the
        # per-FSM instance actually did must raise, naming the instance.
        class _Clock:
            _value = 1
            last_changed = 0

        class _Instance:
            current = "A"
            env = {}
            transitions_fired = 0

        def shadow(pre, out):
            out[0] = ("B", {}, 1)  # predicts a transition that never fired

        from repro.ir.syscompile import ShadowChecker

        checker = ShadowChecker(_Clock(), [_Instance()], ["Net0.Ctrl"],
                                shadow)
        checker.pre()
        with pytest.raises(SimulationError,
                           match="system differential divergence"):
            checker.post()

    def test_differential_skips_unpredicted_instances(self):
        class _Clock:
            _value = 1
            last_changed = 0

        class _Instance:
            current = "A"
            env = {}
            transitions_fired = 0

        def shadow(pre, out):
            out[0] = None  # service-calling edge: comparison is skipped

        from repro.ir.syscompile import ShadowChecker

        checker = ShadowChecker(_Clock(), [_Instance()], ["Net0.Ctrl"],
                                shadow)
        checker.pre()
        checker.post()
        assert checker.checked_edges == 1
        assert checker.compared_steps == 0


class TestCheckpointUnderFused:
    def test_resume_matches_uninterrupted_fused_run(self):
        system = generate_system(4)
        straight = CosimSession(system.build_model(), **system.cosim_params)
        expected = straight.run(until=30_000)
        assert straight.system_tier == "fused"

        interrupted = CosimSession(system.build_model(),
                                   **system.cosim_params)
        interrupted.run(until=12_345)
        checkpoint = interrupted.save()
        resumed = CosimSession(system.build_model(),
                               **system.cosim_params).restore(checkpoint)
        actual = resumed.run(until=30_000)
        assert actual.summary() == expected.summary()


class TestBatchedExecution:
    def test_batch_digest_folds_the_sequential_digests(self):
        sequential = [CosimJob(2, coverage=True).execute()
                      for _ in range(3)]
        batch_record, batch_payload = CosimJob(2, coverage=True,
                                               batch=3).execute()
        per_scenario = [record["fingerprint_digest"]
                        for record, _ in sequential]
        assert all(digest == per_scenario[0] for digest in per_scenario)
        assert len(batch_record["scenarios"]) == 3
        assert [entry["fingerprint_digest"]
                for entry in batch_record["scenarios"]] == per_scenario
        assert batch_record["fingerprint_digest"] \
            == content_digest(per_scenario)
        # Coverage payloads are per scenario and identical to standalone.
        assert batch_payload["coverage"] \
            == [payload["coverage"] for _, payload in sequential]

    def test_faulted_batch_spreads_injection_offsets(self):
        job = CosimJob(1, fault_kind="stuck_handshake", batch=2,
                       fault_at_offset=500)
        record, _ = job.execute()
        assert len(record["scenarios"]) == 2
        assert record["functional_problems"] is None
        assert job.spec()["fault_at_offset"] == 500

    def test_checkpoint_refuses_batch(self):
        with pytest.raises(ValueError, match="single-scenario"):
            CosimJob(0, checkpoint_at=1_000, batch=2)


class TestSourceCache:
    def test_artifact_cache_round_trips_generated_source(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        model = generate_system(5).build_model()
        program = compile_system(model, cache=cache)
        key = ArtifactCache.key_for({"kind": "syscompile",
                                     "format": SOURCE_FORMAT,
                                     "digest": model_digest(model)})
        payload = cache.get(key)
        assert payload is not None
        assert payload["source"] == program.source
        # A fresh, structurally identical model compiles from the cached
        # source: same digest, same program text, no regeneration needed.
        rebuilt = generate_system(5).build_model()
        assert model_digest(rebuilt) == model_digest(model)
        warm = compile_system(rebuilt, cache=cache)
        assert warm is not program  # weak cache is per model object
        assert warm.source == program.source

    def test_program_is_weakly_cached_per_model(self):
        model = generate_system(0).build_model()
        assert compile_system(model) is compile_system(model)

    def test_code_cache_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(syscompile, "_CODE_CACHE", OrderedDict())
        cap = 3
        monkeypatch.setattr(syscompile, "CODE_CACHE_SIZE", cap)
        digests = []
        for seed in range(cap + 3):
            model = generate_system(seed).build_model()
            compile_system(model)
            digests.append(model_digest(model))
            assert len(syscompile._CODE_CACHE) <= cap
        assert len(set(digests)) == cap + 3
        assert list(syscompile._CODE_CACHE) == digests[-cap:]
        # A fresh but equal model reuses the cached code object and
        # becomes the most recently used entry.
        oldest = digests[-cap]
        code = syscompile._CODE_CACHE[oldest]
        compile_system(generate_system(cap).build_model())
        assert syscompile._CODE_CACHE[oldest] is code
        assert list(syscompile._CODE_CACHE)[-1] == oldest
        # The next distinct model evicts the least recently used entry.
        compile_system(generate_system(cap + 3).build_model())
        assert oldest in syscompile._CODE_CACHE
        assert digests[-cap + 1] not in syscompile._CODE_CACHE
        assert len(syscompile._CODE_CACHE) == cap

    def test_spec_records_protocol_templates(self):
        model = generate_system(1).build_model()
        spec = system_spec(model)
        assert spec["syscompile"] == SOURCE_FORMAT
        tags = [controller["protocol"]
                for unit in spec["units"]
                for controller in unit["controllers"]]
        source = generate_system_source(model)
        for tag in tags:
            if tag:
                assert f"protocol {tag}" in source

    def test_digest_excludes_bindings_but_not_structure(self):
        left = generate_system(6).build_model()
        right = generate_system(6).build_model()
        other = generate_system(7).build_model()
        assert model_digest(left) == model_digest(right)
        assert model_digest(left) != model_digest(other)


class TestLintPreflight:
    def _mutant_model(self):
        builder, rule = MUTANTS["dup-writer"]
        return builder()

    @pytest.mark.parametrize("system_mode", ["fused", "differential"])
    def test_lint_errors_refuse_fusion_at_session_level(self, system_mode):
        model = self._mutant_model()
        errors = lint_model(model).errors
        assert errors
        session = CosimSession(model, system_mode=system_mode).build()
        assert session.system_tier == "per-fsm"
        assert session.system_program is None
        assert session.system_fallback_reason == (
            "lint errors refuse whole-system compilation: "
            + "; ".join(error.legacy_text for error in errors)
        )

    def test_compile_system_is_codegen_only(self):
        program = compile_system(self._mutant_model())
        assert isinstance(program, SystemProgram)

    def test_session_degrades_to_per_fsm_with_reason(self):
        session = CosimSession(self._mutant_model())
        session.build()
        assert session.system_tier == "per-fsm"
        assert "lint errors" in session.system_fallback_reason
