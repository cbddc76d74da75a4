"""Command-line entry of the conformance kit.

Usage::

    python -m repro.testkit                # full tier (200+ scenarios)
    python -m repro.testkit --quick        # < 30 s smoke tier
    python -m repro.testkit --seed-base 1000
    python -m repro.testkit --replay kernel-medium-17
    python -m repro.testkit --system-mode interpreted   # or: differential
    python -m repro.testkit --kernel-scenarios tiny=5 small=2 --cosim 3 --cosyn 1
    python -m repro.testkit --emit-models 5 --networks 4   # generator only
    python -m repro.testkit --coverage --budget 24 --coverage-floor 0.9

``--coverage`` runs a coverage-directed co-simulation campaign instead of
the differential tiers: scenario configurations (plain system, fault
injection, platform-timed real-time) are drawn by novelty-weighted
mutation, deduplicated and executed against one shared
:class:`~repro.testkit.coverage.CoverageMap`, and the final scoreboard is
printed.  ``--coverage-floor`` turns the state-visit coverage into a gate
(exit 1 below the floor) for CI.

Exit status is non-zero when any scenario diverges or violates an oracle.
"""

import argparse
import json
import sys
import time

from repro.testkit.models import generate_models
from repro.testkit.oracles import CONFORMANCE_SYSTEM_MODES
from repro.testkit.runner import (
    FULL_COSIM_MODELS,
    FULL_COSYN_MODELS,
    FULL_FAULT_SEEDS,
    FULL_KERNEL_TIER,
    FULL_REALTIME_MODELS,
    QUICK_COSIM_MODELS,
    QUICK_COSYN_MODELS,
    QUICK_FAULT_SEEDS,
    QUICK_KERNEL_TIER,
    QUICK_REALTIME_MODELS,
    replay,
    run_conformance,
)


def _parse_kernel_tier(pairs):
    tier = []
    for pair in pairs:
        size, _, count = pair.partition("=")
        if not count:
            raise SystemExit(f"--kernel-scenarios expects size=count, got {pair!r}")
        tier.append((size, int(count)))
    return tuple(tier)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="randomized differential conformance kit",
    )
    parser.add_argument("--quick", action="store_true",
                        help="run the < 30 s smoke tier")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="shift every generated seed (default 0)")
    parser.add_argument("--kernel-scenarios", nargs="*", metavar="SIZE=COUNT",
                        help="override the kernel-scenario tier")
    parser.add_argument("--cosim", type=int, default=None,
                        help="number of generated systems for the cosim oracle")
    parser.add_argument("--cosyn", type=int, default=None,
                        help="number of generated systems for the cosyn oracle")
    parser.add_argument("--fault-seeds", type=int, default=None,
                        help="seeds per fault kind for the fault-injection "
                             "tier")
    parser.add_argument("--realtime", type=int, default=None,
                        help="number of back-annotated real-time scenarios")
    parser.add_argument("--coverage", action="store_true",
                        help="run a coverage-directed campaign and print the "
                             "scoreboard instead of the conformance tiers")
    parser.add_argument("--budget", type=int, default=24,
                        help="scenario budget of the --coverage campaign "
                             "(default 24)")
    parser.add_argument("--campaign-seed", type=int, default=0,
                        help="RNG seed of the --coverage campaign (default 0)")
    parser.add_argument("--coverage-floor", type=float, default=None,
                        metavar="FRACTION",
                        help="with --coverage: exit 1 when state-visit "
                             "coverage lands below this fraction")
    parser.add_argument("--uniform", action="store_true",
                        help="with --coverage: draw scenarios uniformly "
                             "instead of coverage-directed (baseline)")
    parser.add_argument("--system-mode", default=None,
                        choices=CONFORMANCE_SYSTEM_MODES,
                        help="execution tier for the cosim oracles: the "
                             "fused single-step program (the project "
                             "default), per-FSM compiled processes, the "
                             "whole-interpreted stack, or 'differential' "
                             "to cross-check all three tiers")
    parser.add_argument("--replay", metavar="NAME",
                        help="re-run one scenario by name and exit")
    parser.add_argument("--emit-models", type=int, metavar="N",
                        help="print N generated system models (one JSON line "
                             "each) without running any oracle, then exit")
    parser.add_argument("--networks", type=int, default=None,
                        help="with --emit-models: networks per generated "
                             "system (default: random 1-3)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per scenario")
    args = parser.parse_args(argv)

    if args.coverage and args.system_mode == "differential":
        parser.error("--coverage runs one session per scenario; pick one "
                     "tier, 'differential' is a conformance-tier matrix")
    if args.networks is not None and args.emit_models is None:
        parser.error("--networks only applies to --emit-models; the "
                     "conformance tiers use the generator's own 1-3 "
                     "network sizing")

    if args.emit_models is not None:
        if args.emit_models < 1:
            parser.error("--emit-models expects a positive count")
        try:
            systems = list(generate_models(args.emit_models,
                                           seed_base=args.seed_base,
                                           networks=args.networks))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for system in systems:
            model = system.build_model()
            print(json.dumps({
                "name": system.name,
                "summary": system.summary,
                "modules": len(model.modules),
                "sw_only": list(system.sw_only),
                "cosim_params": system.cosim_params,
                "topology": model.topology(),
            }, sort_keys=True))
        return 0

    if args.replay:
        problems = replay(args.replay, system_mode=args.system_mode)
        if problems:
            print("\n".join(problems))
            return 1
        print(f"{args.replay}: ok")
        return 0

    if args.coverage:
        return run_coverage_campaign(args)

    if args.quick:
        kernel_tier = QUICK_KERNEL_TIER
        cosim_models = QUICK_COSIM_MODELS
        cosyn_models = QUICK_COSYN_MODELS
        fault_seeds = QUICK_FAULT_SEEDS
        realtime_models = QUICK_REALTIME_MODELS
    else:
        kernel_tier = FULL_KERNEL_TIER
        cosim_models = FULL_COSIM_MODELS
        cosyn_models = FULL_COSYN_MODELS
        fault_seeds = FULL_FAULT_SEEDS
        realtime_models = FULL_REALTIME_MODELS
    if args.kernel_scenarios is not None:
        kernel_tier = _parse_kernel_tier(args.kernel_scenarios)
    if args.cosim is not None:
        cosim_models = args.cosim
    if args.cosyn is not None:
        cosyn_models = args.cosyn
    if args.fault_seeds is not None:
        fault_seeds = args.fault_seeds
    if args.realtime is not None:
        realtime_models = args.realtime

    progress = print if args.verbose else None
    started = time.perf_counter()
    report = run_conformance(kernel_tier=kernel_tier,
                             cosim_models=cosim_models,
                             cosyn_models=cosyn_models,
                             fault_seeds=fault_seeds,
                             realtime_models=realtime_models,
                             seed_base=args.seed_base,
                             progress=progress,
                             system_mode=args.system_mode)
    elapsed = time.perf_counter() - started
    print(report.summary())
    print(f"({elapsed:.1f} s wall clock)")
    return 0 if report.ok else 1


def run_coverage_campaign(args):
    """Execute the ``--coverage`` mode; returns the process exit status."""
    from repro.testkit.coverage import scoreboard
    from repro.testkit.generator import (
        campaign_universe,
        run_directed,
        run_uniform,
    )

    runner = run_uniform if args.uniform else run_directed
    started = time.perf_counter()
    campaign = runner(args.budget, rng_seed=args.campaign_seed,
                      system_mode=args.system_mode)
    elapsed = time.perf_counter() - started
    universe = campaign_universe()
    survivals = [report["survival"] for report in campaign["reports"]
                 if report.get("survival") is not None]
    misses = sum(report.get("deadline_misses") or 0
                 for report in campaign["reports"])
    board = scoreboard(
        campaign["coverage"], universe,
        fault_survival=(round(sum(survivals) / len(survivals), 4)
                        if survivals else None),
        deadline_misses=misses,
    )
    print(f"coverage campaign: {campaign['mode']}, "
          f"budget {campaign['budget']}, {campaign['executed']} executed "
          f"({elapsed:.1f} s wall clock)")
    for field, value in board.items():
        print(f"  {field}: {value}")
    if args.coverage_floor is not None:
        if board["state_coverage"] < args.coverage_floor:
            print(f"FAIL: state coverage {board['state_coverage']} below "
                  f"floor {args.coverage_floor}", file=sys.stderr)
            return 1
        print(f"state coverage {board['state_coverage']} >= "
              f"floor {args.coverage_floor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
