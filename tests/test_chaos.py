"""Tests for the deterministic chaos harness (``repro.chaos``).

Covers the four layers of the harness — scenario sampling, workload
adapters + invariant checkers, the delta-debugging shrinker, and the soak
runner / CLI — plus the harness's own falsifiability check: a planted bug
must be caught by an invariant and shrink to a minimal, byte-deterministic
reproducer.
"""

import json

import numpy as np
import pytest

from repro.chaos import (
    CHANNELS_BY_WORKLOAD,
    WORKLOADS,
    FaultEvent,
    ScenarioSpec,
    check_all,
    ddmin,
    registered_invariants,
    replay,
    report_json,
    run_scenario,
    sample_scenario,
    shrink_failure,
    soak,
)
from repro.chaos.runner import _SEED_STRIDE
from repro.obs import write_json
from repro.resilience import POTENTIAL_CORRUPT, TORN_WRITE

#: The soak seed the CI job pins; scenario i of a soak is
#: ``sample_scenario(seed * stride + i)`` — reusing the formula here keeps
#: the per-workload smoke tests on schedules the nightly soak also covers.
SOAK_SEED = 20260808

#: A hand-validated planted-bug schedule (md, eager, Nose-Hoover):
#: torn writes at checkpoint draws 2 and 3, corruption at force draws 14
#: and 20.  The corruption at 14 trips the watchdog; recovery then reads
#: the newest checkpoint (step 12, torn).  The hardened manager skips it;
#: the planted unverified loader crashes on it.  The failure needs exactly
#: {torn@2, corrupt@14} — what the shrinker must find.
BUG = "md.unverified_checkpoint_load"
BUG_SPEC = ScenarioSpec(
    workload="md",
    seed=5,
    events=(
        FaultEvent(TORN_WRITE, 2),
        FaultEvent(TORN_WRITE, 3),
        FaultEvent(POTENTIAL_CORRUPT, 14),
        FaultEvent(POTENTIAL_CORRUPT, 20),
    ),
    options={
        "kind": "nvt_nosehoover",
        "engine": "eager",
        "steps": 24,
        "checkpoint_every": 6,
    },
)


class TestDdmin:
    def test_finds_minimal_failing_pair(self):
        def fails(subset):
            return {2, 5} <= set(subset)

        assert ddmin(list(range(8)), fails) == [2, 5]

    def test_single_culprit(self):
        def fails(subset):
            return 3 in subset

        assert ddmin(list(range(10)), fails) == [3]

    def test_empty_when_failure_needs_nothing(self):
        assert ddmin([1, 2, 3], lambda subset: True) == []

    def test_result_always_fails(self):
        def fails(subset):
            return sum(subset) >= 7

        result = ddmin([1, 2, 3, 4, 5], fails)
        assert fails(result)

    def test_deterministic(self):
        def fails(subset):
            return {1, 4, 6} <= set(subset)

        runs = [ddmin(list(range(8)), fails) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2] == [1, 4, 6]

    def test_budget_bounded(self):
        calls = []

        def fails(subset):
            calls.append(1)
            return len(subset) >= 40

        result = ddmin(list(range(64)), fails, max_tests=10)
        assert len(calls) <= 11  # budget + the guaranteed full-set check
        assert fails(result)  # budget exhaustion still returns a failer


class TestScenarioSampling:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_same_seed_same_spec(self, seed):
        assert sample_scenario(seed).to_dict() == sample_scenario(seed).to_dict()

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_composed_and_well_formed(self, workload):
        for seed in range(20):
            spec = sample_scenario(seed, workload=workload)
            assert spec.workload == workload
            assert len(spec.channels()) >= 2, "scenarios must compose faults"
            allowed = set(CHANNELS_BY_WORKLOAD[workload])
            assert set(spec.channels()) <= allowed
            assert all(e.index >= 0 for e in spec.events)

    def test_spec_round_trips(self):
        spec = sample_scenario(99, workload="train")
        again = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert again.to_dict() == spec.to_dict()
        assert again.fault_plan().at == spec.fault_plan().at


class TestInvariantRegistry:
    def test_expected_invariants_registered(self):
        names = set(registered_invariants())
        assert {
            "md_bitwise_vs_clean",
            "train_bitwise_vs_clean",
            "force_sanity",
            "parallel_matches_reference",
            "serve_no_silent_drop",
            "serve_shed_typed",
            "serve_no_priority_inversion",
            "metrics_consistency",
            "train_no_silent_poison",
            "checkpoint_chain",
        } <= names

    def test_liveness_gates_everything(self):
        violations = check_all(
            {"workload": "md", "error": None, "timed_out": True}
        )
        assert [v.invariant for v in violations] == ["liveness"]

    def test_crash_gates_everything(self):
        violations = check_all(
            {"workload": "md", "error": "ValueError: boom", "timed_out": False}
        )
        assert [v.invariant for v in violations] == ["no_crash"]
        assert "ValueError: boom" in violations[0].message


class TestScenarioExecution:
    """One composed scenario per workload family survives all invariants.

    Seeds reuse the CI soak formula, so these are schedules the full soak
    also covers — kept to one per family to stay test-suite fast.
    """

    @pytest.mark.parametrize("i,workload", list(enumerate(WORKLOADS)))
    def test_workload_scenario_passes_and_fires(self, i, workload):
        spec = sample_scenario(SOAK_SEED * _SEED_STRIDE + i, workload=workload)
        assert spec.workload == workload
        outcome = run_scenario(spec)
        assert outcome.ok, [v.to_dict() for v in outcome.violations]
        plan = outcome.obs["plan"]
        fired = sum(plan.fired(ch) for ch in spec.channels())
        assert fired > 0, "a chaos scenario must actually inject faults"

    def test_a_workload_past_its_deadline_is_interrupted(self):
        """The parallel workload runs on this thread (its rank processes
        fork from a single-threaded process); the deadline still holds."""
        import dataclasses
        import gc
        import multiprocessing as mp
        import signal

        spec = sample_scenario(SOAK_SEED * _SEED_STRIDE + 1, workload="parallel")
        outcome = run_scenario(dataclasses.replace(spec, deadline_s=0.05))
        assert outcome.obs["timed_out"]
        assert "liveness" in [v.invariant for v in outcome.violations]
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        gc.collect()
        assert mp.active_children() == []


#: A hand-traced overload spec: 16 mixed-priority requests against a
#: 6-slot queue with QoS enforced admits 9 (evicting 3 weaker-class
#: victims), door-sheds 7, expires 1 pre-dated deadline, and drives the
#: health machine HEALTHY → DEGRADED → SHEDDING.
OVERLOAD_SPEC = ScenarioSpec(
    workload="serve",
    seed=7,
    events=(
        FaultEvent("serve.worker_crash", 1),
        FaultEvent("serve.worker_stall", 2),
    ),
    options={
        "variant": "overload",
        "n_requests": 16,
        "max_batch": 2,
        "max_queue": 6,
    },
)


def _qos_report(obs) -> dict:
    """The deterministic slice of an overload observation dict."""
    counters = obs["metrics"].get("counters", obs["metrics"])
    return {
        "qos": obs["qos"],
        "n_admitted": obs["n_admitted"],
        "health_state": obs["health_state"],
        "health_transitions": obs["health_transitions"],
        "statuses": [o[0] if o[0] == "ok" else tuple(o) for o in obs["outcomes"]],
        "shed_counters": {
            k: v for k, v in sorted(counters.items()) if "shed" in k
        },
    }


class TestOverloadScenario:
    """The 2× overload burst: 100% correct-or-explicit, zero inversions."""

    def test_overload_scenario_passes_invariants(self):
        outcome = run_scenario(OVERLOAD_SPEC)
        assert outcome.ok, [v.to_dict() for v in outcome.violations]
        obs = outcome.obs
        statuses = [r["status"] for r in obs["qos"]]
        # Overload actually bites: every outcome class is exercised.
        assert statuses.count("shed") > 0
        assert statuses.count("expired") > 0
        assert statuses.count("ok") > 0
        assert obs["health_state"] == "SHEDDING"
        assert obs["health_transitions"] == 2  # HEALTHY→DEGRADED→SHEDDING
        # Every admitted interactive request without a pre-expired
        # deadline met it (the acceptance criterion's goodput clause).
        for rec in obs["qos"]:
            if (
                rec["priority"] == "interactive"
                and rec["admitted"]
                and rec["deadline"] is None
            ):
                assert rec["status"] == "ok"

    def test_overload_report_byte_deterministic(self):
        a = run_scenario(OVERLOAD_SPEC)
        b = run_scenario(OVERLOAD_SPEC)
        assert a.ok and b.ok
        assert report_json(_qos_report(a.obs)) == report_json(_qos_report(b.obs))
        assert report_json(a.to_dict()) == report_json(b.to_dict())

    def test_sampled_overload_variant_passes(self):
        # Seed 44 is a sampled serve scenario that lands on the overload
        # variant (the soak rotation reaches these organically too).
        spec = sample_scenario(44, workload="serve")
        assert spec.options.get("variant") == "overload"
        outcome = run_scenario(spec)
        assert outcome.ok, [v.to_dict() for v in outcome.violations]

    def test_shed_leak_is_caught(self):
        # Falsifiability: a shed request that nonetheless produced a
        # result must trip serve_shed_typed.
        outcome = run_scenario(OVERLOAD_SPEC)
        obs = dict(outcome.obs)
        shed_idx = next(
            k for k, r in enumerate(obs["qos"]) if r["status"] == "shed"
        )
        outcomes = list(obs["outcomes"])
        e, f = obs["reference"][shed_idx]
        outcomes[shed_idx] = ("ok", e, np.array(f))
        obs["outcomes"] = outcomes
        violations = {v.invariant for v in check_all(obs)}
        assert "serve_shed_typed" in violations

    def test_priority_inversion_is_caught(self):
        outcome = run_scenario(OVERLOAD_SPEC)
        obs = dict(outcome.obs)
        records = [dict(r) for r in obs["qos"]]
        shed_idx = next(
            k for k, r in enumerate(records) if r["status"] == "shed"
        )
        records[shed_idx]["priority"] = "interactive"
        records[shed_idx]["pending_background_at_submit"] = 2
        obs["qos"] = records
        violations = {v.invariant for v in check_all(obs)}
        assert "serve_no_priority_inversion" in violations


class TestPlantedBug:
    """The harness's falsifiability check (ISSUE acceptance criterion)."""

    def test_schedule_passes_without_bug(self):
        outcome = run_scenario(BUG_SPEC)
        assert outcome.ok, [v.to_dict() for v in outcome.violations]

    def test_bug_caught_by_invariant(self):
        outcome = run_scenario(BUG_SPEC, bug=BUG)
        assert not outcome.ok
        assert {v.invariant for v in outcome.violations} == {"no_crash"}

    def test_shrinks_to_minimal_reproducer_deterministically(self, tmp_path):
        first = shrink_failure(BUG_SPEC, bug=BUG)
        second = shrink_failure(BUG_SPEC, bug=BUG)
        events = first["spec"]["events"]
        # <= 3 events required by the acceptance criterion; this schedule
        # is known to need exactly the torn write and the corruption that
        # forces recovery to read it.
        assert events == [["checkpoint.torn_write", 2], ["potential.corrupt", 14]]
        assert report_json(first) == report_json(second)
        assert first["violations"] and first["violations"][0]["invariant"] == (
            "no_crash"
        )
        # The artifact is byte-deterministic on disk too.
        write_json(tmp_path / "a.json", first)
        write_json(tmp_path / "b.json", second)
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_reproducer_replays_and_fix_validates(self, tmp_path):
        artifact = shrink_failure(BUG_SPEC, bug=BUG)
        path = tmp_path / "reproducer.json"
        write_json(path, artifact)
        # Replaying the artifact re-applies its recorded bug tag and
        # reproduces the violation.
        outcome = replay(path)
        assert not outcome.ok
        # "Fixing" the bug (running the real CheckpointManager) passes.
        fixed = run_scenario(ScenarioSpec.from_dict(artifact["spec"]))
        assert fixed.ok


class TestSoak:
    def test_small_soak_green_and_byte_deterministic(self):
        r1 = soak(8, seed=42)
        r2 = soak(8, seed=42)
        assert r1["summary"] == {"passed": 8, "violated": 0}
        assert r1["n_run"] == 8 and r1["n_skipped_budget"] == 0
        # Every workload family appears.
        families = {s["spec"]["workload"] for s in r1["scenarios"]}
        assert families == set(WORKLOADS)
        assert report_json(r1) == report_json(r2)

    def test_budget_skips_are_counted(self):
        report = soak(6, seed=42, budget_s=0.0)
        assert report["n_run"] + report["n_skipped_budget"] == 6
        assert report["n_skipped_budget"] >= 5

    def test_soak_with_planted_bug_emits_reproducer(self, tmp_path):
        # Seed 5's md scenario under the planted bug: run the known-bad
        # spec through the soak machinery by replaying it directly —
        # shrink_failure is exercised above; here we check the artifact
        # file plumbing end to end.
        artifact = shrink_failure(BUG_SPEC, bug=BUG, max_tests=32)
        path = tmp_path / "repro.json"
        write_json(path, artifact)
        raw = json.loads(path.read_text())
        assert raw["kind"] == "chaos-reproducer"
        assert raw["bug"] == BUG
        assert len(raw["spec"]["events"]) <= 3


class TestChaosCLI:
    def test_soak_subcommand_green(self, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "soak.json"
        code = main(
            [
                "chaos",
                "soak",
                "--n",
                "2",
                "--seed",
                "42",
                "--report",
                str(report_path),
                "--quiet",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "chaos-soak"
        assert report["summary"]["violated"] == 0

    def test_replay_subcommand_exit_codes(self, tmp_path):
        from repro.cli import main

        artifact = shrink_failure(BUG_SPEC, bug=BUG, max_tests=32)
        bad = tmp_path / "bad.json"
        write_json(bad, artifact)
        assert main(["chaos", "replay", str(bad), "--quiet"]) == 1
        good = tmp_path / "good.json"
        clean = dict(artifact)
        clean["bug"] = None
        write_json(good, clean)
        assert main(["chaos", "replay", str(good), "--quiet"]) == 0
